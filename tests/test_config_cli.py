import json
import re
from dataclasses import replace

import numpy as np
import pytest

from nsch.cli import main
from nsch.config import format_config, parse_config
from nsch.errors import ConfigError

FAST_RUN = """
[grid]
modes = 16

[scheme]
m = 3
n = 5
dt = 1e-4

[noise]
alpha0 = 0.2

[run]
horizon = 2e-3
snapshot_stride = 10
paths = 8
"""


class TestParseConfig:
    def test_defaults_fill(self):
        config = parse_config("")
        assert config.grid.dim == 1
        assert config.params.alpha_exp == 5.0
        assert config.initial.mass == pytest.approx(2 * np.pi)
        assert config.paths == 64

    def test_round_trip(self):
        config = parse_config(FAST_RUN)
        echoed = format_config(config)
        again = parse_config(echoed)
        assert format_config(again) == echoed

    def test_gamma_bound_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[free_energy]\ngamma = 2.5\n")
        assert any("gamma must exceed 3" in v for v in err.value.violations)

    def test_alpha_exp_bound_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scheme]\nalpha_exp = 4\n")
        assert any("alpha_exp must exceed 4" in v for v in err.value.violations)

    def test_all_violations_listed(self):
        bad = "[scheme]\nalpha_exp = 4\neps = -1\n\n[free_energy]\ngamma = 2\n\n[grid]\nmodes = 7\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = "\n".join(err.value.violations)
        for needle in ("alpha_exp", "eps", "gamma", "modes"):
            assert needle in text
        assert len(err.value.violations) >= 4

    def test_syntax_error_has_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[grid]\nmodes 16\n")
        assert any("line" in v.lower() for v in err.value.violations)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[grid]\nsize = 4\n\n[turbulence]\nmodel = none\n")
        text = "\n".join(err.value.violations)
        assert "unknown key" in text and "unknown section" in text

    def test_galerkin_order_vs_grid(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[grid]\nmodes = 8\n\n[scheme]\nm = 6\n")
        assert any("exceeds the grid truncation" in v for v in err.value.violations)

    def test_horizon_divisibility(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nhorizon = 2.5e-5\n")
        assert any("integral number of steps" in v for v in err.value.violations)

    def test_noise_off(self):
        config = parse_config("[noise]\nkind = off\n")
        assert config.params.noise.K == 0

    def test_floats_echoed_at_17_digits(self):
        # 17 significant digits guarantee the printed value parses back to
        # the identical double
        config = parse_config("[scheme]\ndt = 0.1\n\n[run]\nhorizon = 1.0\n")
        text = format_config(config)
        assert "dt = 0.10000000000000001\n" in text
        assert parse_config(text).params.dt == 0.1
        config2 = parse_config("[scheme]\ndt = 0.30000000000000004\n\n[run]\nhorizon = 3.0000000000000004\n")
        assert "dt = 0.30000000000000004" in format_config(config2)


class TestCli:
    def test_print_config_defaults(self, capsys):
        assert main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert "[grid]" in out and "gamma = 4" in out
        parse_config(out)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[free_energy]\ngamma = 2.5\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "gamma must exceed 3" in err

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2

    def test_run_then_verify(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "ledger.csv").exists()
        assert (out / "final.nsch").exists()
        assert (out / "chk_00000000.nsch").exists()
        assert (out / "chk_00000010.nsch").exists()
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_prints_worst_relative_residual(self, tmp_path, capsys):
        from nsch.diagnostics import ledger_from_csv

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ledger: 21 rows, ok" and lines[-1] == "verify: all checks passed"
        rows = ledger_from_csv((out / "ledger.csv").read_text())
        relative = [abs(r.residual) / max(1.0, abs(r.kinetic) + abs(r.free) + abs(r.interface)) for r in rows]
        step = int(np.argmax(relative))
        assert lines[1] == f"ledger: worst relative residual {relative[step]:.3e} at step {step}"

    def test_verify_lists_corrupt_checkpoint_header(self, tmp_path, capsys):
        from nsch.checkpoint import _HEADER

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        raw = snap.read_bytes()
        head = list(_HEADER.unpack_from(raw))
        head[4] = 99  # m beyond the 8 modes of a 16-mode grid
        snap.write_bytes(_HEADER.pack(*head) + raw[_HEADER.size :])
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "chk_00000010.nsch: unreadable" in err and "99" in err

    @pytest.mark.parametrize(
        "field, value, named",
        [
            (2, 3, "dim must be 1 or 2, got 3"),
            (3, 7, "modes_per_dim must be a positive even integer, got 7"),
            (3, 0, "modes_per_dim must be a positive even integer, got 0"),
            (4, 9, "Galerkin order m = 9 outside [1, 8]"),
        ],
        ids=["dim-3", "modes-7", "modes-0", "m-above-kmax"],
    )
    def test_verify_lists_checkpoint_with_bad_grid_header(self, tmp_path, capsys, field, value, named):
        from nsch.checkpoint import _HEADER, load_checkpoint
        from nsch.errors import CheckpointError

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        raw = snap.read_bytes()
        head = list(_HEADER.unpack_from(raw))
        head[field] = value
        snap.write_bytes(_HEADER.pack(*head) + raw[_HEADER.size :])
        with pytest.raises(CheckpointError, match=re.escape(named)):
            load_checkpoint(snap)
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "chk_00000010.nsch: unreadable" in err and named in err

    def test_verify_lists_checkpoint_whose_header_outgrows_the_file(self, tmp_path, capsys):
        from nsch.checkpoint import _HEADER

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        raw = snap.read_bytes()
        head = list(_HEADER.unpack_from(raw))
        head[2:4] = [2, 2**31 - 2]  # a 2D grid whose blocks would overflow a read
        snap.write_bytes(_HEADER.pack(*head) + raw[_HEADER.size :])
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "chk_00000010.nsch: unreadable" in err and "header implies" in err

    @pytest.mark.parametrize("where", ["t", "rho", "w", "c"])
    def test_verify_lists_checkpoint_with_non_finite_values(self, tmp_path, capsys, poison_checkpoint, where):
        # a NaN once surfaced as a failed Gram solve or a violated inequality
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        poison_checkpoint(out / "chk_00000010.nsch", where, float("nan"))
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"chk_00000010.nsch: unreadable (non-finite {where}" in err

    def test_verify_reports_mass_drift_on_the_checkpoint_line(self, tmp_path, capsys):
        from nsch.checkpoint import load_checkpoint, save_checkpoint

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        state, gen, meta = load_checkpoint(snap)
        coeffs = state.rho.copy()
        coeffs[0, 0] *= 1.001
        state = replace(state, rho=coeffs)
        save_checkpoint(snap, state, gen, meta.m, meta.n, meta.noise_modes)
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        (line,) = [line for line in captured.out.splitlines() if line.startswith("chk_00000010.nsch:")]
        assert "mass drifted" in line and "mass ok" not in line
        assert "chk_00000010.nsch: mass drifted" in captured.err

    def test_verify_detects_tampered_ledger(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        ledger = out / "ledger.csv"
        lines = ledger.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = f"{float(cells[1]) + 0.5:.17g}"
        lines[5] = ",".join(cells)
        ledger.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "step 5" in err or "step 6" in err

    def test_verify_fails_on_nan_in_ledger(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        ledger = out / "ledger.csv"
        lines = ledger.read_text().splitlines()
        cells = lines[8].split(",")
        cells[4] = cells[-1] = "nan"  # dissipation_viscous and residual of step 7
        lines[8] = ",".join(cells)
        ledger.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == [
            "ledger: 21 rows, VIOLATIONS",
            "ledger: worst relative residual nan at step 7",
        ]
        assert "step 7: dissipation_viscous not finite (nan)" in captured.err
        assert "step 7: residual not finite (nan)" in captured.err

    def test_verify_names_short_ledger_row(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        ledger = out / "ledger.csv"
        lines = ledger.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        ledger.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        assert "unreadable ledger: line 22 has 13 fields, expected 14" in capsys.readouterr().err

    def test_verify_names_empty_ledger(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        (out / "ledger.csv").write_text("")
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        assert "unreadable ledger: empty ledger file" in capsys.readouterr().err

    def test_run_collects_no_rho_c_snapshots(self, tmp_path, monkeypatch):
        from nsch import ensemble

        calls = []
        rho_c = ensemble._rho_c
        monkeypatch.setattr(ensemble, "_rho_c", lambda *args: calls.append(args) or rho_c(*args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert calls == [] and (out / "chk_00000010.nsch").exists()

    def test_sweep_collects_no_rho_c_snapshots(self, tmp_path, monkeypatch):
        from nsch import ensemble

        calls = []
        rho_c = ensemble._rho_c
        monkeypatch.setattr(ensemble, "_rho_c", lambda *args: calls.append(args) or rho_c(*args))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--param", "m", "--values", "2,3", "--workers", "1", "--out", str(out)]) == 0
        assert calls == [] and (out / "trend.csv").exists()

    def test_ensemble_collects_no_rho_c_snapshots(self, tmp_path, monkeypatch):
        from nsch import ensemble

        calls = []
        rho_c = ensemble._rho_c
        monkeypatch.setattr(ensemble, "_rho_c", lambda *args: calls.append(args) or rho_c(*args))
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["ensemble", str(cfg), "--workers", "1", "--out", str(out)]) in (0, 4)
        assert calls == [] and (out / "report.json").exists()

    def test_pool_is_no_larger_than_the_paths(self, tmp_path, monkeypatch):
        # a pool forks all its workers at the first submit; a stand-in records the size and maps serially
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 4"))
        reports = {}
        for workers in (1, 500):
            out = tmp_path / f"out{workers}"
            main(["ensemble", str(cfg), "--workers", str(workers), "--out", str(out)])
            reports[workers] = (out / "report.json").read_bytes()
        assert sizes == [4]
        assert reports[500] == reports[1]

    def test_verify_rejects_checkpoints_of_another_time_step(self, tmp_path, capsys):
        # a 1D/16 run (dt 1e-4, horizon 2e-3) audited with a config of the same grid and
        # Galerkin orders but another dt, horizon and physics
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            "[grid]\nmodes = 16\n\n[scheme]\nm = 3\nn = 5\ndt = 3e-4\neps = 0.5\n\n[free_energy]\ngamma = 5\n\n"
            "[viscosity]\nshear = 3\n\n[noise]\nalpha0 = 0.9\nseed = 5\n\n[run]\nhorizon = 3e-3\n"
        )
        # a name without a step number implies no time to check
        (out / "chk_copy.nsch").write_bytes((out / "chk_00000000.nsch").read_bytes())
        capsys.readouterr()
        assert main(["verify", str(other_cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        for name in ("chk_00000000.nsch", "chk_copy.nsch"):
            (line,) = [line for line in captured.out.splitlines() if line.startswith(f"{name}:")]
            assert line.endswith("inequality checks run")
        for name, t, configured_t, source in (
            ("chk_00000010.nsch", 10 * 1e-4, 10 * 3e-4, "step 10 x dt"),
            ("chk_00000020.nsch", 20 * 1e-4, 20 * 3e-4, "step 20 x dt"),
            ("final.nsch", 20 * 1e-4, 3e-3, "the horizon"),
        ):
            (line,) = [line for line in captured.out.splitlines() if line.startswith(f"{name}:")]
            assert "inequality checks skipped" in line
            (problem,) = [p for p in captured.err.splitlines() if p.startswith(f"  - {name}:")]
            assert problem.startswith(f"  - {name}: written under another configuration: t = ")
            stored, configured = problem.split("t = ")[1].split(" in the checkpoint, ")
            assert float(stored) == pytest.approx(t, rel=1e-12)
            assert configured.endswith(f" ({source}) in the configuration")
            assert float(configured.split(" ")[0]) == pytest.approx(configured_t, rel=1e-12)
        assert "all checks passed" not in captured.out

    def test_verify_rejects_checkpoints_of_another_configuration(self, tmp_path, capsys):
        # a noisy 1D/32 run (m = 6, n = 8, K = 20) audited with a config of other physics
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("[grid]\nmodes = 32\n\n[scheme]\ndt = 1e-4\n\n[run]\nhorizon = 1e-3\nsnapshot_stride = 5\n")
        out = tmp_path / "out"
        assert main(["run", str(run_cfg), "--out", str(out)]) == 0
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text("[grid]\nmodes = 16\n\n[scheme]\nm = 3\nn = 4\n\n[noise]\nkind = off\n")
        capsys.readouterr()
        assert main(["verify", str(other_cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        for name in ("chk_00000000.nsch", "chk_00000005.nsch", "chk_00000010.nsch", "final.nsch"):
            (line,) = [line for line in captured.out.splitlines() if line.startswith(f"{name}:")]
            assert "inequality checks skipped" in line
            for field, stored, configured in (("modes", 32, 16), ("m", 6, 3), ("n", 8, 4), ("K", 20, 0)):
                message = f"{name}: written under another configuration: {field} = {stored} in the checkpoint, "
                assert message + f"{configured} in the configuration" in captured.err
        assert "dim =" not in captured.err
        assert "all checks passed" not in captured.out

    def test_ensemble_report(self, tmp_path, capsys):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        code = main(["ensemble", str(cfg), "--out", str(out)])
        assert code in (0, 4)
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["paths"] == 8
        assert report["survivor_fraction"] == 1.0

    def test_seed_flag_parses_the_config_once(self, tmp_path, capsys, monkeypatch):
        from nsch.noise import NoiseSpec

        calls = []
        check = NoiseSpec.validate_bounds
        monkeypatch.setattr(NoiseSpec, "validate_bounds", lambda spec: calls.append(spec.seed) or check(spec))
        assert main(["print-config", "--seed", "5"]) == 0
        assert calls == [5]
        flagged = capsys.readouterr().out
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("[noise]\nseed = 5\n")
        assert main(["print-config", str(cfg)]) == 0
        assert capsys.readouterr().out == flagged

    @pytest.mark.parametrize(
        "change, message",
        [
            (None, None),
            (("dt = 1e-4", "dt = 1e-4\neps = 0.5"), "ledger row 1: "),
            (("[noise]", "[free_energy]\ngamma = 5\n\n[noise]"), "ledger row 1: "),
            (("alpha0 = 0.2", "alpha0 = 0.9"), "ledger row 1: "),
            (("alpha0 = 0.2", "alpha0 = 0.2\nseed = 5"), "chk_00000000.nsch: rho differs from the initial state"),
        ],
        ids=["unchanged", "eps", "gamma", "alpha0", "seed"],
    )
    def test_verify_replays_the_start_of_the_run(self, tmp_path, capsys, change, message):
        # the header cannot tell these configurations from the run's, the replayed start can
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(FAST_RUN if change is None else FAST_RUN.replace(*change))
        capsys.readouterr()
        code = main(["verify", str(other), "--out", str(out)])
        captured = capsys.readouterr()
        if change is None:
            assert code == 0 and "replay: initial state and ledger row 1 reproduced" in captured.out
        else:
            assert code == 4 and "replay: initial state and ledger row 1 MISMATCH" in captured.out
            (problem,) = [p for p in captured.err.splitlines() if p.startswith("  - ")]
            assert problem.startswith(f"  - {message}")

    def test_seed_flag_changes_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["run", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
        assert main(["run", str(cfg), "--out", str(out3), "--seed", "1"]) == 0
        a = (out1 / "ledger.csv").read_text()
        assert a != (out2 / "ledger.csv").read_text()
        assert a == (out3 / "ledger.csv").read_text()

    def test_sweep_writes_trend(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 2"))
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--param", "eps", "--values", "1e-2,1e-3"]) == 0
        trend = (out / "trend.csv").read_text()
        assert trend.splitlines()[0].startswith("parameter,value")
        assert len(trend.splitlines()) == 3
        cells = json.loads((out / "cells.json").read_text())
        assert [c["value"] for c in cells] == [1e-2, 1e-3]

    def test_sweep_rejects_non_integral_order(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 2"))
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--param", "m", "--values", "3,3.7"]) == 2
        assert "sweep value 3.7 of the integer parameter m is not an integer" in capsys.readouterr().err
        assert not (out / "trend.csv").exists()

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("dt", "1e-4,3e-5", "horizon 0.002 is not an integral number of steps at dt = 3e-05"),
            ("m", "4,9", "sweep value m = 9 exceeds the grid truncation 8"),
            ("n", "5,12", "sweep value n = 12 exceeds the grid truncation 8"),
            ("eps", "1e-2,-1", "eps must be positive"),
        ],
    )
    def test_sweep_validates_every_cell_before_running_any(self, tmp_path, capsys, monkeypatch, param, values, message):
        from nsch import ensemble

        def never(config):
            raise AssertionError("a sweep cell ran before every cell was validated")

        monkeypatch.setattr(ensemble, "run_paths", never)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 2"))
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out), "--param", param, "--values", values]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "trend.csv").exists()

    def test_workers_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 2"))
        monkeypatch.setenv("NSCH_WORKERS", "2")
        out = tmp_path / "out"
        assert main(["ensemble", str(cfg), "--out", str(out)]) in (0, 4)

    @pytest.mark.parametrize("command", [["ensemble"], ["sweep", "--param", "eps", "--values", "1e-2"]])
    def test_nonpositive_workers_flag_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main([command[0], str(cfg), "--out", str(out), "--workers", "0", *command[1:]]) == 2
        assert "--workers must be a positive integer, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_workers_env_rejected(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN)
        monkeypatch.setenv("NSCH_WORKERS", value)
        out = tmp_path / "out"
        assert main(["ensemble", str(cfg), "--out", str(out)]) == 2
        assert f"NSCH_WORKERS must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_run_exit_code(self, tmp_path, capsys, monkeypatch):
        from nsch.scheme import InitialData, SchemeState

        build = InitialData.build

        def poisoned(self, grid, params, rng):
            state = build(self, grid, params, rng)
            coeffs = state.c.copy()
            coeffs[0, 1] = np.nan
            return SchemeState(t=state.t, grid=grid, rho=state.rho, w=state.w, u=state.u, c=coeffs)

        monkeypatch.setattr(InitialData, "build", poisoned)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "run failed at step 0" in err and "nonfinite" in err

    def test_verify_loads_with_configured_density_floor(self, tmp_path, capsys):
        from nsch.checkpoint import save_checkpoint
        from nsch.diagnostics import initial_ledger_row, ledger_to_csv
        from nsch.noise import path_generator
        from nsch.scheme import SchemeState
        from nsch.spectral import multiply, project, to_physical, to_spectral

        cfg = tmp_path / "thin.cfg"
        cfg.write_text("[grid]\nmodes = 16\n\n[scheme]\nm = 2\nn = 5\n\n[free_energy]\nrho_floor = 1e-10\n")
        config = parse_config(cfg.read_text())
        grid, params = config.grid, config.params
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        assert 1e-10 < np.min(to_physical(grid, rho)) < 1e-8
        u = to_spectral(grid, 0.1 * np.sin(x))
        w = project(grid, multiply(grid, rho, u), params.m)
        c = np.zeros((1,) + grid.band_shape, dtype=complex)
        state = SchemeState(t=0.0, grid=grid, rho=rho, w=w, u=u, c=c)
        out = tmp_path / "out"
        out.mkdir()
        # written under this configuration: verify compares the header with it.  The state is
        # not the one the configuration starts from, so the file has no step number: verify
        # replays the start of a run only from chk_00000000.nsch
        save_checkpoint(out / "chk_thin.nsch", state, path_generator(0, 0), params.m, params.n, params.noise.K)
        (out / "ledger.csv").write_text(ledger_to_csv([initial_ledger_row(state, params)]))
        code = main(["verify", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert "unreadable" not in captured.err
        assert code == 0 and "all checks passed" in captured.out

    def test_2d_run_verify_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run2d.cfg"
        cfg.write_text(
            "[grid]\ndim = 2\nmodes = 8\n\n[scheme]\nm = 2\nn = 3\ndt = 1e-4\n\n"
            "[noise]\nalpha0 = 0.3\n\n[run]\nhorizon = 1e-3\nsnapshot_stride = 5\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        assert "all checks passed" in capsys.readouterr().out
