import json
import re
import warnings
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

# a 2D/32 configuration whose initial density, up to about 1.7, overflows rho^gamma
OVERFLOWING_INITIAL_STATE = """
[grid]
dim = 2
modes = 32

[scheme]
eps = 0.0015767841395302427
cfl = 1e9

[free_energy]
gamma = 1540.584589670339

[viscosity]
shear = 0.0021623138612282444

[initial]
rho_amp = 0.7263807490143512
c_amp = 0.10001009314023777

[run]
horizon = 4e-5
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
        assert again == config

    def test_equal_texts_give_equal_configs(self):
        config = parse_config(FAST_RUN)
        same = parse_config(FAST_RUN)
        assert same == config and hash(same) == hash(config)
        assert hash(same.params) == hash(config.params)
        for change in (("alpha0 = 0.2", "alpha0 = 0.3"), ("alpha0 = 0.2", "alpha0 = 0.2\nseed = 5")):
            other = parse_config(FAST_RUN.replace(*change))
            assert other != config and other.params.noise != config.params.noise

    def test_format_rejects_a_replaced_config(self):
        config = parse_config("")
        with pytest.raises(ValueError, match="parse_config"):
            format_config(replace(config, paths=3))
        assert "paths = 64\n" in format_config(config)

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

    @pytest.mark.parametrize("line", ["[scheme]\nR = inf", "[scheme]\ncfl = inf", "[initial]\nmass = inf"])
    def test_non_finite_number_exits_2_naming_the_key(self, tmp_path, capsys, line):
        # R = inf and cfl = inf once ran to exit 0, mass = inf failed step 0 as a Gram failure
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        named = line.replace("\n", " ").replace(" = inf", ": expected a finite number, got 'inf'")
        assert capsys.readouterr().err == f"configuration rejected:\n  - {named}\n"
        assert not (tmp_path / "out").exists()

    def test_initial_density_at_the_floor_writes_no_checkpoint(self, tmp_path, capsys):
        # the initial state's record checks the density floor before the first checkpoint is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN + "\n[free_energy]\nrho_floor = 0.99\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert "density positivity lost at t=0: min rho = 0.9" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.cfg"]

    @pytest.mark.parametrize("runtime_warnings", ["default", "error"])
    def test_initial_overflow_fails_as_instability_at_t0(self, tmp_path, capsys, runtime_warnings):
        # rho^gamma overflows on the initial grid: the record's overflow guard fails the run
        # before any ledger row or checkpoint, whether or not numerical warnings are errors
        cfg = tmp_path / "run.cfg"
        cfg.write_text(OVERFLOWING_INITIAL_STATE)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter(runtime_warnings, RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "runtime failure: instability: overflow encountered in power at t=0\n"
        assert sorted(p.name for p in out.iterdir()) == ["config.cfg"]

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
        assert "  - chk_00000010.nsch: header field m = 99 in the file, 3 in the replay\n" in err

    @pytest.mark.parametrize(
        "field, value, named, replayed",
        [
            (2, 3, "dim must be 1 or 2, got 3", "dim = 3 in the file, 1"),
            (3, 7, "modes_per_dim must be a positive even integer, got 7", "modes = 7 in the file, 16"),
            (3, 0, "modes_per_dim must be a positive even integer, got 0", "modes = 0 in the file, 16"),
            (4, 9, "Galerkin order m = 9 outside [1, 8]", "m = 9 in the file, 3"),
        ],
        ids=["dim-3", "modes-7", "modes-0", "m-above-kmax"],
    )
    def test_verify_lists_checkpoint_with_bad_grid_header(self, tmp_path, capsys, field, value, named, replayed):
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
        # load_checkpoint rejects the header; verify compares bytes with the replay and names the field
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"  - chk_00000010.nsch: header field {replayed} in the replay\n" in err

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
        assert "  - chk_00000010.nsch: header field dim = 2 in the file, 1 in the replay\n" in err

    @pytest.mark.parametrize(
        "where, named",
        [
            ("t", "header field t = nan in the file, 0.0010000000000000002 in the replay"),
            ("rho", "rho block differs from the replay"),
            ("w", "w block differs from the replay"),
            ("c", "c block differs from the replay"),
        ],
        ids=["t", "rho", "w", "c"],
    )
    def test_verify_lists_checkpoint_with_non_finite_values(self, tmp_path, capsys, poison_checkpoint, where, named):
        # a NaN once surfaced as a failed Gram solve or a violated inequality
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        poison_checkpoint(out / "chk_00000010.nsch", where, float("nan"))
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"verify FAILED:\n  - chk_00000010.nsch: {named}\n"
        assert f"chk_00000010.nsch: t = 0.0010000000000000002, {named}, checks skipped\n" in captured.out

    def test_verify_reports_mass_drift_on_the_checkpoint_line(self, tmp_path, capsys, monkeypatch):
        # a scheme that adds mass at step 10, the same for run and verify: the bytes agree, the audit fails
        from nsch import ensemble

        step = ensemble.step

        def leaky(state, params, inc):
            new, noise_values = step(state, params, inc)
            if new.t > 9.5e-4 and state.t < 9.5e-4:
                coeffs = new.rho.copy()
                coeffs[0, 0] *= 1.001
                new = replace(new, rho=coeffs)
            return new, noise_values

        monkeypatch.setattr(ensemble, "step", leaky)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        (line,) = [line for line in captured.out.splitlines() if line.startswith("chk_00000010.nsch:")]
        assert "mass drifted" in line and "mass ok" not in line
        for name in ("chk_00000010.nsch", "chk_00000020.nsch", "final.nsch"):
            assert f"  - {name}: mass drifted (zero mode " in captured.err
        assert "replay: 21 ledger rows and 4 checkpoints reproduced" in captured.out
        assert "chk_00000000.nsch: mass" not in captured.err

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

    def test_verify_names_the_poincare_hypothesis(self, tmp_path, capsys, monkeypatch):
        # initial data lighter than the configured mass, the same for run and verify, breaks int rho >= M
        from nsch.scheme import InitialData

        build = InitialData.build

        def lighter(self, grid, params, rng):
            state = build(self, grid, params, rng)
            return replace(state, rho=0.9 * state.rho, w=0.9 * state.w)

        monkeypatch.setattr(InitialData, "build", lighter)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "replay: 21 ledger rows and 4 checkpoints reproduced" in captured.out
        for name in ("chk_00000000.nsch", "chk_00000010.nsch", "chk_00000020.nsch", "final.nsch"):
            assert f"  - {name}: Poincare hypothesis violated: int rho = 5.65487 < M = 6.28319\n" in captured.err

    def test_verify_names_empty_ledger(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        (out / "ledger.csv").write_text("")
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        assert "unreadable ledger: empty ledger file" in capsys.readouterr().err

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
        (out / "chk_copy.nsch").write_bytes((out / "chk_00000000.nsch").read_bytes())
        capsys.readouterr()
        assert main(["verify", str(other_cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "chk_00000000.nsch: t = 0, rho block differs from the replay, checks skipped\n" in captured.out
        assert "final.nsch: t = 0.0029999999999999996, header field t = 0.0020000000000000005 in the file, " \
            "0.0029999999999999996 in the replay, checks skipped\n" in captured.out
        assert "replay: 11 ledger rows and 2 checkpoints MISMATCH" in captured.out
        problems = [p for p in captured.err.splitlines() if p.startswith("  - ")]
        assert problems[0].startswith("  - ledger row 0: kinetic = ")
        assert problems[0].endswith(" in the replay (11 rows differ)")
        assert problems[1:] == [
            "  - chk_00000000.nsch: rho block differs from the replay",
            "  - final.nsch: header field t = 0.0020000000000000005 in the file, 0.0029999999999999996 in the replay",
            "  - ledger.csv holds 21 rows, the replay 11",
            "  - chk_00000010.nsch: not written by the run",
            "  - chk_00000020.nsch: not written by the run",
            "  - chk_copy.nsch: not written by the run",
            "  - config.cfg: line 6 is 'eps = 0.01' in the file, 'eps = 0.5' in the configuration",
        ]
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
        for name in ("chk_00000000.nsch", "final.nsch"):
            assert f"  - {name}: header field modes = 32 in the file, 16 in the replay\n" in captured.err
        for name, t in (("chk_00000050.nsch", "0.00050000000000000066"),
                        ("chk_00000200.nsch", "0.0020000000000000044")):
            assert f"{name}: t = {t}, missing, checks skipped\n" in captured.out
            assert f"  - {name}: missing\n" in captured.err
        for name in ("chk_00000005.nsch", "chk_00000010.nsch"):
            assert f"  - {name}: not written by the run\n" in captured.err
        assert "  - ledger row 0: kinetic = " in captured.err
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
            (("dt = 1e-4", "dt = 1e-4\neps = 0.5"), "ledger row 0: artificial = "),
            (("[noise]", "[free_energy]\ngamma = 5\n\n[noise]"), "ledger row 0: free = "),
            (("alpha0 = 0.2", "alpha0 = 0.9"), "ledger row 1: free = "),
            (("alpha0 = 0.2", "alpha0 = 0.2\nseed = 5"), "ledger row 0: kinetic = "),
        ],
        ids=["unchanged", "eps", "gamma", "alpha0", "seed"],
    )
    def test_verify_replays_the_start_of_the_run(self, tmp_path, capsys, change, message):
        # the header cannot tell these configurations from the run's, the replay can
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
            assert code == 0 and "replay: 21 ledger rows and 4 checkpoints reproduced" in captured.out
        else:
            assert code == 4 and "replay: 21 ledger rows and 4 checkpoints MISMATCH" in captured.out
            problems = [p for p in captured.err.splitlines() if p.startswith("  - ")]
            # eps, gamma and the seed change row 0, the noise amplitude only the rows after it
            differ = 20 if message.startswith("ledger row 1") else 21
            assert problems[0].startswith(f"  - {message}")
            assert problems[0].endswith(f" in the replay ({differ} rows differ)")
            # of these changes only the seed alters the initial state, so only it changes the first checkpoint
            first = "  - chk_00000000.nsch: rho block differs from the replay"
            assert (first in problems) == (change[1].endswith("seed = 5"))
            for name in ("chk_00000010.nsch", "chk_00000020.nsch", "final.nsch"):
                assert f"  - {name}: rho block differs from the replay" in problems

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

    def test_workers_env_is_ignored(self, tmp_path, monkeypatch):
        # the worker count is set by --workers alone; a variable that once set it is no input
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN.replace("paths = 8", "paths = 2"))
        monkeypatch.setenv("NSCH_WORKERS", "abc")
        out = tmp_path / "out"
        assert main(["ensemble", str(cfg), "--out", str(out)]) in (0, 4)
        assert json.loads((out / "report.json").read_text())["paths"] == 2

    @pytest.mark.parametrize("command", [["ensemble"], ["sweep", "--param", "eps", "--values", "1e-2"]])
    def test_nonpositive_workers_flag_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main([command[0], str(cfg), "--out", str(out), "--workers", "0", *command[1:]]) == 2
        assert capsys.readouterr().err == "configuration rejected:\n  - workers must be a positive integer, got 0\n"
        assert not out.exists()

    def test_nonfinite_run_exit_code(self, tmp_path, capsys, monkeypatch):
        from nsch.scheme import InitialData, SchemeState

        build = InitialData.build

        def poisoned(self, grid, params, rng):
            state = build(self, grid, params, rng)
            coeffs = state.c.copy()
            coeffs[0, 1] = np.nan
            return SchemeState(t=state.t, grid=grid, rho=state.rho, w=state.w, c=coeffs)

        monkeypatch.setattr(InitialData, "build", poisoned)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "run failed at step 0" in err and "nonfinite" in err

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

    def test_verify_names_a_consistent_ledger_forgery(self, tmp_path, capsys):
        # dissipation_mu doubled in rows 60-119 and each residual raised to match: every row still closes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nmodes = 32\n\n[noise]\nseed = 1\n\n[run]\nhorizon = 2e-3\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        ledger = out / "ledger.csv"
        lines = ledger.read_text().splitlines()
        header = lines[0].split(",")
        mu, res = header.index("dissipation_mu"), header.index("residual")
        for i in range(61, 121):
            cells = lines[i].split(",")
            d = float(cells[mu])
            cells[mu], cells[res] = f"{2 * d:.17g}", f"{float(cells[res]) + d:.17g}"
            lines[i] = ",".join(cells)
        ledger.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith("ledger: 201 rows, ok\n")
        (problem,) = [p for p in captured.err.splitlines() if p.startswith("  - ")]
        assert problem.startswith("  - ledger row 60: dissipation_mu = ")
        assert problem.endswith(" in the replay (60 rows differ)")

    def test_verify_names_a_flipped_coefficient_bit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        raw = bytearray(snap.read_bytes())
        raw[-40 - 16 * 9 + 16] ^= 1  # lowest bit of the real part of c's coefficient 1
        snap.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "verify FAILED:\n  - chk_00000010.nsch: c block differs from the replay\n"

    def test_verify_names_a_missing_and_an_extra_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        (out / "chk_00000015.nsch").write_bytes((out / "chk_00000010.nsch").read_bytes())
        (out / "chk_00000010.nsch").unlink()
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "chk_00000010.nsch: t = 0.0010000000000000002, missing, checks skipped\n" in captured.out
        assert captured.err == (
            "verify FAILED:\n  - chk_00000010.nsch: missing\n  - chk_00000015.nsch: not written by the run\n"
        )

    def test_verify_replays_the_run_directory_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        given = capsys.readouterr().out
        assert main(["verify", "--out", str(out)]) == 0
        assert capsys.readouterr().out == given

    def test_verify_parses_one_configuration(self, tmp_path, capsys, monkeypatch):
        from nsch import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        texts = []
        monkeypatch.setattr(cli, "parse_config", lambda text, seed=None: texts.append(text) or parse_config(text, seed))
        assert main(["verify", "--out", str(out)]) == 0
        assert texts == [(out / "config.cfg").read_text()]
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        assert texts[1:] == [FAST_RUN]

    def test_verify_names_a_config_that_is_not_the_runs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        problems = [p for p in capsys.readouterr().err.splitlines() if p.startswith("  - ")]
        line = format_config(parse_config(FAST_RUN)).split("\n").index("seed = 20260809") + 1
        assert problems[-1] == (
            f"  - config.cfg: line {line} is 'seed = 5' in the file, 'seed = 20260809' in the configuration"
        )
        assert problems[0].startswith("  - ledger row 0: kinetic = ")

    def test_verify_names_a_deleted_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        (out / "config.cfg").unlink()
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "replay: 21 ledger rows and 4 checkpoints reproduced" in captured.out
        assert captured.err == "verify FAILED:\n  - config.cfg: missing\n"
        assert main(["verify", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verify: no configuration given and none at {out / 'config.cfg'}\n"

    def test_run_names_its_configuration_before_the_first_step(self, tmp_path, capsys, monkeypatch):
        # a run killed in its first step still leaves the configuration it ran
        from nsch import ensemble

        def killed(state, params, gen):
            raise KeyboardInterrupt

        monkeypatch.setattr(ensemble, "step", killed)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(cfg), "--out", str(out)])
        assert (out / "config.cfg").read_text() == format_config(parse_config(FAST_RUN))
        assert not (out / "ledger.csv").exists()

    def test_verify_reproduces_the_failure_of_a_stopped_run(self, tmp_path, capsys, monkeypatch):
        # the same failing scheme for run and verify: the run exits 3, its directory verifies clean
        from nsch import ensemble
        from nsch.errors import TimeStepError

        step = ensemble.step

        def failing(state, params, inc):
            if state.t > 4.5e-4:
                raise TimeStepError("stopped for the test")
            return step(state, params, inc)

        monkeypatch.setattr(ensemble, "step", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert not (out / "final.nsch").exists()
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ledger: 6 rows, ok"
        assert lines[-3:] == [
            "replay: failed at step 5 (t = 0.00050000000000000001): timestep: stopped for the test",
            "replay: 6 ledger rows and 1 checkpoint reproduced",
            "verify: all checks passed",
        ]

    @pytest.mark.parametrize(
        "text, applies",
        [
            (FAST_RUN, False),
            (FAST_RUN + "\n[viscosity]\nbulk = 0.5\n", True),
            ("[grid]\ndim = 2\nmodes = 8\n\n[scheme]\nm = 2\nn = 3\ndt = 1e-4\n\n"
             "[run]\nhorizon = 1e-3\nsnapshot_stride = 5\n", True),
        ],
        ids=["1d-no-bulk", "1d-bulk", "2d"],
    )
    def test_verify_runs_korn_only_on_a_viscous_stress(self, tmp_path, capsys, monkeypatch, text, applies):
        # in 1D without bulk viscosity the stress vanishes and Korn would compare 0 with 0
        from nsch import cli

        calls = []
        check = cli.korn_check
        monkeypatch.setattr(cli, "korn_check", lambda *args: calls.append(args) or check(*args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if ".nsch: t = " in line]
        assert len(lines) == 4 and len(calls) == (4 if applies else 0)
        ending = "inequality checks run" if applies else "Korn not applicable (no viscous stress), Poincare checks run"
        assert all(line.endswith(f"mass ok, {ending}") for line in lines)

    def test_verify_names_a_korn_violation(self, tmp_path, capsys, monkeypatch):
        # the audit's stress at half the shear viscosity; the scheme keeps its own, so the bytes agree
        from nsch import diagnostics

        stress = diagnostics.stress
        monkeypatch.setattr(
            diagnostics, "stress", lambda grid, g, visc: stress(grid, g, replace(visc, nu_shear=visc.nu_shear / 2))
        )
        cfg = tmp_path / "run2d.cfg"
        cfg.write_text("[grid]\ndim = 2\nmodes = 8\n\n[scheme]\nm = 2\nn = 3\ndt = 1e-4\n\n[run]\nhorizon = 5e-4\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "replay: 6 ledger rows and 2 checkpoints reproduced" in captured.out
        for name in ("chk_00000000.nsch", "final.nsch"):
            assert f"  - {name}: Korn inequality violated (margin -" in captured.err
