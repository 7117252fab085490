import json
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
        from nsch.spectral import SpectralField

        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snap = out / "chk_00000010.nsch"
        state, gen, meta = load_checkpoint(snap)
        coeffs = state.rho.coeffs.copy()
        coeffs[0, 0] *= 1.001
        state = replace(state, rho=SpectralField(state.rho.grid, coeffs))
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
        from nsch.spectral import SpectralField

        build = InitialData.build

        def poisoned(self, grid, params, rng):
            state = build(self, grid, params, rng)
            coeffs = state.c.coeffs.copy()
            coeffs[0, 1] = np.nan
            return SchemeState(t=state.t, rho=state.rho, w=state.w, u=state.u, c=SpectralField(grid, coeffs))

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
        from nsch.spectral import constant, multiply, project, to_physical, to_spectral

        cfg = tmp_path / "thin.cfg"
        cfg.write_text("[grid]\nmodes = 16\n\n[scheme]\nm = 2\nn = 5\n\n[free_energy]\nrho_floor = 1e-10\n")
        config = parse_config(cfg.read_text())
        grid, params = config.grid, config.params
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        assert 1e-10 < np.min(to_physical(rho)) < 1e-8
        u = to_spectral(grid, 0.1 * np.sin(x))
        state = SchemeState(t=0.0, rho=rho, w=project(multiply(rho, u), params.m), u=u, c=constant(grid, 0.0))
        out = tmp_path / "out"
        out.mkdir()
        save_checkpoint(out / "chk_00000000.nsch", state, path_generator(0, 0), params.m, params.n, 0)
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
