import json
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from increments import draw

from nsch import ensemble, errors
from nsch.config import parse_config
from nsch.diagnostics import EnergyLedger, initial_ledger_row
from nsch.ensemble import (
    EnsembleConfig,
    martingale_test,
    run_paths,
    run_trajectory,
    sweep,
    sweep_trend_csv,
)
from nsch.errors import SchemeError
from nsch.noise import geometric_noise, path_generator, silent_noise
from nsch.scheme import ApproxParams, InitialData, SchemeState
from nsch.spectral import TorusGrid, coeff_norm, project, to_physical, to_spectral


def small_config(**kw):
    grid = kw.pop("grid", TorusGrid(dim=1, modes_per_dim=16))
    noise = kw.pop("noise", geometric_noise(K=20, alpha0=0.2, seed=kw.pop("seed", 20260809)))
    params = ApproxParams(
        eps=kw.pop("eps", 1e-2),
        R=kw.pop("R", 5.0),
        m=kw.pop("m", 3),
        n=kw.pop("n", 5),
        dt=kw.pop("dt", 1e-4),
        noise=noise,
    )
    initial = kw.pop("initial", InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2))
    return EnsembleConfig(
        grid=grid,
        params=params,
        initial=initial,
        paths=kw.pop("paths", 8),
        horizon=kw.pop("horizon", 3e-3),
        **kw,
    )


class TestFailureRecords:
    def test_each_failure_class_names_its_kind(self):
        # the one list of failure kinds is the scheme's error classes
        classes = (errors.NonFiniteError, errors.PositivityError, errors.GramSolveError, errors.TimeStepError,
                   errors.InstabilityError)
        assert [cls.kind for cls in classes] == ["nonfinite", "positivity_loss", "gram_failure", "timestep",
                                                 "instability"]
        assert all(issubclass(cls, SchemeError) for cls in classes)
        assert not hasattr(ensemble, "FAILURE_KINDS")

    def test_nonfinite_path_is_recorded_as_nonfinite(self):
        config = small_config(paths=1)
        good = config.initial_state()
        coeffs = good.c.copy()
        coeffs[0, 1] = np.nan
        bad = SchemeState(t=good.t, grid=good.grid, rho=good.rho, w=good.w, c=coeffs)
        result = run_trajectory(config, 0, initial_state=bad)
        assert result.failure is not None
        assert result.failure["kind"] == "nonfinite"
        assert result.failure["step"] == 0 and result.steps_done == 0

    def test_near_vacuum_overflow_is_recorded_as_instability(self):
        # from rho = 1 + (1 - 5e-9) cos x, u = 0.1 sin x and c = 0, one step of
        # this configuration overflows cosh in the mixing profile while every
        # value stays finite (max|c| reaches 2.4e4), so only the overflow
        # check makes it a failure, and no RuntimeWarning is left behind
        config = parse_config(
            "[grid]\nmodes = 16\n\n[scheme]\nm = 2\nn = 5\n\n[free_energy]\nrho_floor = 1e-10\n\n"
            "[run]\nhorizon = 1e-5\npaths = 1\n"
        )
        grid, params = config.grid, config.params
        (x,) = grid.coords
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        w = project(grid, to_spectral(grid, to_physical(grid, rho)[0] * 0.1 * np.sin(x)), params.m)
        state = SchemeState(t=0.0, grid=grid, rho=rho, w=w, c=np.zeros_like(rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_trajectory(config, 0, initial_state=state)
        assert result.failure is not None and result.steps_done == 0
        assert result.failure["kind"] == "instability"
        assert result.failure["message"].startswith("overflow encountered in "), result.failure


class TestRunPaths:
    def test_single_path_matches_trajectory(self):
        config = small_config(paths=1)
        report, results = run_paths(config)
        solo = run_trajectory(config, 0)
        assert results[0] == solo
        assert report.survivor_fraction == 1.0

    def test_deterministic_collapse(self):
        config = small_config(noise=silent_noise(), paths=8)
        report, results = run_paths(config)
        for r in results[1:]:
            assert replace(r, path_index=0) == replace(results[0], path_index=0)
        for stat in report.statistics.values():
            for moment in stat.values():
                assert moment["se"] == 0.0

    def test_standard_error_clt_scaling(self):
        # the standard error of the energy statistic shrinks like 1/sqrt(P);
        # averaged over repeated experiments the ratio is sqrt(2) +- 15%
        ratios = []
        for seed in (1, 2, 3, 4):
            ses = {}
            for paths in (8, 16):
                config = small_config(paths=paths, seed=seed, horizon=2e-3)
                report, _ = run_paths(config)
                ses[paths] = report.statistics["sup_v15"]["beta1"]["se"]
            ratios.append(ses[8] / ses[16])
        mean_ratio = np.mean(ratios)
        assert np.sqrt(2) * 0.85 < mean_ratio < np.sqrt(2) * 1.15

    def test_reproducible_report(self):
        a, _ = run_paths(small_config())
        b, _ = run_paths(small_config())
        assert a.to_json() == b.to_json()

    def test_worker_count_invariance(self):
        base, _ = run_paths(small_config(paths=4, workers=1))
        multi, _ = run_paths(small_config(paths=4, workers=2))
        assert base.to_json() == multi.to_json()

    def test_failure_recorded_not_dropped(self):
        config = small_config(dt=0.5, horizon=1.0, paths=2)
        traj = run_trajectory(config, 0)
        assert traj.failure is not None and traj.failure["kind"] == "timestep"
        with pytest.raises(SchemeError):
            run_paths(config)

    def test_moment_statistics_present(self):
        report, _ = run_paths(small_config())
        for name in ("sup_c_l2_sq", "sup_grad_c_l2_sq", "sup_lap_c_l2_sq", "sup_v15"):
            assert set(report.statistics[name]) == {"beta1", "beta2"}
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == 1

    def test_bound_ratios_reasonable(self):
        report, _ = run_paths(small_config())
        for v in report.bound_ratios.values():
            assert v < 10.0


class TestWhatAPathKeeps:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_hold_no_ledger_rows(self, workers):
        # a pickle names the class of every object it holds
        _, results = run_paths(small_config(paths=2, horizon=1e-3, workers=workers))
        assert EnergyLedger.__name__.encode() not in pickle.dumps(results)
        for r in results:
            assert len(r.residuals) == 11 and all(type(x) is float for x in r.residuals)

    def test_on_step_fires_once_per_step_with_its_row(self):
        config = small_config(paths=1, horizon=1e-3)
        calls = []
        run_trajectory(config, 0, on_step=lambda *args: calls.append(args))
        assert [args[0] for args in calls] == list(range(1, config.steps + 1))
        assert all(len(args) == 5 and type(args[4]) is EnergyLedger for args in calls)

    def test_trajectory_draws_each_increment_from_its_path_stream(self):
        # the loop owns the Brownian path: one draw per step from stream 0 of the path, the increment on_step sees
        config = small_config(paths=3, horizon=1e-3)
        seen = []

        def keep(done, state, gen, inc, row):
            seen.append((inc, gen.bit_generator.state))

        run_trajectory(config, 2, on_step=keep)
        own = path_generator(config.params.noise.seed, 2, stream=0)
        assert len(seen) == config.steps
        for inc, position in seen:
            expected = draw(config.params, own)
            assert inc.dt == config.params.dt and np.array_equal(inc.dbeta, expected.dbeta)
            assert position == own.bit_generator.state

    def test_residuals_are_the_residual_column_of_the_rows(self):
        config = small_config(paths=8, horizon=1e-3)
        state0 = config.initial_state()
        kept, from_rows = [], []
        for p in range(config.paths):
            rows = [initial_ledger_row(state0, config.params)]
            result = run_trajectory(config, p, initial_state=state0, on_step=lambda *args: rows.append(args[4]))
            kept.append(result.residuals)
            from_rows.append([row.residual for row in rows])
        assert kept == from_rows
        assert martingale_test(kept) == martingale_test(from_rows)
        report, _ = run_paths(config)
        assert report.martingale == martingale_test(kept).as_dict()


class TestMartingale:
    def test_deterministic_channel_flagged(self):
        config = small_config(noise=silent_noise(), paths=8)
        report, results = run_paths(config)
        assert report.martingale["kind"] == "deterministic"
        assert report.martingale["passed"]

    def test_gaussian_calibration(self):
        # iid N(0,1) residuals: |z| < 3 in at least 99% of experiments
        rng = np.random.default_rng(17)
        hits = 0
        trials = 300
        for _ in range(trials):
            rows = rng.standard_normal((32, 5)) / np.sqrt(5)
            rep = martingale_test(rows)
            hits += abs(rep.value) < 3
        assert hits / trials >= 0.97

    def test_power_against_injected_bias(self):
        rng = np.random.default_rng(23)
        for paths in (16, 64):
            rows = rng.standard_normal((paths, 5)) / np.sqrt(5) + 1.0 / 5
            rep = martingale_test(rows)
            assert rep.kind == "stochastic"
            if paths >= 64:
                assert abs(rep.value) > 3

    def test_requires_eight_paths(self):
        with pytest.raises(ValueError):
            martingale_test(np.zeros((4, 3)))

    def test_full_system_z_reasonable(self):
        # quiet momentum sector plus strong concentration noise keeps the
        # deterministic O(dt) ledger bias well under the stochastic spread
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = ApproxParams(
            eps=1e-2, R=5.0, m=6, n=8, dt=1e-5, noise=geometric_noise(K=20, alpha0=1.0, seed=3)
        )
        config = EnsembleConfig(
            grid=grid,
            params=params,
            initial=InitialData(mass=grid.volume, rho_amp=0.05, u_amp=0.05, c_amp=0.3),
            paths=16,
            horizon=1e-3,
        )
        report, _ = run_paths(config)
        assert report.martingale["kind"] == "stochastic"
        assert abs(report.martingale["value"]) < 3.0


class TestSweep:
    def test_cutoff_radius_transparency(self):
        # small data: the cut-off never engages, so every cell is identical
        config = small_config(paths=2, horizon=2e-3)
        cells = sweep(config, "R", [5.0, 10.0])
        a, b = cells[0].final_state, cells[1].final_state
        assert np.max(np.abs(a.rho - b.rho)) <= 1e-14
        assert np.max(np.abs(a.c - b.c)) <= 1e-14
        assert cells[0].report.mean_final_energy == cells[1].report.mean_final_energy

    def test_galerkin_refinement_decreasing(self):
        config = small_config(
            grid=TorusGrid(dim=1, modes_per_dim=32),
            noise=silent_noise(),
            paths=1,
            m=4,
            horizon=2e-3,
            initial=InitialData(mass=2 * np.pi, rho_amp=0.1, u_amp=0.1, c_amp=0.3),
        )
        cells = sweep(config, "n", [4, 8, 16])
        diffs = []
        for prev, cur in zip(cells, cells[1:]):
            d = 0.0
            for a, b in ((prev.final_state.c, cur.final_state.c),):
                d += coeff_norm(config.grid, a - b) ** 2
            diffs.append(np.sqrt(d))
        assert diffs[1] < diffs[0]

    def test_dt_halving_residual(self):
        config = small_config(noise=silent_noise(), paths=1, horizon=4e-3)
        cells = sweep(config, "dt", [2e-4, 1e-4])
        ratio = cells[0].accumulated_residual / cells[1].accumulated_residual
        assert 1.6 < ratio < 2.4

    def test_trend_csv_shape(self):
        config = small_config(paths=2, horizon=2e-3)
        cells = sweep(config, "eps", [1e-2, 1e-3])
        text = sweep_trend_csv(cells)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("parameter,value,survivor_fraction")
        assert lines[1].split(",")[0] == "eps"

    def test_trend_compares_path_0_only(self, monkeypatch):
        # path 0 fails in the middle cell: its distance column and the next one stay blank
        from nsch import ensemble
        from nsch.errors import TimeStepError
        from nsch.noise import path_generator

        config = small_config(paths=2, horizon=1e-3)
        gen0 = path_generator(config.params.noise.seed, 0, stream=0)
        path0 = {draw(config.params, gen0).dbeta.tobytes() for _ in range(config.steps)}
        step = ensemble.step

        def failing(state, params, inc):
            if params.eps == 1e-3 and state.t > 5e-4 and inc.dbeta.tobytes() in path0:
                raise TimeStepError("path 0 stopped for the test")
            return step(state, params, inc)

        monkeypatch.setattr(ensemble, "step", failing)
        cells = sweep(config, "eps", [1e-2, 1e-3, 5e-3])
        assert [c.report.survivors for c in cells] == [2, 1, 2]
        assert cells[1].final_state is None
        for cell in (cells[0], cells[2]):
            params = replace(config.params, eps=cell.value)
            own = run_trajectory(replace(config, params=params, keep_final_state=True), 0)
            assert np.array_equal(cell.final_state.c, own.final_state.c)
        assert [line.split(",")[-1] for line in sweep_trend_csv(cells).splitlines()[1:]] == ["", "", ""]
        cells[1] = replace(cells[1], final_state=cells[0].final_state)
        assert sweep_trend_csv(cells).splitlines()[2].split(",")[-1] == "0"

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "gamma", [3.5])


class TestConfigValidation:
    def test_horizon_must_divide(self):
        with pytest.raises(ValueError):
            small_config(horizon=2.5e-4, dt=2e-4)

    def test_needs_paths(self):
        with pytest.raises(ValueError):
            small_config(paths=0)
