import json

import numpy as np
import pytest

from nsch.ensemble import (
    EnsembleConfig,
    martingale_test,
    run_paths,
    run_trajectory,
    sweep,
    sweep_trend_csv,
)
from nsch.errors import SchemeError
from nsch.noise import geometric_noise, silent_noise
from nsch.scheme import ApproxParams, InitialData, SchemeState
from nsch.spectral import SpectralField, TorusGrid, norm_l2


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
    def test_nonfinite_path_is_recorded_as_nonfinite(self):
        config = small_config(paths=1)
        good = config.initial_state()
        coeffs = good.c.coeffs.copy()
        coeffs[0, 1] = np.nan
        bad = SchemeState(t=good.t, rho=good.rho, w=good.w, u=good.u, c=SpectralField(config.grid, coeffs))
        result = run_trajectory(config, 0, initial_state=bad)
        assert result.failure is not None
        assert result.failure["kind"] == "nonfinite"
        assert result.failure["step"] == 0 and result.steps_done == 0


class TestRunPaths:
    def test_single_path_matches_trajectory(self):
        config = small_config(paths=1)
        report, results = run_paths(config)
        solo = run_trajectory(config, 0)
        assert results[0].rows == solo.rows
        assert report.survivor_fraction == 1.0

    def test_deterministic_collapse(self):
        config = small_config(noise=silent_noise(), paths=8)
        report, results = run_paths(config)
        base = results[0].rows
        for r in results[1:]:
            assert r.rows == base
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
        assert np.max(np.abs(a.rho.coeffs - b.rho.coeffs)) <= 1e-14
        assert np.max(np.abs(a.c.coeffs - b.c.coeffs)) <= 1e-14
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
                d += norm_l2(SpectralField(a.grid, a.coeffs - b.coeffs)) ** 2
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
