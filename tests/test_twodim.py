"""End-to-end behavior on the 2D torus plus trajectory-level audits."""

import numpy as np
import pytest
from increments import draw

from nsch.diagnostics import holder_estimate
from nsch.ensemble import EnsembleConfig, run_trajectory
from nsch.errors import CutoffSaturatedWarning
from nsch.noise import geometric_noise, path_generator, silent_noise
from nsch.scheme import ApproxParams, InitialData, collocation, step
from nsch.spectral import TorusGrid, project, to_spectral


def config_2d(dt=1e-4, noise=None, **kw):
    grid = TorusGrid(dim=2, modes_per_dim=16)
    params = ApproxParams(
        eps=1e-2, R=5.0, m=3, n=5, dt=dt, noise=noise or geometric_noise(K=20, alpha0=0.5, seed=42)
    )
    initial = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)
    return EnsembleConfig(grid=grid, params=params, initial=initial, **kw)


class TestTwoDimensional:
    def test_mass_and_subspaces(self):
        config = config_2d(paths=1, horizon=5e-3)
        grid, params = config.grid, config.params
        state = config.initial.build(grid, params, path_generator(42, 0, 1))
        k0 = state.rho[0, grid.kmax, 0]
        gen = path_generator(42, 0)
        for _ in range(50):
            state, _ = step(state, params, draw(params, gen))
        assert state.rho[0, grid.kmax, 0] == k0
        u = collocation(state, params).u_hat
        assert np.array_equal(project(grid, u, params.m), u)
        assert np.array_equal(project(grid, state.c, params.n), state.c)

    def test_ledger_residual_small_with_noise(self):
        config = config_2d(paths=1, horizon=5e-3)
        result = run_trajectory(config, 0)
        assert result.failure is None
        assert max(abs(r) for r in result.residuals) < 1e-3

    def test_deterministic_halving(self):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        initial = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)
        acc = {}
        for dt in (2e-4, 1e-4):
            params = ApproxParams(eps=1e-2, R=5.0, m=3, n=5, dt=dt, noise=silent_noise(seed=99))
            config = EnsembleConfig(grid=grid, params=params, initial=initial, paths=1, horizon=8e-3)
            result = run_trajectory(config, 0)
            assert result.failure is None
            acc[dt] = abs(sum(result.residuals))
        assert 1.7 < acc[2e-4] / acc[1e-4] < 2.3


class TestTrajectoryAudits:
    def test_holder_median_stable_under_stride_halving(self):
        # the ensemble median of the Holder quotient moves by under 20% when
        # the snapshot spacing halves; the (t, rho c) snapshots are taken every stride steps
        config = config_2d(paths=8, horizon=4e-3)

        def rho_c(state):
            col = collocation(state, config.params)
            return state.t, to_spectral(col.grid, col.rho * col.c)

        medians = {}
        for stride in (10, 5):
            estimates = []
            for p in range(8):
                snaps = [rho_c(config.initial_state())]

                def on_step(done, state, gen, inc, row):
                    if done % stride == 0:
                        snaps.append(rho_c(state))

                result = run_trajectory(config, p, on_step=on_step)
                assert result.failure is None
                estimates.append(holder_estimate(config.grid, snaps, omega=0.3))
            medians[stride] = float(np.median(estimates))
        assert abs(medians[10] - medians[5]) <= 0.2 * max(medians.values())

    def test_cutoff_saturation_warns(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        params = ApproxParams(eps=1e-2, R=0.5, m=3, n=5, dt=1e-5, noise=silent_noise(seed=7))
        initial = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=3.0, c_amp=0.1)
        config = EnsembleConfig(
            grid=grid, params=params, initial=initial, paths=1, horizon=2e-4
        )
        with pytest.warns(CutoffSaturatedWarning):
            result = run_trajectory(config, 0)
        assert result.chi_zero_fraction > 0.5
        assert result.chi_min == 0.0
