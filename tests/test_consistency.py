"""Cross-formulation and momentum-sector oracles."""

from pathlib import Path

import numpy as np
import pytest
from coefficients import constant

from nsch.config import parse_config
from nsch.constitutive import FreeEnergySpec, ViscositySpec, ZeroFunction
from nsch.diagnostics import concentration_momentum_residual
from nsch.noise import ConstantDiffusion, NoiseSpec, geometric_noise, path_generator, silent_noise
from nsch.scheme import ApproxParams, InitialData, SchemeState, ch_diffusion, step
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
    multiply,
    project,
    to_physical,
    to_spectral,
)


def params_1d(**kw):
    kw.setdefault("eps", 1e-2)
    kw.setdefault("R", 5.0)
    kw.setdefault("m", 4)
    kw.setdefault("n", 8)
    kw.setdefault("dt", 1e-4)
    kw.setdefault("noise", silent_noise())
    return ApproxParams(**kw)


class TestConcentrationMomentumResidual:
    def grid(self):
        return TorusGrid(dim=1, modes_per_dim=32)

    def phi_set(self, grid):
        (x,) = grid.mesh()
        return [constant(grid, 1.0), to_spectral(grid, np.cos(x)), to_spectral(grid, np.sin(2 * x))]

    def test_deterministic_first_order(self):
        # accumulated residual of the mass-weighted form halves with dt for
        # every test function
        grid = self.grid()
        data = InitialData(mass=grid.volume, rho_amp=0.15, u_amp=0.1, c_amp=0.3)
        totals = {}
        for dt in (2e-4, 1e-4):
            params = params_1d(dt=dt)
            state = data.build(grid, params, path_generator(31, 0, 1))
            gen = path_generator(31, 0)
            acc = np.zeros(len(self.phi_set(grid)))
            for _ in range(int(round(0.02 / dt))):
                new, rep = step(state, params, gen)
                for j, phi in enumerate(self.phi_set(grid)):
                    acc[j] += concentration_momentum_residual(state, new, rep.increment, params, phi)
                state = new
            totals[dt] = np.abs(acc)
        ratios = totals[2e-4] / totals[1e-4]
        assert np.all(ratios > 1.6) and np.all(ratios < 2.4)

    def test_stochastic_mean_compensated(self):
        # the stochastic transfer is subtracted at the pre-step state, so the
        # per-path total is mean zero within Monte Carlo error
        grid = self.grid()
        params = params_1d(dt=1e-5, noise=geometric_noise(K=20, alpha0=1.0, seed=33))
        data = InitialData(mass=grid.volume, rho_amp=0.05, u_amp=0.05, c_amp=0.3)
        state0 = data.build(grid, params, path_generator(33, 0, 1))
        phi = self.phi_set(grid)[1]
        paths, steps = 24, 60
        totals = np.empty(paths)
        for p in range(paths):
            state = state0
            gen = path_generator(33, p)
            acc = 0.0
            for _ in range(steps):
                new, rep = step(state, params, gen)
                acc += concentration_momentum_residual(state, new, rep.increment, params, phi)
                state = new
            totals[p] = acc
        se = np.std(totals, ddof=1) / np.sqrt(paths)
        assert abs(np.mean(totals)) < 3 * se

    def test_constant_test_function_tracks_pair_mean(self):
        # phi = 1: the identity reduces to d int(rho c) = -eps int grad rho .
        # grad c dt + int rho sigma dW, which the residual must capture
        grid = self.grid()
        params = params_1d()
        data = InitialData(mass=grid.volume, rho_amp=0.15, u_amp=0.1, c_amp=0.3)
        state = data.build(grid, params, path_generator(35, 0, 1))
        new, rep = step(state, params, path_generator(35, 0))
        phi = constant(grid, 1.0)
        r = concentration_momentum_residual(state, new, rep.increment, params, phi)
        from nsch.spectral import gradient, integral, integrate_values

        d_pair = integral(grid, multiply(grid, new.rho, new.c)) - integral(grid, multiply(grid, state.rho, state.c))
        grho = to_physical(grid, gradient(grid, state.rho))
        gc = to_physical(grid, gradient(grid, state.c))
        expect = d_pair + params.dt * params.eps * integrate_values(grid, np.sum(grho * gc, axis=0))
        assert abs(r - expect) < 1e-14
        assert abs(r) < 1e-6

    def test_rejects_vector_test_function(self):
        grid = self.grid()
        params = params_1d()
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)
        state = data.build(grid, params, path_generator(1, 0, 1))
        new, rep = step(state, params, path_generator(1, 0))
        with pytest.raises(ValueError):
            vector = np.zeros((2 if grid.dim == 2 else 3,) + grid.band_shape, dtype=complex)
            concentration_momentum_residual(state, new, rep.increment, params, vector)


class TestMomentumDecayOracles:
    def test_1d_acoustic_mode_vs_linearized_generator(self):
        # rho = 1 + small, c = 0, tiny single-mode velocity: the coupled
        # density/momentum pair follows the linearized generator
        #   d/dt [rho_k, w_k] = [[-eps k^2, -ik],
        #                        [-ik P'(1), -(eps+nu_b) k^2]] [rho_k, w_k]
        # with P = p + sqrt(eps) rho^alpha; the oracle is the exact matrix
        # exponential, independent of the stepping path
        from scipy.linalg import expm

        grid = TorusGrid(dim=1, modes_per_dim=16)
        nu_b = 0.3
        eps = 1e-2
        dt, t_final = 5e-5, 0.05
        fspec = FreeEnergySpec(a=1.0, gamma=4.0, mixing=ZeroFunction(), well=ZeroFunction())
        params = params_1d(
            eps=eps, visc=ViscositySpec(nu_shear=1.0, nu_bulk=nu_b), dt=dt, m=4, fspec=fspec
        )
        (x,) = grid.mesh()
        amp = 1e-3
        rho = constant(grid, 1.0)
        u0 = to_spectral(grid, amp * np.sin(x))
        w0 = project(grid, multiply(grid, rho, u0), params.m)
        state = SchemeState(t=0.0, grid=grid, rho=rho, w=w0, u=u0, c=constant(grid, 0.0))
        gen = path_generator(0, 0)
        for _ in range(int(round(t_final / dt))):
            state, _ = step(state, params, gen)

        k = 1
        p_prime = fspec.a * fspec.gamma * (fspec.gamma - 1.0) + np.sqrt(eps) * params.alpha_exp
        gen_matrix = np.array(
            [[-eps * k**2, -1j * k], [-1j * k * p_prime, -(eps + nu_b) * k**2]]
        )
        y0 = np.array([0.0, w0[0, k]])
        y = expm(t_final * gen_matrix) @ y0
        scale = abs(y0[1])
        assert abs(state.rho[0, k] - y[0]) / scale < 1e-3
        assert abs(state.w[0, k] - y[1]) / scale < 1e-3

    def test_2d_shear_viscous_decay(self):
        # shear mode u = (sin y, 0): S contributes nu_shear u'' and the
        # artificial diffusion eps u''
        grid = TorusGrid(dim=2, modes_per_dim=8)
        nu_s = 0.4
        eps = 1e-2
        dt, t_final = 1e-4, 0.05
        params = params_1d(eps=eps, visc=ViscositySpec(nu_shear=nu_s, nu_bulk=0.0), dt=dt, m=3, n=3)
        xs, ys = grid.mesh()
        amp = 1e-3
        rho = constant(grid, 1.0)
        u0 = to_spectral(grid, np.stack([amp * np.sin(ys), np.zeros(grid.pshape)]))
        w0 = project(grid, multiply(grid, rho, u0), params.m)
        state = SchemeState(t=0.0, grid=grid, rho=rho, w=w0, u=u0, c=constant(grid, 0.0))
        gen = path_generator(0, 0)
        for _ in range(int(round(t_final / dt))):
            state, _ = step(state, params, gen)
        got = coeff_norm(grid, state.u) / coeff_norm(grid, u0)
        expect = np.exp(-(eps + nu_s) * t_final)
        assert abs(got - expect) / expect < 1e-3


class TestStateInvariants:
    def test_w_matches_projected_momentum_along_run(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        params = params_1d(m=4, n=6, dt=5e-5, noise=geometric_noise(K=20, alpha0=0.3, seed=44))
        data = InitialData(mass=grid.volume, rho_amp=0.15, u_amp=0.2, c_amp=0.2)
        state = data.build(grid, params, path_generator(44, 0, 1))
        gen = path_generator(44, 0)
        for _ in range(30):
            state, _ = step(state, params, gen)
            resid = project(grid, multiply(grid, state.rho, state.u), params.m) - state.w
            assert np.max(np.abs(resid)) <= 1e-10 * max(coeff_norm(grid, state.w), 1e-30)

    def test_constant_diffusion_survives_projection(self):
        # K=1 with sigma = 1: the increment is the constant field alpha dbeta
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = NoiseSpec(K=1, alphas=np.array([0.7]), family=ConstantDiffusion(1.0))
        params = params_1d(n=3, noise=spec)
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)
        state = data.build(grid, params, path_generator(2, 0, 1))
        from nsch.noise import WienerIncrement

        inc = WienerIncrement(dt=params.dt, dbeta=np.array([0.83]))
        d = ch_diffusion(state, inc, params)
        vals = to_physical(grid, d)[0]
        np.testing.assert_allclose(vals, 0.7 * 0.83, atol=1e-13)


class TestDocumentation:
    def test_readme_config_example_parses(self):
        text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
        start = text.index("```ini") + len("```ini")
        end = text.index("```", start)
        parse_config(text[start:end])
