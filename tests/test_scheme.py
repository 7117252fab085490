import inspect
from dataclasses import replace

import numpy as np
import pytest
from coefficients import constant
from increments import draw

from nsch import checkpoint, scheme
from nsch.checkpoint import atomic_open, load_checkpoint, save_checkpoint
from nsch.constitutive import FreeEnergySpec, QuadraticWell, ZeroFunction
from nsch.diagnostics import mass
from nsch.errors import CheckpointError, GramSolveError, NonFiniteError, PositivityError, TimeStepError
from nsch.noise import WienerIncrement, geometric_noise, noise_sum, path_generator, sample_increment, silent_noise
from nsch.scheme import (
    ApproxParams,
    InitialData,
    SchemeState,
    ch_diffusion,
    ch_drift,
    collocation,
    cutoff,
    momentum_rhs,
    recover_velocity,
    smoothstep,
    step,
)
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
    multiply,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
)


def small_params(**kw):
    kw.setdefault("eps", 1e-2)
    kw.setdefault("R", 5.0)
    kw.setdefault("m", 4)
    kw.setdefault("n", 6)
    kw.setdefault("dt", 1e-4)
    kw.setdefault("noise", silent_noise())
    return ApproxParams(**kw)


def grid16():
    return TorusGrid(dim=1, modes_per_dim=16)


def rest_state(grid, params, rho0=1.0, c0=0.0):
    zero = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
    return SchemeState(t=0.0, grid=grid, rho=constant(grid, rho0), w=zero, c=constant(grid, c0))


def generic_state(grid, params, rng, rho_amp=0.1, u_amp=0.1, c_amp=0.2):
    data = InitialData(mass=grid.volume, rho_amp=rho_amp, u_amp=u_amp, c_amp=c_amp)
    return data.build(grid, params, rng)


class TestCutoff:
    def test_profile_endpoints(self):
        assert smoothstep(-1.0) == 1.0
        assert smoothstep(0.0) == 1.0
        assert smoothstep(1.0) == 0.0
        assert smoothstep(2.0) == 0.0
        assert abs(smoothstep(0.5) - 0.5) < 1e-14

    def test_below_radius_is_identity(self, rng):
        grid = grid16()
        u = random_band_limited(grid, rng, ncomp=1, band=3, amplitude=0.3)
        R = 2.0 * coeff_norm(grid, u)
        out, chi = cutoff(grid, u, R)
        assert chi == 1.0
        assert np.array_equal(out, u)

    def test_beyond_radius_plus_one_vanishes(self, rng):
        grid = grid16()
        u = random_band_limited(grid, rng, ncomp=1, band=3, amplitude=5.0)
        R = coeff_norm(grid, u) - 2.0
        assert R > 0
        out, chi = cutoff(grid, u, R)
        assert chi == 0.0
        assert coeff_norm(grid, out) == 0.0

    def test_transition_monotone(self, rng):
        grid = grid16()
        u = random_band_limited(grid, rng, ncomp=1, band=3, amplitude=1.0)
        nrm = coeff_norm(grid, u)
        chis = []
        for offset in (0.25, 0.5, 0.75):
            _, chi = cutoff(grid, u, nrm - offset)
            chis.append(chi)
        assert 0 < chis[2] < chis[1] < chis[0] < 1


class TestDensityUpdate:
    """The density half-step of ``step``: backward-Euler eps Lap rho, explicit -Div(rho [u]_R)."""

    def test_pure_decay_mode(self):
        # at rest every density mode decays by the backward-Euler factor alone
        grid = grid16()
        params = small_params()
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + 0.2 * np.cos(x))
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=rho,
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        expected = rho / (1.0 + params.eps * params.dt * grid.k_squared)
        np.testing.assert_allclose(new.rho, expected, rtol=1e-15, atol=0.0)

    def test_constant_density_solenoidal_velocity(self):
        # in 2D a divergence-free velocity transports constant density nowhere
        grid = TorusGrid(dim=2, modes_per_dim=16)
        params = small_params()
        xs, ys = grid.mesh()
        u = to_spectral(grid, np.stack([np.sin(ys), np.sin(xs)]))
        rho = constant(grid, 2.0)
        w = project(grid, multiply(grid, rho, u), params.m)
        state = SchemeState(t=0.0, grid=grid, rho=rho, w=w, c=constant(grid, 0.0))
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        assert np.max(np.abs(new.rho - rho)) < 1e-12

    def test_zero_mode_exactly_zero(self, rng):
        grid = grid16()
        params = small_params()
        state = generic_state(grid, params, rng)
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        assert new.rho[0][grid.zero_index] == state.rho[0][grid.zero_index]


class TestMomentumRhs:
    def test_rest_state_equilibrium(self):
        grid = grid16()
        params = small_params()
        state = rest_state(grid, params, rho0=1.3, c0=0.4)
        rhs = momentum_rhs(state, params)
        assert coeff_norm(grid, rhs) < 1e-12

    def test_saturated_cutoff_drops_pressure_and_capillary(self, rng):
        grid = grid16()
        params = small_params(R=0.01)
        data = InitialData(mass=grid.volume, rho_amp=0.2, u_amp=2.0, c_amp=0.5)
        state = data.build(grid, params, path_generator(1, 0, 1))
        u = collocation(state, params).u_hat
        assert coeff_norm(grid, u) > params.R + 1.0
        rhs = momentum_rhs(state, params)
        # compare against the explicitly assembled chi = 0 form: only
        # transport, artificial diffusion and viscous stress survive
        from nsch.constitutive import stress
        from nsch.spectral import div_tensor, grad_tensor, laplacian, outer

        u_r, chi = cutoff(grid, u, params.R)
        assert chi == 0.0
        momentum = multiply(grid, state.rho, u)
        transport = div_tensor(grid, project(grid, outer(grid, momentum, u_r), params.m))
        expect = (
            -transport
            + params.eps * laplacian(grid, state.w)
            + div_tensor(grid, project(grid, stress(grid, grad_tensor(grid, u), params.visc), params.m))
        )
        assert np.max(np.abs(rhs - expect)) < 1e-13

    def test_capillary_term_hand_value(self):
        # c = sin x, u = 0, rho const, H = 0 (so the pressure is constant):
        # rhs reduces to -chi Div P_m(K(grad c)) = +sin x cos x in 1D
        grid = TorusGrid(dim=1, modes_per_dim=32)
        fspec = FreeEnergySpec(mixing=ZeroFunction())
        params = small_params(m=8, fspec=fspec)
        (x,) = grid.mesh()
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.0),
            w=constant(grid, 0.0),
            c=to_spectral(grid, np.sin(x)),
        )
        rhs = momentum_rhs(state, params)
        np.testing.assert_allclose(to_physical(grid, rhs)[0], np.sin(x) * np.cos(x), atol=1e-12)

    def test_result_in_velocity_subspace(self, rng):
        grid = grid16()
        params = small_params(m=4)
        state = generic_state(grid, params, rng)
        rhs = momentum_rhs(state, params)
        assert np.array_equal(project(grid, rhs, params.m), rhs)


class TestChDrift:
    def test_linear_dispersion(self):
        # rho = 1, H = 0, fc quadratic, u = 0: mode k decays at lam k^2 + k^4
        lam = 1.0
        grid = TorusGrid(dim=1, modes_per_dim=16)
        fspec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=lam))
        params = small_params(fspec=fspec, n=8)
        (x,) = grid.mesh()
        for k in (1, 2, 3):
            state = SchemeState(
                t=0.0,
                grid=grid,
                rho=constant(grid, 1.0),
                w=constant(grid, 0.0),
                c=to_spectral(grid, np.cos(k * x)),
            )
            drift = ch_drift(state, params)
            rate = lam * k**2 + k**4
            np.testing.assert_allclose(to_physical(grid, drift)[0], -rate * np.cos(k * x), atol=1e-10)

    def test_constant_c_zero_drift(self, rng):
        # with H = 0 the chemical potential of a constant c is constant even
        # for a varying density, so the drift vanishes
        grid = grid16()
        params = small_params(fspec=FreeEnergySpec(mixing=ZeroFunction()))
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.3, c_amp=0.0)
        state = data.build(grid, params, rng)
        cc = state.c.copy()
        cc[0, 0] = 0.8
        state = SchemeState(t=0.0, grid=grid, rho=state.rho, w=state.w, c=cc)
        drift = ch_drift(state, params)
        assert coeff_norm(grid, drift) < 1e-11

    def test_drift_in_concentration_subspace(self, rng):
        grid = grid16()
        params = small_params(n=5)
        state = generic_state(grid, params, rng)
        drift = ch_drift(state, params)
        assert np.array_equal(project(grid, drift, params.n), drift)

    def test_diffusion_projected(self, rng):
        grid = grid16()
        params = small_params(n=3, noise=geometric_noise(K=20, alpha0=0.3))
        state = generic_state(grid, params, rng)
        inc = sample_increment(params.dt, path_generator(0, 0), params.noise)
        sigma = collocation(state, params).sigma
        d = ch_diffusion(grid, noise_sum(sigma, inc, params.noise), params.n)
        assert np.array_equal(project(grid, d, params.n), d)
        still = type(inc)(dt=params.dt, dbeta=np.zeros(20))
        for none in (ch_diffusion(grid, noise_sum(sigma, still, params.noise), params.n),
                     ch_diffusion(grid, None, params.n)):
            assert none.shape == d.shape and coeff_norm(grid, none) == 0.0


def recover(grid, rho, w, m, **kw):
    """recover_velocity with the density values from a transform of their own."""
    return recover_velocity(grid, rho, w, m, to_physical(grid, rho)[0], **kw)


class TestRecoverVelocity:
    def test_constant_density(self, rng):
        grid = grid16()
        r0 = 2.5
        rho = constant(grid, r0)
        v = random_band_limited(grid, rng, ncomp=1, band=4, amplitude=1.0)
        w = project(grid, multiply(grid, rho, v), 4)
        u, iters = recover(grid, rho, w, 4)
        assert np.max(np.abs(u - v)) < 1e-12

    def test_round_trip(self, rng, monkeypatch):
        # 81 unknowns, solved directly
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 81)
        grid = TorusGrid(dim=2, modes_per_dim=16)
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(grid, random_band_limited(grid, rng, band=2))[0])
        v = random_band_limited(grid, rng, ncomp=2, band=4, amplitude=1.0)
        w = project(grid, multiply(grid, rho, v), 4)
        u, iters = recover(grid, rho, w, 4)
        assert iters == 0
        residual = project(grid, multiply(grid, rho, u), 4) - w
        assert coeff_norm(grid, residual[:1]) <= 1e-14 * coeff_norm(grid, w)
        assert np.max(np.abs(u - v)) < 1e-14

    @pytest.mark.parametrize(
        "dim, modes, m",
        [(1, 32, 6), (1, 64, 24), (1, 64, 32), (2, 16, 3), (2, 16, 4), (2, 32, 8)],
        ids=["1d-13", "1d-49", "1d-65", "2d-49", "2d-81", "2d-289"],
    )
    def test_direct_solve_equals_cg(self, rng, monkeypatch, dim, modes, m):
        # the same system on both paths, on both sides of the size rule
        grid = TorusGrid(dim=dim, modes_per_dim=modes)
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(grid, random_band_limited(grid, rng, band=3))[0])
        w = project(grid, multiply(grid, rho, random_band_limited(grid, rng, ncomp=dim, band=m)), m)
        default_path, default_iters = recover(grid, rho, w, m, rtol=1e-14)
        assert (default_iters == 0) == ((2 * m + 1) ** dim <= scheme.DIRECT_GRAM_MAX_SIZE)
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 0)
        cg, cg_iters = recover(grid, rho, w, m, rtol=1e-14)
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", (2 * m + 1) ** dim)
        direct, direct_iters = recover(grid, rho, w, m, rtol=1e-14)
        assert cg_iters > 0 and direct_iters == 0
        assert coeff_norm(grid, direct - cg) <= 1e-12 * coeff_norm(grid, cg)
        assert np.array_equal(default_path, direct if default_iters == 0 else cg)

    @pytest.mark.parametrize("size_rule", [10**9, 0], ids=["direct", "cg"])
    def test_nonfinite_momentum_fails_without_iterating(self, rng, monkeypatch, fft_calls, size_rule):
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", size_rule)
        grid = grid16()
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(grid, random_band_limited(grid, rng, band=2))[0])
        w = random_band_limited(grid, rng, band=4)
        w[0, 2] = np.nan
        rho_values = to_physical(grid, rho)[0]
        before = fft_calls["n"]
        with pytest.raises(GramSolveError, match="non-finite momentum"):
            recover_velocity(grid, rho, w, 4, rho_values)
        assert fft_calls["n"] == before

    def test_failed_direct_solve_is_reported(self, rng):
        grid = grid16()
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(grid, random_band_limited(grid, rng, band=2))[0])
        w = random_band_limited(grid, rng, band=4)
        with pytest.raises(GramSolveError, match="relative residual .*min rho"):
            recover(grid, rho, w, 4, rtol=0.0)
        # density coefficients that disagree with the grid values the positivity guard saw
        for rho, message in ((constant(grid, 0.0), "Singular matrix"), (constant(grid, np.nan), "failed: .*")):
            with pytest.raises(GramSolveError, match=f"{message} .*min rho 1.000e\\+00"):
                recover_velocity(grid, rho, w, 4, np.ones(grid.pshape))

    def test_near_vacuum_guard(self, rng, monkeypatch):
        # the record checks the density before it recovers the velocity
        grid = grid16()
        rho = to_spectral(grid, np.full(grid.pshape, 1e-9))
        w = random_band_limited(grid, rng, ncomp=1, band=2, amplitude=1.0)
        state = SchemeState(t=0.5, grid=grid, rho=rho, w=w, c=constant(grid, 0.0))
        monkeypatch.setattr(scheme, "recover_velocity", None)
        with pytest.raises(PositivityError, match="at t=0.5"):
            collocation(state, small_params(m=2))


class TestStep:
    def test_step_is_a_function_of_state_params_and_increment(self):
        # the run loop draws the increments: the step draws no random numbers and reports nothing beside its
        # noise values
        assert list(inspect.signature(step).parameters) == ["state", "params", "inc"]
        assert not hasattr(scheme, "sample_increment") and not hasattr(scheme, "StepReport")

    def test_zero_increment_takes_the_silent_step(self, rng):
        grid = grid16()
        noisy = small_params(noise=geometric_noise(K=20, alpha0=0.3), dt=5e-5)
        silent = replace(noisy, noise=silent_noise())
        state = generic_state(grid, noisy, rng)
        forced, noise_values = step(state, noisy, WienerIncrement(dt=noisy.dt, dbeta=np.zeros(20)))
        assert collocation(state, noisy).sigma.any() and noise_values.shape == grid.pshape
        assert not noise_values.any()
        quiet, none = step(state, silent, sample_increment(silent.dt, path_generator(0, 0), silent.noise))
        assert none is None
        for name in ("rho", "w", "c"):
            assert np.array_equal(getattr(forced, name), getattr(quiet, name)), name

    def test_increment_over_another_dt_is_refused(self, rng):
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid16(), params, rng)
        inc = sample_increment(1e-4, path_generator(0, 0), params.noise)
        with pytest.raises(ValueError, match=r"dt = 0\.0001, the step over dt = 5e-05"):
            step(state, params, inc)

    def test_equilibrium_fixed_point(self):
        grid = grid16()
        params = small_params()
        state = rest_state(grid, params, rho0=1.2, c0=0.3)
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        assert coeff_norm(grid, new.rho - state.rho) < 1e-12
        assert coeff_norm(grid, new.c - state.c) < 1e-12
        assert coeff_norm(grid, collocation(new, params).u_hat) < 1e-12
        assert collocation(state, params).cut[1] == 1.0

    def test_semi_implicit_matches_scalar_oracle(self):
        # frozen rho = 1, u = 0, linear free energy: one step of mode k is
        # exp(-k^4 dt) (1 - lam k^2 dt), within O(dt^2) of exp(-(lam k^2 + k^4) dt)
        lam = 1.0
        grid = TorusGrid(dim=1, modes_per_dim=16)
        fspec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=lam))
        dt = 1e-3
        params = small_params(fspec=fspec, n=8, dt=dt)
        (x,) = grid.mesh()
        k = 2
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.0),
            w=constant(grid, 0.0),
            c=to_spectral(grid, np.cos(k * x)),
        )
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        got = float(new.c[0, k].real) / float(state.c[0, k].real)
        scheme_factor = np.exp(-(k**4) * dt) * (1.0 - lam * k**2 * dt)
        exact = np.exp(-(lam * k**2 + k**4) * dt)
        assert abs(got - scheme_factor) < 1e-13
        assert abs(got - exact) < 10 * (lam * k**2) ** 2 * dt**2

    def test_mass_invariant_bitwise(self, rng):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        k0 = state.rho[0, 0]
        gen = path_generator(3, 0)
        for _ in range(50):
            state, _ = step(state, params, draw(params, gen))
        assert state.rho[0, 0] == k0
        assert mass(state) == grid.volume * k0.real

    def test_subspace_closure(self, rng):
        grid = grid16()
        params = small_params(m=3, n=5, noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        gen = path_generator(4, 0)
        for _ in range(10):
            state, _ = step(state, params, draw(params, gen))
        u = collocation(state, params).u_hat
        assert np.array_equal(project(grid, u, params.m), u)
        assert np.array_equal(project(grid, state.c, params.n), state.c)
        assert np.array_equal(project(grid, state.w, params.m), state.w)

    def test_determinism(self, rng):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)

        def run():
            state = data.build(grid, params, path_generator(7, 0, 1))
            gen = path_generator(7, 0)
            for _ in range(25):
                state, _ = step(state, params, draw(params, gen))
            return state

        a, b = run(), run()
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(collocation(a, params).u_hat, collocation(b, params).u_hat)
        assert np.array_equal(a.c, b.c)

    def test_cutoff_transparency(self, rng):
        # identical trajectories for R and 2R when the cut-off never engages
        grid = grid16()
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.05, c_amp=0.1)

        def run(R):
            params = small_params(R=R, noise=geometric_noise(K=20, alpha0=0.1), dt=5e-5)
            state = data.build(grid, params, path_generator(9, 0, 1))
            gen = path_generator(9, 0)
            for _ in range(20):
                new, _ = step(state, params, draw(params, gen))
                assert collocation(state, params).cut[1] == 1.0
                state = new
            return state

        a, b = run(5.0), run(10.0)
        assert np.max(np.abs(a.rho - b.rho)) <= 1e-14
        assert np.max(np.abs(a.c - b.c)) <= 1e-14
        assert np.max(np.abs(a.w - b.w)) <= 1e-14

    def test_positivity_guard(self):
        grid = grid16()
        params = small_params()
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + 0.999999999 * np.cos(x))
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=rho,
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        with pytest.raises(PositivityError):
            # drive the minimum below the floor within a few steps
            gen = path_generator(0, 0)
            for _ in range(5):
                state, _ = step(state, params, draw(params, gen))

    def test_timestep_guard(self, rng):
        grid = grid16()
        params = small_params(dt=1.0)
        state = generic_state(grid, params, rng)
        with pytest.raises(TimeStepError):
            step(state, params, draw(params, path_generator(0, 0)))

    @pytest.mark.parametrize("field", ["rho", "c"])
    def test_nonfinite_state_is_reported_as_such(self, rng, field):
        # NaN passes every ordered comparison, so a NaN density used to slip
        # past the positivity guards and stall the Gram solve
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2))
        state = generic_state(grid, params, rng)
        coeffs = getattr(state, field).copy()
        coeffs[0, 1] = np.nan
        state = replace(state, **{field: coeffs})
        with pytest.raises(NonFiniteError, match="non-finite"):
            step(state, params, draw(params, path_generator(0, 0)))


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        gen = path_generator(11, 0)
        for _ in range(7):
            state, _ = step(state, params, draw(params, gen))
        path = tmp_path / "state.nsch"
        save_checkpoint(path, state, gen, params.m, params.n, params.noise.K)
        loaded, gen2, meta = load_checkpoint(path)
        assert meta.dim == 1 and meta.modes_per_dim == 16
        assert loaded.t == state.t
        assert np.array_equal(loaded.rho, state.rho)
        assert np.array_equal(loaded.w, state.w)
        assert np.array_equal(loaded.c, state.c)
        assert np.array_equal(collocation(loaded, params).u_hat, collocation(state, params).u_hat)
        assert gen2.bit_generator.state == gen.bit_generator.state

    def test_restart_equals_uninterrupted(self, rng, tmp_path):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)

        state = data.build(grid, params, path_generator(13, 0, 1))
        gen = path_generator(13, 0)
        mid = None
        for i in range(20):
            state, _ = step(state, params, draw(params, gen))
            if i == 9:
                save_checkpoint(tmp_path / "mid.nsch", state, gen, params.m, params.n, params.noise.K)
        full = state

        resumed, gen2, _ = load_checkpoint(tmp_path / "mid.nsch")
        for _ in range(10):
            resumed, _ = step(resumed, params, draw(params, gen2))
        assert np.array_equal(resumed.rho, full.rho)
        assert np.array_equal(resumed.w, full.w)
        assert np.array_equal(collocation(resumed, params).u_hat, collocation(full, params).u_hat)
        assert np.array_equal(resumed.c, full.c)
        assert resumed.t == full.t

    def test_load_uses_the_given_density_floor(self, tmp_path):
        # the loaded state's record checks the floor of its parameters, at the state's time
        grid = grid16()
        params = small_params(m=2)
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        assert 1e-10 < np.min(to_physical(grid, rho)) < 1e-8
        u = to_spectral(grid, 0.1 * np.sin(x))
        w = project(grid, multiply(grid, rho, u), params.m)
        state = SchemeState(t=0.25, grid=grid, rho=rho, w=w, c=constant(grid, 0.0))
        path = tmp_path / "thin.nsch"
        save_checkpoint(path, state, path_generator(0, 0), params.m, params.n, 0)
        loaded, _, _ = load_checkpoint(path)
        with pytest.raises(PositivityError, match="at t=0.25") as info:
            collocation(loaded, params)
        assert info.value.t == 0.25
        thin = replace(params, fspec=replace(params.fspec, rho_floor=1e-10))
        assert np.array_equal(loaded.w, state.w)
        assert coeff_norm(grid, collocation(loaded, thin).u_hat) > 0.0

    def test_zero_momentum_load_keeps_the_positivity_guard(self, tmp_path):
        grid = grid16()
        params = small_params(m=2)
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        state = SchemeState(
            t=0.25,
            grid=grid,
            rho=rho,
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        path = tmp_path / "thin_rest.nsch"
        save_checkpoint(path, state, path_generator(0, 0), params.m, params.n, 0)
        loaded, _, _ = load_checkpoint(path)
        with pytest.raises(PositivityError, match="at t=0.25") as info:
            collocation(loaded, params)
        assert info.value.t == 0.25
        thin = replace(params, fspec=replace(params.fspec, rho_floor=1e-10))
        assert coeff_norm(grid, collocation(loaded, thin).u_hat) == 0.0

    def test_failed_write_keeps_the_previous_file(self, rng, tmp_path, monkeypatch):
        grid = grid16()
        params = small_params()
        path = tmp_path / "chk_00000000.nsch"
        save_checkpoint(path, rest_state(grid, params), path_generator(0, 0), params.m, params.n, 0)
        before = path.read_bytes()

        blocks = []
        original = checkpoint._coeff_bytes

        def fail_on_second_block(f):
            blocks.append(f)
            if len(blocks) == 2:
                raise OSError("disk full")
            return original(f)

        # the header and the density block are written before the failure
        monkeypatch.setattr(checkpoint, "_coeff_bytes", fail_on_second_block)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, generic_state(grid, params, rng), path_generator(1, 0), params.m, params.n, 0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_atomic_open_keeps_the_previous_text(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("killed")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_corruption_detected(self, rng, tmp_path):
        grid = grid16()
        params = small_params()
        state = rest_state(grid, params)
        path = tmp_path / "bad.nsch"
        save_checkpoint(path, state, path_generator(0, 0), params.m, params.n, 0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(bytes(raw)[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 3), ("dim", 0), ("modes", 15), ("modes", 0), ("m", 0), ("m", 99), ("n", 0), ("n", 9)],
    )
    def test_corrupt_header_rejected(self, tmp_path, field, value):
        grid = grid16()
        params = small_params()
        path = tmp_path / "bad.nsch"
        save_checkpoint(path, rest_state(grid, params), path_generator(0, 0), params.m, params.n, 0)
        raw = path.read_bytes()
        head = dict(zip(["magic", "version", "dim", "modes", "m", "n", "K", "t"], checkpoint._HEADER.unpack_from(raw)))
        head[field] = value
        path.write_bytes(checkpoint._HEADER.pack(*head.values()) + raw[checkpoint._HEADER.size :])
        with pytest.raises(CheckpointError, match=f"{value}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", ["huge grid", "truncated", "trailing byte"])
    def test_file_size_must_match_the_header(self, tmp_path, change):
        # a header claiming a 2D grid of 2^31 - 2 modes per dimension once made the block read overflow
        grid = grid16()
        params = small_params()
        path = tmp_path / "bad.nsch"
        save_checkpoint(path, rest_state(grid, params), path_generator(0, 0), params.m, params.n, 0)
        raw = path.read_bytes()
        if change == "huge grid":
            head = list(checkpoint._HEADER.unpack_from(raw))
            head[2:4] = [2, 2**31 - 2]
            raw = checkpoint._HEADER.pack(*head) + raw[checkpoint._HEADER.size :]
        path.write_bytes({"huge grid": raw, "truncated": raw[:-1], "trailing byte": raw + b"\0"}[change])
        with pytest.raises(CheckpointError, match="header implies"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["t", "rho", "w", "c"])
    def test_non_finite_values_rejected(self, tmp_path, poison_checkpoint, where, value):
        # a NaN once reached the velocity recovery, or loaded silently when the momentum was zero
        grid = grid16()
        params = small_params()
        path = tmp_path / "bad.nsch"
        save_checkpoint(path, rest_state(grid, params), path_generator(0, 0), params.m, params.n, 0)
        poison_checkpoint(path, where, value)
        with pytest.raises(CheckpointError, match=f"non-finite {where}"):
            load_checkpoint(path)


class TestInitialData:
    def test_mass_exact(self, rng):
        grid = grid16()
        params = small_params()
        data = InitialData(mass=2 * np.pi, rho_amp=0.3, u_amp=0.2, c_amp=0.4)
        state = data.build(grid, params, rng)
        assert state.rho[0, 0] == 1.0
        assert mass(state) == 2 * np.pi

    def test_w_consistency(self, rng):
        grid = grid16()
        params = small_params(m=4)
        state = InitialData(mass=grid.volume, rho_amp=0.2, u_amp=0.5, c_amp=0.2).build(grid, params, rng)
        resid = project(grid, multiply(grid, state.rho, collocation(state, params).u_hat), params.m) - state.w
        assert np.max(np.abs(resid)) <= 1e-10 * max(coeff_norm(grid, state.w), 1e-30)

    def test_validation(self):
        with pytest.raises(ValueError):
            InitialData(mass=-1.0)
        with pytest.raises(ValueError):
            InitialData(mass=1.0, rho_amp=1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            small_params(alpha_exp=4.0)
        with pytest.raises(ValueError):
            small_params(eps=0.0)
