from dataclasses import replace

import numpy as np
import pytest

from nsch import checkpoint, scheme
from nsch.checkpoint import atomic_open, load_checkpoint, save_checkpoint
from nsch.constitutive import FreeEnergySpec, QuadraticWell, ZeroFunction
from nsch.errors import CheckpointError, GramSolveError, NonFiniteError, PositivityError, TimeStepError
from nsch.noise import geometric_noise, path_generator, silent_noise
from nsch.scheme import (
    ApproxParams,
    InitialData,
    SchemeState,
    ch_diffusion,
    ch_drift,
    cutoff,
    momentum_rhs,
    recover_velocity,
    smoothstep,
    step,
)
from nsch.spectral import (
    SpectralField,
    TorusGrid,
    constant,
    from_coeffs,
    integral,
    multiply,
    norm_l2,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
    zeros,
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
    rho = constant(grid, rho0)
    return SchemeState(
        t=0.0, rho=rho, w=zeros(grid, grid.dim), u=zeros(grid, grid.dim), c=constant(grid, c0)
    )


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
        R = 2.0 * norm_l2(u)
        out, chi = cutoff(u, R)
        assert chi == 1.0
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_beyond_radius_plus_one_vanishes(self, rng):
        grid = grid16()
        u = random_band_limited(grid, rng, ncomp=1, band=3, amplitude=5.0)
        R = norm_l2(u) - 2.0
        assert R > 0
        out, chi = cutoff(u, R)
        assert chi == 0.0
        assert norm_l2(out) == 0.0

    def test_transition_monotone(self, rng):
        grid = grid16()
        u = random_band_limited(grid, rng, ncomp=1, band=3, amplitude=1.0)
        nrm = norm_l2(u)
        chis = []
        for offset in (0.25, 0.5, 0.75):
            _, chi = cutoff(u, nrm - offset)
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
        state = SchemeState(t=0.0, rho=rho, w=zeros(grid, 1), u=zeros(grid, 1), c=constant(grid, 0.0))
        new, _ = step(state, params, path_generator(0, 0))
        expected = rho.coeffs / (1.0 + params.eps * params.dt * grid.k_squared)
        np.testing.assert_allclose(new.rho.coeffs, expected, rtol=1e-15, atol=0.0)

    def test_constant_density_solenoidal_velocity(self):
        # in 2D a divergence-free velocity transports constant density nowhere
        grid = TorusGrid(dim=2, modes_per_dim=16)
        params = small_params()
        xs, ys = grid.mesh()
        u = to_spectral(grid, np.stack([np.sin(ys), np.sin(xs)]))
        rho = constant(grid, 2.0)
        state = SchemeState(t=0.0, rho=rho, w=project(multiply(rho, u), params.m), u=u, c=constant(grid, 0.0))
        new, _ = step(state, params, path_generator(0, 0))
        assert np.max(np.abs(new.rho.coeffs - rho.coeffs)) < 1e-12

    def test_zero_mode_exactly_zero(self, rng):
        grid = grid16()
        params = small_params()
        state = generic_state(grid, params, rng)
        new, _ = step(state, params, path_generator(0, 0))
        assert new.rho.coeffs[0][grid.zero_index] == state.rho.coeffs[0][grid.zero_index]


class TestMomentumRhs:
    def test_rest_state_equilibrium(self):
        grid = grid16()
        params = small_params()
        state = rest_state(grid, params, rho0=1.3, c0=0.4)
        rhs = momentum_rhs(state, params)
        assert norm_l2(rhs) < 1e-12

    def test_saturated_cutoff_drops_pressure_and_capillary(self, rng):
        grid = grid16()
        params = small_params(R=0.01)
        data = InitialData(mass=grid.volume, rho_amp=0.2, u_amp=2.0, c_amp=0.5)
        state = data.build(grid, params, path_generator(1, 0, 1))
        assert norm_l2(state.u) > params.R + 1.0
        rhs = momentum_rhs(state, params)
        # compare against the explicitly assembled chi = 0 form: only
        # transport, artificial diffusion and viscous stress survive
        from nsch.constitutive import stress
        from nsch.spectral import div_tensor, grad_tensor, laplacian, outer

        u_r, chi = cutoff(state.u, params.R)
        assert chi == 0.0
        transport = div_tensor(project(outer(multiply(state.rho, state.u), u_r), params.m))
        expect = (
            -transport.coeffs
            + params.eps * laplacian(state.w).coeffs
            + div_tensor(project(stress(grad_tensor(state.u), params.visc), params.m)).coeffs
        )
        assert np.max(np.abs(rhs.coeffs - expect)) < 1e-13

    def test_capillary_term_hand_value(self):
        # c = sin x, u = 0, rho const, H = 0 (so the pressure is constant):
        # rhs reduces to -chi Div P_m(K(grad c)) = +sin x cos x in 1D
        grid = TorusGrid(dim=1, modes_per_dim=32)
        fspec = FreeEnergySpec(mixing=ZeroFunction())
        params = small_params(m=8, fspec=fspec)
        (x,) = grid.mesh()
        state = SchemeState(
            t=0.0,
            rho=constant(grid, 1.0),
            w=zeros(grid, 1),
            u=zeros(grid, 1),
            c=to_spectral(grid, np.sin(x)),
        )
        rhs = momentum_rhs(state, params)
        np.testing.assert_allclose(to_physical(rhs)[0], np.sin(x) * np.cos(x), atol=1e-12)

    def test_result_in_velocity_subspace(self, rng):
        grid = grid16()
        params = small_params(m=4)
        state = generic_state(grid, params, rng)
        rhs = momentum_rhs(state, params)
        assert np.array_equal(project(rhs, params.m).coeffs, rhs.coeffs)


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
                rho=constant(grid, 1.0),
                w=zeros(grid, 1),
                u=zeros(grid, 1),
                c=to_spectral(grid, np.cos(k * x)),
            )
            drift = ch_drift(state, params)
            rate = lam * k**2 + k**4
            np.testing.assert_allclose(to_physical(drift)[0], -rate * np.cos(k * x), atol=1e-10)

    def test_constant_c_zero_drift(self, rng):
        # with H = 0 the chemical potential of a constant c is constant even
        # for a varying density, so the drift vanishes
        grid = grid16()
        params = small_params(fspec=FreeEnergySpec(mixing=ZeroFunction()))
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.3, c_amp=0.0)
        state = data.build(grid, params, rng)
        cc = state.c.coeffs.copy()
        cc[0, 0] = 0.8
        state = SchemeState(t=0.0, rho=state.rho, w=state.w, u=state.u, c=from_coeffs(grid, cc[0]))
        drift = ch_drift(state, params)
        assert norm_l2(drift) < 1e-11

    def test_drift_in_concentration_subspace(self, rng):
        grid = grid16()
        params = small_params(n=5)
        state = generic_state(grid, params, rng)
        drift = ch_drift(state, params)
        assert np.array_equal(project(drift, params.n).coeffs, drift.coeffs)

    def test_diffusion_projected(self, rng):
        grid = grid16()
        params = small_params(n=3, noise=geometric_noise(K=20, alpha0=0.3))
        state = generic_state(grid, params, rng)
        from nsch.noise import sample_increment

        inc = sample_increment(params.dt, path_generator(0, 0), params.noise)
        d = ch_diffusion(state, inc, params)
        assert np.array_equal(project(d, params.n).coeffs, d.coeffs)
        none = ch_diffusion(state, type(inc)(dt=params.dt, dbeta=np.zeros(20)), params)
        assert norm_l2(none) == 0.0


class TestRecoverVelocity:
    def test_constant_density(self, rng):
        grid = grid16()
        r0 = 2.5
        rho = constant(grid, r0)
        v = random_band_limited(grid, rng, ncomp=1, band=4, amplitude=1.0)
        w = project(multiply(rho, v), 4)
        u, iters = recover_velocity(rho, w, 4)
        assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-12

    def test_round_trip(self, rng, monkeypatch):
        # 81 unknowns, solved directly
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 81)
        grid = TorusGrid(dim=2, modes_per_dim=16)
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(random_band_limited(grid, rng, band=2))[0])
        v = random_band_limited(grid, rng, ncomp=2, band=4, amplitude=1.0)
        w = project(multiply(rho, v), 4)
        u, iters = recover_velocity(rho, w, 4)
        assert iters == 0
        assert norm_l2(from_coeffs(grid, (project(multiply(rho, u), 4).coeffs - w.coeffs)[0])) <= 1e-14 * norm_l2(w)
        assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-14

    @pytest.mark.parametrize(
        "dim, modes, m",
        [(1, 32, 6), (1, 64, 24), (1, 64, 32), (2, 16, 3), (2, 16, 4), (2, 32, 8)],
        ids=["1d-13", "1d-49", "1d-65", "2d-49", "2d-81", "2d-289"],
    )
    def test_direct_solve_equals_cg(self, rng, monkeypatch, dim, modes, m):
        # the same system on both paths, on both sides of the size rule
        grid = TorusGrid(dim=dim, modes_per_dim=modes)
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(random_band_limited(grid, rng, band=3))[0])
        w = project(multiply(rho, random_band_limited(grid, rng, ncomp=dim, band=m)), m)
        default_path, default_iters = recover_velocity(rho, w, m, rtol=1e-14)
        assert (default_iters == 0) == ((2 * m + 1) ** dim <= scheme.DIRECT_GRAM_MAX_SIZE)
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 0)
        cg, cg_iters = recover_velocity(rho, w, m, rtol=1e-14)
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", (2 * m + 1) ** dim)
        direct, direct_iters = recover_velocity(rho, w, m, rtol=1e-14)
        assert cg_iters > 0 and direct_iters == 0
        assert norm_l2(SpectralField(grid, direct.coeffs - cg.coeffs)) <= 1e-12 * norm_l2(cg)
        assert np.array_equal(default_path.coeffs, direct.coeffs if default_iters == 0 else cg.coeffs)

    @pytest.mark.parametrize("size_rule", [10**9, 0], ids=["direct", "cg"])
    def test_nonfinite_momentum_fails_without_iterating(self, rng, monkeypatch, fft_calls, size_rule):
        monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", size_rule)
        grid = grid16()
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(random_band_limited(grid, rng, band=2))[0])
        coeffs = random_band_limited(grid, rng, band=4).coeffs.copy()
        coeffs[0, 2] = np.nan
        w, rho_values = from_coeffs(grid, coeffs[0]), to_physical(rho)[0]
        before = fft_calls["n"]
        with pytest.raises(GramSolveError, match="non-finite momentum"):
            recover_velocity(rho, w, 4, rho_values=rho_values)
        assert fft_calls["n"] == before

    def test_failed_direct_solve_is_reported(self, rng):
        grid = grid16()
        rho = to_spectral(grid, 1.0 + 0.4 * to_physical(random_band_limited(grid, rng, band=2))[0])
        w = random_band_limited(grid, rng, band=4)
        with pytest.raises(GramSolveError, match="relative residual .*min rho"):
            recover_velocity(rho, w, 4, rtol=0.0)
        # density coefficients that disagree with the grid values the positivity guard saw
        for rho, message in ((zeros(grid), "Singular matrix"), (constant(grid, np.nan), "failed: .*")):
            with pytest.raises(GramSolveError, match=f"{message} .*min rho 1.000e\\+00"):
                recover_velocity(rho, w, 4, rho_values=np.ones(grid.pshape))

    def test_near_vacuum_guard(self, rng):
        grid = grid16()
        rho = to_spectral(grid, np.full(grid.pshape, 1e-9))
        w = random_band_limited(grid, rng, ncomp=1, band=2, amplitude=1.0)
        with pytest.raises(PositivityError):
            recover_velocity(rho, w, 2)


class TestStep:
    def test_equilibrium_fixed_point(self):
        grid = grid16()
        params = small_params()
        state = rest_state(grid, params, rho0=1.2, c0=0.3)
        new, report = step(state, params, path_generator(0, 0))
        assert norm_l2(from_coeffs(grid, (new.rho.coeffs - state.rho.coeffs)[0])) < 1e-12
        assert norm_l2(from_coeffs(grid, (new.c.coeffs - state.c.coeffs)[0])) < 1e-12
        assert norm_l2(new.u) < 1e-12
        assert report.chi == 1.0

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
            rho=constant(grid, 1.0),
            w=zeros(grid, 1),
            u=zeros(grid, 1),
            c=to_spectral(grid, np.cos(k * x)),
        )
        new, _ = step(state, params, path_generator(0, 0))
        got = float(new.c.coeffs[0, k].real) / float(state.c.coeffs[0, k].real)
        scheme_factor = np.exp(-(k**4) * dt) * (1.0 - lam * k**2 * dt)
        exact = np.exp(-(lam * k**2 + k**4) * dt)
        assert abs(got - scheme_factor) < 1e-13
        assert abs(got - exact) < 10 * (lam * k**2) ** 2 * dt**2

    def test_mass_invariant_bitwise(self, rng):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        k0 = state.rho.coeffs[0, 0]
        gen = path_generator(3, 0)
        for _ in range(50):
            state, _ = step(state, params, gen)
        assert state.rho.coeffs[0, 0] == k0
        assert integral(state.rho) == grid.volume * k0.real

    def test_subspace_closure(self, rng):
        grid = grid16()
        params = small_params(m=3, n=5, noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        gen = path_generator(4, 0)
        for _ in range(10):
            state, _ = step(state, params, gen)
        assert np.array_equal(project(state.u, params.m).coeffs, state.u.coeffs)
        assert np.array_equal(project(state.c, params.n).coeffs, state.c.coeffs)
        assert np.array_equal(project(state.w, params.m).coeffs, state.w.coeffs)

    def test_determinism(self, rng):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)

        def run():
            state = data.build(grid, params, path_generator(7, 0, 1))
            gen = path_generator(7, 0)
            for _ in range(25):
                state, _ = step(state, params, gen)
            return state

        a, b = run(), run()
        assert np.array_equal(a.rho.coeffs, b.rho.coeffs)
        assert np.array_equal(a.w.coeffs, b.w.coeffs)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.c.coeffs, b.c.coeffs)

    def test_cutoff_transparency(self, rng):
        # identical trajectories for R and 2R when the cut-off never engages
        grid = grid16()
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.05, c_amp=0.1)

        def run(R):
            params = small_params(R=R, noise=geometric_noise(K=20, alpha0=0.1), dt=5e-5)
            state = data.build(grid, params, path_generator(9, 0, 1))
            gen = path_generator(9, 0)
            for _ in range(20):
                state, rep = step(state, params, gen)
                assert rep.chi == 1.0
            return state

        a, b = run(5.0), run(10.0)
        assert np.max(np.abs(a.rho.coeffs - b.rho.coeffs)) <= 1e-14
        assert np.max(np.abs(a.c.coeffs - b.c.coeffs)) <= 1e-14
        assert np.max(np.abs(a.w.coeffs - b.w.coeffs)) <= 1e-14

    def test_positivity_guard(self):
        grid = grid16()
        params = small_params()
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + 0.999999999 * np.cos(x))
        state = SchemeState(t=0.0, rho=rho, w=zeros(grid, 1), u=zeros(grid, 1), c=constant(grid, 0.0))
        with pytest.raises(PositivityError):
            # drive the minimum below the floor within a few steps
            gen = path_generator(0, 0)
            for _ in range(5):
                state, _ = step(state, params, gen)

    def test_timestep_guard(self, rng):
        grid = grid16()
        params = small_params(dt=1.0)
        state = generic_state(grid, params, rng)
        with pytest.raises(TimeStepError):
            step(state, params, path_generator(0, 0))

    @pytest.mark.parametrize("field", ["rho", "c"])
    def test_nonfinite_state_is_reported_as_such(self, rng, field):
        # NaN passes every ordered comparison, so a NaN density used to slip
        # past the positivity guards and stall the Gram solve
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2))
        state = generic_state(grid, params, rng)
        coeffs = getattr(state, field).coeffs.copy()
        coeffs[0, 1] = np.nan
        state = replace(state, **{field: from_coeffs(grid, coeffs[0])})
        with pytest.raises(NonFiniteError, match="non-finite"):
            step(state, params, path_generator(0, 0))


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        state = generic_state(grid, params, rng)
        gen = path_generator(11, 0)
        for _ in range(7):
            state, _ = step(state, params, gen)
        path = tmp_path / "state.nsch"
        save_checkpoint(path, state, gen, params.m, params.n, params.noise.K)
        loaded, gen2, meta = load_checkpoint(path)
        assert meta.dim == 1 and meta.modes_per_dim == 16
        assert loaded.t == state.t
        assert np.array_equal(loaded.rho.coeffs, state.rho.coeffs)
        assert np.array_equal(loaded.w.coeffs, state.w.coeffs)
        assert np.array_equal(loaded.c.coeffs, state.c.coeffs)
        assert np.array_equal(loaded.u.coeffs, state.u.coeffs)
        assert gen2.bit_generator.state == gen.bit_generator.state

    def test_restart_equals_uninterrupted(self, rng, tmp_path):
        grid = grid16()
        params = small_params(noise=geometric_noise(K=20, alpha0=0.2), dt=5e-5)
        data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2)

        state = data.build(grid, params, path_generator(13, 0, 1))
        gen = path_generator(13, 0)
        mid = None
        for i in range(20):
            state, _ = step(state, params, gen)
            if i == 9:
                save_checkpoint(tmp_path / "mid.nsch", state, gen, params.m, params.n, params.noise.K)
        full = state

        resumed, gen2, _ = load_checkpoint(tmp_path / "mid.nsch")
        for _ in range(10):
            resumed, _ = step(resumed, params, gen2)
        assert np.array_equal(resumed.rho.coeffs, full.rho.coeffs)
        assert np.array_equal(resumed.w.coeffs, full.w.coeffs)
        assert np.array_equal(resumed.u.coeffs, full.u.coeffs)
        assert np.array_equal(resumed.c.coeffs, full.c.coeffs)
        assert resumed.t == full.t

    def test_load_uses_the_given_density_floor(self, tmp_path):
        grid = grid16()
        params = small_params(m=2)
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        assert 1e-10 < np.min(to_physical(rho)) < 1e-8
        u = to_spectral(grid, 0.1 * np.sin(x))
        state = SchemeState(t=0.0, rho=rho, w=project(multiply(rho, u), params.m), u=u, c=constant(grid, 0.0))
        path = tmp_path / "thin.nsch"
        save_checkpoint(path, state, path_generator(0, 0), params.m, params.n, 0)
        with pytest.raises(PositivityError):
            load_checkpoint(path)
        loaded, _, _ = load_checkpoint(path, rho_floor=1e-10)
        assert np.array_equal(loaded.w.coeffs, state.w.coeffs)
        assert norm_l2(loaded.u) > 0.0

    def test_zero_momentum_load_keeps_the_positivity_guard(self, tmp_path):
        grid = grid16()
        params = small_params(m=2)
        (x,) = grid.mesh()
        rho = to_spectral(grid, 1.0 + (1.0 - 5e-9) * np.cos(x))
        state = SchemeState(t=0.0, rho=rho, w=zeros(grid, 1), u=zeros(grid, 1), c=constant(grid, 0.0))
        path = tmp_path / "thin_rest.nsch"
        save_checkpoint(path, state, path_generator(0, 0), params.m, params.n, 0)
        with pytest.raises(PositivityError):
            load_checkpoint(path)
        loaded, _, _ = load_checkpoint(path, rho_floor=1e-10)
        assert norm_l2(loaded.u) == 0.0

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
        assert state.rho.coeffs[0, 0] == 1.0
        assert integral(state.rho) == 2 * np.pi

    def test_w_consistency(self, rng):
        grid = grid16()
        params = small_params(m=4)
        state = InitialData(mass=grid.volume, rho_amp=0.2, u_amp=0.5, c_amp=0.2).build(grid, params, rng)
        resid = project(multiply(state.rho, state.u), params.m).coeffs - state.w.coeffs
        assert np.max(np.abs(resid)) <= 1e-10 * max(norm_l2(state.w), 1e-30)

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
