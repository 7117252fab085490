import math
from dataclasses import replace

import numpy as np
import pytest
from coefficients import constant
from increments import draw

from nsch import diagnostics
from nsch.config import parse_config
from nsch.constitutive import FreeEnergySpec, QuadraticWell, ViscositySpec, ZeroFunction
from nsch.diagnostics import (
    EnergyLedger,
    LEDGER_COLUMNS,
    audit_ledger_rows,
    energy_ledger_step,
    holder_estimate,
    initial_ledger_row,
    korn_check,
    korn_constant,
    ledger_from_csv,
    ledger_to_csv,
    mass,
    poincare_check,
    poincare_constant,
    renormalized_residual,
    total_energy,
    v15_functional,
    worst_relative_residual,
)
from nsch.errors import PositivityError
from nsch.noise import geometric_noise, path_generator, silent_noise
from nsch.scheme import ApproxParams, InitialData, SchemeState, collocation, step
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
    divergence,
    integrate_values,
    norm_sobolev,
    random_band_limited,
    to_physical,
    to_spectral,
)


def params_1d(**kw):
    kw.setdefault("eps", 1e-2)
    kw.setdefault("R", 5.0)
    kw.setdefault("m", 6)
    kw.setdefault("n", 10)
    kw.setdefault("dt", 2e-4)
    kw.setdefault("noise", silent_noise())
    return ApproxParams(**kw)


def smooth_state(grid, params, seed=20260809, rho_amp=0.15, u_amp=0.1, c_amp=0.3):
    data = InitialData(mass=grid.volume, rho_amp=rho_amp, u_amp=u_amp, c_amp=c_amp)
    return data.build(grid, params, path_generator(seed, 0, 1))


def run_ledger(grid, params, steps, seed=20260809, state=None):
    state = state or smooth_state(grid, params, seed)
    rows = [initial_ledger_row(state, params)]
    gen = path_generator(seed, 0)
    for _ in range(steps):
        new, noise_values = step(state, params, draw(params, gen))
        rows.append(energy_ledger_step(state, new, noise_values, params))
        state = new
    return rows, state


class TestTotalEnergy:
    def test_constant_state_value(self):
        # rho = M/(2 pi)^N, u = 0, c = 0: only the elastic free energy
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = FreeEnergySpec(a=1.0, gamma=4.0)
        rho_bar = 1.3
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, rho_bar),
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        expect = spec.a * rho_bar**spec.gamma * 2 * np.pi
        assert abs(total_energy(state, params_1d(fspec=spec)) - expect) < 1e-12

    def test_interface_term_increment(self):
        # adding delta sin x to c raises the energy by delta^2 pi / 2 plus the
        # free-energy change, both via the quadrature oracle
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=0.7))
        (x,) = grid.mesh()
        delta = 0.4
        base = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.0),
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        bumped = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.0),
            w=constant(grid, 0.0),
            c=to_spectral(grid, delta * np.sin(x)),
        )
        params = params_1d(fspec=spec)
        got = total_energy(bumped, params) - total_energy(base, params)
        free_change = integrate_values(grid, 0.5 * spec.well.lam * (delta * np.sin(x)) ** 2)
        expect = 0.5 * delta**2 * np.pi + free_change
        assert abs(got - expect) < 1e-12

    def test_nonnegative_for_nonnegative_f(self, rng):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=1.0))
        params = params_1d(fspec=spec)
        state = smooth_state(grid, params)
        assert total_energy(state, params) >= 0.0


class TestEnergyLedger:
    def test_equilibrium_all_zero(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        params = params_1d(m=4, n=6)
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.1),
            w=constant(grid, 0.0),
            c=constant(grid, 0.2),
        )
        new, noise_values = step(state, params, draw(params, path_generator(0, 0)))
        row = energy_ledger_step(state, new, noise_values, params)
        for name in LEDGER_COLUMNS:
            if name in ("kinetic", "free", "interface", "artificial"):
                continue
            assert abs(getattr(row, name)) < 1e-11, name

    def test_deterministic_residual_halves_with_dt(self):
        # Richardson refinement: the accumulated residual over a fixed horizon
        # is first order in dt
        grid = TorusGrid(dim=1, modes_per_dim=32)
        horizon = 0.02
        acc = {}
        for dt in (2e-4, 1e-4):
            params = params_1d(dt=dt)
            rows, _ = run_ledger(grid, params, int(round(horizon / dt)))
            acc[dt] = abs(sum(r.residual for r in rows))
        ratio = acc[2e-4] / acc[1e-4]
        assert 1.7 < ratio < 2.3

    def test_dissipations_nonnegative_along_run(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        rows, _ = run_ledger(grid, params, 50)
        for i, r in enumerate(rows):
            assert r.dissipation_viscous >= -1e-14
            assert r.dissipation_mu >= -1e-14
            assert r.dissipation_eps >= -1e-14
            assert r.dissipation_art >= -1e-14
            assert r.kinetic >= 0 and r.interface >= 0 and r.artificial >= 0


class TestMass:
    def test_constant_density(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=constant(grid, 1.0),
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        assert mass(state) == 2 * np.pi

    def test_oscillation_is_massless(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        (x,) = grid.mesh()
        state = SchemeState(
            t=0.0,
            grid=grid,
            rho=to_spectral(grid, 1.0 + 0.5 * np.cos(x)),
            w=constant(grid, 0.0),
            c=constant(grid, 0.0),
        )
        assert abs(mass(state) - 2 * np.pi) < 1e-14

    def test_exact_over_many_steps(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        params = params_1d(m=4, n=6, dt=1e-4, noise=geometric_noise(K=20, alpha0=0.2))
        state = smooth_state(grid, params)
        m0 = mass(state)
        gen = path_generator(5, 0)
        for _ in range(200):
            state, _ = step(state, params, draw(params, gen))
        assert mass(state) == m0


class TestRenormalizedResidual:
    def test_linear_b_is_mass_conservation(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d()
        state = smooth_state(grid, params)
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        r = renormalized_residual(state, new, params, lambda r: r, lambda r: np.ones_like(r))
        assert abs(r) < 1e-10

    def test_quadratic_b_first_order(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        res = {}
        for dt in (2e-4, 1e-4):
            params = params_1d(dt=dt)
            state = smooth_state(grid, params)
            gen = path_generator(0, 0)
            total = 0.0
            for _ in range(int(round(0.01 / dt))):
                new, _ = step(state, params, draw(params, gen))
                total += renormalized_residual(state, new, params, lambda r: r**2, lambda r: 2 * r)
                state = new
            res[dt] = abs(total)
        ratio = res[2e-4] / res[1e-4]
        assert 1.6 < ratio < 2.4

    def test_post_state_below_the_floor_raises_at_its_time(self):
        # the post state's record guards its density
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d()
        state = smooth_state(grid, params)
        (x,) = grid.mesh()
        post = replace(state, t=params.dt, rho=to_spectral(grid, 1.0 + 0.999999999 * np.cos(x)))
        with pytest.raises(PositivityError) as err:
            renormalized_residual(state, post, params, lambda r: r, lambda r: np.ones_like(r))
        assert err.value.t == params.dt

    def test_entropy_identity_per_step(self):
        # with b = rho log rho, the diffusion transfer identity
        # eps dt int b''(rho)|grad rho|^2 = -d int b + dt int (b - b' rho) Div u
        # holds to O(dt^2) for one step
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(dt=1e-4)
        state = smooth_state(grid, params)
        new, _ = step(state, params, draw(params, path_generator(0, 0)))
        from nsch.scheme import cutoff
        from nsch.spectral import divergence, gradient

        rv0 = to_physical(grid, state.rho)[0]
        rv1 = to_physical(grid, new.rho)[0]
        dt = params.dt
        u_r, _ = cutoff(grid, collocation(state, params).u_hat, params.R)
        div_u = to_physical(grid, divergence(grid, u_r))[0]
        grho = to_physical(grid, gradient(grid, state.rho))[0]
        lhs = params.eps * dt * integrate_values(grid, grho**2 / rv0)
        b = lambda r: r * np.log(r)
        d_b = integrate_values(grid, b(rv1) - b(rv0))
        transfer = dt * integrate_values(grid, (b(rv0) - rv0 * (np.log(rv0) + 1.0)) * div_u)
        rhs = -d_b + transfer
        assert abs(lhs - rhs) < 50 * dt**2


class TestKorn:
    def test_gradient_single_mode_2d(self):
        # pure gradient mode u = (sin x, 0): the observed ratio equals
        # nu_shear (2 - 2/N) up to quadrature roundoff
        grid = TorusGrid(dim=2, modes_per_dim=16)
        xs, _ = grid.mesh()
        u = to_spectral(grid, np.stack([np.sin(xs), np.zeros(grid.pshape)]))
        visc = ViscositySpec(nu_shear=0.9, nu_bulk=0.0)
        rep = korn_check(grid, u, visc)
        assert rep.passed and not rep.degenerate
        assert abs(rep.constant - visc.nu_shear) < 1e-12
        assert rep.margin >= -1e-12

    def test_constant_field_degenerate(self):
        grid = TorusGrid(dim=2, modes_per_dim=8)
        u = to_spectral(grid, np.stack([np.full(grid.pshape, 0.3), np.full(grid.pshape, -1.0)]))
        rep = korn_check(grid, u, ViscositySpec())
        assert rep.degenerate and rep.passed

    def test_random_fields_bounded_below(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        visc = ViscositySpec(nu_shear=1.0, nu_bulk=0.0)
        ratios = []
        for _ in range(100):
            u = random_band_limited(grid, rng, ncomp=2, band=5, amplitude=1.0)
            rep = korn_check(grid, u, visc)
            assert rep.passed
            ratios.append(rep.constant)
        assert min(ratios) > 0

    def test_half_shear_stress_fails(self, rng, monkeypatch):
        # a stress at half the shear viscosity, checked against the full viscosity's constant
        grid = TorusGrid(dim=2, modes_per_dim=16)
        visc = ViscositySpec(nu_shear=1.0, nu_bulk=0.0)
        u = random_band_limited(grid, rng, ncomp=2, band=5, amplitude=1.0)
        assert korn_check(grid, u, visc).passed
        stress = diagnostics.stress
        monkeypatch.setattr(
            diagnostics, "stress", lambda grid, g, visc: stress(grid, g, replace(visc, nu_shear=visc.nu_shear / 2))
        )
        rep = korn_check(grid, u, visc)
        assert not rep.passed and not rep.degenerate
        assert rep.margin == pytest.approx(-rep.lhs / 2, rel=1e-9)

    def test_1d_bulk_only(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        (x,) = grid.mesh()
        u = to_spectral(grid, np.sin(x))
        rep = korn_check(grid, u, ViscositySpec(nu_shear=1.0, nu_bulk=0.5))
        assert rep.passed
        assert abs(rep.constant - 0.5) < 1e-12

    def test_constant_is_the_shear_viscosity_from_2d(self):
        visc = ViscositySpec(nu_shear=0.9, nu_bulk=0.4)
        assert korn_constant(1, visc) == visc.nu_bulk
        assert korn_constant(2, visc) == visc.nu_shear
        assert korn_constant(3, visc) == visc.nu_shear

    def test_2d_margin_is_the_bulk_term(self, rng):
        # int S:grad u = nu_shear ||grad u||^2 + nu_bulk ||div u||^2 in 2D
        grid = TorusGrid(dim=2, modes_per_dim=16)
        visc = ViscositySpec(nu_shear=1.0, nu_bulk=0.5)
        u = random_band_limited(grid, rng, ncomp=2, band=5, amplitude=1.0)
        rep = korn_check(grid, u, visc)
        bulk = visc.nu_bulk * coeff_norm(grid, divergence(grid, u)) ** 2
        assert rep.passed and bulk > 0.0
        assert abs(rep.margin - bulk) <= 1e-12 * bulk


class TestPoincare:
    def test_constant_test_function(self):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        rho = constant(grid, 1.0)
        v = constant(grid, 0.7)
        rep = poincare_check(grid, rho, v, total_mass=grid.volume, gamma=4.0)
        assert rep.passed and np.isfinite(rep.constant)
        # gradient term absent: the mass term alone controls the norm
        assert rep.constant > 0

    def test_classical_first_eigenvalue(self):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        xs, _ = grid.mesh()
        rho = constant(grid, 1.0)
        v = to_spectral(grid, np.sin(xs))
        rep = poincare_check(grid, rho, v, total_mass=grid.volume, gamma=4.0)
        # zero-mean single mode: ||v||^2 / ||grad v||^2 = 1/lambda_1 = 1
        vv = to_physical(grid, v)[0]
        from nsch.spectral import gradient

        gv = to_physical(grid, gradient(grid, v))
        bare = integrate_values(grid, vv**2) / integrate_values(grid, np.sum(gv**2, axis=0))
        assert abs(bare - 1.0) < 1e-12
        assert rep.passed

    def test_concentrated_density(self):
        grid = TorusGrid(dim=1, modes_per_dim=64)
        (x,) = grid.mesh()
        bump = np.exp(6.0 * (np.cos(x) - 1.0))
        rho_vals = 1e-3 + bump / integrate_values(grid, bump)
        rho = to_spectral(grid, rho_vals)
        v = to_spectral(grid, np.exp(2.0 * (np.cos(x - np.pi) - 1.0)))
        rep = poincare_check(grid, rho, v, total_mass=1e-3 * 2 * np.pi, gamma=4.0)
        assert rep.passed and np.isfinite(rep.constant)

    def test_torus_constant(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        assert poincare_constant(grid, grid.volume, 4.0) == 1.0
        assert poincare_constant(grid, 1.0, 4.0) == 2.0 * grid.volume**1.5
        assert poincare_constant(grid, 1.0, 2.0) == 2.0 * grid.volume

    def test_constant_cut_twentyfold_fails_on_run_1d_mu(self, monkeypatch):
        # the benchmark's run-1d problem (1D/32, noise on, dt = 1e-5): ||mu||^2
        # of the initial state is 0.071 of the bound, so C/20 must fail it
        config = parse_config("[grid]\ndim = 1\nmodes = 32\n\n[scheme]\ndt = 1e-05\n\n[noise]\nseed = 1\n")
        state = config.initial_state()
        mu = collocation(state, config.params).mu
        args = (config.grid, state.rho, mu, config.initial.mass, config.params.fspec.gamma)
        rep = poincare_check(*args)
        assert rep.passed and rep.constant == 1.0
        assert 0.05 < rep.lhs / rep.rhs < 0.1
        full = diagnostics.poincare_constant
        monkeypatch.setattr(diagnostics, "poincare_constant", lambda *a: full(*a) / 20.0)
        rep = poincare_check(*args)
        assert not rep.passed and rep.margin < 0

    def test_mass_hypothesis_holds_for_the_density_of_its_mass(self):
        # |Omega| (M / |Omega|) rounds one unit in the last place below M = 57921
        grid = TorusGrid(dim=1, modes_per_dim=16)
        total_mass = 57921.0
        assert grid.volume * (total_mass / grid.volume) < total_mass - 1e-12
        rho = constant(grid, total_mass / grid.volume)
        assert poincare_check(grid, rho, constant(grid, 1.0), total_mass=total_mass, gamma=4.0).passed

    def test_hypothesis_violation(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        rho = constant(grid, 0.01)
        v = constant(grid, 1.0)
        with pytest.raises(ValueError):
            poincare_check(grid, rho, v, total_mass=10.0, gamma=4.0)
        with pytest.raises(ValueError):
            poincare_check(grid, rho, v, total_mass=0.01, gamma=0.5)


class TestHolder:
    def test_constant_trajectory(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        f = constant(grid, 1.0)
        snaps = [(0.0, f), (0.5, f), (1.0, f)]
        assert holder_estimate(grid, snaps, omega=0.3) == 0.0

    def test_linear_in_time_closed_form(self):
        # rho c = (1 + t) sin x: the quotient is |dt|^(1-omega) ||sin x||
        grid = TorusGrid(dim=1, modes_per_dim=32)
        (x,) = grid.mesh()
        base = to_spectral(grid, np.sin(x))
        times = [0.0, 0.25, 0.75, 1.0]
        snaps = [(t, (1.0 + t) * base) for t in times]
        omega = 0.3
        ell = 3
        got = holder_estimate(grid, snaps, omega=omega, ell=ell)
        expect = max(abs(t1 - t2) ** (1 - omega) for t1 in times for t2 in times) * norm_sobolev(grid, base, -ell)
        assert abs(got - expect) < 1e-12

    def test_argument_validation(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        f = constant(grid, 1.0)
        with pytest.raises(ValueError):
            holder_estimate(grid, [(0.0, f)], omega=0.3)
        with pytest.raises(ValueError):
            holder_estimate(grid, [(0.0, f), (1.0, f)], omega=0.7)


class TestLedgerCsv:
    def test_round_trip(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        rows, _ = run_ledger(grid, params, 20)
        text = ledger_to_csv(rows)
        back = ledger_from_csv(text)
        assert back == rows

    def test_audit_accepts_valid_rows(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        rows, _ = run_ledger(grid, params, 20)
        assert audit_ledger_rows(ledger_from_csv(ledger_to_csv(rows))) == []

    def test_audit_detects_tampering(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        rows, _ = run_ledger(grid, params, 20)
        lines = ledger_to_csv(rows).splitlines()
        cells = lines[8].split(",")
        cells[0] = f"{float(cells[0]) + 1.0:.17g}"
        lines[8] = ",".join(cells)
        problems = audit_ledger_rows(ledger_from_csv("\n".join(lines) + "\n"))
        assert problems and any("step 8" in p or "step 9" in p for p in problems)


    def test_from_csv_names_a_row_of_the_wrong_length(self):
        rows = [EnergyLedger(*[0.5] * len(LEDGER_COLUMNS))] * 3
        lines = ledger_to_csv(rows).splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match=f"line 4 has {len(LEDGER_COLUMNS) - 1} fields"):
            ledger_from_csv("\n".join(lines) + "\n")
        lines[3] += ",0.5,0.5"
        with pytest.raises(ValueError, match=f"line 4 has {len(LEDGER_COLUMNS) + 1} fields"):
            ledger_from_csv("\n".join(lines) + "\n")

    def test_audit_and_worst_residual_see_nan(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        rows, _ = run_ledger(grid, params, 20)
        bad = list(rows)
        bad[7] = replace(rows[7], dissipation_viscous=float("nan"), residual=float("nan"))
        problems = audit_ledger_rows(bad)
        assert "step 7: dissipation_viscous not finite (nan)" in problems
        assert "step 7: residual not finite (nan)" in problems
        step, worst = worst_relative_residual(bad)
        assert step == 7 and math.isnan(worst)
        bad[12] = replace(rows[12], kinetic=float("inf"))
        assert "step 12: kinetic not finite (inf)" in audit_ledger_rows(bad)
        assert worst_relative_residual(bad)[0] == 7

class TestMomentAudit:
    def test_v15_bounded_over_run(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = params_1d(noise=geometric_noise(K=20, alpha0=0.2))
        state = smooth_state(grid, params)
        v0 = v15_functional(state, params)
        worst = v0
        gen = path_generator(2, 0)
        for _ in range(100):
            state, _ = step(state, params, draw(params, gen))
            worst = max(worst, v15_functional(state, params))
        assert worst <= 10.0 * v0
