"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted inside the test.
"""

import time
import warnings

import numpy as np
import pytest
from coefficients import constant
from increments import draw

from nsch.checkpoint import load_checkpoint, save_checkpoint
from nsch.config import default_config
from nsch.constitutive import (
    FreeEnergySpec,
    QuadraticWell,
    ViscositySpec,
    FreeEnergyValues,
    ZeroFunction,
    korteweg_values,
)
from nsch.ensemble import EnsembleConfig, run_paths, run_trajectory, sweep, sweep_trend_csv
from nsch.errors import CutoffSaturatedWarning
from nsch.noise import geometric_noise, forcing, path_generator, sample_increment, silent_noise
from nsch.scheme import ApproxParams, InitialData, SchemeState, collocation, step
from nsch.spectral import (
    TorusGrid,
    coeff_inner,
    coeff_norm,
    divergence,
    gradient,
    integrate_values,
    laplacian,
    multiply,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
)


def _report(n, text):
    print(f"criterion {n:02d}: PASS - {text}")


def test_criterion_01_spectral_calculus():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"parseval": 0.0, "parts": 0.0, "adjoint": 0.0}
    for grid, count in ((TorusGrid(dim=1, modes_per_dim=64), 50), (TorusGrid(dim=2, modes_per_dim=64), 50)):
        for _ in range(count):
            f = random_band_limited(grid, rng, band=grid.kmax, amplitude=1.0, zero_mean=False)
            g = random_band_limited(grid, rng, band=grid.kmax, amplitude=1.0, zero_mean=False)
            quad = integrate_values(grid, to_physical(grid, f)[0] * to_physical(grid, g)[0])
            par = coeff_inner(grid, f, g)
            worst["parseval"] = max(worst["parseval"], abs(par - quad) / max(1.0, abs(quad)))
            gf, gg = gradient(grid, f), gradient(grid, g)
            for i in range(grid.dim):
                lhs = coeff_inner(grid, gf[i : i + 1], g)
                rhs = -coeff_inner(grid, f, gg[i : i + 1])
                worst["parts"] = max(worst["parts"], abs(lhs - rhs) / max(1.0, abs(lhs)))
            m = grid.kmax // 2
            lhs = coeff_inner(grid, project(grid, f, m), g)
            rhs = coeff_inner(grid, f, project(grid, g, m))
            worst["adjoint"] = max(worst["adjoint"], abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.perf_counter() - started
    assert worst["parseval"] < 1e-12
    assert worst["parts"] < 1e-12
    assert worst["adjoint"] < 1e-12
    assert elapsed < 5.0
    _report(1, f"spectral calculus to 1e-12 on 100 random fields ({elapsed:.2f}s, worst {max(worst.values()):.2e})")


def test_criterion_02_mass_conservation():
    grid = TorusGrid(dim=1, modes_per_dim=16)
    params = ApproxParams(
        eps=1e-2, R=5.0, m=3, n=5, dt=1e-4, noise=geometric_noise(K=20, alpha0=0.3, seed=202)
    )
    data = InitialData(mass=2 * np.pi, rho_amp=0.1, u_amp=0.1, c_amp=0.2)
    state = data.build(grid, params, path_generator(202, 0, 1))
    k0 = state.rho[0, 0]
    assert k0 == 1.0
    gen = path_generator(202, 0)
    for _ in range(10_000):
        state, _ = step(state, params, draw(params, gen))
        assert state.rho[0, 0] == k0
    mass_err = abs(grid.volume * state.rho[0, 0].real - 2 * np.pi)
    assert mass_err == 0.0
    _report(2, "zero-mode density coefficient bitwise invariant over 10^4 stochastic steps")


def test_criterion_03_constitutive_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    spec = FreeEnergySpec(a=1.1, gamma=3.8)
    rho = rng.uniform(0.5, 3.0, size=256)
    c = rng.uniform(-2.5, 2.5, size=256)
    h = 1e-4

    # second differences of the raw function carry an eps*|f|/h^2 roundoff
    # floor (about 1e-6 absolute here); the relative tolerance applies
    # wherever the oracle resolves the value above that floor
    f = lambda r, cc: FreeEnergyValues(r, cc, spec).free_energy
    values = FreeEnergyValues(rho, c, spec)
    atol2 = 16 * np.finfo(float).eps * np.max(np.abs(rho * f(rho, c))) / h**2
    fd_c = (f(rho, c + h) - f(rho, c - h)) / (2 * h)
    np.testing.assert_allclose(values.f_c, fd_c, rtol=1e-6, atol=1e-7)
    fd_cc = (f(rho, c + h) - 2 * f(rho, c) + f(rho, c - h)) / h**2
    np.testing.assert_allclose(values.f_cc(), fd_cc, rtol=1e-6, atol=atol2)
    rf = lambda r, cc: r * f(r, cc)
    fd_rr = (rf(rho + h, c) - 2 * rf(rho, c) + rf(rho - h, c)) / h**2
    np.testing.assert_allclose(values.rho_f_rho_rho, fd_rr, rtol=1e-6, atol=atol2)
    fd_rc = (rf(rho + h, c + h) - rf(rho + h, c - h) - rf(rho - h, c + h) + rf(rho - h, c - h)) / (4 * h**2)
    np.testing.assert_allclose(values.rho_f_rho_c, fd_rc, rtol=1e-6, atol=atol2)

    worst = 0.0
    for dim, modes in ((1, 64), (2, 32)):
        grid = TorusGrid(dim=dim, modes_per_dim=modes)
        for _ in range(5):
            cf = random_band_limited(grid, rng, band=max(2, grid.kmax // 4), amplitude=0.5)
            gv = to_physical(grid, gradient(grid, cf))
            capillary = to_spectral(grid, korteweg_values(gv, (gv**2).sum(axis=0)))
            lhs = divergence(grid, capillary)
            rhs = multiply(grid, laplacian(grid, cf), gradient(grid, cf))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(3, f"free-energy partials match finite differences; capillary identity to {worst:.1e} ({elapsed:.2f}s)")


def test_criterion_04_linear_dispersion():
    started = time.perf_counter()
    lam = 1.0
    grid = TorusGrid(dim=1, modes_per_dim=16)
    fspec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=lam))
    dt, t_final = 1e-5, 0.01
    params = ApproxParams(eps=1e-2, R=5.0, m=3, n=8, dt=dt, fspec=fspec, noise=silent_noise())
    (x,) = grid.mesh()
    amp = 0.05
    c0 = amp * (np.cos(x) + np.cos(2 * x) + np.cos(3 * x))
    state = SchemeState(
        t=0.0,
        grid=grid,
        rho=constant(grid, 1.0),
        w=constant(grid, 0.0),
        c=to_spectral(grid, c0),
    )
    gen = path_generator(404, 0)
    for _ in range(int(round(t_final / dt))):
        state, _ = step(state, params, draw(params, gen))
    worst = 0.0
    for k in (1, 2, 3):
        got = float(state.c[0, k].real)
        expect = 0.5 * amp * np.exp(-(lam * k**2 + k**4) * t_final)
        worst = max(worst, abs(got - expect) / abs(expect))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    _report(4, f"mode decay matches exp(-(k^2+k^4)t) to {worst:.1e} relative ({elapsed:.2f}s)")


def test_criterion_05_deterministic_ledger_halving():
    started = time.perf_counter()
    grid = TorusGrid(dim=1, modes_per_dim=32)
    horizon = 0.2
    acc = {}
    for dt in (2e-4, 1e-4):
        params = ApproxParams(eps=1e-2, R=5.0, m=6, n=10, dt=dt, noise=silent_noise(seed=505))
        config = EnsembleConfig(
            grid=grid,
            params=params,
            initial=InitialData(mass=grid.volume, rho_amp=0.15, u_amp=0.1, c_amp=0.3),
            paths=1,
            horizon=horizon,
        )
        result = run_trajectory(config, 0)
        assert result.failure is None
        acc[dt] = abs(sum(result.residuals))
    ratio = acc[2e-4] / acc[1e-4]
    elapsed = time.perf_counter() - started
    assert 1.8 < ratio < 2.2
    assert elapsed < 60.0
    _report(5, f"accumulated ledger residual halves under dt halving (ratio {ratio:.3f}, {elapsed:.1f}s)")


def test_criterion_06_ito_isometry():
    started = time.perf_counter()
    grid = TorusGrid(dim=1, modes_per_dim=64)
    spec = geometric_noise(K=20, alpha0=0.5, seed=606)
    (x,) = grid.mesh()
    c0_vals = 0.2 * np.cos(x)
    c0 = to_spectral(grid, c0_vals)
    t_final, nsteps, paths = 0.25, 16, 256
    dt = t_final / nsteps
    sq = np.empty(paths)
    w = grid.parseval_weights
    for p in range(paths):
        gen = path_generator(spec.seed, p)
        acc = np.zeros(grid.band_shape, dtype=complex)
        for _ in range(nsteps):
            inc = sample_increment(dt, gen, spec)
            acc = acc + forcing(grid, c0, inc, spec)[0]
        sq[p] = grid.volume * np.sum(w * np.abs(acc) ** 2)
    theory = t_final * integrate_values(
        grid,
        sum(spec.alphas[i] ** 2 * spec.family.value(k, c0_vals) ** 2 for i, k in enumerate(spec.modes)),
    )
    se = float(np.std(sq, ddof=1) / np.sqrt(paths))
    err = abs(float(np.mean(sq)) - theory)
    elapsed = time.perf_counter() - started
    assert err < 3 * se
    assert elapsed < 60.0
    _report(6, f"E||c-c0||^2 = {np.mean(sq):.4e} vs t*int sigma^2 = {theory:.4e} within 3 SE ({elapsed:.1f}s)")


def test_criterion_07_energy_martingale():
    started = time.perf_counter()
    config = default_config()
    assert int(round(config.horizon / config.params.dt)) == 200
    ens = EnsembleConfig(
        grid=config.grid,
        params=config.params,
        initial=config.initial,
        paths=64,
        horizon=config.horizon,
        betas=config.betas,
    )
    report, _ = run_paths(ens)
    z = report.martingale["value"]
    elapsed = time.perf_counter() - started
    assert report.martingale["kind"] == "stochastic"
    assert report.survivor_fraction == 1.0
    assert abs(z) < 3.0
    assert elapsed < 300.0
    _report(7, f"compensated ledger residual z = {z:+.3f} over 64 paths x 200 steps ({elapsed:.1f}s)")


def test_criterion_08_cutoff_transparency_and_saturation():
    grid = TorusGrid(dim=1, modes_per_dim=16)
    data = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.05, c_amp=0.2)

    def run(radius):
        params = ApproxParams(
            eps=1e-2, R=radius, m=3, n=5, dt=1e-4, noise=geometric_noise(K=20, alpha0=0.3, seed=808)
        )
        state = data.build(grid, params, path_generator(808, 0, 1))
        gen = path_generator(808, 0)
        chi_min = 1.0
        for _ in range(50):
            new, _ = step(state, params, draw(params, gen))
            chi_min = min(chi_min, collocation(state, params).chi)
            state = new
        return state, chi_min, collocation(state, params).u_hat

    a, chi_a, u_a = run(5.0)
    b, chi_b, u_b = run(10.0)
    assert chi_a == 1.0 and chi_b == 1.0
    for fa, fb in ((a.rho, b.rho), (a.w, b.w), (u_a, u_b), (a.c, b.c)):
        assert np.max(np.abs(fa - fb)) <= 1e-14

    loud = InitialData(mass=grid.volume, rho_amp=0.1, u_amp=3.0, c_amp=0.2)
    params = ApproxParams(eps=1e-2, R=2.0, m=3, n=5, dt=1e-5, noise=silent_noise())
    state = loud.build(grid, params, path_generator(809, 0, 1))
    gen = path_generator(809, 0)
    chi_min = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffSaturatedWarning)
        for _ in range(20):
            new, _ = step(state, params, draw(params, gen))
            chi_min = min(chi_min, collocation(state, params).chi)
            state = new
    assert chi_min < 1.0
    _report(8, f"R vs 2R trajectories identical; large data reaches chi = {chi_min:.3f} < 1")


def test_criterion_09_inequality_audits():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    visc = ViscositySpec(nu_shear=1.0, nu_bulk=0.0)
    from nsch.diagnostics import korn_check, poincare_check

    grid2 = TorusGrid(dim=2, modes_per_dim=16)
    violations = 0
    ratios = []
    for _ in range(1000):
        u = random_band_limited(grid2, rng, ncomp=2, band=5, amplitude=1.0)
        rep = korn_check(grid2, u, visc)
        violations += not rep.passed
        if not rep.degenerate:
            ratios.append(rep.constant)
    # near-degenerate witnesses: constant field, pure gradient and solenoidal modes
    xs, ys = grid2.mesh()
    witnesses = [
        to_spectral(grid2, np.stack([np.full(grid2.pshape, 0.7), np.full(grid2.pshape, -0.2)])),
        to_spectral(grid2, np.stack([np.sin(xs), np.zeros(grid2.pshape)])),
        to_spectral(grid2, np.stack([np.sin(ys), np.zeros(grid2.pshape)])),
    ]
    for u in witnesses:
        violations += not korn_check(grid2, u, visc).passed
    assert violations == 0
    assert min(ratios) > 0

    grid1 = TorusGrid(dim=1, modes_per_dim=32)
    (x,) = grid1.mesh()
    gamma = 4.0
    pviol = 0
    consts = []
    for _ in range(1000):
        rho = to_spectral(grid1, 1.0 + 0.8 * to_physical(grid1, random_band_limited(grid1, rng, band=4))[0])
        v = random_band_limited(grid1, rng, band=8, amplitude=1.0, zero_mean=False)
        rep = poincare_check(grid1, rho, v, total_mass=2 * np.pi, gamma=gamma)
        pviol += not rep.passed
        consts.append(rep.constant)
    bump = np.exp(8.0 * (np.cos(x) - 1.0))
    rho_sharp = to_spectral(grid1, 1e-3 + bump / integrate_values(grid1, bump))
    v_away = to_spectral(grid1, np.exp(2.0 * (np.cos(x - np.pi) - 1.0)))
    rep = poincare_check(grid1, rho_sharp, v_away, total_mass=1e-3 * 2 * np.pi, gamma=gamma)
    pviol += not rep.passed
    rep = poincare_check(grid1, constant(grid1, 1.0), constant(grid1, 0.5), total_mass=2 * np.pi, gamma=gamma)
    pviol += not rep.passed
    assert pviol == 0
    assert all(np.isfinite(c) for c in consts)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(9, f"0 violations in 2000 inequality samples plus witnesses ({elapsed:.1f}s)")


def test_criterion_10_galerkin_consistency_and_eps_sweep():
    grid = TorusGrid(dim=1, modes_per_dim=64)
    params = ApproxParams(eps=1e-2, R=5.0, m=6, n=16, dt=1e-4, cfl=8.0, noise=silent_noise(seed=1010))
    config = EnsembleConfig(
        grid=grid,
        params=params,
        initial=InitialData(mass=grid.volume, rho_amp=0.2, u_amp=0.2, c_amp=0.8, c_band=4),
        paths=1,
        horizon=0.05,
        keep_final_state=True,
    )
    cells = sweep(config, "n", [16, 32])
    d = 0.0
    u0, u1 = (collocation(cell.final_state, cell.params).u_hat for cell in cells)
    for a, b in (
        (cells[0].final_state.rho, cells[1].final_state.rho),
        (u0, u1),
        (cells[0].final_state.c, cells[1].final_state.c),
    ):
        d += coeff_norm(grid, a - b) ** 2
    diff = float(np.sqrt(d))
    assert 0.0 < diff < 1e-4

    grid2 = TorusGrid(dim=1, modes_per_dim=32)
    params2 = ApproxParams(eps=1e-2, R=5.0, m=6, n=8, dt=1e-5, noise=geometric_noise(K=20, alpha0=1.0, seed=1011))
    config2 = EnsembleConfig(
        grid=grid2,
        params=params2,
        initial=InitialData(mass=grid2.volume, rho_amp=0.05, u_amp=0.05, c_amp=0.3),
        paths=10,
        horizon=1e-3,
    )
    cells2 = sweep(config2, "eps", [1e-2, 1e-3, 1e-4])
    trend = sweep_trend_csv(cells2)
    assert trend.startswith("parameter,value")
    arts = [c.report.mean_final_artificial for c in cells2]
    for c in cells2:
        assert c.report.survivor_fraction >= 0.9
    assert arts[0] > arts[1] > arts[2]
    _report(
        10,
        f"doubling n changes the final state by {diff:.2e} in L2; eps sweep 100% survivors, "
        "artificial energy monotone",
    )


def test_criterion_11_reproducibility_and_restart(tmp_path):
    grid = TorusGrid(dim=1, modes_per_dim=16)
    params = ApproxParams(eps=1e-2, R=5.0, m=3, n=5, dt=1e-4, noise=geometric_noise(K=20, alpha0=0.3, seed=1111))
    config = EnsembleConfig(
        grid=grid,
        params=params,
        initial=InitialData(mass=grid.volume, rho_amp=0.1, u_amp=0.1, c_amp=0.2),
        paths=1,
        horizon=5e-3,
    )
    runs = []
    for _ in range(2):
        rows = []
        result = run_trajectory(config, 0, on_step=lambda *args, rows=rows: rows.append(args[4]))
        runs.append((result.residuals, rows))
    assert runs[0] == runs[1] and len(runs[0][1]) == config.steps

    data = config.initial
    state = data.build(grid, params, path_generator(params.noise.seed, 0, 1))
    gen = path_generator(params.noise.seed, 0)
    for i in range(25):
        state, _ = step(state, params, draw(params, gen))
        if i == 11:
            save_checkpoint(tmp_path / "mid.nsch", state, gen, params.m, params.n, params.noise.K)
    resumed, gen2, _ = load_checkpoint(tmp_path / "mid.nsch")
    for _ in range(13):
        resumed, _ = step(resumed, params, draw(params, gen2))
    velocities = (collocation(state, params).u_hat, collocation(resumed, params).u_hat)
    for fa, fb in ((state.rho, resumed.rho), (state.w, resumed.w), velocities, (state.c, resumed.c)):
        assert np.array_equal(fa, fb)
    assert state.t == resumed.t
    _report(11, "fixed seed gives bit-identical ledgers; checkpoint restart is bitwise equal")
