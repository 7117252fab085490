"""Field-by-field recomputation of a ledger row and of the sup functionals.

Each quantity gets its own transform and its own ``integrate_values``, with
the free energy and its partials from a FreeEnergyValues of its own, the Ito
terms from the one-field corrections and the stochastic transfer from a
noise sum accumulated mode by mode.  The fused ledger and the record's
functionals must equal these values exactly, not just closely.  The velocity
is recovered from the state's (rho, w) by a Gram solve of its own.  The momentum
right-hand side is recomputed with each flux transformed on its own and
projected before it is differentiated; the scheme sums the fluxes on the
grid and transforms them once, so the two agree to rounding.
"""

import numpy as np

from nsch.constitutive import FreeEnergyValues, chemical_potential, korteweg_values, stress
from nsch.diagnostics import EnergyLedger
from nsch.noise import ito_grad_correction, ito_value_correction
from nsch.scheme import collocation, recover_velocity
from nsch.spectral import (
    divergence,
    gradient,
    integrate_values,
    laplacian,
    project,
    to_physical,
    to_spectral,
)


def reference_velocity(state, params) -> np.ndarray:
    """Velocity coefficients of ``state``: P_m(rho u) = w solved from a transform of its own."""
    u, _ = recover_velocity(state.grid, state.rho, state.w, params.m, to_physical(state.grid, state.rho)[0])
    return u


def reference_energies(state, params) -> tuple[float, float, float, float]:
    """Kinetic, free, interface and artificial energy of ``state``."""
    grid = state.grid
    rv = to_physical(grid, state.rho)[0]
    cv = to_physical(grid, state.c)[0]
    uv = to_physical(grid, reference_velocity(state, params))
    kinetic = 0.5 * integrate_values(grid, rv * np.sum(uv**2, axis=0))
    free = integrate_values(grid, rv * FreeEnergyValues(rv, cv, params.fspec).free_energy)
    interface = 0.5 * integrate_values(grid, np.sum(to_physical(grid, gradient(grid, state.c)) ** 2, axis=0))
    artificial = float(np.sqrt(params.eps) / (params.alpha_exp - 1.0) * integrate_values(grid, rv**params.alpha_exp))
    return kinetic, free, interface, artificial


def reference_ledger_row(pre, post, inc, params) -> EnergyLedger:
    """The ledger row of the step pre -> post with increment ``inc``."""
    grid = pre.grid
    fspec, noise, dt, eps = params.fspec, params.noise, inc.dt, params.eps
    kin1, fre1, int1, art1 = reference_energies(post, params)
    kin0, fre0, int0, art0 = reference_energies(pre, params)
    d_total = (kin1 + fre1 + int1 + art1) - (kin0 + fre0 + int0 + art0)

    rv = to_physical(grid, pre.rho)[0]
    cv = to_physical(grid, pre.c)[0]
    grad_u = gradient(grid, reference_velocity(pre, params))
    gv = to_physical(grid, grad_u)
    sv = to_physical(grid, stress(grid, grad_u, params.visc))
    mu = chemical_potential(grid, pre.rho, pre.c, fspec)
    gmu = to_physical(grid, gradient(grid, mu))
    grho = to_physical(grid, gradient(grid, pre.rho))
    gc = to_physical(grid, gradient(grid, pre.c))
    grho_sq = np.sum(grho**2, axis=0)

    diss_visc = integrate_values(grid, np.sum(sv * gv, axis=0)) * dt
    diss_mu = integrate_values(grid, np.sum(gmu**2, axis=0)) * dt
    diss_eps = eps * integrate_values(grid, rv * np.sum(gv**2, axis=0)) * dt
    diss_art = (
        np.sqrt(eps) * eps * params.alpha_exp * integrate_values(grid, rv ** (params.alpha_exp - 2.0) * grho_sq) * dt
    )
    rho_f_rr = FreeEnergyValues(rv, cv, fspec).rho_f_rho_rho
    rhs1 = -eps * integrate_values(grid, rho_f_rr * grho_sq) * dt
    rho_f_rc = FreeEnergyValues(rv, cv, fspec).rho_f_rho_c
    rhs2 = -eps * integrate_values(grid, rho_f_rc * np.sum(grho * gc, axis=0)) * dt

    ito1 = ito2 = stoch = 0.0
    if noise.K > 0:
        ito1 = ito_grad_correction(grid, pre.c, noise) * dt
        ito2 = ito_value_correction(grid, pre.rho, pre.c, noise, fspec) * dt
        stoch = integrate_values(grid, rv * to_physical(grid, mu)[0] * forcing_values(cv, inc, noise))

    residual = d_total + diss_visc + diss_mu + diss_eps + diss_art - rhs1 - rhs2 - ito1 - ito2 - stoch
    return EnergyLedger(
        kin1, fre1, int1, art1, diss_visc, diss_mu, diss_eps, diss_art, rhs1, rhs2, ito1, ito2, stoch, residual
    )


def forcing_values(cv, inc, noise) -> np.ndarray:
    """Grid values of sum_k alpha_k dbeta_k sigma_k(c), accumulated mode by mode."""
    forced = np.zeros(cv.shape)
    for i, k in enumerate(noise.modes):
        forced += noise.alphas[i] * inc.dbeta[i] * noise.family.value(k, cv)
    return forced


def reference_functionals(state, params) -> dict[str, float]:
    """The sup functionals of ``state``: the squared L2 norms of c, grad c and Lap c, and the v15 integral."""
    grid = state.grid
    c = state.c
    rv = to_physical(grid, state.rho)[0]
    cv = to_physical(grid, c)[0]
    uv = to_physical(grid, reference_velocity(state, params))
    grad_c_sq = np.sum(to_physical(grid, gradient(grid, c)) ** 2, axis=0)
    gamma = params.fspec.gamma
    v15 = integrate_values(grid, rv * np.sum(uv**2, axis=0) + rv**gamma + rv * cv**2 + grad_c_sq)
    return {
        "c_l2_sq": integrate_values(grid, cv**2),
        "grad_c_l2_sq": integrate_values(grid, grad_c_sq),
        "lap_c_l2_sq": integrate_values(grid, to_physical(grid, laplacian(grid, c))[0] ** 2),
        "v15": v15,
    }


def reference_momentum_rhs(state, params) -> np.ndarray:
    """The explicit projected momentum right-hand side, flux by flux.

    The momentum flux, the artificial pressure and the Korteweg stress are
    formed from the record's grid values and each transformed on its own,
    then every flux is projected to order m before its derivative.
    """
    col = collocation(state, params)
    grid, m = col.grid, params.m
    chi = col.chi
    mv, n = col.momentum_values, grid.dim
    flux = to_spectral(grid, (mv[:, None] * col.u_r[None]).reshape((n * n,) + grid.pshape))
    pressure = col.free_energy_values.pressure + np.sqrt(params.eps) * col.rho[0] ** params.alpha_exp
    art_pressure = to_spectral(grid, pressure)
    korteweg = to_spectral(grid, korteweg_values(col.grad_c, np.sum(col.grad_c**2, axis=0)))
    transport = divergence(grid, project(grid, flux, m))
    press = gradient(grid, project(grid, art_pressure, m))
    visc = divergence(grid, project(grid, col.visc_stress_hat, m))
    capillary = divergence(grid, project(grid, korteweg, m))
    return project(grid, -transport - chi * press + visc - chi * capillary, m)
