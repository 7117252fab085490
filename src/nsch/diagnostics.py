"""Audits of every functional and inequality the analysis rests on.

The central object is the per-step energy ledger.  Writing E for the total
energy (kinetic + free + interface) plus the artificial-pressure energy
sqrt(eps)/(alpha-1) int rho^alpha, one step of the scheme should satisfy

    dE + [S(grad u):grad u + |grad mu|^2] dt + eps int rho |grad u|^2 dt
       + sqrt(eps) eps alpha int rho^(alpha-2) |grad rho|^2 dt
    = - eps int d2(rho f)/drho2 |grad rho|^2 dt
      - eps int d2(rho f)/drho dc grad rho . grad c dt
      + ito1 + ito2 + (int rho mu sigma(c)) dW

with the two Ito corrections ito1 = (1/2) int sum alpha_k^2 |grad sigma_k(c)|^2
and ito2 = (1/2) int rho f_cc sum alpha_k^2 sigma_k(c)^2.  Every right-hand
entry is evaluated at the pre-step state (Ito convention), so the ledger
residual is O(dt^2) per step in the deterministic case and a mean-zero
martingale increment plus O(dt^2) with noise.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .constitutive import ViscositySpec, stress
from .scheme import ApproxParams, SchemeState, collocation, mean_density
from .spectral import (
    TorusGrid,
    divergence,
    gradient,
    integrate_values,
    laplacian,
    norm_sobolev,
    to_physical,
)

__all__ = [
    "EnergyLedger",
    "LEDGER_COLUMNS",
    "total_energy",
    "initial_ledger_row",
    "energy_ledger_step",
    "mass",
    "renormalized_residual",
    "concentration_momentum_residual",
    "InequalityReport",
    "korn_constant",
    "korn_check",
    "poincare_constant",
    "poincare_check",
    "holder_estimate",
    "ledger_to_csv",
    "ledger_from_csv",
    "ledger_row_diff",
    "worst_relative_residual",
    "audit_ledger_rows",
    "v15_functional",
]


@dataclass(frozen=True)
class EnergyLedger:
    """Post-step energies plus the per-step transfer terms of the balance."""

    kinetic: float
    free: float
    interface: float
    artificial: float
    dissipation_viscous: float
    dissipation_mu: float
    dissipation_eps: float
    dissipation_art: float
    rhs_eps1: float
    rhs_eps2: float
    ito1: float
    ito2: float
    stochastic_increment: float
    residual: float


LEDGER_COLUMNS = [f.name for f in fields(EnergyLedger)]


def total_energy(state: SchemeState, params: ApproxParams) -> float:
    """int [ rho |u|^2 / 2 + rho f(rho, c) + |grad c|^2 / 2 ]."""
    return float(sum(collocation(state, params).energies))


def initial_ledger_row(state: SchemeState, params: ApproxParams) -> EnergyLedger:
    """Row zero: initial energies, no transfers, zero residual."""
    col = collocation(state, params)
    return EnergyLedger(*col.energies, col.artificial, *[0.0] * 10)


def energy_ledger_step(
    pre: SchemeState, post: SchemeState, noise_values: np.ndarray | None, params: ApproxParams
) -> EnergyLedger:
    """The balance entries of the step pre -> post under ``params``; all transfers use the pre state.

    A row is arithmetic on the two states' collocation records, which the step shares (so the pre energies
    are the ones computed when the pre state was a post state), plus one integral: the stochastic transfer
    int rho mu (sum_k alpha_k dbeta_k sigma_k(c)) over the step's ``noise_values``, 0.0 for None.  dt is params.dt.
    """
    a = collocation(pre, params)
    b = collocation(post, params)
    dt = params.dt
    transfers = [rate * dt for rate in a.transfer_rates]
    stoch = 0.0 if noise_values is None else integrate_values(a.grid, a.rho[0] * a.mu_values[0] * noise_values)

    # the row's columns in order, the residual last
    entries = (*b.energies, b.artificial, *transfers, stoch)
    return EnergyLedger(*entries, _balance_residual((*a.energies, a.artificial), entries))


def _balance_residual(before, entries) -> float:
    """The residual of the energy balance over one step: the change of the total energy plus the
    dissipations minus the transfers.

    ``before`` holds the energies (kinetic, free, interface, artificial) before
    the step; ``entries`` holds a ledger row's columns in order, a stored
    residual after them is ignored.  The step that writes a row and the audit
    that re-derives it both call this, so they round alike.
    """
    kin, fre, inter, art, visc, mu, eps, art_diss, rhs1, rhs2, ito1, ito2, stoch, *_ = entries
    kin0, fre0, int0, art0 = before
    d_total = (kin + fre + inter + art) - (kin0 + fre0 + int0 + art0)
    return d_total + visc + mu + eps + art_diss - rhs1 - rhs2 - ito1 - ito2 - stoch


def mass(state: SchemeState) -> float:
    """Total mass from the zero coefficient; exact."""
    return state.grid.volume * mean_density(state.grid, state.rho)


def renormalized_residual(pre: SchemeState, post: SchemeState, params: ApproxParams, b, db) -> float:
    """Scalar residual of the renormalized continuity identity over one step.

    For b differentiable on (0, inf), with derivative db:

        int [b(rho_post) - b(rho_pre)]
        + dt int [b'(rho) rho - b(rho)] Div [u]_R
        - eps dt int b'(rho) Lap rho       (evaluated at the pre state)

    The transport divergence integrates to zero on the torus.  b = identity
    reduces to exact mass conservation; general b has an O(dt) defect.  The
    records of both states guard their densities.
    """
    grid = pre.grid
    a = collocation(pre, params)
    rv0 = a.rho[0]
    rv1 = collocation(post, params).rho[0]
    dt = post.t - pre.t
    div_u = to_physical(grid, divergence(grid, a.chi * a.u_hat))[0]
    lap_rho = to_physical(grid, laplacian(grid, pre.rho))[0]
    d_b = integrate_values(grid, b(rv1) - b(rv0))
    defect = integrate_values(grid, (db(rv0) * rv0 - b(rv0)) * div_u)
    diffusion = params.eps * integrate_values(grid, db(rv0) * lap_rho)
    return float(d_b + dt * defect - dt * diffusion)


def concentration_momentum_residual(
    pre: SchemeState, post: SchemeState, noise_values: np.ndarray | None, params: ApproxParams, phi: np.ndarray
) -> float:
    """One-step residual of the mass-weighted concentration identity.

    For a time-independent test function phi, the evolved pair should satisfy

        d int rho c phi = [ int rho c [u]_R . grad phi - int grad mu . grad phi
                            - eps int grad rho . grad(c phi) ] dt
                          + (int rho sigma(c) phi) dW

    with every transfer at the pre-step state.  No Ito correction appears:
    the density has bounded variation, so the quadratic covariation of rho
    and c vanishes.  The concentration is evolved in its own form, not this
    one, so the residual measures the discrete consistency between the two
    formulations; it is O(dt^2) per step plus projection commutators.
    The stochastic term integrates the step's ``noise_values`` (None without
    noise), dt is ``params.dt`` and ``phi`` is given by its coefficients.
    """
    grid = pre.grid
    if len(phi) != 1:
        raise ValueError("test function must be scalar")
    dt = params.dt
    phi_v = to_physical(grid, phi)[0]
    gphi = to_physical(grid, gradient(grid, phi))
    a = collocation(pre, params)
    b = collocation(post, params)

    rv0, cv0 = a.rho[0], a.c[0]
    d_pair = integrate_values(grid, (b.rho[0] * b.c[0] - rv0 * cv0) * phi_v)
    transport = integrate_values(grid, rv0 * cv0 * np.sum(a.u_r * gphi, axis=0))
    diffusion = integrate_values(grid, np.sum(a.grad_mu * gphi, axis=0))
    grad_cphi = a.grad_c * phi_v + cv0 * gphi
    regularization = params.eps * integrate_values(grid, np.sum(a.grad_rho * grad_cphi, axis=0))

    stoch = 0.0 if noise_values is None else integrate_values(grid, rv0 * phi_v * noise_values)
    return float(d_pair - dt * (transport - diffusion - regularization) - stoch)


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    margin: float
    passed: bool
    degenerate: bool = False
    constant: float = float("nan")


def korn_constant(dim: int, visc: ViscositySpec) -> float:
    """The sharp C of int S(grad u):grad u >= C ||grad u||^2, from the torus identity
    int S:grad u = nu_shear (||grad u||^2 + (1 - 2/N) ||div u||^2) + nu_bulk ||div u||^2."""
    return visc.nu_bulk if dim == 1 else visc.nu_shear


def korn_check(grid: TorusGrid, u: np.ndarray, visc: ViscositySpec) -> InequalityReport:
    """Verify int S(grad u):grad u >= C int |grad u|^2 for velocity coefficients u, C = korn_constant."""
    g = gradient(grid, u)
    gv = to_physical(grid, g)
    sv = to_physical(grid, stress(grid, g, visc))
    lhs_raw = integrate_values(grid, np.sum(gv**2, axis=0))
    rhs = integrate_values(grid, np.sum(sv * gv, axis=0))
    c_ref = korn_constant(grid.dim, visc)
    if lhs_raw <= 1e-28:
        return InequalityReport(0.0, rhs, rhs, passed=rhs >= -1e-12, degenerate=True, constant=c_ref)
    lhs = c_ref * lhs_raw
    margin = rhs - lhs
    passed = margin >= -1e-10 * max(abs(rhs), abs(lhs), 1.0)
    return InequalityReport(lhs, rhs, margin, passed=passed, constant=rhs / lhs_raw)


def poincare_constant(grid: TorusGrid, total_mass: float, gamma: float) -> float:
    """C = max(1, 2 |Omega|^(2-2/gamma) / M^2, 2 |Omega| / M^2), the torus constant of poincare_check.

    On [-pi, pi)^N the smallest nonzero |k|^2 is 1, so ||v - vbar||^2 <=
    ||grad v||^2, and ||v||^2 = ||v - vbar||^2 + |Omega| vbar^2.  With
    int rho >= M, M |vbar| <= |int rho v| + ||rho||_2 ||v - vbar||, and
    ||rho||_2 <= |Omega|^(1/2-1/gamma) ||rho||_gamma for gamma >= 2.
    """
    vol = grid.volume
    return max(1.0, 2.0 * vol ** (2.0 - 2.0 / gamma) / total_mass**2, 2.0 * vol / total_mass**2)


def poincare_check(
    grid: TorusGrid, rho: np.ndarray, v: np.ndarray, total_mass: float, gamma: float
) -> InequalityReport:
    """Verify ||v||^2 <= C [(1 + ||rho||_{L^gamma}^2) ||grad v||^2 + |int rho v|^2] on coefficients of rho and v.

    C is ``poincare_constant``.  Requires rho >= 0 with int rho >= total_mass > 0
    and gamma >= 2; a violated hypothesis raises ValueError.
    """
    if gamma < 2.0:
        raise ValueError(f"gamma = {gamma} < 2: the constant needs ||rho||_2 <= |Omega|^(1/2-1/gamma) ||rho||_gamma")
    rv = to_physical(grid, rho)[0]
    if float(np.min(rv)) < -1e-12:
        raise ValueError("density must be nonnegative")
    got_mass = grid.volume * mean_density(grid, rho)
    # relative: a density built for mass M has int rho = |Omega| (M / |Omega|), which can round below M
    if got_mass < total_mass - 1e-12 * max(1.0, total_mass):
        raise ValueError(f"hypothesis violated: int rho = {got_mass:.6g} < M = {total_mass:.6g}")
    vv = to_physical(grid, v)[0]
    lhs = integrate_values(grid, vv**2)
    rho_lg = integrate_values(grid, rv**gamma) ** (1.0 / gamma)
    gvv = to_physical(grid, gradient(grid, v))
    grad_sq = integrate_values(grid, np.sum(gvv**2, axis=0))
    mean_term = integrate_values(grid, rv * vv) ** 2
    rhs_raw = (1.0 + rho_lg**2) * grad_sq + mean_term
    constant = poincare_constant(grid, total_mass, gamma)
    if rhs_raw <= 1e-28:
        return InequalityReport(lhs, 0.0, -lhs, passed=lhs <= 1e-24, degenerate=True, constant=constant)
    rhs = constant * rhs_raw
    margin = rhs - lhs
    passed = margin >= -1e-10 * max(abs(rhs), abs(lhs), 1.0)
    return InequalityReport(lhs, rhs, margin, passed=passed, constant=constant)


def holder_estimate(
    grid: TorusGrid, snapshots: list[tuple[float, np.ndarray]], omega: float, ell: float | None = None
) -> float:
    """Worst Holder quotient of the momentum-of-concentration trajectory.

    snapshots: (time, rho*c coefficients) pairs; the norm is the negative
    Sobolev norm with weights (1 + |k|^2)^(-ell).  Default
    ell = ceil((N+2)/2) + 1.
    """
    if len(snapshots) < 2:
        raise ValueError("at least 2 snapshots required")
    if not 0.0 < omega < 0.5:
        raise ValueError(f"omega must lie in (0, 1/2), got {omega}")
    if ell is None:
        ell = math.ceil((grid.dim + 2) / 2) + 1
    worst = 0.0
    for i in range(len(snapshots)):
        t1, f1 = snapshots[i]
        for j in range(i + 1, len(snapshots)):
            t2, f2 = snapshots[j]
            if t1 == t2:
                continue
            q = norm_sobolev(grid, f1 - f2, -ell) / abs(t1 - t2) ** omega
            worst = max(worst, q)
    return worst


def v15_functional(state: SchemeState, params: ApproxParams) -> float:
    """int [rho |u|^2 + rho^gamma + rho c^2 + |grad c|^2], the sup-bound integrand."""
    return collocation(state, params).sup_functionals["v15"]


def ledger_to_csv(rows: list[EnergyLedger]) -> str:
    """One row per step, columns exactly the ledger fields; 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEDGER_COLUMNS)
    writer.writerows(map(_ledger_cells, rows))
    return buf.getvalue()


def _ledger_cells(row: EnergyLedger) -> list[str]:
    """The CSV text of a row; 17 significant digits round-trip every double exactly."""
    return [f"{getattr(row, c):.17g}" for c in LEDGER_COLUMNS]


def ledger_row_diff(stored: EnergyLedger, replayed: EnergyLedger) -> str | None:
    """The first column whose CSV text differs between a stored and a replayed row, or None; NaN equals NaN."""
    for col, a, b in zip(LEDGER_COLUMNS, _ledger_cells(stored), _ledger_cells(replayed)):
        if a != b:
            return f"{col} = {a} in the ledger, {b} in the replay"
    return None


def ledger_from_csv(text: str) -> list[EnergyLedger]:
    """Ledger rows of a CSV text; raises ValueError on an empty text, a wrong header or a row of the wrong length."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty ledger file")
    if header != LEDGER_COLUMNS:
        raise ValueError(f"unexpected ledger header {header}")
    rows = []
    for row in filter(None, reader):
        if len(row) != len(LEDGER_COLUMNS):
            raise ValueError(f"line {reader.line_num} has {len(row)} fields, expected {len(LEDGER_COLUMNS)}")
        rows.append(EnergyLedger(*(float(x) for x in row)))
    return rows


def _ledger_scale(row: EnergyLedger) -> float:
    """Energy scale a ledger row's residuals are measured against."""
    return max(1.0, abs(row.kinetic) + abs(row.free) + abs(row.interface))


def worst_relative_residual(rows: list[EnergyLedger]) -> tuple[int, float]:
    """Step and size of the largest |residual| relative to its row's energy scale; NaN ranks above any number."""
    relative = ((i, abs(row.residual) / _ledger_scale(row)) for i, row in enumerate(rows))
    return max(relative, key=lambda x: (math.isnan(x[1]), x[1]))


def audit_ledger_rows(rows: list[EnergyLedger], tol: float = 1e-9) -> list[str]:
    """Re-derive each residual from consecutive rows and check sign constraints.

    Row zero must carry the initial energies with zero transfers.  Returns a
    list of violations naming the offending step.  NaN passes every ordered
    comparison, so each non-finite entry is reported by itself.
    """
    problems = []
    if not rows:
        return ["empty ledger"]
    r0 = rows[0]
    if any(
        getattr(r0, c) != 0.0
        for c in LEDGER_COLUMNS
        if c not in ("kinetic", "free", "interface", "artificial")
    ):
        problems.append("step 0: initial row must have zero transfer entries")
    for i, row in enumerate(rows):
        entries = vars(row)
        if not math.isfinite(sum(entries.values())):  # one test per row; finite entries may overflow the sum
            problems.extend(f"step {i}: {name} not finite ({v})" for name, v in entries.items() if not math.isfinite(v))
        for name in ("kinetic", "interface", "artificial", "dissipation_viscous", "dissipation_mu",
                     "dissipation_eps", "dissipation_art"):
            if getattr(row, name) < -tol:
                problems.append(f"step {i}: {name} negative ({getattr(row, name):.3e})")
        if i == 0:
            continue
        prev = rows[i - 1]
        recomputed = _balance_residual((prev.kinetic, prev.free, prev.interface, prev.artificial), entries.values())
        if abs(recomputed - row.residual) > tol * _ledger_scale(row):
            problems.append(
                f"step {i}: stored residual {row.residual:.6e} disagrees with recomputed {recomputed:.6e}"
            )
    return problems
