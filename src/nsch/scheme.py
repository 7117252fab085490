"""Assembly and time integration of the regularized approximate system.

The state carries the density rho at the full grid band, the projected
momentum w = P_m(rho u) and the concentration c in the order-n subspace, the
blocks a checkpoint stores; the velocity u in the order-m subspace is
recovered from rho and w by the state's collocation record.  One step
advances, in order:

  1. the concentration by Euler-Maruyama with an exact exponential factor for
     the constant-coefficient bilaplacian (mean-density proxy); every other
     drift contribution and the diffusion are explicit at the pre-step state;
  2. the density with backward-Euler artificial diffusion and explicit
     transport by the cut-off velocity;
  3. the momentum with backward-Euler on its artificial diffusion and all
     remaining terms explicit; the new state's record recovers its velocity
     through the density-weighted Gram system.

The zero mode of rho is never touched by any right-hand side, so the total
mass is conserved in exact floating-point arithmetic.  All nonlinear terms
are evaluated at the pre-step state (Ito convention) so the energy ledger
can compensate the stochastic transfer exactly in expectation.

Grid values of a state come only from its collocation record
(``collocation``), which the step shares with the energy ledger and the sup
functionals, so each state is transformed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .constitutive import FreeEnergySpec, FreeEnergyValues, ViscositySpec, korteweg_values, stress
from .errors import GramSolveError, InstabilityError, NonFiniteError, TimeStepError, require
from .noise import NoiseSpec, WienerIncrement, noise_sum, sigma_table, silent_noise
from .noise import ito_grad_integrand, ito_value_integrand
from .spectral import (
    TorusGrid,
    _symmetrize,
    coeff_inner,
    coeff_norm,
    div_tensor,
    divergence,
    grad_tensor,
    gradient,
    integrate_rows,
    laplacian,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
)

__all__ = [
    "ApproxParams",
    "SchemeState",
    "Collocation",
    "collocation",
    "smoothstep",
    "cutoff",
    "momentum_rhs",
    "ch_drift",
    "ch_diffusion",
    "recover_velocity",
    "step",
    "InitialData",
    "mean_density",
]


@dataclass(frozen=True)
class ApproxParams:
    """Regularization and discretization parameters of one run."""

    eps: float
    R: float
    m: int
    n: int
    dt: float
    alpha_exp: float = 5.0
    cfl: float = 1.0
    visc: ViscositySpec = field(default_factory=ViscositySpec)
    fspec: FreeEnergySpec = field(default_factory=FreeEnergySpec)
    noise: NoiseSpec = field(default_factory=silent_noise)

    def __post_init__(self):
        require(
            (self.eps > 0, f"eps must be positive, got {self.eps}"),
            (self.alpha_exp > 4, f"alpha_exp must exceed 4 (artificial-pressure exponent), got {self.alpha_exp}"),
            (self.R > 0, f"R must be positive, got {self.R}"),
            (self.m >= 1, f"m must be a positive integer, got {self.m}"),
            (self.n >= 1, f"n must be a positive integer, got {self.n}"),
            (self.dt > 0, f"dt must be positive, got {self.dt}"),
            (self.cfl > 0, f"cfl must be positive, got {self.cfl}"),
        )


@dataclass(frozen=True)
class SchemeState:
    """The state at time t: read-only coefficient arrays on ``grid``, the blocks a checkpoint stores.

    rho and c have one component, w has grid.dim.  The velocity is not part
    of the state: the state's collocation record recovers it from rho and w.
    """

    t: float
    grid: TorusGrid
    rho: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.rho, self.w, self.c):
            a.flags.writeable = False

    def __getstate__(self):
        # the collocation record is a cache, rebuilt on demand: never pickled
        return {k: v for k, v in self.__dict__.items() if k != "_collocation"}

    def __setstate__(self, state):
        # unpickled arrays are writeable, as from a pool worker
        self.__dict__.update(state)
        self.__post_init__()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _split(stack, sizes: list[int]) -> list:
    """Consecutive row blocks of ``stack`` with the given sizes, as views."""
    return [stack[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _stacked_values(grid: TorusGrid, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Grid values of coefficient blocks, all in one inverse transform; read-only."""
    values = _read_only(to_physical(grid, np.concatenate(blocks)))
    return _split(values, [len(b) for b in blocks])


def _stacked_spectra(grid: TorusGrid, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Coefficients of grid-value blocks, all in one forward transform; read-only."""
    coeffs = _read_only(to_spectral(grid, np.concatenate(blocks)))
    return _split(coeffs, [len(b) for b in blocks])


class Collocation:
    """Collocation values of one state under one parameter set.

    This is the one place a state becomes grid values: every field,
    derivative, constitutive quantity, noise table and state integral below
    is computed when the record is built, in the order the step uses them,
    and then shared by the step, the energy ledger and the sup functionals.
    Values keep the component axis of ``to_physical`` and are read-only.  The
    record reads its state only while it is built and keeps no reference to
    it.  Obtain records through ``collocation``.

    The record first transforms rho and c in one stack and builds their
    pointwise constitutive values (log rho, the free-energy profiles, f, p
    and the partials of f), ``free_energy_values``, whose density guard
    names a non-finite density (NonFiniteError) or one at or below
    ``params.fspec.rho_floor`` (PositivityError), both at the state's time,
    and keeps ``min_rho``.  Only then does it recover the velocity
    coefficients ``u_hat`` from the density values and w, the one call of
    ``recover_velocity``, which counts ``gram_iterations``.  The remaining
    fields are transformed in stacks, one transform call per stack: the
    other fields linear in the state, the pre-step products (kept as
    coefficients, mu among them), mu with its derivatives and the dealiased
    momentum, and the products of those (coefficients).  Each named field is
    a read-only view of its stack.  f_cc and the table of sigma_k'(c) are
    computed only for the Ito rates of a noisy record, which keeps neither.

    Every integral of the state comes from one row sum: ``energies``,
    ``artificial``, the read-only mapping ``sup_functionals`` (c_l2_sq,
    grad_c_l2_sq, lap_c_l2_sq, v15; grad_c_l2_sq is the interface row
    itself) and ``transfer_rates``, the transfers per unit time of a ledger
    row from this state, in column order: the viscous, mu, eps and
    artificial dissipations, the two eps right-hand sides and the two Ito
    corrections (0.0 without noise).
    """

    def __init__(self, state: SchemeState, params: ApproxParams):
        grid = self.grid = state.grid
        self.params = params
        self.rho, self.c = _stacked_values(grid, [state.rho, state.c])
        values = self.free_energy_values = FreeEnergyValues(self.rho[0], self.c[0], params.fspec, t=state.t)
        self.min_rho = values.min_rho
        u_hat, self.gram_iterations = recover_velocity(grid, state.rho, state.w, params.m, self.rho[0])
        self.u_hat = _read_only(u_hat)

        grad_u = grad_tensor(grid, self.u_hat)
        self.visc_stress_hat = _read_only(stress(grid, grad_u, params.visc))
        linear = [
            self.u_hat,
            gradient(grid, state.c),
            laplacian(grid, state.c),
            gradient(grid, state.rho),
            grad_u,
            self.visc_stress_hat,
        ]
        self.u, self.grad_c, self.lap_c, self.grad_rho, self.grad_u, self.visc_stress = _stacked_values(grid, linear)

        # coefficients of [u]_R and the cut-off factor chi
        self.cut = cutoff(grid, self.u_hat, params.R)
        u_r, _ = self.cut
        self.u_r = self.u if u_r is self.u_hat else _read_only(to_physical(grid, u_r))

        # rho^alpha, shared by the artificial pressure and the artificial energy
        rho_alpha = self.rho[0] ** params.alpha_exp
        products = [
            values.chemical_potential(self.lap_c[0])[None],
            self.rho * self.u,
            (values.pressure + math.sqrt(params.eps) * rho_alpha)[None],
            korteweg_values(self.grad_c),
            (self.u_r * self.grad_c).sum(axis=0)[None],
            self.rho * self.u_r,
        ]
        self.mu, self.momentum, self.art_pressure, self.korteweg, self.u_r_grad_c, self.rho_u_r = _stacked_spectra(
            grid, products
        )

        resampled = [self.mu, gradient(grid, self.mu), laplacian(grid, self.mu), self.momentum]
        self.mu_values, self.grad_mu, self.lap_mu, self.momentum_values = _stacked_values(grid, resampled)

        mv = self.momentum_values
        # flux component i*N+j is mv_i u_r_j
        flux = (mv[:, None] * self.u_r[None]).reshape((len(mv) ** 2,) + mv.shape[1:])
        self.lap_mu_over_rho, self.momentum_flux = _stacked_spectra(grid, [(self.lap_mu[0] / self.rho[0])[None], flux])

        self.sigma = sigma_table(params.noise, self.c[0])

        # rho |u|^2, the kinetic energy integrand without its factor 1/2, and |grad c|^2
        self.rho_u_sq = _read_only(self.rho[0] * (self.u**2).sum(axis=0))
        self.grad_c_sq = _read_only((self.grad_c**2).sum(axis=0))

        # every integral of the state, from one row sum: the energies, the sup
        # functionals, then the integrands of the transfer rates
        rv, cv, gv, grho = self.rho[0], self.c[0], self.grad_u, self.grad_rho
        v15 = self.rho_u_sq + rv**params.fspec.gamma + rv * cv**2 + self.grad_c_sq
        grho_sq = (grho**2).sum(axis=0)
        rows = [self.rho_u_sq, rv * values.free_energy, self.grad_c_sq, rho_alpha, cv**2, self.lap_c[0] ** 2, v15,
                (self.visc_stress * gv).sum(axis=0), (self.grad_mu**2).sum(axis=0), rv * (gv**2).sum(axis=0),
                rv ** (params.alpha_exp - 2.0) * grho_sq, values.rho_f_rho_rho * grho_sq,
                values.rho_f_rho_c * (grho * self.grad_c).sum(axis=0)]
        if params.noise.K > 0:
            rows += [ito_grad_integrand(params.noise, sigma_table(params.noise, cv, deriv=True), self.grad_c_sq),
                     ito_value_integrand(params.noise, self.sigma, rv, values.f_cc())]
        kinetic, free, interface, art, c_sq, lap_sq, v15, visc, mu, eps_diss, art_diss, rho_rho, rho_c, *ito = (
            integrate_rows(grid, rows)
        )
        self.energies = (0.5 * kinetic, free, 0.5 * interface)
        self.artificial = math.sqrt(params.eps) / (params.alpha_exp - 1.0) * art
        self.sup_functionals = MappingProxyType(
            {"c_l2_sq": c_sq, "grad_c_l2_sq": interface, "lap_c_l2_sq": lap_sq, "v15": v15}
        )
        eps, (ito_grad, ito_value) = params.eps, ito or (0.0, 0.0)
        self.transfer_rates = (visc, mu, eps * eps_diss, math.sqrt(eps) * eps * params.alpha_exp * art_diss,
                               -eps * rho_rho, -eps * rho_c, 0.5 * ito_grad, 0.5 * ito_value)


def collocation(state: SchemeState, params: ApproxParams) -> Collocation:
    """The collocation record of ``state`` under ``params``.

    A record is kept on the state and reused while ``params`` is the object
    it was built with.
    """
    record = state.__dict__.get("_collocation")
    if record is None or record.params is not params:
        record = Collocation(state, params)
        object.__setattr__(state, "_collocation", record)
    return record


def mean_density(grid: TorusGrid, rho: np.ndarray) -> float:
    """The mean of a density from its coefficients: the exactly conserved zero mode."""
    return float(rho[0][grid.zero_index].real)


def smoothstep(r: float) -> float:
    """C^2 cut-off profile: 1 for r <= 0, 0 for r >= 1, monotone between."""
    if r <= 0.0:
        return 1.0
    if r >= 1.0:
        return 0.0
    return 1.0 - r**3 * (10.0 - 15.0 * r + 6.0 * r**2)


def cutoff(grid: TorusGrid, u: np.ndarray, R: float) -> tuple[np.ndarray, float]:
    """[u]_R = chi(||u|| - R) u with the smoothstep profile; ``u`` itself when chi = 1."""
    chi = smoothstep(coeff_norm(grid, u) - R)
    if chi == 1.0:
        return u, 1.0
    return chi * u, chi


def momentum_rhs(state: SchemeState, params: ApproxParams) -> np.ndarray:
    """Right-hand side of the projected momentum equation, in the order-m space."""
    col = collocation(state, params)
    grid = col.grid
    _, chi = col.cut

    # derivatives act mode by mode, so one projection of the sum gives, inside
    # the band, the values of projecting each flux before differentiating it
    transport = div_tensor(grid, col.momentum_flux)
    press = gradient(grid, col.art_pressure)
    visc = div_tensor(grid, col.visc_stress_hat)
    capillary = div_tensor(grid, col.korteweg)
    eps_diff = laplacian(grid, state.w)

    coeffs = -transport - chi * press + params.eps * eps_diff + visc - chi * capillary
    return project(grid, coeffs, params.m)


def ch_drift(state: SchemeState, params: ApproxParams) -> np.ndarray:
    """P_n[(1/rho) Lap mu - [u]_R . grad c]."""
    col = collocation(state, params)
    return project(col.grid, col.lap_mu_over_rho - col.u_r_grad_c, params.n)


def ch_diffusion(grid: TorusGrid, noise_values: np.ndarray | None, n: int) -> np.ndarray:
    """P_n of the stochastic forcing increment, from the grid values of its noise sum; zero for None."""
    if noise_values is None:
        return np.zeros((1,) + grid.band_shape, dtype=np.complex128)
    return project(grid, to_spectral(grid, noise_values), n)


# largest Gram system, (2m+1)^dim unknowns, solved directly; CG above it.  In
# 1D the direct solve wins up to 49 unknowns and loses from 65 (see CHANGES.md)
DIRECT_GRAM_MAX_SIZE = 49

# conjugate-gradient iterations after which a velocity recovery has stalled
CG_MAX_ITERATIONS = 400


@cache
def _gram_tables(grid: TorusGrid, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the direct Gram solve on the order-m band [-m, m]^dim.

    Tables index ``_two_sided(a)`` of half-spectrum arrays a, so a_hat(q) is
    read for any wavevector q.  Returns the table of the Gram matrix
    rho_hat(j - k) and of the right-hand side w_hat(j), then the rows of the
    solution on the stored half and their places in the band.
    """
    shape = grid.band_shape
    size = math.prod(shape)
    offset = np.array(grid.zero_index)
    axis = np.arange(-m, m + 1)
    full = np.stack(np.meshgrid(*(axis,) * grid.dim, indexing="ij"), axis=-1).reshape(-1, grid.dim)

    def table(q: np.ndarray) -> np.ndarray:
        """Position of a_hat(q) in ``_two_sided(a)``: stored, conjugated (a_hat(-q)) or zero out of band."""
        conj = q[..., -1] < 0
        inside = (np.abs(q) <= grid.kmax).all(axis=-1)
        stored = np.where(conj[..., None], -q, q) + offset
        flat = np.ravel_multi_index(tuple(np.moveaxis(np.where(inside[..., None], stored, 0), -1, 0)), shape)
        return np.where(inside, flat + size * conj, 2 * size)

    rows = np.flatnonzero(full[:, -1] >= 0)
    band = np.ravel_multi_index(tuple((full[rows] + offset).T), shape)
    return table(full[:, None] - full[None, :]), table(full), rows, band


def _two_sided(a: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients (flat on the last axis), their conjugates and a zero."""
    return np.concatenate([a, a.conj(), np.zeros(a.shape[:-1] + (1,))], axis=-1)


def _direct_gram_solve(
    grid: TorusGrid, rho: np.ndarray, w: np.ndarray, m: int, rtol: float, rho_values: np.ndarray
) -> np.ndarray:
    """Solve P_m(rho u) = w directly in coefficient space; nothing is transformed.

    The collocation grid resolves rho u alias-free on the order-m band, so
    the projected product is exactly the (block-)Toeplitz matrix
    G[j, k] = rho_hat(j - k) over the two-sided band.
    """
    ncomp = len(w)
    gram, rhs_table, rows, band = _gram_tables(grid, m)
    matrix = _two_sided(rho[0].ravel())[gram]
    rhs = _two_sided(w.reshape(ncomp, -1))[:, rhs_table].T
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise GramSolveError(f"velocity recovery failed: {exc} (min rho {rho_values.min():.3e})") from None
    r = matrix @ x - rhs
    residual = math.sqrt(np.vdot(r, r).real / np.vdot(rhs, rhs).real)
    if not residual <= rtol:
        raise GramSolveError(
            f"velocity recovery failed: relative residual {residual:.3e} (min rho {rho_values.min():.3e})"
        )
    coeffs = np.zeros((ncomp, math.prod(grid.band_shape)), dtype=np.complex128)
    coeffs[:, band] = x[rows].T
    return _symmetrize(grid, coeffs.reshape((ncomp,) + grid.band_shape))


def recover_velocity(
    grid: TorusGrid, rho: np.ndarray, w: np.ndarray, m: int, rho_values: np.ndarray, rtol: float = 1e-12
) -> tuple[np.ndarray, int]:
    """Solve P_m(rho u) = w for u in the order-m space.

    A system of at most ``DIRECT_GRAM_MAX_SIZE`` unknowns is solved directly
    in coefficient space (0 iterations).  Larger ones use conjugate
    gradients: the operator u -> P_m(rho u) is symmetric positive definite
    for positive rho, so the iteration converges quickly from the start
    P_m(w / rho), which is exact for constant density; failure to converge
    signals near-vacuum density.  Either way the relative residual must fall
    to ``rtol``, else ``GramSolveError`` is raised.
    ``rho_values`` are the grid values of rho, which the caller has checked
    against the density floor (the collocation record, its one caller).
    Returns the velocity coefficients and the iteration count; only a failure reduces the density (its minimum).
    """
    w = project(grid, w, m)
    wnorm = coeff_norm(grid, w)
    if wnorm == 0.0:
        return np.zeros(w.shape, dtype=np.complex128), 0
    if not math.isfinite(wnorm):
        raise GramSolveError(f"velocity recovery failed: non-finite momentum (min rho {rho_values.min():.3e})")
    if (2 * m + 1) ** grid.dim <= DIRECT_GRAM_MAX_SIZE:
        return _direct_gram_solve(grid, rho, w, m, rtol, rho_values), 0

    def apply(v: np.ndarray) -> np.ndarray:
        return project(grid, to_spectral(grid, rho_values * to_physical(grid, v)), m)

    # conjugate gradients on coefficient arrays
    x = project(grid, to_spectral(grid, to_physical(grid, w) / rho_values), m)
    r = w - apply(x)
    p = r
    rs = coeff_inner(grid, r, r)
    tol = rtol * wnorm
    for it in range(1, CG_MAX_ITERATIONS + 1):
        if np.sqrt(rs) <= tol:
            return x, it - 1
        ap = apply(p)
        alpha = rs / coeff_inner(grid, p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = coeff_inner(grid, r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise GramSolveError(
        f"velocity recovery stalled after {CG_MAX_ITERATIONS} iterations (residual {np.sqrt(rs) / wnorm:.3e}, min rho {rho_values.min():.3e})"
    )


def check_timestep(state: SchemeState, params: ApproxParams):
    """Advective and fourth-order stability heuristic; violation aborts."""
    grid = state.grid
    dx = grid.spacing
    rho_bar = mean_density(grid, state.rho)
    umax = float(abs(collocation(state, params).u).max())
    limit = params.cfl * dx**4 * rho_bar**2
    if umax > 0.0:
        limit = min(limit, params.cfl * dx / umax)
    if params.dt > limit:
        raise TimeStepError(
            f"dt = {params.dt:.3e} exceeds the stability heuristic {limit:.3e} "
            f"(dx = {dx:.3e}, max|u| = {umax:.3e}, mean rho = {rho_bar:.3e}, cfl = {params.cfl})"
        )


@lru_cache(maxsize=32)
def _step_factors(grid: TorusGrid, dt: float, eps: float, rho_bar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only coefficient factors of one step at mean density ``rho_bar``.

    The stiffness -|k|^4 / rho_bar^2 of the mean-density bilaplacian, its
    exponential propagator over dt, and the backward-Euler factor of the
    artificial diffusion.  The mean density is the exactly conserved zero
    mode, so a trajectory computes them once.
    """
    stiff = -(grid.k_squared**2) / rho_bar**2
    return _read_only(stiff), _read_only(np.exp(dt * stiff)), _read_only(1.0 / (1.0 + eps * dt * grid.k_squared))


def step(state: SchemeState, params: ApproxParams, inc: WienerIncrement) -> tuple[SchemeState, np.ndarray | None]:
    """Advance one time step by the Wiener increment ``inc`` over ``params.dt`` (another dt is a ValueError).

    Returns the new state and the read-only grid values of the noise sum sum_k alpha_k dbeta_k sigma_k(c) at
    the pre state that forced c, for the ledger (None without noise).  The cut-off factor is the pre record's
    ``cut``; min rho and the Gram iterations are the new record's.  A non-finite state, positivity loss, a
    stability violation or overflow raise their ``SchemeError``: the step and the new state's record raise
    on floating-point overflow (no arithmetic changes), so an overflow fails as an ``InstabilityError``.
    """
    grid = state.grid
    dt = params.dt
    if inc.dt != dt:
        raise ValueError(f"the increment is over dt = {inc.dt!r}, the step over dt = {dt!r}")
    try:
        with np.errstate(over="raise"):
            col = collocation(state, params)
            check_timestep(state, params)

            noise_values = None if params.noise.K == 0 else _read_only(noise_sum(col.sigma, inc, params.noise))
            stiff, propag, fac = _step_factors(grid, dt, params.eps, mean_density(grid, state.rho))

            # concentration: exact exponential factor for the mean-density bilaplacian,
            # everything else explicit at the pre-step state
            explicit = ch_drift(state, params) - stiff * state.c
            c_new = propag * (state.c + dt * explicit + ch_diffusion(grid, noise_values, params.n))

            # density: implicit artificial diffusion, explicit transport -Div(rho [u]_R),
            # whose zero mode is structurally zero
            rho_new = fac * (state.rho + dt * -divergence(grid, col.rho_u_r))

            # momentum: implicit artificial diffusion, explicit remainder
            w_expl = momentum_rhs(state, params) - params.eps * laplacian(grid, state.w)
            w_new = fac * (state.w + dt * w_expl)

            # NaN passes every ordered comparison, so it is caught before the record's density guard
            bad = [name for name, a in (("rho", rho_new), ("w", w_new), ("c", c_new)) if not np.isfinite(a).all()]
            if bad:
                raise NonFiniteError(f"non-finite {', '.join(bad)} at t={state.t + dt:.6g}")

            # the new state's record checks its density and recovers its velocity
            new_state = SchemeState(t=state.t + dt, grid=grid, rho=rho_new, w=w_new, c=c_new)
            collocation(new_state, params)
    except FloatingPointError as exc:
        raise InstabilityError(f"{exc} at t={state.t + dt:.6g}") from None
    return new_state, noise_values


@dataclass(frozen=True)
class InitialData:
    """Deterministic-per-seed initial sampler: constant-plus-modes density,
    band-limited random velocity and concentration."""

    mass: float
    rho_amp: float = 0.1
    rho_band: int = 2
    u_amp: float = 0.1
    u_band: int = 2
    c_amp: float = 0.2
    c_band: int = 2
    c_mean: float = 0.0

    def __post_init__(self):
        require(
            (self.mass > 0, f"mass must be positive, got {self.mass}"),
            (0 <= self.rho_amp < 1, f"rho_amp must lie in [0, 1), got {self.rho_amp}"),
            *((getattr(self, name) >= 0, f"{name} must be nonnegative, got {getattr(self, name)}")
              for name in ("u_amp", "c_amp")),
            *((getattr(self, name) >= 0, f"{name} must be a nonnegative integer, got {getattr(self, name)}")
              for name in ("rho_band", "u_band", "c_band")),
        )

    def build(self, grid: TorusGrid, params: ApproxParams, rng: np.random.Generator) -> SchemeState:
        rho_mean = self.mass / grid.volume
        if self.rho_amp > 0:
            bump = random_band_limited(grid, rng, band=self.rho_band, amplitude=self.rho_amp)
            rho = to_spectral(grid, rho_mean * (1.0 + to_physical(grid, bump)[0]))
        else:
            rho = to_spectral(grid, np.full(grid.pshape, rho_mean))
        rho[0][grid.zero_index] = rho_mean

        def sample(ncomp: int, band: int, amplitude: float) -> np.ndarray:
            if amplitude > 0:
                return random_band_limited(grid, rng, ncomp=ncomp, band=band, amplitude=amplitude)
            return np.zeros((ncomp,) + grid.band_shape, dtype=np.complex128)

        u0 = sample(grid.dim, self.u_band, self.u_amp)
        c = sample(1, self.c_band, self.c_amp)
        if self.c_mean != 0.0:
            c[0][grid.zero_index] += self.c_mean
        c = project(grid, c, params.n)

        # the dealiased product rho u0; the state's record recovers the velocity
        w = project(grid, to_spectral(grid, to_physical(grid, rho)[0] * to_physical(grid, u0)), params.m)
        return SchemeState(t=0.0, grid=grid, rho=rho, w=w, c=c)
