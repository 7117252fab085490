"""Assembly and time integration of the regularized approximate system.

The state carries the density rho at the full grid band, the projected
momentum w = P_m(rho u), the recovered velocity u in the order-m subspace and
the concentration c in the order-n subspace.  One step advances, in order:

  1. the concentration by Euler-Maruyama with an exact exponential factor for
     the constant-coefficient bilaplacian (mean-density proxy); every other
     drift contribution and the diffusion are explicit at the pre-step state;
  2. the density with backward-Euler artificial diffusion and explicit
     transport by the cut-off velocity;
  3. the momentum with backward-Euler on its artificial diffusion and all
     remaining terms explicit, followed by velocity recovery through the
     density-weighted Gram system.

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
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .constitutive import FreeEnergySpec, FreeEnergyValues, ViscositySpec, korteweg_values, stress_coeffs
from .errors import GramSolveError, NonFiniteError, PositivityError, TimeStepError
from .noise import NoiseSpec, WienerIncrement, noise_sum, sample_increment, sigma_table, silent_noise
from .spectral import (
    SpectralField,
    TorusGrid,
    coeff_inner,
    div_tensor_coeffs,
    divergence_coeffs,
    from_coeffs,
    grad_tensor_coeffs,
    gradient_coeffs,
    integrate_rows,
    integrate_values,
    laplacian_coeffs,
    multiply,
    norm_l2,
    project,
    project_coeffs,
    random_band_limited,
    to_physical,
    to_spectral,
    zeros,
)

__all__ = [
    "ApproxParams",
    "SchemeState",
    "StepReport",
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
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.alpha_exp <= 4:
            raise ValueError(f"alpha_exp must exceed 4, got {self.alpha_exp}")
        if self.R <= 0:
            raise ValueError("R must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.m < 1 or self.n < 1:
            raise ValueError("Galerkin orders m, n must be at least 1")


@dataclass(frozen=True)
class SchemeState:
    t: float
    rho: SpectralField
    w: SpectralField
    u: SpectralField
    c: SpectralField

    def __getstate__(self):
        # the collocation record is a cache, rebuilt on demand: never pickled
        return {k: v for k, v in self.__dict__.items() if k != "_collocation"}


@dataclass(frozen=True)
class StepReport:
    chi: float
    min_rho: float
    gram_iterations: int
    increment: WienerIncrement


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _values(f: SpectralField) -> np.ndarray:
    return _read_only(to_physical(f))


def _split(stack, sizes: list[int]) -> list:
    """Consecutive row blocks of ``stack`` with the given sizes, as views."""
    return [stack[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _stacked_values(grid: TorusGrid, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Grid values of coefficient blocks, all in one inverse transform; read-only."""
    values = _values(SpectralField(grid, np.concatenate(blocks)))
    return _split(values, [len(b) for b in blocks])


def _stacked_coeffs(grid: TorusGrid, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Coefficients of grid-value blocks, all in one forward transform; read-only."""
    coeffs = to_spectral(grid, np.concatenate(blocks)).coeffs
    return _split(coeffs, [len(b) for b in blocks])


def _part(stack: str, index: int) -> property:
    """Block ``index`` of the stacked transform ``stack`` of the record."""
    return property(lambda self: getattr(self, stack)[index], doc=f"block {index} of {stack}")


class Collocation:
    """Collocation values of one state under one parameter set.

    This is the one place a state becomes grid values: every field,
    derivative, constitutive quantity, noise table and energy below is
    computed on first use and then shared by the step, the energy ledger and
    the sup functionals.  Values keep the component axis of ``to_physical``
    and are read-only.  Obtain records through ``collocation``.

    Fields are transformed in stacks, one transform call per stack: the
    fields linear in the state (``_linear``), the pre-step products
    (``_products``, kept as coefficients), mu with its derivatives and the
    dealiased momentum (``_resampled``), and the products of those
    (``_second_products``, coefficients).  Each named field is a view of its
    stack.  The density has its own transform, because the positivity guard
    of the velocity recovery of a new state needs it first.  The pointwise
    constitutive values (log rho and the free-energy profiles) are evaluated
    once per state, in ``free_energy_values``.
    """

    def __init__(self, state: SchemeState, params: ApproxParams, rho: np.ndarray | None = None):
        # a record-free twin of the state, so the state and its record form no reference cycle
        self.state = replace(state)
        self.params = params
        self.grid = state.rho.grid
        if rho is not None:
            self.rho = rho

    @cached_property
    def rho(self) -> np.ndarray:
        return _values(self.state.rho)

    @cached_property
    def _linear_coeffs(self) -> list[np.ndarray]:
        s, grid = self.state, self.grid
        grad_u = grad_tensor_coeffs(grid, s.u.coeffs)
        blocks = [
            s.u.coeffs,
            s.c.coeffs,
            gradient_coeffs(grid, s.c.coeffs),
            laplacian_coeffs(grid, s.c.coeffs),
            gradient_coeffs(grid, s.rho.coeffs),
            grad_u,
            stress_coeffs(grid, grad_u, self.params.visc),
        ]
        return [_read_only(b) for b in blocks]

    visc_stress_coeffs = _part("_linear_coeffs", 6)

    @cached_property
    def _linear(self) -> list[np.ndarray]:
        return _stacked_values(self.grid, self._linear_coeffs)

    u = _part("_linear", 0)
    c = _part("_linear", 1)
    grad_c = _part("_linear", 2)
    lap_c = _part("_linear", 3)
    grad_rho = _part("_linear", 4)
    grad_u = _part("_linear", 5)
    visc_stress = _part("_linear", 6)

    @cached_property
    def cut(self) -> tuple[SpectralField, float]:
        """[u]_R and the cut-off factor chi."""
        return cutoff(self.state.u, self.params.R)

    @cached_property
    def u_r(self) -> np.ndarray:
        u_r, _ = self.cut
        return self.u if u_r is self.state.u else _values(u_r)

    @cached_property
    def free_energy_values(self) -> FreeEnergyValues:
        """f and its partials at this state's values.

        Raises PositivityError, at the state's time, if the density is not positive.
        """
        return FreeEnergyValues(self.rho[0], self.c[0], self.params.fspec, t=self.state.t)

    @cached_property
    def _rho_alpha(self) -> np.ndarray:
        """rho^alpha, shared by the artificial pressure and the artificial energy."""
        return self.rho[0] ** self.params.alpha_exp

    @cached_property
    def _products(self) -> list[np.ndarray]:
        p = self.params
        values = self.free_energy_values
        blocks = [
            values.chemical_potential(self.lap_c[0])[None],
            self.rho * self.u,
            (values.pressure + math.sqrt(p.eps) * self._rho_alpha)[None],
            korteweg_values(self.grad_c),
            (self.u_r * self.grad_c).sum(axis=0)[None],
            self.rho * self.u_r,
        ]
        return _stacked_coeffs(self.grid, blocks)

    momentum = _part("_products", 1)
    art_pressure = _part("_products", 2)
    korteweg = _part("_products", 3)
    u_r_grad_c = _part("_products", 4)
    rho_u_r = _part("_products", 5)

    @cached_property
    def mu(self) -> SpectralField:
        return SpectralField(self.grid, self._products[0])

    @cached_property
    def _resampled(self) -> list[np.ndarray]:
        grid = self.grid
        mu = self._products[0]
        return _stacked_values(grid, [mu, gradient_coeffs(grid, mu), laplacian_coeffs(grid, mu), self.momentum])

    mu_values = _part("_resampled", 0)
    grad_mu = _part("_resampled", 1)
    lap_mu = _part("_resampled", 2)
    momentum_values = _part("_resampled", 3)

    @cached_property
    def _second_products(self) -> list[np.ndarray]:
        mv, u_r = self.momentum_values, self.u_r
        # flux component i*N+j is mv_i u_r_j
        flux = (mv[:, None] * u_r[None]).reshape((len(mv) ** 2,) + mv.shape[1:])
        return _stacked_coeffs(self.grid, [(self.lap_mu[0] / self.rho[0])[None], flux])

    lap_mu_over_rho = _part("_second_products", 0)
    momentum_flux = _part("_second_products", 1)

    @cached_property
    def sigma(self) -> np.ndarray:
        return sigma_table(self.params.noise, self.c[0])

    @cached_property
    def dsigma(self) -> np.ndarray:
        return sigma_table(self.params.noise, self.c[0], deriv=True)

    @cached_property
    def rho_u_sq(self) -> np.ndarray:
        """rho |u|^2, the kinetic energy integrand without its factor 1/2."""
        return _read_only(self.rho[0] * (self.u**2).sum(axis=0))

    @cached_property
    def grad_c_sq(self) -> np.ndarray:
        """|grad c|^2."""
        return _read_only((self.grad_c**2).sum(axis=0))

    @cached_property
    def energies(self) -> tuple[float, float, float]:
        """Kinetic, free and interface energy; raises if the density is not positive."""
        free = self.rho[0] * self.free_energy_values.free_energy
        kinetic, free, interface = integrate_rows(self.grid, [self.rho_u_sq, free, self.grad_c_sq])
        return 0.5 * kinetic, free, 0.5 * interface

    @cached_property
    def artificial(self) -> float:
        """sqrt(eps)/(alpha-1) int rho^alpha."""
        p = self.params
        return float(math.sqrt(p.eps) / (p.alpha_exp - 1.0) * integrate_values(self.grid, self._rho_alpha))


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


def mean_density(rho: SpectralField) -> float:
    return float(rho.coeffs[0][rho.grid.zero_index].real)


def smoothstep(r: float) -> float:
    """C^2 cut-off profile: 1 for r <= 0, 0 for r >= 1, monotone between."""
    if r <= 0.0:
        return 1.0
    if r >= 1.0:
        return 0.0
    return 1.0 - r**3 * (10.0 - 15.0 * r + 6.0 * r**2)


def cutoff(u: SpectralField, R: float) -> tuple[SpectralField, float]:
    """[u]_R = chi(||u|| - R) u with the smoothstep profile."""
    chi = smoothstep(norm_l2(u) - R)
    if chi == 1.0:
        return u, 1.0
    return SpectralField(u.grid, chi * u.coeffs), chi


def _transport_rho(col: Collocation) -> np.ndarray:
    """Coefficients of -Div(rho [u]_R); its zero mode is structurally zero."""
    return -divergence_coeffs(col.grid, col.rho_u_r)


def momentum_rhs(state: SchemeState, params: ApproxParams) -> SpectralField:
    """Right-hand side of the projected momentum equation, in the order-m space."""
    col = collocation(state, params)
    grid = col.grid
    _, chi = col.cut

    # derivatives act mode by mode, so one projection of the sum gives, inside
    # the band, the values of projecting each flux before differentiating it
    transport = div_tensor_coeffs(grid, col.momentum_flux)
    press = gradient_coeffs(grid, col.art_pressure)
    visc = div_tensor_coeffs(grid, col.visc_stress_coeffs)
    capillary = div_tensor_coeffs(grid, col.korteweg)
    eps_diff = laplacian_coeffs(grid, state.w.coeffs)

    coeffs = -transport - chi * press + params.eps * eps_diff + visc - chi * capillary
    return SpectralField(grid, project_coeffs(grid, coeffs, params.m))


def ch_drift(state: SchemeState, params: ApproxParams) -> SpectralField:
    """P_n[(1/rho) Lap mu - [u]_R . grad c]."""
    col = collocation(state, params)
    return SpectralField(col.grid, project_coeffs(col.grid, col.lap_mu_over_rho - col.u_r_grad_c, params.n))


def ch_diffusion(state: SchemeState, inc: WienerIncrement, params: ApproxParams) -> SpectralField:
    """P_n of the stochastic forcing increment."""
    grid = state.c.grid
    if params.noise.K == 0:
        return zeros(grid)
    increment = noise_sum(collocation(state, params).sigma, inc, params.noise)
    return project(to_spectral(grid, increment), params.n)


# largest Gram system, (2m+1)^dim unknowns, solved directly; CG above it.  In
# 1D the direct solve wins up to 49 unknowns and loses from 65 (see CHANGES.md)
DIRECT_GRAM_MAX_SIZE = 49


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
    # band axes run over -kmax..kmax except the last, the stored half 0..kmax
    offset = np.array([grid.kmax] * (grid.dim - 1) + [0])
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


def _direct_gram_solve(rho: SpectralField, w: SpectralField, m: int, rtol: float, min_rho: float) -> SpectralField:
    """Solve P_m(rho u) = w directly in coefficient space; nothing is transformed.

    The collocation grid resolves rho u alias-free on the order-m band, so
    the projected product is exactly the (block-)Toeplitz matrix
    G[j, k] = rho_hat(j - k) over the two-sided band.
    """
    grid = rho.grid
    gram, rhs_table, rows, band = _gram_tables(grid, m)
    matrix = _two_sided(rho.coeffs[0].ravel())[gram]
    rhs = _two_sided(w.coeffs.reshape(w.ncomp, -1))[:, rhs_table].T
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise GramSolveError(f"velocity recovery failed: {exc} (min rho {min_rho:.3e})") from None
    r = matrix @ x - rhs
    residual = math.sqrt(np.vdot(r, r).real / np.vdot(rhs, rhs).real)
    if not residual <= rtol:
        raise GramSolveError(f"velocity recovery failed: relative residual {residual:.3e} (min rho {min_rho:.3e})")
    coeffs = np.zeros((w.ncomp, math.prod(grid.band_shape)), dtype=np.complex128)
    coeffs[:, band] = x[rows].T
    return from_coeffs(grid, coeffs.reshape((w.ncomp,) + grid.band_shape))


def recover_velocity(
    rho: SpectralField,
    w: SpectralField,
    m: int,
    rho_floor: float = 1e-8,
    rtol: float = 1e-12,
    maxiter: int = 400,
    rho_values: np.ndarray | None = None,
) -> tuple[SpectralField, int]:
    """Solve P_m(rho u) = w for u in the order-m space.

    A system of at most ``DIRECT_GRAM_MAX_SIZE`` unknowns is solved directly
    in coefficient space (0 iterations).  Larger ones use conjugate
    gradients: the operator u -> P_m(rho u) is symmetric positive definite
    for positive rho, so the iteration converges quickly from the start
    P_m(w / rho), which is exact for constant density; failure to converge
    signals near-vacuum density.  Either way the relative residual must fall
    to ``rtol``, else ``GramSolveError`` is raised.
    ``rho_values`` are the grid values of rho when the caller has them.
    Returns the velocity and the iteration count.
    """
    vals = to_physical(rho)[0] if rho_values is None else rho_values
    min_rho = float(vals.min())
    if min_rho <= rho_floor:
        raise PositivityError(min_rho)

    grid = rho.grid
    w = project(w, m)
    wnorm = norm_l2(w)
    if wnorm == 0.0:
        return zeros(grid, w.ncomp), 0
    if not math.isfinite(wnorm):
        raise GramSolveError(f"velocity recovery failed: non-finite momentum (min rho {min_rho:.3e})")
    if (2 * m + 1) ** grid.dim <= DIRECT_GRAM_MAX_SIZE:
        return _direct_gram_solve(rho, w, m, rtol, min_rho), 0

    def apply(v: np.ndarray) -> np.ndarray:
        return project(to_spectral(grid, vals * to_physical(SpectralField(grid, v))), m).coeffs

    # conjugate gradients on coefficient arrays
    x = project(to_spectral(grid, to_physical(w) / vals), m).coeffs
    r = w.coeffs - apply(x)
    p = r
    rs = coeff_inner(grid, r, r)
    tol = rtol * wnorm
    for it in range(1, maxiter + 1):
        if np.sqrt(rs) <= tol:
            return SpectralField(grid, x), it - 1
        ap = apply(p)
        alpha = rs / coeff_inner(grid, p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = coeff_inner(grid, r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise GramSolveError(
        f"velocity recovery stalled after {maxiter} iterations (residual {np.sqrt(rs) / wnorm:.3e}, min rho {min_rho:.3e})"
    )


def check_timestep(state: SchemeState, params: ApproxParams):
    """Advective and fourth-order stability heuristic; violation aborts."""
    grid = state.rho.grid
    dx = grid.spacing
    rho_bar = mean_density(state.rho)
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


def step(state: SchemeState, params: ApproxParams, rng: np.random.Generator) -> tuple[SchemeState, StepReport]:
    """Advance one time step; raises on a non-finite state, positivity loss or stability violation."""
    grid = state.rho.grid
    dt = params.dt
    col = collocation(state, params)
    check_timestep(state, params)

    inc = sample_increment(dt, rng, params.noise)
    _, chi = col.cut
    stiff, propag, fac = _step_factors(grid, dt, params.eps, mean_density(state.rho))

    # concentration: exact exponential factor for the mean-density bilaplacian,
    # everything else explicit at the pre-step state
    drift = ch_drift(state, params)
    explicit = drift.coeffs - stiff * state.c.coeffs
    noise_inc = ch_diffusion(state, inc, params)
    c_new = SpectralField(grid, propag * (state.c.coeffs + dt * explicit + noise_inc.coeffs))

    # density: implicit artificial diffusion, explicit transport
    rho_new = SpectralField(grid, fac * (state.rho.coeffs + dt * _transport_rho(col)))

    # momentum: implicit artificial diffusion, explicit remainder
    rhs = momentum_rhs(state, params)
    w_expl = rhs.coeffs - params.eps * laplacian_coeffs(grid, state.w.coeffs)
    w_new = SpectralField(grid, fac * (state.w.coeffs + dt * w_expl))

    # NaN passes every ordered comparison, so it is caught before the positivity guards
    bad = [name for name, f in (("rho", rho_new), ("w", w_new), ("c", c_new)) if not np.isfinite(f.coeffs).all()]
    if bad:
        raise NonFiniteError(f"non-finite {', '.join(bad)} at t={state.t + dt:.6g}")

    rho_vals = _values(rho_new)
    min_rho = float(rho_vals.min())
    if min_rho <= params.fspec.rho_floor:
        raise PositivityError(min_rho, t=state.t + dt)

    u_new, iters = recover_velocity(
        rho_new, w_new, params.m, rho_floor=params.fspec.rho_floor, rho_values=rho_vals[0]
    )

    new_state = SchemeState(t=state.t + dt, rho=rho_new, w=w_new, u=u_new, c=c_new)
    object.__setattr__(new_state, "_collocation", Collocation(new_state, params, rho=rho_vals))
    return new_state, StepReport(chi=chi, min_rho=min_rho, gram_iterations=iters, increment=inc)


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
        if self.mass <= 0:
            raise ValueError("total mass must be positive")
        if not 0 <= self.rho_amp < 1:
            raise ValueError("rho_amp must lie in [0, 1) to keep the density positive")

    def build(self, grid: TorusGrid, params: ApproxParams, rng: np.random.Generator) -> SchemeState:
        rho_mean = self.mass / grid.volume
        if self.rho_amp > 0:
            bump = random_band_limited(grid, rng, band=self.rho_band, amplitude=self.rho_amp)
            rho = to_spectral(grid, rho_mean * (1.0 + to_physical(bump)[0]))
        else:
            rho = to_spectral(grid, np.full(grid.pshape, rho_mean))
        coeffs = rho.coeffs.copy()
        coeffs[0][grid.zero_index] = rho_mean
        rho = SpectralField(grid, coeffs)

        if self.u_amp > 0:
            u0 = random_band_limited(grid, rng, ncomp=grid.dim, band=self.u_band, amplitude=self.u_amp)
        else:
            u0 = zeros(grid, grid.dim)
        if self.c_amp > 0:
            c0 = random_band_limited(grid, rng, band=self.c_band, amplitude=self.c_amp)
            c = SpectralField(grid, c0.coeffs.copy())
        else:
            c = zeros(grid)
        if self.c_mean != 0.0:
            cc = c.coeffs.copy()
            cc[0][grid.zero_index] += self.c_mean
            c = SpectralField(grid, cc)
        c = project(c, params.n)

        w = project(multiply(rho, u0), params.m)
        u, _ = recover_velocity(rho, w, params.m, rho_floor=params.fspec.rho_floor)
        return SchemeState(t=0.0, rho=rho, w=w, u=u, c=c)
