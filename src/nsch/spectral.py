"""Real trigonometric-polynomial fields on the flat torus [-pi, pi)^N, N = 1, 2.

A field is stored as the half-spectrum of its Fourier-series coefficients
c_k (the coefficients of e^{i k.x}), restricted to the band |k_i| <= kmax.
Conjugate symmetry c_{-k} = conj(c_k) is implied by the storage and enforced
on the one stored line that carries both signs, so every field is real by
construction.  All differential operators act exactly on coefficients;
pointwise nonlinearities go through a padded collocation grid wide enough
that quadratic products are alias-free after re-truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "zeros",
    "constant",
    "from_coeffs",
    "to_physical",
    "to_spectral",
    "project",
    "project_coeffs",
    "gradient",
    "gradient_coeffs",
    "divergence",
    "divergence_coeffs",
    "laplacian",
    "laplacian_coeffs",
    "grad_tensor",
    "grad_tensor_coeffs",
    "div_tensor",
    "div_tensor_coeffs",
    "multiply",
    "dot",
    "outer",
    "pointwise",
    "inner_product",
    "coeff_inner",
    "norm_l2",
    "norms_l2_squared",
    "norm_sobolev",
    "integral",
    "integrate_values",
    "integrate_rows",
    "random_band_limited",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on [-pi, pi)^N with a fixed spectral band.

    ``modes_per_dim`` must be even and positive; the retained wavevectors
    satisfy |k_i| <= modes_per_dim // 2.  The collocation count is padded
    beyond twice the band so products of two band-limited fields re-truncate
    without aliasing (2/3-rule padding).
    """

    dim: int
    modes_per_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.modes_per_dim <= 0 or self.modes_per_dim % 2 != 0:
            raise ValueError(f"modes_per_dim must be a positive even integer, got {self.modes_per_dim}")

    @property
    def kmax(self) -> int:
        return self.modes_per_dim // 2

    @cached_property
    def points_per_dim(self) -> int:
        # dealiased quadratic products need >= 3*kmax + 1 points; the smallest 5-smooth such count is a fast FFT size
        n = 3 * self.kmax + 1
        while True:
            rest = n
            for p in (2, 3, 5):
                while rest % p == 0:
                    rest //= p
            if rest == 1:
                return n
            n += 1

    @cached_property
    def pshape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @cached_property
    def band_shape(self) -> tuple[int, ...]:
        k = self.kmax
        return (k + 1,) if self.dim == 1 else (2 * k + 1, k + 1)

    @property
    def zero_index(self) -> tuple[int, ...]:
        """Position of the k = 0 coefficient in the band."""
        return (0,) if self.dim == 1 else (self.kmax, 0)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.points_per_dim

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** self.dim

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Collocation coordinates per axis, uniform on [-pi, pi)."""
        x = -np.pi + self.spacing * np.arange(self.points_per_dim)
        return (x,) * self.dim

    def mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.coords, indexing="ij"))

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Wavevector component arrays broadcast over the band shape."""
        k = self.kmax
        if self.dim == 1:
            return (np.arange(k + 1, dtype=float),)
        kx = np.arange(-k, k + 1, dtype=float)[:, None]
        ky = np.arange(0, k + 1, dtype=float)[None, :]
        return (kx, ky)

    @cached_property
    def _ik(self) -> np.ndarray:
        """i k_j over the band, one row per axis j: the factor of d/dx_j."""
        ik = np.stack([np.broadcast_to(1j * ka, self.band_shape) for ka in self.k_axes])
        ik.flags.writeable = False
        return ik

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.band_shape)
        for ka in self.k_axes:
            out = out + ka**2
        return out

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each stored mode in the full two-sided spectrum."""
        w = np.full(self.band_shape, 2.0)
        if self.dim == 1:
            w[0] = 1.0
        else:
            w[:, 0] = 1.0
        return w

    @cached_property
    def _twist(self) -> np.ndarray:
        # the FFT references x = 0 while the grid starts at -pi; the basis
        # change multiplies mode k by (-1)^(sum |k_i|)
        axes = self.k_axes
        t = np.ones(self.band_shape)
        for ka in axes:
            t = t * np.where(np.abs(ka).astype(int) % 2 == 0, 1.0, -1.0)
        return t


@dataclass(frozen=True)
class SpectralField:
    """Immutable real field; ``coeffs`` has shape (ncomp,) + grid.band_shape."""

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = self.grid.band_shape
        if self.coeffs.ndim != len(expected) + 1 or self.coeffs.shape[1:] != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match band {expected}")
        if self.coeffs.dtype != np.complex128:
            raise ValueError(f"coefficients must be complex128, got {self.coeffs.dtype}")
        self.coeffs.setflags(write=False)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1


def _symmetrize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Enforce exact conjugate symmetry on the self-paired stored line."""
    if grid.dim == 1:
        coeffs[..., 0] = coeffs[..., 0].real
    else:
        line = coeffs[..., :, 0]
        coeffs[..., :, 0] = 0.5 * (line + line[..., ::-1].conj())
        k = grid.kmax
        coeffs[..., k, 0] = coeffs[..., k, 0].real
    return coeffs


def from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> SpectralField:
    """Build a field from band coefficients, adding a component axis to scalars."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape == grid.band_shape:
        arr = arr[None, ...]
    arr = _symmetrize(grid, arr.copy())
    return SpectralField(grid, arr)


def zeros(grid: TorusGrid, ncomp: int = 1) -> SpectralField:
    return SpectralField(grid, np.zeros((ncomp,) + grid.band_shape, dtype=np.complex128))


def constant(grid: TorusGrid, value: float) -> SpectralField:
    c = np.zeros((1,) + grid.band_shape, dtype=np.complex128)
    c[0][grid.zero_index] = value
    return SpectralField(grid, c)


def _scatter(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Place band coefficients into an rfftn-layout buffer."""
    npts = grid.points_per_dim
    k = grid.kmax
    ncomp = coeffs.shape[0]
    tw = coeffs * grid._twist
    if grid.dim == 1:
        buf = np.zeros((ncomp, npts // 2 + 1), dtype=np.complex128)
        buf[:, : k + 1] = tw
    else:
        buf = np.zeros((ncomp, npts, npts // 2 + 1), dtype=np.complex128)
        buf[:, : k + 1, : k + 1] = tw[:, k:, :]
        buf[:, npts - k :, : k + 1] = tw[:, :k, :]
    return buf


def _gather(grid: TorusGrid, buf: np.ndarray) -> np.ndarray:
    npts = grid.points_per_dim
    k = grid.kmax
    ncomp = buf.shape[0]
    if grid.dim == 1:
        out = buf[:, : k + 1].copy()
    else:
        out = np.empty((ncomp, 2 * k + 1, k + 1), dtype=np.complex128)
        out[:, k:, :] = buf[:, : k + 1, : k + 1]
        out[:, :k, :] = buf[:, npts - k :, : k + 1]
    return out * grid._twist


def to_physical(f: SpectralField) -> np.ndarray:
    """Values on the collocation grid, shape (ncomp,) + grid.pshape."""
    grid = f.grid
    axes = tuple(range(1, grid.dim + 1))
    buf = _scatter(grid, f.coeffs)
    return np.fft.irfftn(buf, s=grid.pshape, axes=axes, norm="forward")


def to_spectral(grid: TorusGrid, values: np.ndarray) -> SpectralField:
    """Forward transform of real grid values, truncated to the band."""
    vals = np.asarray(values, dtype=float)
    if vals.shape == grid.pshape:
        vals = vals[None, ...]
    if vals.shape[1:] != grid.pshape:
        raise ValueError(f"value shape {values.shape} does not match collocation grid {grid.pshape}")
    axes = tuple(range(1, grid.dim + 1))
    buf = np.fft.rfftn(vals, axes=axes, norm="forward")
    coeffs = _symmetrize(grid, _gather(grid, buf))
    return SpectralField(grid, coeffs)


def project(f: SpectralField, order: int) -> SpectralField:
    """Orthogonal projection onto the subspace with all |k_i| <= order."""
    return SpectralField(f.grid, project_coeffs(f.grid, f.coeffs, order))


def project_coeffs(grid: TorusGrid, coeffs: np.ndarray, order: int) -> np.ndarray:
    """``project`` on a coefficient array."""
    if not 0 <= order <= grid.kmax:
        raise ValueError(f"projection order {order} outside [0, {grid.kmax}]")
    return np.where(_band_mask(grid, order), coeffs, 0.0)


@cache
def _band_mask(grid: TorusGrid, order: int) -> np.ndarray:
    mask = np.ones(grid.band_shape, dtype=bool)
    for ka in grid.k_axes:
        mask &= np.abs(ka) <= order
    mask.flags.writeable = False
    return mask


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field; output has grid.dim components."""
    if not f.is_scalar:
        raise ValueError("gradient expects a scalar field")
    return SpectralField(f.grid, gradient_coeffs(f.grid, f.coeffs))


def gradient_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """``gradient`` on the coefficient array of a scalar field."""
    return grid._ik * coeffs[0]


def divergence(f: SpectralField) -> SpectralField:
    # in 1D a vector has a single component, so the scalar/vector distinction
    # collapses; in 2D a scalar input is rejected here
    grid = f.grid
    if f.ncomp != grid.dim:
        raise ValueError(f"divergence expects {grid.dim} components, got {f.ncomp} (scalar input?)")
    return SpectralField(grid, divergence_coeffs(grid, f.coeffs))


def divergence_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """``divergence`` on the coefficient array of a vector field."""
    out = np.zeros(grid.band_shape, dtype=np.complex128)
    for i in range(grid.dim):
        out += grid._ik[i] * coeffs[i]
    return out[None, ...]


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, laplacian_coeffs(f.grid, f.coeffs))


def laplacian_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """``laplacian`` on a coefficient array."""
    return -grid.k_squared * coeffs


def grad_tensor(u: SpectralField) -> SpectralField:
    """Velocity gradient du_i/dx_j of a vector field, components flattened as i*N+j."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise ValueError("grad_tensor expects a vector field")
    return SpectralField(grid, grad_tensor_coeffs(grid, u.coeffs))


def grad_tensor_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """``grad_tensor`` on the coefficient array of a vector field."""
    return (grid._ik[None] * coeffs[:, None]).reshape((grid.dim**2,) + grid.band_shape)


def div_tensor(t: SpectralField) -> SpectralField:
    """Row-wise divergence (Div T)_i = d T_ij / dx_j of a flattened tensor field."""
    grid = t.grid
    n = grid.dim
    if t.ncomp != n * n:
        raise ValueError(f"div_tensor expects {n * n} components, got {t.ncomp}")
    return SpectralField(grid, div_tensor_coeffs(grid, t.coeffs))


def div_tensor_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """``div_tensor`` on the coefficient array of a flattened tensor field."""
    n = grid.dim
    out = np.zeros((n,) + grid.band_shape, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i] += grid._ik[j] * coeffs[i * n + j]
    return out


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product; scalars broadcast against vectors."""
    _check_same_grid(f, g)
    fv, gv = to_physical(f), to_physical(g)
    if f.ncomp == g.ncomp:
        prod = fv * gv
    elif f.is_scalar:
        prod = fv[0] * gv
    elif g.is_scalar:
        prod = fv * gv[0]
    else:
        raise ValueError(f"incompatible component counts {f.ncomp} and {g.ncomp}")
    return to_spectral(f.grid, prod)


def dot(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise dot product of two vector fields."""
    _check_same_grid(f, g)
    if f.ncomp != g.ncomp:
        raise ValueError("dot requires matching component counts")
    prod = np.sum(to_physical(f) * to_physical(g), axis=0)
    return to_spectral(f.grid, prod)


def outer(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased outer product (f tensor g)_ij = f_i g_j, flattened as i*N+j."""
    _check_same_grid(f, g)
    fv, gv = to_physical(f), to_physical(g)
    prod = np.stack([fv[i] * gv[j] for i in range(f.ncomp) for j in range(g.ncomp)])
    return to_spectral(f.grid, prod)


def pointwise(grid: TorusGrid, fn, *fields: SpectralField) -> SpectralField:
    """Apply ``fn`` to the physical values of the given fields, re-truncate.

    Used for compositions of degree higher than two (powers of the density,
    free-energy derivatives); these accept truncation error but see no
    aliasing of retained modes beyond it.
    """
    vals = [to_physical(f) for f in fields]
    return to_spectral(grid, fn(*vals))


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the torus, summed over components."""
    _check_same_grid(f, g)
    if f.ncomp != g.ncomp:
        raise ValueError("inner product requires matching component counts")
    return coeff_inner(f.grid, f.coeffs, g.coeffs)


def coeff_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product of two coefficient arrays of the same shape on ``grid``."""
    return float(grid.volume * (grid.parseval_weights * (a * b.conj()).real).sum())


def norm_l2(f: SpectralField) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def norms_l2_squared(grid: TorusGrid, blocks: list[np.ndarray]) -> list[float]:
    """norm_l2(f) ** 2 of the field of each coefficient block, rounded exactly as that.

    The single-component blocks share one stacked Parseval row sum; a block
    of several components keeps one pairwise sum over all of them, as in
    norm_l2, because a sum of its row sums would round differently.
    """
    stack = np.concatenate(blocks)
    weighted = (grid.parseval_weights * (stack * stack.conj()).real).reshape(len(stack), -1)
    row_sums = weighted.sum(axis=1).tolist()
    sums, start = [], 0
    for b in blocks:
        sums.append(row_sums[start] if len(b) == 1 else float(weighted[start : start + len(b)].sum()))
        start += len(b)
    return [float(np.sqrt(max(grid.volume * s, 0.0))) ** 2 for s in sums]


def norm_sobolev(f: SpectralField, order: float) -> float:
    """Sobolev norm with coefficient weights (1 + |k|^2)^order; order may be negative."""
    w = f.grid.parseval_weights * (1.0 + f.grid.k_squared) ** order
    val = f.grid.volume * np.sum(w * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(max(val, 0.0)))


def integral(f: SpectralField) -> float:
    """Integral over the torus, exact from the zero mode."""
    grid = f.grid
    if not f.is_scalar:
        raise ValueError("integral expects a scalar field")
    return float(grid.volume * f.coeffs[0][grid.zero_index].real)


def integrate_values(grid: TorusGrid, values: np.ndarray) -> float:
    """Uniform-grid quadrature of physical values over the torus."""
    return float(values.sum() * grid.spacing**grid.dim)


def integrate_rows(grid: TorusGrid, integrands: list[np.ndarray]) -> list[float]:
    """integrate_values of each integrand, from one row sum over their stack.

    A row sum over a C-contiguous stack adds each row in the same pairwise
    order as a sum over that row alone, so every value rounds exactly like
    integrate_values.
    """
    stack = np.asarray(integrands).reshape(len(integrands), -1)
    return (stack.sum(axis=1) * grid.spacing**grid.dim).tolist()


def random_band_limited(
    grid: TorusGrid,
    rng: np.random.Generator,
    ncomp: int = 1,
    band: int = 2,
    amplitude: float = 1.0,
    zero_mean: bool = True,
) -> SpectralField:
    """Random field supported on |k_i| <= band, scaled to the given sup norm."""
    if band > grid.kmax:
        raise ValueError(f"band {band} exceeds grid truncation {grid.kmax}")
    shape = (ncomp,) + grid.band_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = project(from_coeffs(grid, raw), band)
    coeffs = f.coeffs.copy()
    if zero_mean:
        coeffs[(slice(None), *grid.zero_index)] = 0.0
    f = SpectralField(grid, coeffs)
    sup = np.max(np.abs(to_physical(f)))
    if sup == 0.0:
        return f
    return SpectralField(grid, coeffs * (amplitude / sup))
