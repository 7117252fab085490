"""Real trigonometric-polynomial fields on the flat torus [-pi, pi)^N, N = 1, 2.

A field is stored as the half-spectrum of its Fourier-series coefficients
c_k (the coefficients of e^{i k.x}), restricted to the band |k_i| <= kmax.
One layout rule holds for every N: each band axis but the last runs over
-kmax..kmax, the last over the stored half 0..kmax, so ``band_shape`` is
(2 kmax + 1,) * (N - 1) + (kmax + 1,).  The half implies c_{-k} = conj(c_k)
except on the self-paired plane (last index 0), which holds both k and -k;
there the symmetry is enforced exactly, so every field is real by
construction.  A checkpoint block is a C-ordered ``band_shape`` array.
All differential operators act exactly on coefficients; pointwise
nonlinearities go through a padded collocation grid wide enough that
quadratic products are alias-free after re-truncation.

A field is its coefficient array, of shape (..., ncomp) + band_shape,
everywhere in the package: every operator, transform, product and norm
takes ``(grid, coeffs)``, and the operators, transforms and products accept
any leading axes in front of the component axis, so a stack of paths goes
through one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import require

__all__ = [
    "TorusGrid",
    "to_physical",
    "to_spectral",
    "project",
    "gradient",
    "divergence",
    "laplacian",
    "grad_tensor",
    "div_tensor",
    "multiply",
    "dot",
    "outer",
    "pointwise",
    "coeff_inner",
    "coeff_norm",
    "norm_sobolev",
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
        require(
            (self.dim in (1, 2), f"dim must be 1 or 2, got {self.dim}"),
            (self.modes_per_dim > 0 and self.modes_per_dim % 2 == 0,
             f"modes_per_dim must be a positive even integer, got {self.modes_per_dim}"),
        )

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
    def _fft(self) -> dict:
        """Keywords of every transform call: numpy then never derives the shape from the array.

        The transform axes are the last ``dim``, so any axes in front of
        the component axis are carried through.
        """
        return {"s": self.pshape, "axes": tuple(range(-self.dim, 0)), "norm": "forward"}

    @cached_property
    def band_shape(self) -> tuple[int, ...]:
        return (2 * self.kmax + 1,) * (self.dim - 1) + (self.kmax + 1,)

    @property
    def zero_index(self) -> tuple[int, ...]:
        """Position of the k = 0 coefficient in the band."""
        return (self.kmax,) * (self.dim - 1) + (0,)

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
        full, half = np.arange(-k, k + 1, dtype=float), np.arange(0, k + 1, dtype=float)
        return tuple(np.meshgrid(*[full] * (self.dim - 1), half, indexing="ij", sparse=True))

    @cached_property
    def _band_index(self) -> tuple:
        """Index of the band in an rfftn-layout array, behind any leading axes: a view in 1D.

        Wavenumber q sits at q mod points_per_dim on every full axis, at q on the halved last one.
        """
        wrap = np.arange(-self.kmax, self.kmax + 1) % self.points_per_dim
        return (Ellipsis, *np.ix_(*[wrap] * (self.dim - 1)), slice(0, self.kmax + 1))

    @cached_property
    def _ik(self) -> np.ndarray:
        """i k_j over the band, one row per axis j: the factor of d/dx_j."""
        ik = np.stack([np.broadcast_to(1j * ka, self.band_shape) for ka in self.k_axes])
        ik.flags.writeable = False
        return ik

    @cached_property
    def _component(self) -> tuple[tuple, ...]:
        """Index of component i, kept as an axis of length 1, behind any leading axes."""
        return tuple((Ellipsis, slice(i, i + 1)) + (slice(None),) * self.dim for i in range(self.dim**2))

    @cached_property
    def k_squared(self) -> np.ndarray:
        return sum(ka**2 for ka in self.k_axes)

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each stored mode in the full two-sided spectrum: 1 on the self-paired plane."""
        w = np.full(self.band_shape, 2.0)
        w[..., 0] = 1.0
        return w

    @cached_property
    def _twist(self) -> np.ndarray:
        # the FFT references x = 0 while the grid starts at -pi; the basis
        # change multiplies mode k by (-1)^(sum |k_i|)
        return np.where(sum(np.abs(ka) for ka in self.k_axes) % 2 == 0, 1.0, -1.0)


def _symmetrize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Enforce exact conjugate symmetry on the self-paired plane: c_{-q} = conj(c_q) at last index 0."""
    plane = coeffs[..., 0]
    mirror = (Ellipsis,) + (slice(None, None, -1),) * (grid.dim - 1)  # q -> -q on every axis of the plane
    coeffs[..., 0] = 0.5 * (plane + plane[mirror].conj())
    return coeffs


def _scatter(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Place band coefficients into an rfftn-layout buffer, keeping any leading axes."""
    n = grid.points_per_dim
    buf = np.zeros(coeffs.shape[: -grid.dim] + (n,) * (grid.dim - 1) + (n // 2 + 1,), dtype=np.complex128)
    buf[grid._band_index] = coeffs * grid._twist
    return buf


def _gather(grid: TorusGrid, buf: np.ndarray) -> np.ndarray:
    return buf[grid._band_index] * grid._twist


def to_physical(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Values on the collocation grid of coefficients (..., ncomp) + band: shape (..., ncomp) + grid.pshape."""
    return np.fft.irfftn(_scatter(grid, coeffs), **grid._fft)


def to_spectral(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Band coefficients of real grid values (..., ncomp) + grid.pshape; values of shape pshape get ncomp = 1."""
    vals = np.asarray(values, dtype=float)
    if vals.shape == grid.pshape:
        vals = vals[None, ...]
    if vals.shape[-grid.dim :] != grid.pshape:
        raise ValueError(f"value shape {vals.shape} does not match collocation grid {grid.pshape}")
    return _symmetrize(grid, _gather(grid, np.fft.rfftn(vals, **grid._fft)))


def project(grid: TorusGrid, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Orthogonal projection onto the subspace with all |k_i| <= order."""
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


def _check_components(grid: TorusGrid, coeffs: np.ndarray, ncomp: int, what: str):
    got = coeffs.shape[-grid.dim - 1]
    if got != ncomp:
        raise ValueError(f"{what} expects {ncomp} components, got {got}")


def gradient(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of a scalar field; the component axis grows to grid.dim."""
    _check_components(grid, coeffs, 1, "gradient")
    return grid._ik * coeffs


def divergence(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    # in 1D a vector has a single component, so the scalar/vector distinction
    # collapses; in 2D a scalar input is rejected here
    _check_components(grid, coeffs, grid.dim, "divergence")
    comp = grid._component
    out = np.zeros(coeffs.shape[: -grid.dim - 1] + (1,) + grid.band_shape, dtype=np.complex128)
    for i in range(grid.dim):
        out += grid._ik[i] * coeffs[comp[i]]
    return out


def laplacian(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    return -grid.k_squared * coeffs


def grad_tensor(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Velocity gradient du_i/dx_j of a vector field, components flattened as i*N+j."""
    n = grid.dim
    _check_components(grid, coeffs, n, "grad_tensor")
    lead = coeffs.shape[: -n - 1]
    rows = coeffs.reshape(lead + (n, 1) + grid.band_shape)
    return (grid._ik * rows).reshape(lead + (n * n,) + grid.band_shape)


def div_tensor(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Row-wise divergence (Div T)_i = d T_ij / dx_j of a flattened tensor field."""
    n = grid.dim
    _check_components(grid, coeffs, n * n, "div_tensor")
    comp = grid._component
    out = np.zeros(coeffs.shape[: -n - 1] + (n,) + grid.band_shape, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[comp[i]] += grid._ik[j] * coeffs[comp[i * n + j]]
    return out


def multiply(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased pointwise product; a scalar broadcasts against a vector."""
    na, nb = a.shape[-grid.dim - 1], b.shape[-grid.dim - 1]
    if na != nb and 1 not in (na, nb):
        raise ValueError(f"incompatible component counts {na} and {nb}")
    return to_spectral(grid, to_physical(grid, a) * to_physical(grid, b))


def dot(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased pointwise dot product of two vector fields."""
    _check_components(grid, b, a.shape[-grid.dim - 1], "dot")
    prod = to_physical(grid, a) * to_physical(grid, b)
    return to_spectral(grid, prod.sum(axis=-grid.dim - 1, keepdims=True))


def outer(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased outer product (a tensor b)_ij = a_i b_j, flattened as i*N+j."""
    n = grid.dim
    prod = np.expand_dims(to_physical(grid, a), -n - 1) * np.expand_dims(to_physical(grid, b), -n - 2)
    return to_spectral(grid, prod.reshape(prod.shape[: -n - 2] + (-1,) + grid.pshape))


def pointwise(grid: TorusGrid, fn, *arrays: np.ndarray) -> np.ndarray:
    """Apply ``fn`` to the physical values of the given coefficient arrays, re-truncate.

    Used for compositions of degree higher than two (powers of the density,
    free-energy derivatives); these accept truncation error but see no
    aliasing of retained modes beyond it.
    """
    return to_spectral(grid, fn(*(to_physical(grid, a) for a in arrays)))


def coeff_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product of two coefficient arrays of the same shape on ``grid``."""
    return float(grid.volume * (grid.parseval_weights * (a * b.conj()).real).sum())


def coeff_norm(grid: TorusGrid, a: np.ndarray) -> float:
    """L2 norm of a coefficient array on ``grid``, summed over components."""
    return float(np.sqrt(max(coeff_inner(grid, a, a), 0.0)))


def norm_sobolev(grid: TorusGrid, a: np.ndarray, order: float) -> float:
    """Sobolev norm with coefficient weights (1 + |k|^2)^order; order may be negative."""
    w = grid.parseval_weights * (1.0 + grid.k_squared) ** order
    val = grid.volume * np.sum(w * np.abs(a) ** 2)
    return float(np.sqrt(max(val, 0.0)))


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
) -> np.ndarray:
    """Coefficients of a random field supported on |k_i| <= band, scaled to the given sup norm."""
    if band > grid.kmax:
        raise ValueError(f"band {band} exceeds grid truncation {grid.kmax}")
    shape = (ncomp,) + grid.band_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = project(grid, _symmetrize(grid, raw), band)
    if zero_mean:
        coeffs[(slice(None), *grid.zero_index)] = 0.0
    sup = np.max(np.abs(to_physical(grid, coeffs)))
    if sup == 0.0:
        return coeffs
    return coeffs * (amplitude / sup)
