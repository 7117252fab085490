"""Truncated cylindrical Wiener forcing for the concentration equation.

The driving term is sigma(c) dW = sum_k alpha_k sigma_k(c) dbeta_k with
mutually independent scalar Brownian motions beta_k.  The family is truncated
at K modes; the coefficient rule must leave a relative tail below 1e-12 so the
truncation is statistically invisible in double precision.  The sigma_k act
pointwise in c (composition operators).  Both Ito correction terms of the
energy balance are evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .constitutive import FreeEnergySpec, FreeEnergyValues
from .errors import require
from .spectral import TorusGrid, gradient, integrate_values, to_physical, to_spectral

__all__ = [
    "SineDiffusion",
    "ConstantDiffusion",
    "LinearDiffusion",
    "NoiseSpec",
    "geometric_noise",
    "WienerIncrement",
    "sample_increment",
    "sigma_table",
    "noise_sum",
    "forcing",
    "ito_grad_integrand",
    "ito_value_integrand",
    "ito_grad_correction",
    "ito_value_correction",
    "splitmix64",
    "derive_seed",
    "path_generator",
]

_TAIL_LIMIT = 1e-12


@dataclass(frozen=True)
class SineDiffusion:
    """sigma_k(c) = sin(k c) / k^2; W^{2,inf} norm is exactly 1 for every k."""

    def value(self, k: int, c):
        return np.sin(k * c) / k**2

    def d1(self, k: int, c):
        return np.cos(k * c) / k

    def d2(self, k: int, c):
        return -np.sin(k * c)


@dataclass(frozen=True)
class ConstantDiffusion:
    """sigma_k(c) = v, additive noise."""

    v: float = 1.0

    def value(self, k: int, c):
        return np.full_like(np.asarray(c, dtype=float), self.v)

    def d1(self, k: int, c):
        return np.zeros_like(np.asarray(c, dtype=float))

    d2 = d1


@dataclass(frozen=True)
class LinearDiffusion:
    """sigma_k(c) = c; unbounded, for frozen-coefficient tests only."""

    def value(self, k: int, c):
        return np.asarray(c, dtype=float)

    def d1(self, k: int, c):
        return np.ones_like(np.asarray(c, dtype=float))

    def d2(self, k: int, c):
        return np.zeros_like(np.asarray(c, dtype=float))


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated noise family: K modes with weights alphas and profile family.

    ``tail_sq`` is the sum of the squared weights dropped by the truncation;
    explicit finite families have zero tail by definition.  Specs compare and
    hash their weights by value.
    """

    K: int
    alphas: np.ndarray = field(repr=False)
    family: object = field(default_factory=SineDiffusion)
    seed: int = 20260809
    tail_sq: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", arr)
        arr.setflags(write=False)
        total = float(np.sum(arr**2))
        tail = self.tail_sq / total if total > 0 else math.inf
        require(
            (arr.shape == (self.K,), f"expected {self.K} weights, got shape {arr.shape}"),
            (self.K == 0 or tail < _TAIL_LIMIT,
             f"noise truncation too aggressive: tail/total = {tail:.3e} >= {_TAIL_LIMIT}"),
        )

    def _key(self) -> tuple:
        return self.K, tuple(self.alphas.tolist()), self.family, self.seed, self.tail_sq

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def modes(self) -> range:
        """Mode indices k = 1..K matching alphas order."""
        return range(1, self.K + 1)

    def validate_bounds(self) -> list[str]:
        """Check ||sigma_k||_{W^{2,inf}} <= 1 numerically on [-10, 10]."""
        problems = []
        cgrid = np.linspace(-10.0, 10.0, 10_001)
        for k in self.modes:
            m = max(
                float(np.max(np.abs(self.family.value(k, cgrid)))),
                float(np.max(np.abs(self.family.d1(k, cgrid)))),
                float(np.max(np.abs(self.family.d2(k, cgrid)))),
            )
            if m > 1.0 + 1e-9:
                problems.append(f"sigma_{k} exceeds the W^(2,inf) bound 1 (sup {m:.3g})")
        return problems


def geometric_noise(K: int = 20, alpha0: float = 0.05, family=None, seed: int = 20260809) -> NoiseSpec:
    """Weights alpha_k = alpha0 2^(-k), k = 1..K, with the exact geometric tail; sigma_k within W^{2,inf}."""
    require((K >= 1, f"K must be a positive integer, got {K}"), (alpha0 > 0, f"alpha0 must be positive, got {alpha0}"))
    k = np.arange(1, K + 1, dtype=float)
    alphas = alpha0 * 2.0**-k
    tail = alpha0**2 * 4.0 ** (-float(K)) / 3.0
    spec = NoiseSpec(K=K, alphas=alphas, family=family or SineDiffusion(), seed=seed, tail_sq=tail)
    require(*((False, p) for p in spec.validate_bounds()))
    return spec


def silent_noise(seed: int = 20260809) -> NoiseSpec:
    """No stochastic forcing at all."""
    return NoiseSpec(K=0, alphas=np.zeros(0), family=ConstantDiffusion(0.0), seed=seed)


@dataclass(frozen=True)
class WienerIncrement:
    dt: float
    dbeta: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dbeta.setflags(write=False)


def sample_increment(dt: float, rng: np.random.Generator, spec: NoiseSpec) -> WienerIncrement:
    """K independent N(0, dt) draws; advances the generator deterministically."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return WienerIncrement(dt=dt, dbeta=rng.standard_normal(spec.K) * math.sqrt(dt))


@cache
def _mode_column(K: int, ndim: int) -> np.ndarray:
    """Mode indices 1..K on the leading axis of a table over an ndim-dimensional grid; read-only."""
    k = np.arange(1, K + 1).reshape((-1,) + (1,) * ndim)
    k.flags.writeable = False
    return k


def sigma_table(spec: NoiseSpec, cv: np.ndarray, deriv: bool = False) -> np.ndarray:
    """sigma_k(c), or sigma_k'(c), for all K modes in one family call; shape (K,) + cv.shape, read-only."""
    fn = spec.family.d1 if deriv else spec.family.value
    table = fn(_mode_column(spec.K, cv.ndim), cv)
    shape = (spec.K,) + cv.shape
    if table.shape != shape:
        # constant and linear families return one grid of values for every mode
        table = np.broadcast_to(table, shape)
    table.flags.writeable = False
    return table


def _mode_sum(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k weights_k table_k; the reduction over the leading axis adds the modes in order."""
    return (weights.reshape((-1,) + (1,) * (table.ndim - 1)) * table).sum(axis=0)


def noise_sum(sigma: np.ndarray, inc: WienerIncrement, spec: NoiseSpec) -> np.ndarray:
    """Grid values of sum_k alpha_k dbeta_k sigma_k(c), accumulated mode by mode."""
    return _mode_sum(spec.alphas * inc.dbeta, sigma)


def forcing(grid: TorusGrid, c: np.ndarray, inc: WienerIncrement, spec: NoiseSpec) -> np.ndarray:
    """Coefficients of the Ito increment sum_k alpha_k sigma_k(c) dbeta_k."""
    if spec.K == 0:
        return np.zeros((1,) + grid.band_shape, dtype=np.complex128)
    return to_spectral(grid, noise_sum(sigma_table(spec, to_physical(grid, c)[0]), inc, spec))


def _sigma_sq_sum(spec: NoiseSpec, table: np.ndarray) -> np.ndarray:
    return _mode_sum(spec.alphas**2, table**2)


def ito_grad_integrand(spec: NoiseSpec, dsigma: np.ndarray, grad_c_sq: np.ndarray) -> np.ndarray:
    """sum_k alpha_k^2 sigma_k'(c)^2 |grad c|^2 pointwise, from the table of sigma_k'(c) and |grad c|^2."""
    return _sigma_sq_sum(spec, dsigma) * grad_c_sq


def ito_value_integrand(spec: NoiseSpec, sigma: np.ndarray, rv: np.ndarray, fcc: np.ndarray) -> np.ndarray:
    """rho f_cc sum_k alpha_k^2 sigma_k(c)^2 pointwise, from the table of sigma_k(c) and f_cc."""
    return rv * fcc * _sigma_sq_sum(spec, sigma)


def ito_grad_correction(grid: TorusGrid, c: np.ndarray, spec: NoiseSpec) -> float:
    """(1/2) int sum_k alpha_k^2 |grad sigma_k(c)|^2 dx, by the chain rule."""
    if spec.K == 0:
        return 0.0
    dsigma = sigma_table(spec, to_physical(grid, c)[0], deriv=True)
    grad_c_sq = np.sum(to_physical(grid, gradient(grid, c)) ** 2, axis=0)
    return 0.5 * integrate_values(grid, ito_grad_integrand(spec, dsigma, grad_c_sq))


def ito_value_correction(
    grid: TorusGrid, rho: np.ndarray, c: np.ndarray, spec: NoiseSpec, fspec: FreeEnergySpec
) -> float:
    """(1/2) int rho f_cc(rho, c) sum_k alpha_k^2 sigma_k(c)^2 dx."""
    if spec.K == 0:
        return 0.0
    rv = to_physical(grid, rho)[0]
    cv = to_physical(grid, c)[0]
    fcc = FreeEnergyValues(rv, cv, fspec).f_cc()
    return 0.5 * integrate_values(grid, ito_value_integrand(spec, sigma_table(spec, cv), rv, fcc))


def splitmix64(x: int) -> int:
    """Stable 64-bit mixing function, used to derive independent seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(base: int, *tags: int) -> int:
    """base xor hash(tag) chain; deterministic across platforms and workers."""
    s = base & 0xFFFFFFFFFFFFFFFF
    for t in tags:
        s = (s ^ splitmix64(t)) & 0xFFFFFFFFFFFFFFFF
    return s


def path_generator(base_seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one trajectory (stream 0: noise, 1: data)."""
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, path_index + 1, (stream + 1) << 32)))
