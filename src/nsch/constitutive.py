"""Free energy of the binary mixture and every quantity derived from it.

The free energy density has the form

    f(rho, c) = a rho^(gamma-1) + log(rho) H(c) + fc(c)

with a smooth bounded mixing profile H and a smoothed double-well fc whose
second and third derivatives stay bounded and whose derivative grows linearly
at large |c|.  Pressure, chemical potential, partial derivatives, the
Newtonian viscous stress and the capillary (Korteweg) stress are all computed
from it.  Density is never clamped: any evaluation at or below the positivity
floor raises, because vacuum formation is a scheme failure, not a state to
regularize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, PositivityError, require
from .spectral import TorusGrid, laplacian, to_physical, to_spectral

__all__ = [
    "DoubleWell",
    "QuadraticWell",
    "ZeroFunction",
    "TanhMixing",
    "FreeEnergySpec",
    "FreeEnergyValues",
    "ViscositySpec",
    "chemical_potential",
    "stress",
    "korteweg_values",
]


@dataclass(frozen=True)
class ZeroFunction:
    """Identically zero profile; switches the mixing or well term off."""

    def value(self, c):
        return np.zeros_like(np.asarray(c, dtype=float))

    d1 = value
    d2 = value
    d3 = value


@dataclass(frozen=True)
class QuadraticWell:
    """fc(c) = lam * c^2 / 2; the linear-potential test case."""

    lam: float = 1.0

    def value(self, c):
        return 0.5 * self.lam * np.asarray(c, dtype=float) ** 2

    def d1(self, c):
        return self.lam * np.asarray(c, dtype=float)

    def d2(self, c):
        return np.full_like(np.asarray(c, dtype=float), self.lam)

    def d3(self, c):
        return np.zeros_like(np.asarray(c, dtype=float))


@dataclass(frozen=True)
class DoubleWell:
    """Double well (c^2-1)^2/4 - 1/4, blended to a quadratic of curvature kappa.

    Inside |c| <= cstar the well is the plain quartic (shifted so the value at
    c = 0 vanishes).  On cstar < |c| < cstar + 1 the second derivative follows
    a cubic Hermite profile joining the quartic's curvature and slope to the
    constant kappa, which makes the function exactly C^3 with bounded second
    and third derivatives and an asymptotically linear derivative of slope
    kappa.
    """

    cstar: float = 2.0
    kappa: float = 1.0

    def __post_init__(self):
        require(
            (self.cstar > 0, f"cstar must be positive, got {self.cstar}"),
            (self.kappa > 0, f"kappa must be positive, got {self.kappa}"),
        )
        cs, kap = self.cstar, self.kappa
        a = 3.0 * cs**2 - 1.0  # curvature at the joint
        b = 6.0 * cs  # its slope
        cc = 3.0 * (kap - a) - 2.0 * b
        dd = 2.0 * (a - kap) + b
        w1 = cs**3 - cs  # first derivative at the joint
        f0 = 0.25 * (cs**2 - 1.0) ** 2 - 0.25
        p1 = w1 + a + b / 2.0 + cc / 3.0 + dd / 4.0
        p0 = f0 + w1 + a / 2.0 + b / 6.0 + cc / 12.0 + dd / 20.0
        # the blend constants; not a field, so eq, hash and repr see cstar and kappa only
        object.__setattr__(self, "_consts", (a, b, cc, dd, w1, f0, p1, p0))

    def _piecewise(self, c, inner, blend, linear, linear_at):
        """inner(c), overwritten beyond cstar by blend(r, sign) or, where linear_at(s, q), by linear(q, sign).

        With s = |c|: r = min(s - cstar, 1) and q = s - cstar - 1.  Only the
        points beyond cstar evaluate the outer pieces.
        """
        c = np.asarray(c, dtype=float)
        out = np.asarray(inner(c), dtype=float)
        beyond = np.abs(c) > self.cstar
        if beyond.any():
            cb = c[beyond]
            s, sg = np.abs(cb), np.sign(cb)
            r = np.minimum(s - self.cstar, 1.0)
            q = s - self.cstar - 1.0
            out[beyond] = np.where(linear_at(s, q), linear(q, sg), blend(r, sg))
        return out

    def value(self, c):
        a, b, cc, dd, w1, f0, p1, p0 = self._consts
        return self._piecewise(
            c,
            lambda c: 0.25 * (c**2 - 1.0) ** 2 - 0.25,
            lambda r, sg: f0 + w1 * r + a * r**2 / 2.0 + b * r**3 / 6.0 + cc * r**4 / 12.0 + dd * r**5 / 20.0,
            lambda q, sg: p0 + p1 * q + 0.5 * self.kappa * q**2,
            lambda s, q: q > 0.0,
        )

    def d1(self, c):
        a, b, cc, dd, w1, _, p1, _ = self._consts
        return self._piecewise(
            c,
            lambda c: c**3 - c,
            lambda r, sg: sg * (w1 + a * r + b * r**2 / 2.0 + cc * r**3 / 3.0 + dd * r**4 / 4.0),
            lambda q, sg: sg * (p1 + self.kappa * q),
            lambda s, q: q > 0.0,
        )

    def d2(self, c):
        a, b, cc, dd, *_ = self._consts
        return self._piecewise(
            c,
            lambda c: 3.0 * c**2 - 1.0,
            lambda r, sg: a + b * r + cc * r**2 + dd * r**3,
            lambda q, sg: self.kappa,
            lambda s, q: s >= self.cstar + 1.0,
        )

    def d3(self, c):
        a, b, cc, dd, *_ = self._consts
        return self._piecewise(
            c,
            lambda c: 6.0 * c,
            lambda r, sg: sg * (b + 2.0 * cc * r + 3.0 * dd * r**2),
            lambda q, sg: 0.0,
            lambda s, q: s >= self.cstar + 1.0,
        )


@dataclass(frozen=True)
class TanhMixing:
    """H(c) = h0 tanh(c): bounded with bounded derivatives up to third order."""

    h0: float = 0.1

    def value(self, c):
        return self.h0 * np.tanh(c)

    def d1(self, c):
        return self.h0 / np.cosh(c) ** 2

    def d2(self, c):
        sech2 = 1.0 / np.cosh(c) ** 2
        return -2.0 * self.h0 * sech2 * np.tanh(c)

    def d3(self, c):
        sech2 = 1.0 / np.cosh(c) ** 2
        t = np.tanh(c)
        return self.h0 * (4.0 * sech2 * t**2 - 2.0 * sech2**2)


# bound that validate() holds the profile derivatives (well d2, d3, mixing d1-d3) to
DERIVATIVE_BOUND = 20.0


@dataclass(frozen=True)
class FreeEnergySpec:
    """Parameters and component profiles of the free energy density."""

    a: float = 1.0
    gamma: float = 4.0
    mixing: object = field(default_factory=TanhMixing)
    well: object = field(default_factory=DoubleWell)
    rho_floor: float = 1e-8

    def __post_init__(self):
        require(
            (self.a > 0, f"a must be positive, got {self.a}"),
            (self.gamma > 3, f"gamma must exceed 3, got {self.gamma}"),
            (self.rho_floor > 0, f"rho_floor must be positive, got {self.rho_floor}"),
        )
        require(*((False, p) for p in self.validate()))  # once the scalars pass, the profile bounds

    def validate(self) -> list[str]:
        """Numeric checks of the structural hypotheses; returns violations."""
        problems = []
        cgrid = np.linspace(-10.0, 10.0, 10_001)
        if abs(float(self.well.value(np.array(0.0)))) > 1e-12:
            problems.append("well value at c=0 must vanish")
        for name, fn in (("well d2", self.well.d2), ("well d3", self.well.d3),
                         ("mixing d1", self.mixing.d1), ("mixing d2", self.mixing.d2),
                         ("mixing d3", self.mixing.d3)):
            m = float(np.max(np.abs(fn(cgrid))))
            if not np.isfinite(m) or m > DERIVATIVE_BOUND:
                problems.append(f"{name} exceeds bound {DERIVATIVE_BOUND} (max {m:.3g})")
        # derivative of the well must grow linearly far from the origin
        far = 10.0 * getattr(self.well, "cstar", 1.0)
        r1 = float(self.well.d1(np.array(far))) / far
        r2 = float(self.well.d1(np.array(2.0 * far))) / (2.0 * far)
        if isinstance(self.well, ZeroFunction):
            pass
        elif r1 <= 0 or r2 <= 0 or abs(r2 - r1) > 0.5 * max(abs(r1), 1e-12):
            problems.append(f"well derivative is not asymptotically linear (ratios {r1:.3g}, {r2:.3g})")
        return problems


@dataclass(frozen=True)
class ViscositySpec:
    nu_shear: float = 1.0
    nu_bulk: float = 0.0

    def __post_init__(self):
        require(
            (self.nu_shear > 0, f"nu_shear must be positive, got {self.nu_shear}"),
            (self.nu_bulk >= 0, f"nu_bulk must be nonnegative, got {self.nu_bulk}"),
        )


class FreeEnergyValues:
    """f, p and the partials of f at grid values of (rho, c), for one spec.

    This is the density guard: construction names a non-finite density as
    NonFiniteError and one at or below ``spec.rho_floor`` as PositivityError
    (``t`` names the state's time in either), and keeps ``min_rho``.
    log(rho) and the profiles H, H', fc, fc' are evaluated once and shared by
    every quantity; each quantity is the one place its formula is written.
    The second c-derivative f_cc is a method, so only its callers (the Ito
    terms of a noisy run) evaluate H'' and fc''.
    """

    def __init__(self, rho: np.ndarray, c: np.ndarray, spec: FreeEnergySpec, t: float | None = None):
        min_rho = self.min_rho = float(rho.min())
        # NaN passes every ordered comparison, so it is named before the density floor is checked
        if not math.isfinite(min_rho):
            raise NonFiniteError("non-finite rho" + ("" if t is None else f" at t={t:.6g}"))
        if min_rho <= spec.rho_floor:
            raise PositivityError(min_rho, t=t)
        self.rho = rho
        self.c = c
        self.spec = spec
        a, g = spec.a, spec.gamma
        log_rho = self.log_rho = np.log(rho)
        h = self.mixing = spec.mixing.value(c)
        h1 = self.mixing_d1 = spec.mixing.d1(c)
        fc = self.well = spec.well.value(c)
        fc1 = self.well_d1 = spec.well.d1(c)
        # f = a rho^(gamma-1) + log(rho) H(c) + fc(c)
        self.free_energy = a * rho ** (g - 1.0) + log_rho * h + fc
        # p = rho^2 df/drho = a (gamma-1) rho^gamma + rho H(c)
        self.pressure = a * (g - 1.0) * rho**g + rho * h
        # df/dc = log(rho) H'(c) + fc'(c)
        self.f_c = log_rho * h1 + fc1
        # d2(rho f)/drho2 = a gamma (gamma-1) rho^(gamma-2) + H(c)/rho
        self.rho_f_rho_rho = a * g * (g - 1.0) * rho ** (g - 2.0) + h / rho
        # d2(rho f)/drho dc = (1 + log rho) H'(c) + fc'(c)
        self.rho_f_rho_c = (1.0 + log_rho) * h1 + fc1

    def f_cc(self) -> np.ndarray:
        """d2f/dc2 = log(rho) H''(c) + fc''(c)."""
        return self.log_rho * self.spec.mixing.d2(self.c) + self.spec.well.d2(self.c)

    def chemical_potential(self, lap_c: np.ndarray) -> np.ndarray:
        """mu = df/dc - (1/rho) Lap c, from grid values of Lap c."""
        return self.f_c - lap_c / self.rho


def chemical_potential(grid: TorusGrid, rho: np.ndarray, c: np.ndarray, spec: FreeEnergySpec) -> np.ndarray:
    """Coefficients of mu = df/dc - (1/rho) Lap c."""
    values = FreeEnergyValues(to_physical(grid, rho)[0], to_physical(grid, c)[0], spec)
    lap_c = to_physical(grid, laplacian(grid, c))[0]
    return to_spectral(grid, values.chemical_potential(lap_c))


def stress(grid: TorusGrid, g: np.ndarray, visc: ViscositySpec) -> np.ndarray:
    """Newtonian stress S = nu_shear (G + G^T - (2/N) tr G I) + nu_bulk tr G I of a velocity gradient G.

    Linear in the velocity gradient, so it is assembled directly on
    coefficients with no dealiasing pass.  Components are flattened as
    i*N+j, behind any leading axes.
    """
    n = grid.dim
    if g.shape[-n - 1] != n * n:
        raise ValueError(f"expected {n * n} tensor components, got {g.shape[-n - 1]}")
    comp = grid._component
    tr = sum(g[comp[i * n + i]] for i in range(n))
    out = np.empty_like(g)
    for i in range(n):
        for j in range(n):
            s = visc.nu_shear * (g[comp[i * n + j]] + g[comp[j * n + i]])
            if i == j:
                s = s - visc.nu_shear * (2.0 / n) * tr + visc.nu_bulk * tr
            out[comp[i * n + j]] = s
    return out


def korteweg_values(gv: np.ndarray) -> np.ndarray:
    """Capillary stress grad c x grad c - |grad c|^2 I / 2 from grid values of grad c, flattened as i*N+j."""
    n = gv.shape[0]
    sq = (gv**2).sum(axis=0)
    out = np.empty((n * n,) + gv.shape[1:])
    for i in range(n):
        for j in range(n):
            t = gv[i] * gv[j]
            if i == j:
                t = t - 0.5 * sq
            out[i * n + j] = t
    return out

