import numpy as np
import pytest

from nsch.constitutive import (
    DoubleWell,
    FreeEnergySpec,
    QuadraticWell,
    TanhMixing,
    ViscositySpec,
    ZeroFunction,
    FreeEnergyValues,
    chemical_potential,
    korteweg_values,
    stress,
)
from nsch.errors import PositivityError
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
    div_tensor,
    grad_tensor,
    gradient,
    laplacian,
    multiply,
    random_band_limited,
    to_physical,
    to_spectral,
)


def spec_plain(**kw):
    kw.setdefault("mixing", ZeroFunction())
    kw.setdefault("well", ZeroFunction())
    return FreeEnergySpec(**kw)


def nested_where_well(well: DoubleWell):
    """The double well as three pieces evaluated everywhere and picked by nested np.where."""
    cs, kap = well.cstar, well.kappa
    a = 3.0 * cs**2 - 1.0
    b = 6.0 * cs
    cc = 3.0 * (kap - a) - 2.0 * b
    dd = 2.0 * (a - kap) + b
    w1 = cs**3 - cs
    f0 = 0.25 * (cs**2 - 1.0) ** 2 - 0.25
    p1 = w1 + a + b / 2.0 + cc / 3.0 + dd / 4.0
    p0 = f0 + w1 + a / 2.0 + b / 6.0 + cc / 12.0 + dd / 20.0

    def pieces(c):
        s = np.abs(c)
        return s, np.sign(c), np.clip(s - cs, 0.0, 1.0), np.maximum(s - cs - 1.0, 0.0)

    def value(c):
        s, _, r, q = pieces(c)
        inner = 0.25 * (c**2 - 1.0) ** 2 - 0.25
        mid = f0 + w1 * r + a * r**2 / 2.0 + b * r**3 / 6.0 + cc * r**4 / 12.0 + dd * r**5 / 20.0
        out = p0 + p1 * q + 0.5 * kap * q**2
        return np.where(s <= cs, inner, np.where(q > 0.0, out, mid))

    def d1(c):
        s, sg, r, q = pieces(c)
        mid = sg * (w1 + a * r + b * r**2 / 2.0 + cc * r**3 / 3.0 + dd * r**4 / 4.0)
        return np.where(s <= cs, c**3 - c, np.where(q > 0.0, sg * (p1 + kap * q), mid))

    def d2(c):
        s, _, r, _ = pieces(c)
        return np.where(s <= cs, 3.0 * c**2 - 1.0, np.where(s >= cs + 1.0, kap, a + b * r + cc * r**2 + dd * r**3))

    def d3(c):
        s, sg, r, _ = pieces(c)
        mid = sg * (b + 2.0 * cc * r + 3.0 * dd * r**2)
        return np.where(s <= cs, 6.0 * c, np.where(s >= cs + 1.0, 0.0, mid))

    return {"value": value, "d1": d1, "d2": d2, "d3": d3}


class TestWellProfiles:
    @pytest.mark.parametrize("well", [DoubleWell(), DoubleWell(cstar=1.5, kappa=2.5)])
    def test_double_well_equals_nested_where_oracle(self, well):
        # the outer pieces are evaluated only beyond cstar, bit-identically
        oracle = nested_where_well(well)
        wide = np.concatenate([np.linspace(-5.0, 5.0, 20_001), [-3.0, -2.5, -2.0, -1.5, 1.5, 2.0, 2.5, 3.0, 3.5]])
        inner = np.linspace(-0.99 * well.cstar, 0.99 * well.cstar, 50)
        for c in (wide, inner, inner.reshape(5, 10), np.array(0.25), np.array(4.0)):
            for name, fn in oracle.items():
                got = getattr(well, name)(c)
                assert got.shape == c.shape and np.array_equal(got, fn(c)), name

    def test_double_well_inner_values(self):
        w = DoubleWell(cstar=2.0, kappa=1.0)
        c = np.linspace(-1.5, 1.5, 7)
        np.testing.assert_allclose(w.value(c), 0.25 * (c**2 - 1) ** 2 - 0.25, atol=1e-14)
        assert w.value(np.array(0.0)) == 0.0

    def test_double_well_c3_continuity(self):
        # value and first three derivatives must be continuous at both joints
        w = DoubleWell(cstar=2.0, kappa=1.0)
        for joint in (2.0, 3.0, -2.0, -3.0):
            lo, hi = np.array(joint - 1e-9), np.array(joint + 1e-9)
            for fn in (w.value, w.d1, w.d2, w.d3):
                assert abs(float(fn(hi)) - float(fn(lo))) < 1e-6

    def test_double_well_derivatives_by_finite_differences(self):
        w = DoubleWell(cstar=2.0, kappa=1.0)
        h = 1e-5
        c = np.linspace(-4.5, 4.5, 201)
        fd1 = (w.value(c + h) - w.value(c - h)) / (2 * h)
        np.testing.assert_allclose(w.d1(c), fd1, atol=1e-7)
        fd2 = (w.d1(c + h) - w.d1(c - h)) / (2 * h)
        np.testing.assert_allclose(w.d2(c), fd2, atol=1e-7)
        fd3 = (w.d2(c + h) - w.d2(c - h)) / (2 * h)
        np.testing.assert_allclose(w.d3(c), fd3, atol=1e-6)

    def test_double_well_asymptotic_slope(self):
        w = DoubleWell(cstar=2.0, kappa=1.0)
        c1, c2 = 50.0, 100.0
        slope = (float(w.d1(np.array(c2))) - float(w.d1(np.array(c1)))) / (c2 - c1)
        assert abs(slope - w.kappa) < 1e-12

    def test_tanh_mixing_bounds(self):
        m = TanhMixing(h0=0.1)
        c = np.linspace(-10, 10, 10_001)
        assert np.max(np.abs(m.d1(c))) <= 0.1 + 1e-12
        assert np.max(np.abs(m.d2(c))) <= 0.2
        assert np.max(np.abs(m.d3(c))) <= 0.2
        h = 1e-5
        np.testing.assert_allclose(m.d3(c), (m.d2(c + h) - m.d2(c - h)) / (2 * h), atol=1e-6)

    def test_spec_validate_clean(self):
        assert FreeEnergySpec().validate() == []

    def test_spec_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            FreeEnergySpec(gamma=2.5)


class TestFreeEnergy:
    def test_unit_state(self):
        spec = FreeEnergySpec(a=1.5, gamma=4.0)
        rho = np.array([1.0])
        c = np.array([0.0])
        # H(0) = 0 and fc(0) = 0 leave only the elastic part
        assert abs(FreeEnergyValues(rho, c, spec).free_energy[0] - 1.5) < 1e-14

    def test_elastic_power(self):
        spec = spec_plain(a=1.0, gamma=4.0)
        assert abs(FreeEnergyValues(np.array([2.0]), np.array([0.0]), spec).free_energy[0] - 8.0) < 1e-14

    def test_drho_at_unit_density(self):
        # df/drho = a (gamma-1) rho^(gamma-2); independently via finite differences
        spec = spec_plain(a=1.3, gamma=4.0)
        h = 1e-6
        f = lambda r: FreeEnergyValues(np.array([r]), np.array([0.0]), spec).free_energy[0]
        fd = (f(1.0 + h) - f(1.0 - h)) / (2 * h)
        assert abs(fd - spec.a * (spec.gamma - 1.0)) < 1e-7

    def test_nonpositive_rho_raises(self):
        spec = FreeEnergySpec()
        with pytest.raises(PositivityError):
            FreeEnergyValues(np.array([1e-9]), np.array([0.0]), spec)


class TestPressure:
    def test_power_law(self):
        spec = spec_plain(a=1.0, gamma=4.0)
        assert abs(FreeEnergyValues(np.array([2.0]), np.array([0.0]), spec).pressure[0] - 48.0) < 1e-12

    def test_mixing_contribution(self):
        class LinearMix:
            def value(self, c):
                return np.asarray(c, dtype=float)

            def d1(self, c):
                return np.ones_like(np.asarray(c, dtype=float))

            def d2(self, c):
                return np.zeros_like(np.asarray(c, dtype=float))

            d3 = d2

        spec = FreeEnergySpec(a=1.0, gamma=4.0, mixing=LinearMix(), well=ZeroFunction())
        p = FreeEnergyValues(np.array([1.0]), np.array([0.5]), spec).pressure[0]
        assert abs(p - (spec.a * (spec.gamma - 1.0) + 0.5)) < 1e-14

    def test_c_independent_without_mixing(self, rng):
        spec = spec_plain(a=1.0, gamma=3.5, well=DoubleWell())
        rho = rng.uniform(0.5, 3.0, size=32)
        p1 = FreeEnergyValues(rho, rng.standard_normal(32), spec).pressure
        p2 = FreeEnergyValues(rho, rng.standard_normal(32), spec).pressure
        np.testing.assert_array_equal(p1, p2)

    def test_pressure_identity_by_finite_differences(self, rng):
        # p = rho^2 df/drho checked against an independent finite-difference
        # evaluation of the derivative
        spec = FreeEnergySpec(a=1.2, gamma=3.6)
        rho = rng.uniform(0.5, 3.0, size=64)
        c = rng.standard_normal(64)
        h = 1e-4
        f = lambda r: FreeEnergyValues(r, c, spec).free_energy
        fd = (f(rho + h) - f(rho - h)) / (2 * h)
        np.testing.assert_allclose(FreeEnergyValues(rho, c, spec).pressure, rho**2 * fd, rtol=1e-6)


class TestPartials:
    def test_mixed_partial_at_unit_density(self, rng):
        # at rho = 1 the log factor drops and only H'(c) survives when the
        # well is off
        spec = FreeEnergySpec(well=ZeroFunction())
        c = rng.standard_normal(16)
        got = FreeEnergyValues(np.ones(16), c, spec).rho_f_rho_c
        np.testing.assert_allclose(got, spec.mixing.d1(c), atol=1e-14)

    def test_rho_rho_partial_vs_finite_differences(self, rng):
        spec = spec_plain(a=1.1, gamma=4.0)
        rho = rng.uniform(0.5, 3.0, size=64)
        c = rng.standard_normal(64)
        h = 1e-4
        rf = lambda r: r * FreeEnergyValues(r, c, spec).free_energy
        fd = (rf(rho + h) - 2 * rf(rho) + rf(rho - h)) / h**2
        np.testing.assert_allclose(FreeEnergyValues(rho, c, spec).rho_f_rho_rho, fd, rtol=1e-6)

    def test_quadratic_well_curvature(self, rng):
        spec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=2.5))
        got = FreeEnergyValues(rng.uniform(0.5, 3.0, 8), rng.standard_normal(8), spec).f_cc
        np.testing.assert_allclose(got, 2.5, atol=1e-14)

    def test_all_partials_vs_finite_differences(self, rng):
        spec = FreeEnergySpec(a=0.9, gamma=3.7)
        rho = rng.uniform(0.5, 3.0, size=128)
        c = rng.uniform(-2.5, 2.5, size=128)
        h = 1e-4
        # second differences sit on an eps*|f|/h^2 roundoff floor
        f = lambda r, cc: FreeEnergyValues(r, cc, spec).free_energy
        values = FreeEnergyValues(rho, c, spec)
        atol2 = 16 * np.finfo(float).eps * np.max(np.abs(rho * f(rho, c))) / h**2
        fd_c = (f(rho, c + h) - f(rho, c - h)) / (2 * h)
        np.testing.assert_allclose(values.f_c, fd_c, rtol=1e-6, atol=1e-7)
        fd_cc = (f(rho, c + h) - 2 * f(rho, c) + f(rho, c - h)) / h**2
        np.testing.assert_allclose(values.f_cc, fd_cc, rtol=1e-6, atol=atol2)
        rf = lambda r, cc: r * f(r, cc)
        fd_rr = (rf(rho + h, c) - 2 * rf(rho, c) + rf(rho - h, c)) / h**2
        np.testing.assert_allclose(values.rho_f_rho_rho, fd_rr, rtol=1e-6, atol=atol2)
        fd_rc = (rf(rho + h, c + h) - rf(rho + h, c - h) - rf(rho - h, c + h) + rf(rho - h, c - h)) / (4 * h**2)
        np.testing.assert_allclose(values.rho_f_rho_c, fd_rc, rtol=1e-6, atol=atol2)


class TestChemicalPotential:
    def test_linear_dispersion_mode(self):
        # rho = 1, H = 0, fc = lam c^2 / 2, c = cos x: mu = (lam + 1) cos x
        lam = 2.0
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=lam))
        rho = to_spectral(grid, np.ones(grid.pshape))
        (x,) = grid.mesh()
        c = to_spectral(grid, np.cos(x))
        mu = chemical_potential(grid, rho, c, spec)
        np.testing.assert_allclose(to_physical(grid, mu)[0], (lam + 1.0) * np.cos(x), atol=1e-12)

    def test_constant_state(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = FreeEnergySpec()
        rho = to_spectral(grid, np.ones(grid.pshape))
        c0 = 0.7
        c = to_spectral(grid, np.full(grid.pshape, c0))
        mu = chemical_potential(grid, rho, c, spec)
        expect = float(spec.well.d1(np.array(c0)))
        np.testing.assert_allclose(to_physical(grid, mu)[0], expect, atol=1e-12)

    def test_identity_rho_mu_plus_lap_c(self, rng):
        # rho mu + Lap c = rho df/dc, both sides evaluated independently;
        # needs smooth well-resolved fields so composition tails stay tiny
        grid = TorusGrid(dim=2, modes_per_dim=64)
        spec = FreeEnergySpec()
        bump = random_band_limited(grid, rng, band=2)
        rho = to_spectral(grid, 1.0 + 0.1 * to_physical(grid, bump)[0])
        c = random_band_limited(grid, rng, band=2, amplitude=0.3)
        mu = chemical_potential(grid, rho, c, spec)
        lhs = to_physical(grid, multiply(grid, rho, mu))[0] + to_physical(grid, laplacian(grid, c))[0]
        rv = to_physical(grid, rho)[0]
        rhs_coeffs = to_spectral(grid, rv * FreeEnergyValues(rv, to_physical(grid, c)[0], spec).f_c)
        rhs = to_physical(grid, rhs_coeffs)[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestStress:
    def test_antisymmetric_gradient_no_shear(self):
        # rigid-rotation-like antisymmetric single-mode gradient tensor: the
        # symmetric part vanishes pointwise, so the whole stress is zero
        grid = TorusGrid(dim=2, modes_per_dim=16)
        xs, ys = grid.mesh()
        phi = np.cos(xs + ys)
        g = to_spectral(grid, np.stack([0.0 * phi, -phi, phi, 0.0 * phi]))
        s = stress(grid, g, ViscositySpec(nu_shear=1.0, nu_bulk=0.3))
        assert coeff_norm(grid, s) < 1e-12

    def test_isotropic_gradient(self):
        # grad u = I: deviatoric part cancels in 2D, bulk part is 2 nu_bulk I
        grid = TorusGrid(dim=2, modes_per_dim=8)
        visc = ViscositySpec(nu_shear=1.0, nu_bulk=0.7)
        eye = np.zeros((4,) + grid.pshape)
        eye[0] = 1.0
        eye[3] = 1.0
        g = to_spectral(grid, eye)
        s = stress(grid, g, visc)
        vals = to_physical(grid, s)
        np.testing.assert_allclose(vals[0], 2 * visc.nu_bulk, atol=1e-12)
        np.testing.assert_allclose(vals[3], 2 * visc.nu_bulk, atol=1e-12)
        np.testing.assert_allclose(vals[1], 0.0, atol=1e-12)

    def test_shear_term_traceless(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        u = random_band_limited(grid, rng, ncomp=2, band=5)
        s = stress(grid, grad_tensor(grid, u), ViscositySpec(nu_shear=1.3, nu_bulk=0.0))
        vals = to_physical(grid, s)
        trace = vals[0] + vals[3]
        assert np.max(np.abs(trace)) < 1e-12

    def test_dissipativity(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        visc = ViscositySpec(nu_shear=0.8, nu_bulk=0.2)
        for _ in range(20):
            u = random_band_limited(grid, rng, ncomp=2, band=6)
            g = grad_tensor(grid, u)
            s = stress(grid, g, visc)
            contraction = np.sum(to_physical(grid, s) * to_physical(grid, g), axis=0)
            assert np.min(contraction) > -1e-12


def korteweg(grid, c):
    """Coefficients of the dealiased capillary stress of the coefficients ``c``."""
    return to_spectral(grid, korteweg_values(to_physical(grid, gradient(grid, c))))


class TestKorteweg:
    def test_1d_half_cos_squared(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        (x,) = grid.mesh()
        c = to_spectral(grid, np.sin(x))
        t = korteweg(grid, c)
        np.testing.assert_allclose(to_physical(grid, t)[0], 0.5 * np.cos(x) ** 2, atol=1e-13)
        dv = div_tensor(grid, t)
        np.testing.assert_allclose(to_physical(grid, dv)[0], -np.sin(x) * np.cos(x), atol=1e-13)

    def test_constant_c(self):
        grid = TorusGrid(dim=2, modes_per_dim=8)
        c = to_spectral(grid, np.full(grid.pshape, 1.3))
        assert coeff_norm(grid, korteweg(grid, c)) < 1e-12

    def test_divergence_identity(self, rng):
        # Div(grad c x grad c - |grad c|^2 I / 2) = (Lap c) grad c
        for dim, modes in ((1, 64), (2, 32)):
            grid = TorusGrid(dim=dim, modes_per_dim=modes)
            c = random_band_limited(grid, rng, band=grid.kmax // 2, amplitude=1.0)
            lhs = div_tensor(grid, korteweg(grid, c))
            rhs = multiply(grid, laplacian(grid, c), gradient(grid, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestViscositySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ViscositySpec(nu_shear=0.0)
        with pytest.raises(ValueError):
            ViscositySpec(nu_shear=1.0, nu_bulk=-0.1)
