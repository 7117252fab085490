import numpy as np
import pytest
from coefficients import constant

from nsch.constitutive import FreeEnergySpec, QuadraticWell, ZeroFunction
from nsch.noise import (
    ConstantDiffusion,
    LinearDiffusion,
    NoiseSpec,
    SineDiffusion,
    WienerIncrement,
    derive_seed,
    forcing,
    geometric_noise,
    ito_grad_correction,
    ito_value_correction,
    path_generator,
    sample_increment,
    silent_noise,
)
from nsch.spectral import TorusGrid, coeff_norm, to_physical, to_spectral


def single_mode_spec(sigma, alpha=1.0, **kw):
    return NoiseSpec(K=1, alphas=np.array([alpha]), family=sigma, **kw)


class TestNoiseSpec:
    def test_geometric_tail_enforced(self):
        spec = geometric_noise(K=20, alpha0=0.1)
        total = float(np.sum(spec.alphas**2))
        assert spec.tail_sq < 1e-12 * total
        with pytest.raises(ValueError):
            geometric_noise(K=16, alpha0=0.1)

    def test_sine_family_within_sobolev_bound(self):
        assert geometric_noise(K=20).validate_bounds() == []

    def test_linear_family_flagged(self):
        spec = single_mode_spec(LinearDiffusion())
        assert any("W^(2,inf)" in p for p in spec.validate_bounds())

    def test_sine_derivatives_by_finite_differences(self):
        fam = SineDiffusion()
        c = np.linspace(-3, 3, 101)
        h = 1e-6
        for k in (1, 3, 7):
            fd = (fam.value(k, c + h) - fam.value(k, c - h)) / (2 * h)
            np.testing.assert_allclose(fam.d1(k, c), fd, atol=1e-8)
            fd2 = (fam.d1(k, c + h) - fam.d1(k, c - h)) / (2 * h)
            np.testing.assert_allclose(fam.d2(k, c), fd2, atol=1e-7)


class TestSampling:
    def test_gaussian_moments(self):
        spec = geometric_noise(K=20)
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([sample_increment(1.0, rng, spec).dbeta for _ in range(n)])
        se_mean = 1.0 / np.sqrt(n)
        assert abs(np.mean(draws[:, 0])) < 3 * se_mean
        # variance of the sample variance of N(0,1) is 2/n
        assert abs(np.var(draws[:, 0]) - 1.0) < 3 * np.sqrt(2.0 / n)

    def test_independence_across_modes(self):
        spec = geometric_noise(K=20)
        rng = np.random.default_rng(11)
        n = 100_000
        draws = np.array([sample_increment(1.0, rng, spec).dbeta[:2] for _ in range(n)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 3 / np.sqrt(n)

    def test_determinism(self):
        spec = geometric_noise(K=20)
        a = sample_increment(0.5, np.random.Generator(np.random.PCG64(123)), spec)
        b = sample_increment(0.5, np.random.Generator(np.random.PCG64(123)), spec)
        assert np.array_equal(a.dbeta, b.dbeta)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_increment(0.0, np.random.default_rng(0), geometric_noise())

    def test_path_streams_distinct_and_stable(self):
        a = path_generator(42, 0).standard_normal(4)
        b = path_generator(42, 1).standard_normal(4)
        c = path_generator(42, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)


class TestForcing:
    def test_constant_family(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = single_mode_spec(ConstantDiffusion(1.0))
        inc = WienerIncrement(dt=0.1, dbeta=np.array([0.37]))
        f = forcing(grid, constant(grid, 0.0), inc, spec)
        np.testing.assert_allclose(to_physical(grid, f)[0], 0.37, atol=1e-14)

    def test_zero_increment(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = geometric_noise(K=20)
        inc = WienerIncrement(dt=0.1, dbeta=np.zeros(20))
        f = forcing(grid, constant(grid, 0.5), inc, spec)
        assert coeff_norm(grid, f) == 0.0

    def test_family_vanishing_at_zero(self):
        # sine family has sigma_k(0) = 0
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = geometric_noise(K=20)
        inc = WienerIncrement(dt=0.1, dbeta=np.ones(20))
        f = forcing(grid, constant(grid, 0.0), inc, spec)
        assert coeff_norm(grid, f) < 1e-14

    def test_silent_noise(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = silent_noise()
        inc = sample_increment(0.1, np.random.default_rng(0), spec)
        assert inc.dbeta.shape == (0,)
        assert coeff_norm(grid, forcing(grid, constant(grid, 1.0), inc, spec)) == 0.0


class TestItoCorrections:
    def test_constant_sigma_no_grad_term(self, rng):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = single_mode_spec(ConstantDiffusion(0.8))
        (x,) = grid.mesh()
        c = to_spectral(grid, np.sin(x))
        assert ito_grad_correction(grid, c, spec) == 0.0

    def test_constant_c_no_grad_term(self):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = single_mode_spec(LinearDiffusion())
        assert abs(ito_grad_correction(grid, constant(grid, 0.9), spec)) < 1e-25

    def test_grad_correction_hand_value(self):
        # sigma(c) = c, alpha = 1, c = sin x: (1/2) int cos^2 = pi/2
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = single_mode_spec(LinearDiffusion())
        (x,) = grid.mesh()
        c = to_spectral(grid, np.sin(x))
        assert abs(ito_grad_correction(grid, c, spec) - np.pi / 2) < 1e-12

    def test_value_correction_zero_family(self):
        grid = TorusGrid(dim=1, modes_per_dim=16)
        spec = single_mode_spec(ConstantDiffusion(0.0))
        rho = constant(grid, 1.0)
        c = constant(grid, 0.3)
        assert ito_value_correction(grid, rho, c, spec, FreeEnergySpec()) == 0.0

    def test_value_correction_constant_integrand(self):
        # rho = 1, f_cc = lam, sigma = 1, alpha = 1: (1/2) lam (2 pi)^N
        lam = 1.7
        fspec = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=lam))
        for dim, modes in ((1, 16), (2, 16)):
            grid = TorusGrid(dim=dim, modes_per_dim=modes)
            spec = single_mode_spec(ConstantDiffusion(1.0))
            got = ito_value_correction(grid, constant(grid, 1.0), constant(grid, 0.0), spec, fspec)
            assert abs(got - 0.5 * lam * (2 * np.pi) ** dim) < 1e-10

    def test_value_correction_sign_follows_curvature(self, rng):
        grid = TorusGrid(dim=1, modes_per_dim=32)
        spec = single_mode_spec(ConstantDiffusion(1.0))
        rho = constant(grid, 1.0)
        c = constant(grid, 0.0)
        pos = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=2.0))
        neg = FreeEnergySpec(mixing=ZeroFunction(), well=QuadraticWell(lam=1e-6))
        assert ito_value_correction(grid, rho, c, spec, pos) > 0
        assert ito_value_correction(grid, rho, c, spec, neg) > 0


class TestItoIsometry:
    def test_frozen_coefficient_isometry(self):
        # dc = sigma(c0) dW with coefficients frozen at c0: the expected
        # squared L2 displacement equals t * int sum alpha_k^2 sigma_k(c0)^2
        grid = TorusGrid(dim=1, modes_per_dim=64)
        spec = geometric_noise(K=20, alpha0=0.5)
        (x,) = grid.mesh()
        c0_vals = 0.2 * np.cos(x)
        c0 = to_spectral(grid, c0_vals)
        t_final = 0.25
        nsteps = 8
        dt = t_final / nsteps
        paths = 256
        sq = np.empty(paths)
        for p in range(paths):
            rng = path_generator(spec.seed, p)
            acc = np.zeros(grid.band_shape, dtype=complex)
            for _ in range(nsteps):
                inc = sample_increment(dt, rng, spec)
                acc = acc + forcing(grid, c0, inc, spec)[0]
            w = grid.parseval_weights
            sq[p] = grid.volume * np.sum(w * np.abs(acc) ** 2)
        theory = t_final * sum(
            spec.alphas[i] ** 2 * np.sum(spec.family.value(k, c0_vals) ** 2) * grid.spacing
            for i, k in enumerate(spec.modes)
        )
        se = np.std(sq, ddof=1) / np.sqrt(paths)
        assert abs(np.mean(sq) - theory) < 3 * se
