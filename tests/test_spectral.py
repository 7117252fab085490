import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsch.spectral import (
    TorusGrid,
    constant,
    div_tensor,
    divergence,
    from_coeffs,
    gradient,
    grad_tensor,
    inner_product,
    integral,
    integrate_values,
    laplacian,
    multiply,
    norm_l2,
    norm_sobolev,
    outer,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
    zeros,
)


def eval_series(f, points):
    """Independent oracle: direct summation of the stored trigonometric series."""
    grid = f.grid
    k = grid.kmax
    out = np.zeros((f.ncomp, len(points)))
    for c in range(f.ncomp):
        for p, x in enumerate(points):
            if grid.dim == 1:
                val = f.coeffs[c, 0].real
                for kk in range(1, k + 1):
                    val += 2.0 * (f.coeffs[c, kk] * np.exp(1j * kk * x[0])).real
            else:
                val = 0.0
                for i in range(2 * k + 1):
                    kx = i - k
                    val += (f.coeffs[c, i, 0] * np.exp(1j * kx * x[0])).real
                    for ky in range(1, k + 1):
                        val += 2.0 * (f.coeffs[c, i, ky] * np.exp(1j * (kx * x[0] + ky * x[1]))).real
            out[c, p] = val
    return out


def mode_field(grid, fn):
    x = grid.mesh()
    return to_spectral(grid, fn(*x))


def rand_field(grid, rng, ncomp=1, band=None):
    band = band if band is not None else grid.kmax
    return random_band_limited(grid, rng, ncomp=ncomp, band=band, amplitude=1.0, zero_mean=False)


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(dim=3, modes_per_dim=8)
        with pytest.raises(ValueError):
            TorusGrid(dim=1, modes_per_dim=7)
        with pytest.raises(ValueError):
            TorusGrid(dim=1, modes_per_dim=0)

    def test_zero_index_holds_the_mean(self, rng, grid1d, grid2d):
        assert grid1d.zero_index == (0,)
        assert grid2d.zero_index == (grid2d.kmax, 0)
        for grid in (grid1d, grid2d):
            assert constant(grid, 2.5).coeffs[0][grid.zero_index] == 2.5
            f = random_band_limited(grid, rng, ncomp=2, amplitude=1.0)
            assert np.all(f.coeffs[(slice(None), *grid.zero_index)] == 0.0)

    def test_padding_covers_dealiasing(self):
        for n in (8, 16, 32, 64, 128):
            g = TorusGrid(dim=1, modes_per_dim=n)
            assert g.points_per_dim >= 3 * g.kmax + 1
            assert g.points_per_dim >= 2 * (n // 2)

    def test_points_per_dim_match_scipy_fast_lengths(self):
        from scipy.fft import next_fast_len

        for modes in range(2, 1025, 2):
            for dim in (1, 2):
                g = TorusGrid(dim=dim, modes_per_dim=modes)
                assert g.points_per_dim == next_fast_len(3 * g.kmax + 1, real=True), modes

    def test_cli_import_needs_numpy_only(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, nsch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_coords_uniform_on_torus(self, grid1d):
        (x,) = grid1d.coords
        assert x[0] == -np.pi
        assert np.allclose(np.diff(x), grid1d.spacing)
        assert x[-1] < np.pi


class TestTransforms:
    def test_single_mode_cos_values(self):
        grid = TorusGrid(dim=1, modes_per_dim=64)
        (x,) = grid.mesh()
        f = mode_field(grid, lambda x: np.cos(x))
        np.testing.assert_allclose(to_physical(f)[0], np.cos(x), atol=1e-14)

    def test_zero_field(self, grid1d):
        assert np.all(to_physical(zeros(grid1d)) == 0.0)

    def test_cos2x_coefficients(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(2 * x))
        assert abs(f.coeffs[0, 2] - 0.5) < 1e-14
        rest = f.coeffs[0].copy()
        rest[2] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_constant_one(self, grid1d):
        f = mode_field(grid1d, lambda x: np.ones_like(x))
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(f.coeffs[0, 1:])) < 1e-14

    def test_sinx_cosx_product_to_sum(self, grid1d):
        # sin(x)cos(x) = sin(2x)/2 so the k=2 coefficient is -i/4; checked
        # against brute-force quadrature of the projection integral
        (x,) = grid1d.mesh()
        vals = np.sin(x) * np.cos(x)
        f = to_spectral(grid1d, vals)
        quad = np.sum(vals * np.exp(-2j * x)) * grid1d.spacing / (2 * np.pi)
        assert abs(quad - (-0.25j)) < 1e-14
        assert abs(f.coeffs[0, 2] - quad) < 1e-14

    def test_round_trip_identity(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = to_spectral(grid, to_physical(f)[0])
            err = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
            assert err < 1e-12

    def test_round_trip_against_direct_summation(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        g = to_spectral(grid2d, to_physical(f)[0])
        pts = rng.uniform(-np.pi, np.pi, size=(8, 2))
        np.testing.assert_allclose(eval_series(g, pts), eval_series(f, pts), rtol=1e-12, atol=1e-12)

    def test_physical_matches_direct_summation(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=8)
        f = rand_field(grid, rng)
        xs, ys = grid.mesh()
        pts = [(xs[i, j], ys[i, j]) for i, j in [(0, 0), (3, 5), (7, 2), (10, 10)]]
        direct = eval_series(f, pts)
        vals = to_physical(f)[0]
        got = np.array([[vals[0, 0], vals[3, 5], vals[7, 2], vals[10, 10]]])
        np.testing.assert_allclose(got, direct, atol=1e-12)

    def test_size_mismatch_rejected(self, grid1d):
        with pytest.raises(ValueError):
            to_spectral(grid1d, np.ones(7))


class TestProjection:
    def test_mode_outside_subspace(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(3 * x))
        assert norm_l2(project(f, 2)) < 1e-14

    def test_keeps_inner_mode(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x) + np.cos(5 * x))
        g = project(f, 2)
        h = mode_field(grid1d, lambda x: np.cos(x))
        assert norm_l2(from_coeffs(grid1d, g.coeffs[0] - h.coeffs[0])) < 1e-13

    def test_idempotent_and_self_adjoint(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            m = grid.kmax // 2
            pf = project(f, m)
            assert np.array_equal(project(pf, m).coeffs, pf.coeffs)
            lhs = inner_product(pf, g)
            rhs = inner_product(f, project(g, m))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_identity_on_subspace(self, rng, grid2d):
        f = rand_field(grid2d, rng, band=4)
        assert np.max(np.abs(project(f, 4).coeffs - f.coeffs)) == 0.0


class TestDerivatives:
    def test_laplacian_eigenfunction(self, grid1d):
        c = np.zeros(grid1d.band_shape, dtype=complex)
        c[2] = 0.5
        f = from_coeffs(grid1d, c)
        g = laplacian(f)
        np.testing.assert_allclose(g.coeffs, -4.0 * f.coeffs, atol=1e-14)

    def test_div_grad_is_laplacian(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_bilaplacian_2d_mode(self):
        # sin(x)sin(y) has |k|^2 = 2 on every mode, so |k|^4 = 4
        grid = TorusGrid(dim=2, modes_per_dim=16)
        k = grid.kmax
        c = np.zeros(grid.band_shape, dtype=complex)
        c[k + 1, 1] = -0.25  # sin x sin y = -(1/4)(e^{i(x+y)} + e^{-i(x+y)} - e^{i(x-y)} - e^{-i(x-y)})
        c[k - 1, 1] = 0.25
        f = from_coeffs(grid, c)
        vals = to_physical(f)[0]
        xs, ys = grid.mesh()
        np.testing.assert_allclose(vals, np.sin(xs) * np.sin(ys), atol=1e-13)
        g = laplacian(laplacian(f))
        np.testing.assert_allclose(g.coeffs, 4.0 * f.coeffs, atol=1e-14)

    def test_divergence_of_scalar_rejected(self, grid2d, rng):
        with pytest.raises(ValueError):
            divergence(rand_field(grid2d, rng))

    def test_integration_by_parts(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            gf, gg = gradient(f), gradient(g)
            for i in range(grid.dim):
                lhs = inner_product(from_coeffs(grid, gf.coeffs[i]), g)
                rhs = -inner_product(f, from_coeffs(grid, gg.coeffs[i]))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_derivatives_have_zero_mean(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        u = rand_field(grid2d, rng, ncomp=2)
        for g in (laplacian(f), laplacian(laplacian(f)), divergence(u)):
            assert integral(from_coeffs(grid2d, g.coeffs[0])) == 0.0
        for comp in gradient(f).coeffs:
            assert integral(from_coeffs(grid2d, comp)) == 0.0

    def test_grad_tensor_div_tensor_roundtrip(self, rng, grid2d):
        u = rand_field(grid2d, rng, ncomp=2)
        t = grad_tensor(u)
        assert t.ncomp == 4
        # Div(grad u) equals the componentwise laplacian
        lhs = div_tensor(t)
        rhs = laplacian(u)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


class TestProducts:
    def test_single_mode_convolution(self):
        # e^{ix} times e^{ix} must land exactly on k=2 with no spurious modes
        grid = TorusGrid(dim=1, modes_per_dim=16)
        c = np.zeros(grid.band_shape, dtype=complex)
        c[1] = 1.0
        f = from_coeffs(grid, c)
        p = multiply(f, f)
        # real field e^{ix}+c.c. squared: modes at 0 and 2
        expect = np.zeros(grid.band_shape, dtype=complex)
        expect[0] = 2.0
        expect[2] = 1.0
        assert np.max(np.abs(p.coeffs[0] - expect)) < 1e-14

    def test_identity_element(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        one = constant(grid2d, 1.0)
        p = multiply(f, one)
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-13

    def test_cos_squared(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        p = multiply(f, f)
        expect = np.zeros(grid1d.band_shape, dtype=complex)
        expect[0] = 0.5
        expect[2] = 0.25
        assert np.max(np.abs(p.coeffs[0] - expect)) < 1e-14

    def test_dealiased_pair_inside_band(self, grid1d):
        # product of the two highest retained modes is the exact convolution
        # whenever the sum stays inside the band
        k = grid1d.kmax
        k1, k2 = k - 1, 1
        c1 = np.zeros(grid1d.band_shape, dtype=complex)
        c1[k1] = 0.5
        c2 = np.zeros(grid1d.band_shape, dtype=complex)
        c2[k2] = 0.5
        p = multiply(from_coeffs(grid1d, c1), from_coeffs(grid1d, c2))
        assert abs(p.coeffs[0, k] - 0.25) < 1e-14
        assert abs(p.coeffs[0, k1 - k2] - 0.25) < 1e-14

    def test_dot_and_outer(self, rng, grid2d):
        from nsch.spectral import dot

        u = rand_field(grid2d, rng, ncomp=2)
        v = rand_field(grid2d, rng, ncomp=2)
        d = multiply(from_coeffs(grid2d, u.coeffs[0]), from_coeffs(grid2d, v.coeffs[0])).coeffs[0]
        d = d + multiply(from_coeffs(grid2d, u.coeffs[1]), from_coeffs(grid2d, v.coeffs[1])).coeffs[0]
        got = dot(u, v)
        assert np.max(np.abs(got.coeffs[0] - d)) < 1e-13
        t = outer(u, v)
        uv01 = multiply(from_coeffs(grid2d, u.coeffs[0]), from_coeffs(grid2d, v.coeffs[1]))
        assert np.max(np.abs(t.coeffs[1] - uv01.coeffs[0])) < 1e-13

    def test_grid_mismatch(self, rng, grid1d):
        other = TorusGrid(dim=1, modes_per_dim=32)
        with pytest.raises(ValueError):
            multiply(rand_field(grid1d, rng), rand_field(other, rng))


class TestInnerProduct:
    def test_cos_norm(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        assert abs(inner_product(f, f) - np.pi) < 1e-13

    def test_orthogonality(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        g = mode_field(grid1d, lambda x: np.sin(x))
        assert abs(inner_product(f, g)) < 1e-14

    def test_parseval_vs_quadrature(self, rng, grid1d, grid2d):
        # trapezoidal quadrature is exact for trigonometric polynomials and
        # serves as the independent oracle
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            quad = integrate_values(grid, to_physical(f)[0] * to_physical(g)[0])
            par = inner_product(f, g)
            assert abs(par - quad) <= 1e-12 * max(1.0, abs(quad))

    def test_integral_from_zero_mode(self, grid2d, rng):
        f = rand_field(grid2d, rng)
        quad = integrate_values(grid2d, to_physical(f)[0])
        assert abs(integral(f) - quad) < 1e-12

    def test_sobolev_norm_weights(self, grid1d):
        f = mode_field(grid1d, lambda x: np.sin(x))
        # single mode |k|=1: weighted norm is (1+1)^(order/2) times the L2 norm
        for order in (-3, -1, 2):
            expect = np.sqrt(np.pi) * 2.0 ** (order / 2)
            assert abs(norm_sobolev(f, order) - expect) < 1e-12


class TestRandomFields:
    def test_band_and_amplitude(self, rng, grid2d):
        f = random_band_limited(grid2d, rng, ncomp=2, band=3, amplitude=0.5)
        assert np.max(np.abs(project(f, 3).coeffs - f.coeffs)) == 0.0
        sup = np.max(np.abs(to_physical(f)))
        assert abs(sup - 0.5) < 1e-12

    def test_zero_mean(self, rng, grid1d):
        f = random_band_limited(grid1d, rng, band=4, amplitude=1.0, zero_mean=True)
        assert integral(f) == 0.0

    def test_immutability(self, rng, grid1d):
        f = rand_field(grid1d, rng)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0
