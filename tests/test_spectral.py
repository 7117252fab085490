import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from coefficients import constant

import nsch.spectral
from nsch.constitutive import ViscositySpec, stress
from nsch.spectral import (
    TorusGrid,
    coeff_inner,
    coeff_norm,
    div_tensor,
    divergence,
    dot,
    gradient,
    grad_tensor,
    integral,
    integrate_values,
    laplacian,
    multiply,
    norm_sobolev,
    outer,
    pointwise,
    project,
    random_band_limited,
    to_physical,
    to_spectral,
)


def eval_series(grid, coeffs, points):
    """Independent oracle: direct summation of the stored trigonometric series."""
    k = grid.kmax
    out = np.zeros((len(coeffs), len(points)))
    for c in range(len(coeffs)):
        for p, x in enumerate(points):
            if grid.dim == 1:
                val = coeffs[c, 0].real
                for kk in range(1, k + 1):
                    val += 2.0 * (coeffs[c, kk] * np.exp(1j * kk * x[0])).real
            else:
                val = 0.0
                for i in range(2 * k + 1):
                    kx = i - k
                    val += (coeffs[c, i, 0] * np.exp(1j * kx * x[0])).real
                    for ky in range(1, k + 1):
                        val += 2.0 * (coeffs[c, i, ky] * np.exp(1j * (kx * x[0] + ky * x[1]))).real
            out[c, p] = val
    return out


def mode_field(grid, fn):
    x = grid.mesh()
    return to_spectral(grid, fn(*x))


def rand_field(grid, rng, ncomp=1, band=None):
    """Coefficients of a random band-limited field."""
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
            mean = np.zeros((1,) + grid.band_shape, dtype=complex)
            mean[0][grid.zero_index] = 2.5
            assert np.all(to_physical(grid, mean) == 2.5)
            f = random_band_limited(grid, rng, ncomp=2, amplitude=1.0)
            assert np.all(f[(slice(None), *grid.zero_index)] == 0.0)

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
        # no scipy, and no process pool: only a run on more than one worker imports it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, nsch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
        )
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
        np.testing.assert_allclose(to_physical(grid, f)[0], np.cos(x), atol=1e-14)

    def test_zero_field(self, grid1d):
        assert np.all(to_physical(grid1d, np.zeros((1,) + grid1d.band_shape, dtype=complex)) == 0.0)

    def test_cos2x_coefficients(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(2 * x))
        assert abs(f[0, 2] - 0.5) < 1e-14
        rest = f[0].copy()
        rest[2] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_constant_one(self, grid1d):
        f = mode_field(grid1d, lambda x: np.ones_like(x))
        assert abs(f[0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(f[0, 1:])) < 1e-14

    def test_sinx_cosx_product_to_sum(self, grid1d):
        # sin(x)cos(x) = sin(2x)/2 so the k=2 coefficient is -i/4; checked
        # against brute-force quadrature of the projection integral
        (x,) = grid1d.mesh()
        vals = np.sin(x) * np.cos(x)
        f = to_spectral(grid1d, vals)
        quad = np.sum(vals * np.exp(-2j * x)) * grid1d.spacing / (2 * np.pi)
        assert abs(quad - (-0.25j)) < 1e-14
        assert abs(f[0, 2] - quad) < 1e-14

    def test_round_trip_identity(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = to_spectral(grid, to_physical(grid, f)[0])
            err = np.max(np.abs(g - f)) / np.max(np.abs(f))
            assert err < 1e-12

    def test_round_trip_against_direct_summation(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        g = to_spectral(grid2d, to_physical(grid2d, f)[0])
        pts = rng.uniform(-np.pi, np.pi, size=(8, 2))
        np.testing.assert_allclose(eval_series(grid2d, g, pts), eval_series(grid2d, f, pts), rtol=1e-12, atol=1e-12)

    def test_physical_matches_direct_summation(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=8)
        f = rand_field(grid, rng)
        xs, ys = grid.mesh()
        pts = [(xs[i, j], ys[i, j]) for i, j in [(0, 0), (3, 5), (7, 2), (10, 10)]]
        direct = eval_series(grid, f, pts)
        vals = to_physical(grid, f)[0]
        got = np.array([[vals[0, 0], vals[3, 5], vals[7, 2], vals[10, 10]]])
        np.testing.assert_allclose(got, direct, atol=1e-12)

    def test_size_mismatch_rejected(self, grid1d):
        with pytest.raises(ValueError):
            to_spectral(grid1d, np.ones(7))


class TestProjection:
    def test_mode_outside_subspace(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(3 * x))
        assert coeff_norm(grid1d, project(grid1d, f, 2)) < 1e-14

    def test_keeps_inner_mode(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x) + np.cos(5 * x))
        g = project(grid1d, f, 2)
        h = mode_field(grid1d, lambda x: np.cos(x))
        assert coeff_norm(grid1d, g - h) < 1e-13

    def test_idempotent_and_self_adjoint(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            m = grid.kmax // 2
            pf = project(grid, f, m)
            assert np.array_equal(project(grid, pf, m), pf)
            lhs = coeff_inner(grid, pf, g)
            rhs = coeff_inner(grid, f, project(grid, g, m))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_identity_on_subspace(self, rng, grid2d):
        f = rand_field(grid2d, rng, band=4)
        assert np.max(np.abs(project(grid2d, f, 4) - f)) == 0.0


class TestDerivatives:
    def test_laplacian_eigenfunction(self, grid1d):
        f = np.zeros((1,) + grid1d.band_shape, dtype=complex)
        f[0, 2] = 0.5
        g = laplacian(grid1d, f)
        np.testing.assert_allclose(g, -4.0 * f, atol=1e-14)

    def test_div_grad_is_laplacian(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        lhs = divergence(grid2d, gradient(grid2d, f))
        rhs = laplacian(grid2d, f)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bilaplacian_2d_mode(self):
        # sin(x)sin(y) has |k|^2 = 2 on every mode, so |k|^4 = 4
        grid = TorusGrid(dim=2, modes_per_dim=16)
        k = grid.kmax
        f = np.zeros((1,) + grid.band_shape, dtype=complex)
        f[0, k + 1, 1] = -0.25  # sin x sin y = -(1/4)(e^{i(x+y)} + e^{-i(x+y)} - e^{i(x-y)} - e^{-i(x-y)})
        f[0, k - 1, 1] = 0.25
        vals = to_physical(grid, f)[0]
        xs, ys = grid.mesh()
        np.testing.assert_allclose(vals, np.sin(xs) * np.sin(ys), atol=1e-13)
        g = laplacian(grid, laplacian(grid, f))
        np.testing.assert_allclose(g, 4.0 * f, atol=1e-14)

    def test_divergence_of_scalar_rejected(self, grid2d, rng):
        with pytest.raises(ValueError):
            divergence(grid2d, rand_field(grid2d, rng))

    def test_integration_by_parts(self, rng, grid1d, grid2d):
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            gf, gg = gradient(grid, f), gradient(grid, g)
            for i in range(grid.dim):
                lhs = coeff_inner(grid, gf[i : i + 1], g)
                rhs = -coeff_inner(grid, f, gg[i : i + 1])
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_derivatives_have_zero_mean(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        u = rand_field(grid2d, rng, ncomp=2)
        for g in (laplacian(grid2d, f), laplacian(grid2d, laplacian(grid2d, f)), divergence(grid2d, u)):
            assert integral(grid2d, g) == 0.0
        for comp in gradient(grid2d, f):
            assert integral(grid2d, comp[None]) == 0.0

    def test_grad_tensor_div_tensor_roundtrip(self, rng, grid2d):
        u = rand_field(grid2d, rng, ncomp=2)
        t = grad_tensor(grid2d, u)
        assert len(t) == 4
        # Div(grad u) equals the componentwise laplacian
        lhs = div_tensor(grid2d, t)
        rhs = laplacian(grid2d, u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestProducts:
    def test_single_mode_convolution(self):
        # e^{ix} times e^{ix} must land exactly on k=2 with no spurious modes
        grid = TorusGrid(dim=1, modes_per_dim=16)
        f = np.zeros((1,) + grid.band_shape, dtype=complex)
        f[0, 1] = 1.0
        p = multiply(grid, f, f)
        # real field e^{ix}+c.c. squared: modes at 0 and 2
        expect = np.zeros(grid.band_shape, dtype=complex)
        expect[0] = 2.0
        expect[2] = 1.0
        assert np.max(np.abs(p[0] - expect)) < 1e-14

    def test_identity_element(self, rng, grid2d):
        f = rand_field(grid2d, rng)
        p = multiply(grid2d, f, constant(grid2d, 1.0))
        assert np.max(np.abs(p - f)) < 1e-13

    def test_cos_squared(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        p = multiply(grid1d, f, f)
        expect = np.zeros(grid1d.band_shape, dtype=complex)
        expect[0] = 0.5
        expect[2] = 0.25
        assert np.max(np.abs(p[0] - expect)) < 1e-14

    def test_dealiased_pair_inside_band(self, grid1d):
        # product of the two highest retained modes is the exact convolution
        # whenever the sum stays inside the band
        k = grid1d.kmax
        k1, k2 = k - 1, 1
        c1 = np.zeros((1,) + grid1d.band_shape, dtype=complex)
        c1[0, k1] = 0.5
        c2 = np.zeros((1,) + grid1d.band_shape, dtype=complex)
        c2[0, k2] = 0.5
        p = multiply(grid1d, c1, c2)
        assert abs(p[0, k] - 0.25) < 1e-14
        assert abs(p[0, k1 - k2] - 0.25) < 1e-14

    def test_dot_and_outer(self, rng, grid2d):
        u = rand_field(grid2d, rng, ncomp=2)
        v = rand_field(grid2d, rng, ncomp=2)
        d = multiply(grid2d, u[0:1], v[0:1])[0]
        d = d + multiply(grid2d, u[1:2], v[1:2])[0]
        got = dot(grid2d, u, v)
        assert np.max(np.abs(got[0] - d)) < 1e-13
        t = outer(grid2d, u, v)
        uv01 = multiply(grid2d, u[0:1], v[1:2])
        assert np.max(np.abs(t[1] - uv01[0])) < 1e-13


class TestInnerProduct:
    def test_cos_norm(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        assert abs(coeff_inner(grid1d, f, f) - np.pi) < 1e-13

    def test_orthogonality(self, grid1d):
        f = mode_field(grid1d, lambda x: np.cos(x))
        g = mode_field(grid1d, lambda x: np.sin(x))
        assert abs(coeff_inner(grid1d, f, g)) < 1e-14

    def test_parseval_vs_quadrature(self, rng, grid1d, grid2d):
        # trapezoidal quadrature is exact for trigonometric polynomials and
        # serves as the independent oracle
        for grid in (grid1d, grid2d):
            f = rand_field(grid, rng)
            g = rand_field(grid, rng)
            quad = integrate_values(grid, to_physical(grid, f)[0] * to_physical(grid, g)[0])
            par = coeff_inner(grid, f, g)
            assert abs(par - quad) <= 1e-12 * max(1.0, abs(quad))

    def test_integral_from_zero_mode(self, grid2d, rng):
        f = rand_field(grid2d, rng)
        quad = integrate_values(grid2d, to_physical(grid2d, f)[0])
        assert abs(integral(grid2d, f) - quad) < 1e-12

    def test_sobolev_norm_weights(self, grid1d):
        f = mode_field(grid1d, lambda x: np.sin(x))
        # single mode |k|=1: weighted norm is (1+1)^(order/2) times the L2 norm
        for order in (-3, -1, 2):
            expect = np.sqrt(np.pi) * 2.0 ** (order / 2)
            assert abs(norm_sobolev(grid1d, f, order) - expect) < 1e-12


class TestRandomFields:
    def test_band_and_amplitude(self, rng, grid2d):
        f = random_band_limited(grid2d, rng, ncomp=2, band=3, amplitude=0.5)
        assert np.max(np.abs(project(grid2d, f, 3) - f)) == 0.0
        sup = np.max(np.abs(to_physical(grid2d, f)))
        assert abs(sup - 0.5) < 1e-12

    def test_zero_mean(self, rng, grid1d):
        f = random_band_limited(grid1d, rng, band=4, amplitude=1.0, zero_mean=True)
        assert integral(grid1d, f) == 0.0


LEADING_GRIDS = [TorusGrid(dim=1, modes_per_dim=32), TorusGrid(dim=2, modes_per_dim=16)]


def stack(grid, rng, ncomp, paths=3):
    """Coefficients of ``paths`` random fields with ``ncomp`` components, stacked on a leading axis."""
    return np.stack([rand_field(grid, rng, ncomp=ncomp) for _ in range(paths)])


@pytest.mark.parametrize("grid", LEADING_GRIDS, ids=["1d-32", "2d-16"])
def test_operators_take_a_leading_axis(grid, rng):
    # every operator on a (3, ncomp) + band stack equals one call per path, bit for bit
    n = grid.dim
    visc = ViscositySpec(nu_shear=1.3, nu_bulk=0.4)
    operators = {
        "gradient": (1, lambda a: gradient(grid, a)),
        "divergence": (n, lambda a: divergence(grid, a)),
        "laplacian": (n, lambda a: laplacian(grid, a)),
        "grad_tensor": (n, lambda a: grad_tensor(grid, a)),
        "div_tensor": (n * n, lambda a: div_tensor(grid, a)),
        "project": (n, lambda a: project(grid, a, grid.kmax // 2)),
        "stress": (n * n, lambda a: stress(grid, a, visc)),
        "to_physical": (n, lambda a: to_physical(grid, a)),
        "multiply": (n, lambda a: multiply(grid, np.take(a, [0], axis=-n - 1), a)),
        "dot": (n, lambda a: dot(grid, a, a)),
        "outer": (n, lambda a: outer(grid, a, a)),
        "pointwise": (n, lambda a: pointwise(grid, lambda v, w: v * w**2, a, a)),
    }
    for name, (ncomp, op) in operators.items():
        coeffs = stack(grid, rng, ncomp)
        batched = op(coeffs)
        assert batched.shape[0] == 3, name
        assert np.array_equal(batched, np.stack([op(path) for path in coeffs])), name

    values = to_physical(grid, stack(grid, rng, n)) ** 2
    batched = to_spectral(grid, values)
    assert batched.shape == (3, n) + grid.band_shape
    assert np.array_equal(batched, np.stack([to_spectral(grid, path) for path in values]))


def test_one_entry_point_per_operator():
    # no field-level operator beside a coefficient-array twin
    names = set(nsch.spectral.__all__)
    twins = sorted(name for name in names if f"{name}_coeffs" in names)
    assert twins == []
