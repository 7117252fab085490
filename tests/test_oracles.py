"""Independent brute-force oracles: convolution products, Ito convention."""

import numpy as np

from nsch.constitutive import chemical_potential
from nsch.diagnostics import energy_ledger_step
from nsch.noise import geometric_noise, path_generator
from nsch.scheme import ApproxParams, InitialData, step
from nsch.spectral import (
    TorusGrid,
    integrate_values,
    multiply,
    random_band_limited,
    to_physical,
    to_spectral,
)


def full_spectrum_1d(grid, coeffs):
    """Two-sided coefficient dict reconstructed from the stored half."""
    k = grid.kmax
    out = {}
    for kk in range(0, k + 1):
        c = coeffs[0, kk]
        out[kk] = c
        if kk > 0:
            out[-kk] = np.conj(c)
    return out


def full_spectrum_2d(grid, coeffs):
    k = grid.kmax
    out = {}
    for i in range(2 * k + 1):
        kx = i - k
        for ky in range(0, k + 1):
            c = coeffs[0, i, ky]
            out[(kx, ky)] = c
            if ky > 0:
                out[(-kx, -ky)] = np.conj(c)
    return out


class TestConvolutionOracle:
    def test_1d_product_is_exact_convolution(self, rng):
        # brute-force convolution of the two-sided spectra is the independent
        # oracle for the dealiased product, inside the retained band
        grid = TorusGrid(dim=1, modes_per_dim=8)
        f = random_band_limited(grid, rng, band=4, amplitude=1.0, zero_mean=False)
        g = random_band_limited(grid, rng, band=4, amplitude=1.0, zero_mean=False)
        sf, sg = full_spectrum_1d(grid, f), full_spectrum_1d(grid, g)
        p = multiply(grid, f, g)
        for k in range(0, grid.kmax + 1):
            conv = sum(sf[a] * sg[k - a] for a in sf if (k - a) in sg)
            assert abs(p[0, k] - conv) < 1e-13

    def test_2d_product_is_exact_convolution(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=6)
        f = random_band_limited(grid, rng, band=3, amplitude=1.0, zero_mean=False)
        g = random_band_limited(grid, rng, band=3, amplitude=1.0, zero_mean=False)
        sf, sg = full_spectrum_2d(grid, f), full_spectrum_2d(grid, g)
        p = multiply(grid, f, g)
        k = grid.kmax
        for i in range(2 * k + 1):
            for ky in range(0, k + 1):
                kx = i - k
                conv = sum(
                    sf[(ax, ay)] * sg.get((kx - ax, ky - ay), 0.0) for (ax, ay) in sf
                )
                assert abs(p[0, i, ky] - conv) < 1e-13

    def test_2d_conjugate_symmetry_exact(self, rng):
        grid = TorusGrid(dim=2, modes_per_dim=16)
        vals = rng.standard_normal(grid.pshape)
        f = to_spectral(grid, vals)
        k = grid.kmax
        line = f[0, :, 0]
        assert np.array_equal(line, np.conj(line[::-1]))
        assert f[0, k, 0].imag == 0.0


class TestItoConvention:
    def test_midpoint_stochastic_evaluation_breaks_martingale(self):
        # replacing the pre-step (Ito) stochastic transfer with a midpoint
        # (Stratonovich-style) evaluation acquires an O(1)-per-unit-time
        # drift that the compensated residual test detects immediately
        grid = TorusGrid(dim=1, modes_per_dim=32)
        params = ApproxParams(
            eps=1e-2, R=5.0, m=6, n=8, dt=1e-5, noise=geometric_noise(K=20, alpha0=1.0, seed=55)
        )
        data = InitialData(mass=grid.volume, rho_amp=0.05, u_amp=0.05, c_amp=0.3)
        state0 = data.build(grid, params, path_generator(55, 0, 1))
        noise = params.noise
        paths, steps = 24, 60
        ito_tot, mid_tot = np.empty(paths), np.empty(paths)
        for p in range(paths):
            state = state0
            gen = path_generator(55, p)
            acc_i = acc_m = 0.0
            for _ in range(steps):
                new, rep = step(state, params, gen)
                row = energy_ledger_step(state, new, rep.increment, params)
                rho_m = 0.5 * (state.rho + new.rho)
                c_m = 0.5 * (state.c + new.c)
                mu_m = chemical_potential(grid, rho_m, c_m, params.fspec)
                rv, cv, muv = (to_physical(grid, f)[0] for f in (rho_m, c_m, mu_m))
                stoch_mid = sum(
                    noise.alphas[i]
                    * rep.increment.dbeta[i]
                    * integrate_values(grid, rv * muv * noise.family.value(k, cv))
                    for i, k in enumerate(noise.modes)
                )
                acc_i += row.residual
                acc_m += row.residual + row.stochastic_increment - stoch_mid
                state = new
            ito_tot[p], mid_tot[p] = acc_i, acc_m
        z_ito = np.mean(ito_tot) / (np.std(ito_tot, ddof=1) / np.sqrt(paths))
        z_mid = np.mean(mid_tot) / (np.std(mid_tot, ddof=1) / np.sqrt(paths))
        assert abs(z_ito) < 3.0
        assert abs(z_mid) > 10.0
