"""Coefficient arrays that tests build by hand."""

import numpy as np

from nsch.spectral import SpectralField, multiply


def constant(grid, value):
    """Coefficients of the constant scalar field ``value``, set on the zero mode."""
    c = np.zeros((1,) + grid.band_shape, dtype=complex)
    c[0][grid.zero_index] = value
    return c


def product(grid, a, b):
    """Coefficients of the dealiased product of two coefficient arrays."""
    return multiply(SpectralField(grid, a), SpectralField(grid, b)).coeffs
