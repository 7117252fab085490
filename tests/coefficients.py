"""Coefficient arrays that tests build by hand."""

import numpy as np


def constant(grid, value):
    """Coefficients of the constant scalar field ``value``, set on the zero mode."""
    c = np.zeros((1,) + grid.band_shape, dtype=complex)
    c[0][grid.zero_index] = value
    return c
