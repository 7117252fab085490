import math
import struct

import numpy as np
import pytest

from nsch.checkpoint import _HEADER
from nsch.spectral import TorusGrid


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def grid1d():
    return TorusGrid(dim=1, modes_per_dim=64)


@pytest.fixture
def grid2d():
    return TorusGrid(dim=2, modes_per_dim=32)


@pytest.fixture
def fft_calls(monkeypatch):
    """Running count of numpy.fft.rfftn and irfftn calls."""
    calls = {"n": 0}
    for name in ("rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def poison_checkpoint():
    """Overwrite t, or the real part of coefficient 1 of the rho, w or c block, of a checkpoint file."""

    def poison(path, where: str, value: float):
        raw = bytearray(path.read_bytes())
        _, _, dim, modes, *_ = _HEADER.unpack_from(raw)
        if where == "t":
            struct.pack_into("<d", raw, _HEADER.size - 8, value)
        else:
            block = 16 * math.prod(TorusGrid(dim=dim, modes_per_dim=modes).band_shape)
            first = {"rho": 0, "w": 1, "c": 1 + dim}[where]
            struct.pack_into("<d", raw, _HEADER.size + first * block + 16, value)
        path.write_bytes(bytes(raw))

    return poison
