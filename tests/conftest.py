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
    """Running counts of numpy.fft.rfftn and irfftn calls ("n"), of those that omit ``s`` or ``axes``, and of the
    rows the forward calls transform ("forward_rows", the size of the axes in front of the transform axes)."""
    calls = {"n": 0, "shapeless": 0, "forward_rows": 0}
    for name in ("rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(a, s=None, axes=None, *args, _original=original, _forward=name == "rfftn", **kwargs):
            calls["n"] += 1
            calls["shapeless"] += s is None or axes is None
            if _forward:
                calls["forward_rows"] += math.prod(np.shape(a)[: -len(axes)]) if axes else 1
            return _original(a, s, axes, *args, **kwargs)

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
