import numpy as np
import pytest

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
