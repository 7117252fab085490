"""Binary checkpoint format with bit-exact round trip.

Layout (all little-endian):

    magic   4 bytes  b"NSCH"
    version u16      currently 1
    dim     u16
    modes   u32      modes_per_dim of the grid
    m       u32      velocity Galerkin order
    n       u32      concentration Galerkin order
    K       u32      noise truncation
    t       f64      simulation time
    rho     complex128 block, band layout, C order
    w       complex128 block, (dim,) + band layout
    c       complex128 block, band layout
    rng     PCG64 position: state u128, inc u128, has_uint32 u32, uinteger u32

The generator block captures the exact stream position, so a restart replays
the remaining increments bit-identically.  Output files are written through
``atomic_open``, so a crash or kill mid-write leaves the previous file intact.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
from .scheme import SchemeState
from .spectral import TorusGrid

__all__ = ["CheckpointMeta", "atomic_open", "checkpoint_bytes", "checkpoint_diff", "save_checkpoint", "load_checkpoint"]

MAGIC = b"NSCH"
VERSION = 1
_HEADER = struct.Struct("<4sHHIIIId")
_HEADER_FIELDS = ("magic", "version", "dim", "modes", "m", "n", "K", "t")
_GENERATOR_SIZE = 40


@dataclass(frozen=True)
class CheckpointMeta:
    dim: int
    modes_per_dim: int
    m: int
    n: int
    noise_modes: int


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a hidden temporary file next to ``path`` and move it onto ``path`` on success.

    The temporary name ``.<name>.tmp`` matches no output pattern (``chk_*.nsch``);
    on an exception it is removed and ``path`` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _coeff_bytes(coeffs: np.ndarray) -> bytes:
    return np.ascontiguousarray(coeffs).astype("<c16", copy=False).tobytes()


def checkpoint_bytes(state: SchemeState, rng: np.random.Generator, m: int, n: int, noise_modes: int) -> bytes:
    """The content of the checkpoint file of ``state`` and the generator position ``rng``."""
    grid = state.grid
    st = rng.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise CheckpointError(f"unsupported generator {st['bit_generator']}")
    head = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.modes_per_dim, m, n, noise_modes, state.t)
    blocks = b"".join(_coeff_bytes(a) for a in (state.rho, state.w, state.c))
    position = st["state"]["state"].to_bytes(16, "little") + st["state"]["inc"].to_bytes(16, "little")
    return head + blocks + position + struct.pack("<II", st["has_uint32"], st["uinteger"])


def save_checkpoint(path, state: SchemeState, rng: np.random.Generator, m: int, n: int, noise_modes: int):
    with atomic_open(path, "wb") as fh:
        fh.write(checkpoint_bytes(state, rng, m, n, noise_modes))


def checkpoint_diff(stored: bytes, replayed: bytes) -> str | None:
    """The first part of the layout in which a stored checkpoint differs from a replayed one, or None.

    The parts (header fields, rho, w and c blocks, generator) are placed by the
    replayed header; a header field is named with both values.
    """
    head = _HEADER.unpack_from(replayed)
    if stored[: _HEADER.size] != replayed[: _HEADER.size]:
        got = _HEADER.unpack_from(stored) if len(stored) >= _HEADER.size else (None,) * len(head)
        name, a, b = next((n, a, b) for n, a, b in zip(_HEADER_FIELDS, got, head) if repr(a) != repr(b))
        return f"header field {name} = {a!r} in the file, {b!r} in the replay"
    dim, start = head[2], _HEADER.size
    block = (len(replayed) - _HEADER.size - _GENERATOR_SIZE) // (2 + dim)
    parts = (("rho block", block), ("w block", dim * block), ("c block", block), ("generator", _GENERATOR_SIZE))
    for name, size in parts:
        if stored[start : start + size] != replayed[start : start + size]:
            return f"{name} differs from the replay"
        start += size
    return None if stored == replayed else f"{len(stored) - len(replayed)} bytes after the generator"


def _read_block(fh, shape) -> np.ndarray:
    raw = fh.read(16 * math.prod(shape))
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(shape)


def load_checkpoint(path) -> tuple[SchemeState, np.random.Generator, CheckpointMeta]:
    """Read a checkpoint: the state's blocks as stored, nothing transformed or solved.

    The state's collocation record checks the density floor of its parameters and recovers the velocity,
    deterministically, so a restart is bit-identical to the uninterrupted run.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise CheckpointError("truncated header")
        magic, version, dim, modes, m, n, noise_modes, t = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"unsupported version {version}")
        try:
            grid = TorusGrid(dim=dim, modes_per_dim=modes)
        except ConfigError as exc:
            raise CheckpointError("; ".join(exc.violations)) from exc
        for name, order in (("m", m), ("n", n)):
            if not 1 <= order <= grid.kmax:
                raise CheckpointError(f"Galerkin order {name} = {order} outside [1, {grid.kmax}]")
        if not math.isfinite(t):
            raise CheckpointError(f"non-finite t ({t})")
        band = grid.band_shape
        # rho, w and c blocks, then the generator state; checked before any read,
        # since the header alone sets how much is read
        expected = _HEADER.size + 16 * math.prod(band) * (2 + dim) + _GENERATOR_SIZE
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointError(f"file holds {size} bytes but its header implies {expected}")
        rho = _read_block(fh, (1,) + band)
        w = _read_block(fh, (dim,) + band)
        c = _read_block(fh, (1,) + band)
        # NaN passes every ordered comparison, so it is caught before any density guard
        for name, a in (("rho", rho), ("w", w), ("c", c)):
            if not np.isfinite(a).all():
                raise CheckpointError(f"non-finite {name} coefficients")
        raw = fh.read(_GENERATOR_SIZE)
        state_int = int.from_bytes(raw[:16], "little")
        inc_int = int.from_bytes(raw[16:32], "little")
        has_uint32, uinteger = struct.unpack("<II", raw[32:40])
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_int, "inc": inc_int},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    rng = np.random.Generator(bg)
    state = SchemeState(t=t, grid=grid, rho=rho, w=w, c=c)
    return state, rng, CheckpointMeta(dim, modes, m, n, noise_modes)
