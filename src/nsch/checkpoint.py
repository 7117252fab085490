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
from .scheme import SchemeState, recover_velocity
from .spectral import TorusGrid

__all__ = ["CheckpointMeta", "atomic_open", "save_checkpoint", "load_checkpoint"]

MAGIC = b"NSCH"
VERSION = 1
_HEADER = struct.Struct("<4sHHIIIId")


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


def save_checkpoint(path, state: SchemeState, rng: np.random.Generator, m: int, n: int, noise_modes: int):
    grid = state.grid
    st = rng.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise CheckpointError(f"unsupported generator {st['bit_generator']}")
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, grid.dim, grid.modes_per_dim, m, n, noise_modes, state.t))
        fh.write(_coeff_bytes(state.rho))
        fh.write(_coeff_bytes(state.w))
        fh.write(_coeff_bytes(state.c))
        fh.write(st["state"]["state"].to_bytes(16, "little"))
        fh.write(st["state"]["inc"].to_bytes(16, "little"))
        fh.write(struct.pack("<II", st["has_uint32"], st["uinteger"]))


def _read_block(fh, shape) -> np.ndarray:
    raw = fh.read(16 * math.prod(shape))
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(shape)


def load_checkpoint(path, rho_floor: float = 1e-8) -> tuple[SchemeState, np.random.Generator, CheckpointMeta]:
    """Read a checkpoint; the velocity is recovered with the given density floor."""
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
        expected = _HEADER.size + 16 * math.prod(band) * (2 + dim) + 40
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointError(f"file holds {size} bytes but its header implies {expected}")
        rho = _read_block(fh, (1,) + band)
        w = _read_block(fh, (dim,) + band)
        c = _read_block(fh, (1,) + band)
        # NaN passes every ordered comparison, so it is caught before the velocity recovery
        for name, a in (("rho", rho), ("w", w), ("c", c)):
            if not np.isfinite(a).all():
                raise CheckpointError(f"non-finite {name} coefficients")
        raw = fh.read(40)
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
    # the velocity is not stored: it is the unique order-m solution of
    # P_m(rho u) = w, and the recovery is deterministic, so a restart is
    # bit-identical to the uninterrupted run
    u, _ = recover_velocity(grid, rho, w, m, rho_floor=rho_floor)
    state = SchemeState(t=t, grid=grid, rho=rho, w=w, u=u, c=c)
    return state, rng, CheckpointMeta(dim, modes, m, n, noise_modes)
