"""Ledger rows and final coefficients of two short runs, against recorded values.

``tests/recorded/`` holds what ``nsch run`` wrote for the two configurations
below before the run loop moved from field objects to coefficient arrays: the
ledger rows (``<name>.ledger.csv``, 17 significant digits) and the rho, w and
c coefficients of ``final.nsch`` (``<name>.coeffs.txt``, one
``block index real imag`` line per coefficient, 17 significant digits).

- ``run_1d``: 10 noisy steps of 1D/32 at seed 7; the order-6 Gram system
  (13 unknowns) is solved directly.
- ``run_2d``: 5 noisy steps of 2D/16; the order-6 Gram system (169
  unknowns) takes conjugate gradients.

Tolerance: every ledger entry within 1e-10 times its row's energy scale
(``diagnostics._ledger_scale``), every coefficient within 1e-10 times the
largest |coefficient| of its block.  On the machine that recorded the files
the match is exact; the tolerance leaves room for another BLAS or FFT
library, not for a change of arithmetic.

The checkpoint is read straight from its bytes, so the test does not depend
on the in-memory state type.  ``python tests/test_recorded_outputs.py``
rewrites the files from the current code.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nsch.checkpoint import _HEADER
from nsch.cli import main
from nsch.diagnostics import LEDGER_COLUMNS, _ledger_scale, ledger_from_csv
from nsch.spectral import TorusGrid

RECORDED = Path(__file__).resolve().parent / "recorded"
RTOL = 1e-10

RUNS = {
    "run_1d": "[grid]\ndim = 1\nmodes = 32\n\n[noise]\nseed = 7\n\n[run]\nhorizon = 1e-4\nsnapshot_stride = 0\n",
    "run_2d": "[grid]\ndim = 2\nmodes = 16\n\n[noise]\nseed = 7\n\n[run]\nhorizon = 5e-5\nsnapshot_stride = 0\n",
}


def final_blocks(path: Path) -> dict[str, np.ndarray]:
    """The rho, w and c blocks of a checkpoint file, flattened."""
    raw = path.read_bytes()
    _, _, dim, modes, *_ = _HEADER.unpack_from(raw)
    size = math.prod(TorusGrid(dim=dim, modes_per_dim=modes).band_shape)
    blocks, offset = {}, _HEADER.size
    for name, ncomp in (("rho", 1), ("w", dim), ("c", 1)):
        blocks[name] = np.frombuffer(raw, dtype="<c16", count=ncomp * size, offset=offset).astype(complex)
        offset += 16 * ncomp * size
    return blocks


def run(name: str, tmp_path: Path) -> Path:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(RUNS[name])
    out = tmp_path / name
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    return out


def read_coeffs(path: Path) -> dict[str, np.ndarray]:
    lines = [line.split() for line in path.read_text().splitlines()]
    names = dict.fromkeys(line[0] for line in lines)
    return {n: np.array([complex(float(re), float(im)) for b, _, re, im in lines if b == n]) for n in names}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_ledger_matches_recording(name, tmp_path):
    rows = ledger_from_csv((run(name, tmp_path) / "ledger.csv").read_text())
    recorded = ledger_from_csv((RECORDED / f"{name}.ledger.csv").read_text())
    assert len(rows) == len(recorded)
    for step, (got, want) in enumerate(zip(rows, recorded)):
        tol = RTOL * _ledger_scale(want)
        for column in LEDGER_COLUMNS:
            a, b = getattr(got, column), getattr(want, column)
            assert abs(a - b) <= tol, f"step {step} {column}: {a!r} != {b!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_final_coefficients_match_recording(name, tmp_path):
    blocks = final_blocks(run(name, tmp_path) / "final.nsch")
    recorded = read_coeffs(RECORDED / f"{name}.coeffs.txt")
    assert list(blocks) == list(recorded)
    for block, want in recorded.items():
        got = blocks[block]
        assert got.shape == want.shape, block
        worst = float(np.abs(got - want).max())
        assert worst <= RTOL * float(np.abs(want).max()), f"{block}: max deviation {worst:.3e}"


def record(tmp_path: Path):
    RECORDED.mkdir(exist_ok=True)
    for name in RUNS:
        out = run(name, tmp_path)
        (RECORDED / f"{name}.ledger.csv").write_text((out / "ledger.csv").read_text())
        lines = [
            f"{block} {i} {v.real:.17g} {v.imag:.17g}"
            for block, values in final_blocks(out / "final.nsch").items()
            for i, v in enumerate(values)
        ]
        (RECORDED / f"{name}.coeffs.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    sys.exit(0)
