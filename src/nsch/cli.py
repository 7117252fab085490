"""Operator entry point: run, ensemble, verify, sweep, print-config.

Exit codes: 0 success, 2 configuration rejected, 3 runtime scheme failure,
4 audit failure.  Physics lives in the config file; only operational knobs
(--seed, --workers, --out) are flags; the worker count is set by --workers
alone (default 1) and checked by ``EnsembleConfig`` like every other count.

Every command runs the ``EnsembleConfig`` that ``parse_config`` returns.  A run
directory has one rule, ``_run_outputs``: ``run`` writes ``config.cfg`` first,
then the ledger rows and checkpoints it hands out; ``verify`` replays the
directory's ``config.cfg`` (or a config that formats to the same text),
compares every row as 17-digit text and every checkpoint as bytes, checks the
file set, and audits each checkpoint's state whose bytes agree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import atomic_open, checkpoint_bytes, checkpoint_diff, save_checkpoint
from .config import _DEFAULTS, format_config, parse_config
from .diagnostics import (
    audit_ledger_rows,
    initial_ledger_row,
    korn_check,
    korn_constant,
    ledger_from_csv,
    ledger_row_diff,
    ledger_to_csv,
    poincare_check,
    worst_relative_residual,
)
from .ensemble import _SWEEPABLE, EnsembleConfig, run_paths, run_trajectory, sweep, sweep_trend_csv
from .errors import ConfigError, SchemeError
from .noise import path_generator
from .scheme import collocation, mean_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4


def _load_config(args) -> tuple[EnsembleConfig, Path]:
    """The command's configuration and its output directory: --out, else ``[output] dir``."""
    text = ""
    if args.config is not None:
        p = Path(args.config)
        if not p.exists():
            raise ConfigError([f"config file not found: {args.config}"])
        text = p.read_text()
    config = parse_config(text, seed=args.seed)
    return config, Path(args.out or config.outdir)


def _write(path: Path, text: str):
    with atomic_open(path) as fh:
        fh.write(text)


def _run_outputs(config: EnsembleConfig, on_row, on_file):
    """The run a configuration describes, told to ``on_row(step, row)`` for every ledger row and to
    ``on_file(name, state, gen)`` for every checkpoint: ``chk_<step>.nsch`` at step 0 and every
    ``snapshot_stride`` steps, ``final.nsch`` if the trajectory completes.  Returns its TrajectoryResult.
    """
    params = config.params
    state0 = config.initial_state()
    on_row(0, initial_ledger_row(state0, params))  # first: the record's density guard precedes any file
    on_file("chk_00000000.nsch", state0, path_generator(params.noise.seed, 0, stream=0))
    last = [state0, None]

    def on_step(done, state, gen, inc, row):
        last[:] = state, gen
        on_row(done, row)
        if config.snapshot_stride and done % config.snapshot_stride == 0:
            on_file(f"chk_{done:08d}.nsch", state, gen)

    result = run_trajectory(config, 0, initial_state=state0, on_step=on_step)
    if result.failure is None:
        on_file("final.nsch", *last)
    return result


def _failure_text(failure: dict) -> str:
    return f"failed at step {failure['step']} (t = {failure['t']:.17g}): {failure['kind']}: {failure['message']}"


def cmd_run(args) -> int:
    config, outdir = _load_config(args)
    outdir.mkdir(parents=True, exist_ok=True)
    params = config.params
    rows = []

    def save(name, state, gen):
        save_checkpoint(outdir / name, state, gen, params.m, params.n, params.noise.K)

    _write(outdir / "config.cfg", format_config(config))  # first, so a stopped run still names its configuration
    result = _run_outputs(config, lambda done, row: rows.append(row), save)
    _write(outdir / "ledger.csv", ledger_to_csv(rows))
    if result.failure is not None:
        print(f"run {_failure_text(result.failure)}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"run complete: {result.steps_done} steps, ledger and checkpoints in {outdir}")
    print(f"final energy {result.final_energy:.17g}, min cutoff factor {result.chi_min:.17g}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    config, outdir = _load_config(args)
    config = replace(config, workers=args.workers)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report, _ = run_paths(config)
    except SchemeError as exc:
        print(f"ensemble failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write(outdir / "report.json", report.to_json() + "\n")
    mart = report.martingale
    print(
        f"ensemble complete: {report.survivors}/{report.paths} paths survived, "
        f"martingale[{mart['kind']}] value {mart['value']:.6g} ({'pass' if mart['passed'] else 'FAIL'})"
    )
    print(f"report written to {outdir / 'report.json'}")
    return EXIT_OK if mart["passed"] else EXIT_AUDIT


def cmd_verify(args) -> int:
    if args.config is None:
        outdir = Path(args.out or _DEFAULTS["output"]["dir"])  # the config is the directory's own, parsed below
    else:
        config, outdir = _load_config(args)
    cfg_path = outdir / "config.cfg"
    cfg_text = cfg_path.read_text() if cfg_path.exists() else None
    if args.config is None:
        if cfg_text is None:
            print(f"verify: no configuration given and none at {cfg_path}", file=sys.stderr)
            return EXIT_AUDIT
        config = parse_config(cfg_text, seed=args.seed)
    params, grid = config.params, config.grid

    ledger_path = outdir / "ledger.csv"
    if not ledger_path.exists():
        print(f"verify: no ledger at {ledger_path}", file=sys.stderr)
        return EXIT_AUDIT
    try:
        rows = ledger_from_csv(ledger_path.read_text())
    except ValueError as exc:
        print(f"verify: unreadable ledger: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    problems = audit_ledger_rows(rows)
    print(f"ledger: {len(rows)} rows, {'VIOLATIONS' if problems else 'ok'}")
    if rows:
        worst_step, worst = worst_relative_residual(rows)
        print(f"ledger: worst relative residual {worst:.3e} at step {worst_step}")

    # replay the run and compare as it goes: ledger rows as 17-digit text, checkpoints as bytes
    row_diffs, mismatches, written, zero_modes = [], [], [], []

    def compare_row(i, row):
        diff = ledger_row_diff(rows[i], row) if i < len(rows) else "missing from the ledger"
        if diff is not None:
            row_diffs.append(f"ledger row {i}: {diff}")

    def compare_file(name, state, gen):
        written.append(name)
        k0 = mean_density(grid, state.rho)
        zero_modes.append(k0)
        path = outdir / name
        replayed = checkpoint_bytes(state, gen, params.m, params.n, params.noise.K)
        diff = checkpoint_diff(path.read_bytes(), replayed) if path.exists() else "missing"
        if diff is not None:
            mismatches.append(f"{name}: {diff}")
            print(f"{name}: t = {state.t:.17g}, {diff}, checks skipped")
            return
        # the bytes agree, so the replayed state is the file's state: audit it
        found, notes = [], ["mass ok"]
        if k0 != zero_modes[0]:
            notes[0] = f"mass drifted (zero mode {k0!r} != {zero_modes[0]!r})"
            found.append(notes[0])
        col = collocation(state, params)
        if korn_constant(grid.dim, params.visc) == 0.0:
            notes.append("Korn not applicable (no viscous stress), Poincare checks run")
        else:
            korn = korn_check(grid, col.u_hat, params.visc)
            if not korn.passed:
                found.append(f"Korn inequality violated (margin {korn.margin:.3e})")
            notes.append("inequality checks run")
        for v_name, v in (("mu", col.mu),) + tuple((f"u{i}", col.u_hat[i : i + 1]) for i in range(len(col.u_hat))):
            try:
                rep = poincare_check(grid, state.rho, v, config.initial.mass, params.fspec.gamma)
            except ValueError as exc:
                found.append(f"Poincare {exc}")
                break
            if not rep.passed:
                found.append(f"Poincare inequality violated on {v_name} (margin {rep.margin:.3e})")
        problems.extend(f"{name}: {p}" for p in found)
        print(f"{name}: t = {state.t:.17g}, {', '.join(notes)}")

    result = _run_outputs(config, compare_row, compare_file)
    if row_diffs:
        mismatches.insert(0, row_diffs[0] + (f" ({len(row_diffs)} rows differ)" if len(row_diffs) > 1 else ""))
    if len(rows) > result.steps_done + 1:
        mismatches.append(f"ledger.csv holds {len(rows)} rows, the replay {result.steps_done + 1}")
    stored = sorted(outdir.glob("chk_*.nsch")) + [p for p in (outdir / "final.nsch",) if p.exists()]
    mismatches.extend(f"{p.name}: not written by the run" for p in stored if p.name not in written)
    if result.failure is not None:
        print(f"replay: {_failure_text(result.failure)}")
    files = f"{len(written)} checkpoint{'s' * (len(written) != 1)}"
    print(f"replay: {result.steps_done + 1} ledger rows and {files} {'MISMATCH' if mismatches else 'reproduced'}")
    problems.extend(mismatches)
    text = format_config(config)
    if cfg_text is None:
        problems.append("config.cfg: missing")
    elif cfg_text != text:
        lines = enumerate(itertools.zip_longest(cfg_text.split("\n"), text.split("\n")), 1)
        i, (found, wanted) = next((i, pair) for i, pair in lines if pair[0] != pair[1])
        problems.append(f"config.cfg: line {i} is {found!r} in the file, {wanted!r} in the configuration")

    if problems:
        print("verify FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return EXIT_AUDIT
    print("verify: all checks passed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, outdir = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"sweep: bad --values {args.values!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("sweep: empty --values", file=sys.stderr)
        return EXIT_CONFIG
    config = replace(config, workers=args.workers)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cells = sweep(config, args.param, values)
    except SchemeError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    trend = sweep_trend_csv(cells)
    _write(outdir / "trend.csv", trend)
    reports = [{"value": c.value, "report": json.loads(c.report.to_json())} for c in cells]
    _write(outdir / "cells.json", json.dumps(reports, indent=2) + "\n")
    print(trend, end="")
    print(f"trend table written to {outdir / 'trend.csv'}")
    return EXIT_OK


def cmd_print_config(args) -> int:
    config, _ = _load_config(args)
    print(format_config(config), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsch",
        description="Pseudospectral two-phase flow simulator with a stochastically forced concentration field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, if_absent=None):
        if if_absent is None:
            p.add_argument("config", help="run configuration file")
        else:
            p.add_argument("config", nargs="?", default=None, help=f"run configuration file ({if_absent})")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="override the noise seed")

    p_run = sub.add_parser("run", help="integrate one trajectory; writes ledger.csv and checkpoints")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ens = sub.add_parser("ensemble", help="run a Monte Carlo ensemble; writes report.json")
    common(p_ens)
    p_ens.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p_ens.set_defaults(func=cmd_ensemble)

    p_ver = sub.add_parser("verify", help="replay the run, compare its files byte for byte, audit them")
    common(p_ver, if_absent="the run directory's config.cfg if absent")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="parameter sweep with common random numbers; writes trend.csv")
    common(p_sw)
    p_sw.add_argument("--param", required=True, choices=_SWEEPABLE)
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p_sw.set_defaults(func=cmd_sweep)

    p_pc = sub.add_parser("print-config", help="echo the resolved configuration with defaults filled")
    common(p_pc, if_absent="defaults if absent")
    p_pc.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration rejected:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
