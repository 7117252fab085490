"""Operator entry point: run, ensemble, verify, sweep, print-config.

Exit codes: 0 success, 2 configuration rejected, 3 runtime scheme failure,
4 audit failure.  Physics lives in the config file; only operational knobs
(--seed, --workers, --out) are flags.  The worker count honors the
NSCH_WORKERS environment variable unless the flag overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointMeta, atomic_open, load_checkpoint, save_checkpoint
from .config import RunConfig, format_config, parse_config
from .diagnostics import (
    LEDGER_COLUMNS,
    audit_ledger_rows,
    energy_ledger_step,
    initial_ledger_row,
    korn_check,
    ledger_from_csv,
    ledger_to_csv,
    mass,
    poincare_check,
    worst_relative_residual,
)
from .ensemble import _SWEEPABLE, run_paths, run_trajectory, sweep, sweep_trend_csv
from .errors import CheckpointError, ConfigError, SchemeError
from .noise import path_generator
from .scheme import collocation, step

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4


def _load_config(path: str | None, seed: int | None) -> RunConfig:
    text = ""
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError([f"config file not found: {path}"])
        text = p.read_text()
    return parse_config(text, seed=seed)


def _write(path: Path, text: str):
    with atomic_open(path) as fh:
        fh.write(text)


def _workers(args) -> int:
    """--workers, else NSCH_WORKERS, else 1; a count that is not a positive integer is rejected."""
    source, value = "--workers", args.workers
    if value is None:
        source, value = "NSCH_WORKERS", os.environ.get("NSCH_WORKERS") or "1"
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError([f"{source} must be a positive integer, got {value!r}"])
    return workers


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    outdir = Path(args.out or config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ens = config.ensemble(paths=1)
    params = config.params

    state0 = ens.initial_state()
    save_checkpoint(
        outdir / "chk_00000000.nsch", state0, path_generator(ens.base_seed, 0, stream=0),
        params.m, params.n, params.noise.K,
    )
    last = {"state": state0, "gen": None}
    rows = [initial_ledger_row(state0, params)]

    def on_step(done, state, gen, rep, row):
        last["state"], last["gen"] = state, gen
        rows.append(row)
        if config.snapshot_stride and done % config.snapshot_stride == 0:
            save_checkpoint(
                outdir / f"chk_{done:08d}.nsch", state, gen, params.m, params.n, params.noise.K
            )

    result = run_trajectory(ens, 0, initial_state=state0, on_step=on_step)
    _write(outdir / "ledger.csv", ledger_to_csv(rows))
    _write(outdir / "config.cfg", format_config(config))
    if result.failure is not None:
        print(
            f"run failed at step {result.failure['step']} (t = {result.failure['t']:.17g}): "
            f"{result.failure['kind']}: {result.failure['message']}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    save_checkpoint(outdir / "final.nsch", last["state"], last["gen"], params.m, params.n, params.noise.K)
    print(f"run complete: {result.steps_done} steps, ledger and checkpoints in {outdir}")
    print(f"final energy {result.final_energy:.17g}, min cutoff factor {result.chi_min:.17g}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    config = _load_config(args.config, args.seed)
    outdir = Path(args.out or config.outdir)
    ens = config.ensemble(workers=_workers(args))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report, _ = run_paths(ens)
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


def _meta_mismatches(name: str, t: float, meta: CheckpointMeta, config: RunConfig) -> list[str]:
    """Header fields of a checkpoint that disagree with the configuration, each with both values.

    The time of ``chk_<step>.nsch`` must be step x dt and that of ``final.nsch`` the
    horizon, within 1e-9 x max(step, 1) x dt, since t accumulates by repeated addition.
    """
    pairs = {
        "dim": (meta.dim, config.grid.dim),
        "modes": (meta.modes_per_dim, config.grid.modes_per_dim),
        "m": (meta.m, config.params.m),
        "n": (meta.n, config.params.n),
        "K": (meta.noise_modes, config.params.noise.K),
    }
    found = [f"{k} = {a} in the checkpoint, {b} in the configuration" for k, (a, b) in pairs.items() if a != b]
    dt, stem = config.params.dt, name.removesuffix(".nsch")
    if stem == "final":
        steps, expected, what = round(config.horizon / dt), config.horizon, "the horizon"
    elif stem[4:].isdigit():
        steps = int(stem[4:])
        expected, what = steps * dt, f"step {steps} x dt"
    else:  # a chk_*.nsch name without a step number implies no time
        return found
    if abs(t - expected) > 1e-9 * max(steps, 1) * dt:
        found.append(f"t = {t:.17g} in the checkpoint, {expected:.17g} ({what}) in the configuration")
    return found


def _replay_start(config: RunConfig, state, gen, rows) -> list[str]:
    """Differences between the run's start and a replay of it under the configuration.

    The configuration must rebuild the rho, w, u and c of ``chk_00000000.nsch``
    exactly, and one step from it with its stored generator must reproduce
    ledger row 1 in every column (17-digit CSV floats round-trip exactly).
    """
    built = config.ensemble(paths=1).initial_state()
    for name in ("rho", "w", "u", "c"):
        if not np.array_equal(getattr(built, name), getattr(state, name)):
            return [f"chk_00000000.nsch: {name} differs from the initial state the configuration builds"]
    if len(rows) < 2:
        return []
    try:
        new, rep = step(state, config.params, gen)
    except SchemeError as exc:
        return [f"replay of step 1 failed: {exc}"]
    replayed = energy_ledger_step(state, new, rep.increment, config.params)
    for col in LEDGER_COLUMNS:
        stored, again = getattr(rows[1], col), getattr(replayed, col)
        if stored != again:
            return [f"ledger row 1: {col} = {stored!r} in the ledger, {again!r} in the replay"]
    return []


def cmd_verify(args) -> int:
    config = _load_config(args.config, args.seed)
    outdir = Path(args.out or config.outdir)
    problems: list[str] = []

    ledger_path = outdir / "ledger.csv"
    if not ledger_path.exists():
        print(f"verify: no ledger at {ledger_path}", file=sys.stderr)
        return EXIT_AUDIT
    try:
        rows = ledger_from_csv(ledger_path.read_text())
    except ValueError as exc:
        print(f"verify: unreadable ledger: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    ledger_problems = audit_ledger_rows(rows)
    problems.extend(ledger_problems)
    print(f"ledger: {len(rows)} rows, {'ok' if not ledger_problems else 'VIOLATIONS'}")
    if rows:
        worst_step, worst = worst_relative_residual(rows)
        print(f"ledger: worst relative residual {worst:.3e} at step {worst_step}")

    snaps = sorted(outdir.glob("chk_*.nsch")) + [p for p in (outdir / "final.nsch",) if p.exists()]
    k0_ref = start = None
    for snap in snaps:
        try:
            state, gen, meta = load_checkpoint(snap, rho_floor=config.params.fspec.rho_floor)
        except (CheckpointError, SchemeError) as exc:
            problems.append(f"{snap.name}: unreadable ({exc})")
            continue
        grid = state.grid
        k0 = state.rho[0][grid.zero_index]
        mass_note = "mass ok"
        if k0_ref is None:
            k0_ref = k0
        elif k0 != k0_ref:
            mass_note = f"mass drifted (zero mode {k0!r} != {k0_ref!r})"
            problems.append(f"{snap.name}: {mass_note}")
        # the inequality checks use the configuration's physics, so they need the run it describes
        mismatches = _meta_mismatches(snap.name, state.t, meta, config)
        if mismatches:
            problems.extend(f"{snap.name}: written under another configuration: {d}" for d in mismatches)
            print(f"{snap.name}: t = {state.t:.17g}, {mass_note}, configuration mismatch, inequality checks skipped")
            continue
        if snap.name == "chk_00000000.nsch":
            start = state, gen
        korn = korn_check(grid, state.u, config.params.visc)
        if not korn.passed:
            problems.append(f"{snap.name}: Korn inequality violated (margin {korn.margin:.3e})")
        mu = collocation(state, config.params).mu
        for name, v in (("mu", mu),) + tuple((f"u{i}", state.u[i : i + 1]) for i in range(len(state.u))):
            rep = poincare_check(grid, state.rho, v, total_mass=mass(state), gamma=config.params.fspec.gamma)
            if not rep.passed:
                problems.append(f"{snap.name}: Poincare inequality violated on {name} (margin {rep.margin:.3e})")
        print(f"{snap.name}: t = {state.t:.17g}, {mass_note}, inequality checks run")

    # last: perfbench's tracer counts every call after a `step` as loop work
    if start is not None:
        replay_problems = _replay_start(config, *start, rows)
        problems.extend(replay_problems)
        replayed = "initial state and ledger row 1" if len(rows) > 1 else "initial state"
        print(f"replay: {replayed} {'MISMATCH' if replay_problems else 'reproduced'}")

    if problems:
        print("verify FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return EXIT_AUDIT
    print("verify: all checks passed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config, args.seed)
    outdir = Path(args.out or config.outdir)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"sweep: bad --values {args.values!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("sweep: empty --values", file=sys.stderr)
        return EXIT_CONFIG
    ens = config.ensemble(workers=_workers(args))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cells = sweep(ens, args.param, values)
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
    config = _load_config(args.config, args.seed)
    print(format_config(config), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsch",
        description="Pseudospectral two-phase flow simulator with a stochastically forced concentration field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("config", help="run configuration file")
        else:
            p.add_argument("config", nargs="?", default=None, help="run configuration file (defaults if absent)")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="override the noise seed")

    p_run = sub.add_parser("run", help="integrate one trajectory; writes ledger.csv and checkpoints")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ens = sub.add_parser("ensemble", help="run a Monte Carlo ensemble; writes report.json")
    common(p_ens)
    p_ens.add_argument("--workers", type=int, default=None, help="worker processes (default NSCH_WORKERS or 1)")
    p_ens.set_defaults(func=cmd_ensemble)

    p_ver = sub.add_parser("verify", help="re-audit a stored run; exit 0 iff all checks pass")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="parameter sweep with common random numbers; writes trend.csv")
    common(p_sw)
    p_sw.add_argument("--param", required=True, choices=_SWEEPABLE)
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--workers", type=int, default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_pc = sub.add_parser("print-config", help="echo the resolved configuration with defaults filled")
    common(p_pc, config_required=False)
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
