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

from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import RunConfig, format_config, parse_config
from .constitutive import chemical_potential
from .diagnostics import (
    audit_ledger_rows,
    korn_check,
    ledger_from_csv,
    ledger_to_csv,
    mass,
    poincare_check,
    worst_relative_residual,
)
from .ensemble import _SWEEPABLE, EnsembleConfig, run_paths, run_trajectory, sweep, sweep_trend_csv
from .errors import CheckpointError, ConfigError, SchemeError
from .noise import path_generator
from .spectral import from_coeffs

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
    config = parse_config(text)
    if seed is not None:
        config.raw["noise"]["seed"] = int(seed)
        config = parse_config(format_config(config))
    return config


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


def _ensemble_config(config: RunConfig, workers: int = 1, paths: int | None = None) -> EnsembleConfig:
    return EnsembleConfig(
        grid=config.grid,
        params=config.params,
        initial=config.initial,
        paths=paths if paths is not None else config.paths,
        horizon=config.horizon,
        snapshot_stride=config.snapshot_stride,
        betas=config.betas,
        workers=workers,
    )


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    outdir = Path(args.out or config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ens = _ensemble_config(config, paths=1)
    params = config.params

    state0 = ens.initial_state()
    save_checkpoint(
        outdir / "chk_00000000.nsch", state0, path_generator(ens.base_seed, 0, stream=0),
        params.m, params.n, params.noise.K,
    )
    last = {"state": state0, "gen": None}

    def on_step(done, state, gen, rep):
        last["state"], last["gen"] = state, gen
        if config.snapshot_stride and done % config.snapshot_stride == 0:
            save_checkpoint(
                outdir / f"chk_{done:08d}.nsch", state, gen, params.m, params.n, params.noise.K
            )

    result = run_trajectory(ens, 0, initial_state=state0, on_step=on_step)
    _write(outdir / "ledger.csv", ledger_to_csv(result.rows))
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
    ens = _ensemble_config(config, workers=_workers(args))
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
    k0_ref = None
    for snap in snaps:
        try:
            state, _, meta = load_checkpoint(snap, rho_floor=config.params.fspec.rho_floor)
        except (CheckpointError, SchemeError) as exc:
            problems.append(f"{snap.name}: unreadable ({exc})")
            continue
        grid = state.rho.grid
        k0 = state.rho.coeffs[0][grid.zero_index]
        mass_note = "mass ok"
        if k0_ref is None:
            k0_ref = k0
        elif k0 != k0_ref:
            mass_note = f"mass drifted (zero mode {k0!r} != {k0_ref!r})"
            problems.append(f"{snap.name}: {mass_note}")
        korn = korn_check(state.u, config.params.visc)
        if not korn.passed:
            problems.append(f"{snap.name}: Korn inequality violated (margin {korn.margin:.3e})")
        mu = chemical_potential(state.rho, state.c, config.params.fspec)
        for name, fld in (("mu", mu),) + tuple(
            (f"u{i}", from_coeffs(grid, state.u.coeffs[i])) for i in range(state.u.ncomp)
        ):
            rep = poincare_check(state.rho, fld, total_mass=mass(state), gamma=config.params.fspec.gamma)
            if not rep.passed:
                problems.append(f"{snap.name}: Poincare inequality violated on {name} (margin {rep.margin:.3e})")
        print(f"{snap.name}: t = {state.t:.17g}, {mass_note}, inequality checks run")

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
    ens = _ensemble_config(config, workers=_workers(args))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cells = sweep(ens, args.param, values)
    except SchemeError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
