"""Monte Carlo driver: independent trajectories, moment statistics, martingale test.

Each path owns a generator derived from (noise seed, path index), so the
ensemble is reproducible for any worker count and any path ordering.  Failed
paths (positivity loss, failed velocity recovery, stability aborts, overflow) are
recorded with their failure time and excluded from the survivor statistics;
the survivor fraction is itself a first-class output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .diagnostics import energy_ledger_step
from .errors import ConfigError, CutoffSaturatedWarning, SchemeError, require
from .noise import path_generator, sample_increment
from .scheme import ApproxParams, InitialData, SchemeState, collocation, step
from .spectral import TorusGrid, coeff_norm

__all__ = [
    "EnsembleConfig",
    "TrajectoryResult",
    "run_trajectory",
    "run_paths",
    "EnsembleReport",
    "MartingaleReport",
    "martingale_test",
    "sweep",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

SUP_STATS = ("c_l2_sq", "grad_c_l2_sq", "lap_c_l2_sq", "v15")

# a path warns when the velocity cut-off is fully engaged on more than this share of its steps
CUTOFF_WARN_FRACTION = 0.5


@dataclass(frozen=True)
class EnsembleConfig:
    grid: TorusGrid
    params: ApproxParams
    initial: InitialData
    paths: int
    horizon: float
    snapshot_stride: int = 0  # steps between the checkpoints of ``nsch run``, 0 for none
    betas: tuple[int, ...] = (1, 2)
    workers: int = 1
    keep_final_state: bool = False
    outdir: str = "out"
    # the resolved values as parsed: parse_config sets them, the constructor and replace() do not
    raw: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        """The rules that tie the parts to the grid and the time step, and those of the run's own counts."""
        kmax, dt, initial = self.grid.kmax, self.params.dt, self.initial
        bands = {"m": self.params.m, "n": self.params.n}
        bands.update((name, getattr(initial, name)) for name in ("rho_band", "u_band", "c_band"))
        steps = self.horizon / dt
        whole = math.isfinite(steps) and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)
        require(
            *((v <= kmax, f"{name} = {v} exceeds the grid truncation {kmax}") for name, v in bands.items()),
            (self.horizon > 0, f"horizon must be positive, got {self.horizon}"),
            (self.horizon <= 0 or whole, f"horizon {self.horizon} is not an integral number of steps at dt = {dt}"),
            (self.paths >= 1, f"paths must be a positive integer, got {self.paths}"),
            (self.workers >= 1, f"workers must be a positive integer, got {self.workers}"),
            (self.snapshot_stride >= 0, f"snapshot_stride must be a nonnegative integer, got {self.snapshot_stride}"),
            (len(self.betas) > 0 and min(self.betas) >= 1, f"betas must be positive integers, got {self.betas}"),
        )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.params.dt))

    def initial_state(self) -> SchemeState:
        """The shared initial state, drawn from stream 1 of path 0 (the data stream)."""
        return self.initial.build(self.grid, self.params, path_generator(self.params.noise.seed, 0, stream=1))


@dataclass
class TrajectoryResult:
    path_index: int
    residuals: list[float]  # ledger residual per row, row 0 (always 0.0) included
    sup_stats: dict[str, float]
    final_energy: float
    final_artificial: float
    failure: dict | None
    chi_min: float
    chi_zero_fraction: float
    steps_done: int
    final_state: SchemeState | None = None


def _state_functionals(state: SchemeState, params: ApproxParams) -> dict[str, float]:
    """A copy of the sup functionals of the state's collocation record."""
    return dict(collocation(state, params).sup_functionals)


def run_trajectory(
    config: EnsembleConfig,
    path_index: int,
    initial_state: SchemeState | None = None,
    on_step=None,
) -> TrajectoryResult:
    """One seeded path: ledger residuals, running sup functionals, failure record.

    Each step's Wiener increment ``inc`` is drawn from the path's stream-0
    generator ``gen`` before the step.  ``on_step(done, state, gen, inc, row)``
    is called once after each step with its ``EnergyLedger`` row; the
    trajectory keeps only its residual.
    """
    params = config.params
    state = config.initial_state() if initial_state is None else initial_state
    gen = path_generator(params.noise.seed, path_index, stream=0)

    residuals = [0.0]
    sup = _state_functionals(state, params)

    failure = None
    chi_min = 1.0
    chi_zero = 0
    done = 0
    for i in range(config.steps):
        inc = sample_increment(params.dt, gen, params.noise)
        try:
            new, noise_values = step(state, params, inc)
        except SchemeError as exc:  # recorded under the failure kind its class names
            failure = {
                "kind": exc.kind,
                "t": state.t,
                "step": i,
                "message": str(exc),
            }
            break
        row = energy_ledger_step(state, new, noise_values, params)
        chi = collocation(state, params).chi
        residuals.append(row.residual)
        state = new
        done = i + 1
        chi_min = min(chi_min, chi)
        if chi == 0.0:
            chi_zero += 1
        for k, v in _state_functionals(state, params).items():
            sup[k] = max(sup[k], v)
        if on_step is not None:
            on_step(done, state, gen, inc, row)

    frac = chi_zero / max(done, 1)
    final = collocation(state, params)
    if failure is None and frac > CUTOFF_WARN_FRACTION:
        warnings.warn(
            f"velocity cut-off fully engaged on {frac:.0%} of steps (path {path_index})",
            CutoffSaturatedWarning,
            stacklevel=2,
        )
    return TrajectoryResult(
        path_index=path_index,
        residuals=residuals,
        sup_stats=sup,
        final_energy=float(sum(final.energies)) if failure is None else float("nan"),
        final_artificial=final.artificial if failure is None else float("nan"),
        failure=failure,
        chi_min=chi_min,
        chi_zero_fraction=frac,
        steps_done=done,
        final_state=state if config.keep_final_state else None,
    )


@dataclass(frozen=True)
class MartingaleReport:
    kind: str  # "stochastic" or "deterministic"
    paths: int
    value: float  # z score, or the bias itself in the deterministic channel
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def martingale_test(per_path_residuals) -> MartingaleReport:
    """z score of the per-path total compensated ledger residual.

    The residual already subtracts the Ito corrections and the stochastic
    increment, so its total is a martingale up to O(dt) discretization bias;
    the ensemble mean must sit within 3 standard errors of zero.  With no
    dispersion across paths (deterministic runs) the z channel is undefined
    and the raw bias is reported, flagged instead of scored.
    """
    totals = np.array([float(np.sum(np.asarray(r, dtype=float))) for r in per_path_residuals])
    p = len(totals)
    if p < 8:
        raise ValueError(f"martingale test needs at least 8 paths, got {p}")
    sd = float(np.std(totals, ddof=1))
    mean = float(np.mean(totals))
    if sd == 0.0:
        return MartingaleReport(kind="deterministic", paths=p, value=mean, passed=True)
    z = mean / (sd / math.sqrt(p))
    return MartingaleReport(kind="stochastic", paths=p, value=z, passed=abs(z) < 3.0)


@dataclass(frozen=True)
class EnsembleReport:
    schema_version: int
    paths: int
    survivors: int
    survivor_fraction: float
    failures: dict
    statistics: dict
    martingale: dict
    mean_final_energy: float
    mean_final_artificial: float
    bound_ratios: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _moment_summary(values: np.ndarray, betas) -> dict:
    out = {}
    for beta in betas:
        powered = values**beta
        n = len(powered)
        mean = float(np.mean(powered))
        se = float(np.std(powered, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out[f"beta{beta}"] = {
            "mean": mean,
            "se": se,
            "min": float(np.min(powered)),
            "max": float(np.max(powered)),
        }
    return out


def _one_path(args) -> TrajectoryResult:
    config, index, state = args
    return run_trajectory(config, index, initial_state=state)


def run_paths(config: EnsembleConfig) -> tuple[EnsembleReport, list[TrajectoryResult]]:
    """Run the ensemble and aggregate; results come in path order, from the pool as from the serial loop."""
    state0 = config.initial_state()
    # the bases of the bound ratios; the serial loop reuses this record, the pool's workers build their own
    init0 = collocation(state0, config.params).sup_functionals
    jobs = [(config, i, state0) for i in range(config.paths)]
    if config.workers > 1 and config.paths > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by the runs that use it

        # the pool starts all its processes at the first submit, so it gets no more than there are paths
        with ProcessPoolExecutor(max_workers=min(config.workers, config.paths)) as pool:
            results = list(pool.map(_one_path, jobs, chunksize=1))
    else:
        results = [_one_path(j) for j in jobs]

    survivors = [r for r in results if r.failure is None]
    if not survivors:
        raise SchemeError("all ensemble paths failed")
    failures: dict[str, list] = {}
    for r in results:
        if r.failure is not None:
            failures.setdefault(r.failure["kind"], []).append(
                {"path": r.path_index, "t": r.failure["t"], "step": r.failure["step"]}
            )

    stats = {}
    for name in SUP_STATS:
        vals = np.array([r.sup_stats[name] for r in survivors])
        stats[f"sup_{name}"] = _moment_summary(vals, config.betas)

    bound_ratios = {}
    for name in SUP_STATS:
        base = max(init0[name], 1e-30)
        worst = max(r.sup_stats[name] for r in survivors)
        bound_ratios[name] = worst / base

    if len(survivors) >= 8:
        mart = martingale_test([r.residuals for r in survivors]).as_dict()
    else:
        mart = {"kind": "skipped", "paths": len(survivors), "value": float("nan"), "passed": True}

    report = EnsembleReport(
        schema_version=SCHEMA_VERSION,
        paths=config.paths,
        survivors=len(survivors),
        survivor_fraction=len(survivors) / config.paths,
        failures=failures,
        statistics=stats,
        martingale=mart,
        mean_final_energy=float(np.mean([r.final_energy for r in survivors])),
        mean_final_artificial=float(np.mean([r.final_artificial for r in survivors])),
        bound_ratios=bound_ratios,
    )
    return report, results


_SWEEPABLE = ("eps", "m", "n", "R", "dt")


@dataclass(frozen=True)
class SweepCell:
    parameter: str
    value: float
    params: ApproxParams  # the cell's, whose record recovers the final velocity
    report: EnsembleReport
    final_state: SchemeState | None  # path 0's, None if path 0 failed
    accumulated_residual: float


def sweep(config: EnsembleConfig, parameter: str, values) -> list[SweepCell]:
    """One ensemble per value with common random numbers across cells.

    Every cell is built, and so validated, before the first one runs: a bad
    value is rejected with nothing run, and one ``ConfigError`` lists the
    violations of every cell.
    """
    if parameter not in _SWEEPABLE:
        raise ValueError(f"parameter must be one of {_SWEEPABLE}, got {parameter!r}")
    kind = type(getattr(config.params, parameter))
    problems, cell_configs = [], []
    for v in values:
        if not np.isfinite(v):
            problems.append(f"sweep value {v} is not finite")
        elif kind is int and v != int(v):
            problems.append(f"sweep value {v} of the integer parameter {parameter} is not an integer")
        else:
            try:
                params = replace(config.params, **{parameter: kind(v)})
                cell_configs.append(replace(config, params=params, keep_final_state=True))
            except ConfigError as exc:
                problems.extend(f"sweep value {p}" for p in exc.violations)
    if problems:
        raise ConfigError(problems)
    cells = []
    for v, cell_config in zip(values, cell_configs):
        report, results = run_paths(cell_config)
        survivors = [r for r in results if r.failure is None]
        acc = float(np.mean([abs(sum(r.residuals)) for r in survivors]))
        cells.append(
            SweepCell(
                parameter=parameter,
                value=float(v),
                params=cell_config.params,
                report=report,
                final_state=results[0].final_state if results[0].failure is None else None,
                accumulated_residual=acc,
            )
        )
    return cells


def sweep_trend_csv(cells: list[SweepCell]) -> str:
    """Trend table, one row per swept value; the final-state distance is blank if path 0 failed in either cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = ["parameter", "value", "survivor_fraction", "mean_final_energy", "mean_final_artificial",
            "accumulated_residual", "final_state_l2_diff_prev"]
    writer.writerow(cols)
    # path 0's final rho, u and c, the velocity from the state's record under its cell's parameters
    finals = [None if (s := c.final_state) is None else (s.rho, collocation(s, c.params).u_hat, s.c) for c in cells]
    for a, b, cell in zip([None] + finals, finals, cells):
        diff = ""
        if a is not None and b is not None:
            d = sum(coeff_norm(cell.final_state.grid, fa - fb) ** 2 for fa, fb in zip(a, b))
            diff = f"{math.sqrt(d):.17g}"
        report = cell.report
        numbers = (cell.value, report.survivor_fraction, report.mean_final_energy, report.mean_final_artificial,
                   cell.accumulated_residual)
        writer.writerow([cell.parameter, *(f"{x:.17g}" for x in numbers), diff])
    return buf.getvalue()
