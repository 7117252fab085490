"""nsch benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload run-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout whose ``src/`` holds the ``nsch`` package.
The benchmark writes the workload's config file from ``--seed`` and hands
``nsch`` only that file.  A single client starts the next operation when the
previous one has finished, until ``--seconds`` have passed.  One operation is

* ``run-1d`` / ``run-2d``: ``nsch run`` of one trajectory, then ``nsch verify``;
* ``ensemble-1d``: ``nsch ensemble`` of 64 paths (``--workers 1`` timed; the
  traced run adds a ``--workers 2`` pool run, see ``WORKLOADS``).

Every operation's outputs are checked; a failed check fails the operation.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run (see README.md).
Scratch output goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread-pool limits)
from spans import PRODUCTS, TRANSFORMS, crosscheck  # noqa: E402  (perfbench/spans.py)

HERE = Path(__file__).resolve().parent
DT = 1e-5
HARD_LIMIT_S = 170.0  # every child is killed by then, so the run exits within 180 s
MIN_SAMPLES = 200  # step samples, so that at least 10 lie beyond the 95th percentile
BIN_S = 2.0  # path_steps_per_s is the median over the run of the step rate in slices of about this length
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {
    "run-1d": {"command": "run", "dim": 1, "modes": 32, "noise": "geometric", "steps": 400, "stride": 50, "paths": 1},
    "run-2d": {"command": "run", "dim": 2, "modes": 64, "noise": "off", "steps": 100, "stride": 25, "paths": 1},
    # The timed ensemble runs its paths in one process.  With two busy workers on
    # a 2-vCPU shared host the throughput also measured the scheduler: the
    # 2-worker / 1-worker ratio of back-to-back operations varied by 8%, and ten
    # runs spread by up to 0.25 of their median.  The pool still runs, with
    # pool_workers, in the traced run, which checks its report.json bytes and
    # reports its speed-up.
    "ensemble-1d": {
        "command": "ensemble", "dim": 1, "modes": 32, "noise": "geometric", "steps": 50, "stride": 0,
        "paths": 64, "workers": 1, "pool_workers": min(2, NPROC),
    },
}
# run-2d is deterministic: every ledger row must close to O(dt^2); rows of the
# default 2D/64 problem at dt = 1e-5 measure about 4e3 dt^2, an O(dt) error would
# be orders of magnitude larger
RESIDUAL_BOUND = 5e4 * DT**2


def config_text(spec: dict, seed: int, outdir: str) -> str:
    return (
        f"[grid]\ndim = {spec['dim']}\nmodes = {spec['modes']}\n\n"
        f"[scheme]\ndt = {DT!r}\n\n"
        f"[noise]\nkind = {spec['noise']}\nmodes = 20\nseed = {seed}\n\n"
        f"[run]\nhorizon = {spec['steps'] * DT!r}\nsnapshot_stride = {spec['stride']}\npaths = {spec['paths']}\n\n"
        f"[output]\ndir = {outdir}\n"
    )


def calibrate() -> float:
    """ms per round trip of a fixed numpy FFT loop, median of 5 blocks."""
    x = np.random.default_rng(0).standard_normal((4, 100, 100))
    blocks = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(40):
            np.fft.irfftn(np.fft.rfftn(x, axes=(1, 2)), s=(100, 100), axes=(1, 2))
        blocks.append((time.perf_counter() - t) * 1e3 / 40)
    return statistics.median(blocks)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.work = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.cfg"
        self.config.write_text(config_text(self.spec, seed, str(self.work.relative_to(root) / "out")))
        self.env = {k: v for k, v in os.environ.items() if k != "NSCH_WORKERS"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.ops: list[dict] = []
        self.reference_report: bytes | None = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t_start)

    def child(self, args: list[str], log: Path) -> tuple[int, float]:
        """Run a process in its own session; kill the whole group at the hard limit."""
        launch = time.monotonic()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                args, cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
            )
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = -signal.SIGKILL
        return code, launch

    def nsch(self, argv: list[str], opdir: Path, tag: str, traced: bool) -> tuple[int, float, dict]:
        record = opdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(record)]
        if traced:
            cmd += ["--trace", str(opdir / f"{tag}-spans.npz")]
        code, launch = self.child(cmd + ["--"] + argv, opdir / f"{tag}.log")
        rec = json.loads(record.read_text()) if record.exists() else {}
        return code, launch, rec

    def warm_up(self):
        """Compile the package's bytecode once, so no timed set-up pays for it."""
        code, _ = self.child([sys.executable, "-c", "import nsch.cli"], self.work / "warmup.log")
        if code != 0:
            raise SystemExit(f"cannot import nsch from {self.root / 'src'}: see {self.work / 'warmup.log'}")

    def operation(self, traced: bool, workers: int | None = None) -> dict:
        index = len(self.ops)
        opdir = self.work / f"op{index:03d}"
        opdir.mkdir()
        out = opdir / "out"
        spec = self.spec
        argv = [spec["command"], str(self.config), "--out", str(out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        code, launch, rec = self.nsch(argv, opdir, "main", traced)
        problems = [] if code == 0 else [f"nsch {spec['command']} exited {code}"]
        op = {"index": index, "traced": traced, "workers": workers, "problems": problems, "records": [rec]}

        trajectories = rec.get("trajectories") or []
        firsts = [t[0] for t in trajectories if t[0] is not None]
        samples = []
        for first, ends in trajectories:
            if first is not None and ends:
                samples.append(ends[0] - first)
                samples.extend(np.diff(ends).tolist())
        steps_done = sum(len(ends) for _, ends in trajectories)
        if code == 0 and steps_done != spec["paths"] * spec["steps"]:
            problems.append(f"{steps_done} steps stamped, expected {spec['paths'] * spec['steps']}")
        if code == 0 and firsts and samples:
            first = min(firsts)
            end = rec["ensemble_end"] if spec["command"] == "ensemble" else trajectories[-1][1][-1]
            op["setup_s"] = first - launch
            op["path_steps_per_s"] = steps_done / (end - first)
            op["rate_bins"] = rate_bins([e for _, ends in trajectories for e in ends], first, end)
        op["step_ms"] = [s * 1e3 for s in samples]

        if spec["command"] == "run":
            self.check_run(out, opdir, op, traced)
        else:
            self.check_ensemble(out, op)
        op["bytes_per_file"] = [p.stat().st_size for p in out.glob("*.nsch")] if out.exists() else []
        self.ops.append(op)
        # keep only the newest operation's files on disk
        if index > 0:
            shutil.rmtree(self.work / f"op{index - 1:03d}", ignore_errors=True)
        return op

    def check_run(self, out: Path, opdir: Path, op: dict, traced: bool):
        problems = op["problems"]
        code, _, rec = self.nsch(["verify", str(self.config), "--out", str(out)], opdir, "verify", traced)
        op["records"].append(rec)
        if code != 0:
            problems.append(f"nsch verify exited {code}")
        snaps = sorted(out.glob("chk_*.nsch")) + sorted(out.glob("final.nsch"))
        expected = self.spec["steps"] // self.spec["stride"] + 2
        if len(snaps) != expected:
            problems.append(f"{len(snaps)} checkpoints, expected {expected}")
        zero_modes = {zero_mode_bytes(p) for p in snaps}
        if len(zero_modes) > 1:
            problems.append(f"density zero mode differs across checkpoints: {sorted(zero_modes)}")
        ledger = out / "ledger.csv"
        if not ledger.exists():
            problems.append("no ledger.csv")
            return
        residuals = ledger_residuals(ledger)
        if len(residuals) != self.spec["steps"] + 1:
            problems.append(f"ledger has {len(residuals)} rows, expected {self.spec['steps'] + 1}")
        if self.spec["noise"] == "off":
            worst = max(abs(r) for r in residuals)
            op["max_residual"] = worst
            if not worst <= RESIDUAL_BOUND:
                problems.append(f"max |ledger residual| {worst:.3e} exceeds {RESIDUAL_BOUND:.3e}")

    def check_ensemble(self, out: Path, op: dict):
        problems = op["problems"]
        path = out / "report.json"
        if not path.exists():
            problems.append("no report.json")
            return
        raw = path.read_bytes()
        report = json.loads(raw)
        if report["paths"] != self.spec["paths"] or report["survivor_fraction"] != 1.0:
            problems.append(f"survivors {report['survivors']}/{report['paths']}, expected all {self.spec['paths']}")
        if not report["martingale"]["passed"]:
            problems.append(f"martingale test failed: {report['martingale']}")
        if self.reference_report is None:
            self.reference_report = raw
        elif raw != self.reference_report:
            problems.append("report.json differs from the first operation's (same seed and config)")

    def run(self) -> dict:
        self.warm_up()
        calib_before = calibrate()
        measure_until = time.monotonic() + self.seconds
        workers = self.spec.get("workers")
        # (traced, workers) per round.  The traced ensemble runs in one process so
        # every span stays in it; its untraced twin gives the tracing overhead, and
        # the pool run must write the same report.json bytes.
        if not self.trace:
            rounds = [(False, workers)]
        elif workers:
            rounds = [(False, self.spec["pool_workers"]), (False, workers), (True, workers)]
        else:
            rounds = [(False, None), (True, None)]
        longest = last_round = 0.0
        # start a round only if it would likely end nearer to --seconds than the
        # previous one did, so a run lasts about --seconds even with long operations
        while (time.monotonic() + last_round / 2 < measure_until or self.samples() < MIN_SAMPLES) \
                and self.remaining() > 0:
            round_start = time.monotonic()
            for traced, w in rounds:
                # start no operation that would likely be killed at the hard limit
                if self.ops and self.remaining() < 1.5 * longest:
                    break
                started = time.monotonic()
                self.operation(traced, w)
                longest = max(longest, time.monotonic() - started)
            last_round = time.monotonic() - round_start
            if any(op["problems"] for op in self.ops) or self.remaining() < 1.5 * longest:
                break
        calib_after = calibrate()
        # metrics first: the traced run's cross-check can still fail an operation
        metrics = self.layer_metrics() if self.trace else self.end_to_end_metrics()
        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "config": self.config.read_text(),
            "calibration_fft_ms": {"before": calib_before, "after": calib_after},
            "attempted": len(self.ops),
            "failed": self.failed(),
            "problems": [p for op in self.ops for p in op["problems"]],
            "step_samples": self.samples(),
            "operations": [
                {k: op.get(k) for k in
                 ("index", "traced", "workers", "setup_s", "path_steps_per_s", "max_residual", "problems")}
                | {"step_samples": len(op["step_ms"])}
                for op in self.ops
            ],
            "metrics": metrics,
        }

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])

    def samples(self) -> int:
        return sum(len(op["step_ms"]) for op in self.ops if not op["traced"])

    def end_to_end_metrics(self) -> dict:
        ops = [op for op in self.ops if "setup_s" in op]
        if not ops:
            raise SystemExit("no operation produced timings: " + "; ".join(self.ops[-1]["problems"]))
        samples = [s for op in ops for s in op["step_ms"]]
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (statistics.median(op["setup_s"] for op in ops), "s"),
            "step_ms_p50": (float(np.percentile(samples, 50)), "ms"),
            "step_ms_p95": (float(np.percentile(samples, 95)), "ms"),
            "path_steps_per_s": (statistics.median(r for op in ops for r in op["rate_bins"]), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    def layer_metrics(self) -> dict:
        traced = [op for op in self.ops if op["traced"]]
        if not traced:
            raise SystemExit("the traced operation did not run: " + "; ".join(self.ops[-1]["problems"]))
        plain = [op for op in self.ops if not op["traced"] and op["workers"] == traced[0]["workers"]]
        pool = self.spec.get("pool_workers")
        pooled = [op for op in self.ops if pool and not op["traced"] and op["workers"] == pool]
        totals = merge([rec["trace"] for op in traced for rec in op["records"] if "trace" in rec])
        mismatch = crosscheck(totals)
        if mismatch:
            traced[-1]["problems"].extend(mismatch)
        L = totals["labels"]
        steps = totals["steps"]

        def lab(name, key):
            return L.get(name, {}).get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        def loop_per_call(name):
            return ratio(lab(name, "loop_ms"), lab(name, "loop_calls"))

        def per_call(name):
            return ratio(lab(name, "ms"), lab(name, "calls"))

        def in_loop_count(key):
            return totals["counts"].get(key, [0, 0])[1]

        traj_under_paths = totals["trajectory_ms_under_run_paths"]
        files = [b for op in traced for b in op["bytes_per_file"]]
        traced_p50 = median([s for op in traced for s in op["step_ms"]])
        plain_p50 = median([s for op in plain for s in op["step_ms"]])
        imports = [rec["import_s"] for op in traced for rec in op["records"] if "import_s" in rec]
        m = {
            "spectral.to_physical.calls_per_step": (ratio(lab("spectral.to_physical", "loop_calls"), steps), "count"),
            "spectral.to_spectral.calls_per_step": (ratio(lab("spectral.to_spectral", "loop_calls"), steps), "count"),
            "spectral.transform_ms_per_step": (ratio(sum(lab(n, "loop_ms") for n in TRANSFORMS), steps), "ms"),
            "spectral.product_ms_per_step": (ratio(sum(lab(n, "loop_ms") for n in PRODUCTS), steps), "ms"),
            "spectral.transform_bytes_per_step": (ratio(in_loop_count("fft_bytes"), steps), "bytes"),
            "scheme.step.self_ms": (ratio(lab("scheme.step", "loop_self_ms"), lab("scheme.step", "loop_calls")), "ms"),
            "scheme.ch_drift.ms": (loop_per_call("scheme.ch_drift"), "ms"),
            "scheme.momentum_rhs.ms": (loop_per_call("scheme.momentum_rhs"), "ms"),
            "scheme.check_timestep.ms": (loop_per_call("scheme.check_timestep"), "ms"),
            "scheme.recover_velocity.ms": (loop_per_call("scheme.recover_velocity"), "ms"),
            "scheme.recover_velocity.iters_per_call": (ratio(totals["cg_iterations"], totals["cg_calls"]), "count"),
            "constitutive.chemical_potential.calls_per_step": (
                ratio(lab("constitutive.chemical_potential", "loop_calls"), steps), "count"),
            "constitutive.chemical_potential.ms_per_step": (
                ratio(lab("constitutive.chemical_potential", "loop_ms"), steps), "ms"),
            "noise.sigma_evals_per_step": (ratio(in_loop_count("sigma_evals"), steps), "count"),
            "noise.forcing.ms": (loop_per_call("noise.forcing"), "ms"),
            "noise.ito_ms_per_step": (
                ratio(lab("noise.ito_grad_correction", "loop_ms") + lab("noise.ito_value_correction", "loop_ms"),
                      steps), "ms"),
            "diagnostics.energy_ledger_step.ms": (loop_per_call("diagnostics.energy_ledger_step"), "ms"),
            "diagnostics.ledger_share": (
                ratio(lab("diagnostics.energy_ledger_step", "loop_ms"), totals["loop_wall_ms"]), "ratio"),
            "diagnostics.transforms_per_ledger_row": (
                ratio(totals["ledger_transforms"], lab("diagnostics.energy_ledger_step", "loop_calls")), "count"),
            "diagnostics.v15_functional.ms": (loop_per_call("diagnostics.v15_functional"), "ms"),
            "diagnostics.korn_check.ms": (per_call("diagnostics.korn_check"), "ms"),
            "diagnostics.poincare_check.ms": (per_call("diagnostics.poincare_check"), "ms"),
            "diagnostics.audit_ledger_rows.ms": (per_call("diagnostics.audit_ledger_rows"), "ms"),
            "checkpoint.save_checkpoint.ms_per_call": (per_call("checkpoint.save_checkpoint"), "ms"),
            "checkpoint.bytes_per_file": (ratio(sum(files), len(files)), "bytes"),
            "ensemble.run_trajectory.ms_per_path": (per_call("ensemble.run_trajectory"), "ms"),
            "ensemble.serial_s": (
                ratio(lab("ensemble.run_paths", "ms") - traj_under_paths, lab("ensemble.run_paths", "calls")) / 1e3,
                "s"),
            "ensemble.pool_speedup": (
                ratio(median([op.get("path_steps_per_s", 0.0) for op in pooled]),
                      median([op.get("path_steps_per_s", 0.0) for op in plain])), "ratio"),
            "cli.import_s": (median(imports), "s"),
            "config.parse_config.ms": (per_call("config.parse_config"), "ms"),
            "trace.overhead_ms_per_step": (traced_p50 - plain_p50, "ms"),
        }
        m["failed_frac"] = (self.failed() / len(self.ops), "ratio")
        return m


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def merge(all_totals: list[dict]) -> dict:
    """Sum span totals of several traced processes."""
    out = {"labels": {}, "counts": {}, "steps": 0, "loop_wall_ms": 0.0, "ledger_transforms": 0,
           "cg_iterations": 0, "cg_calls": 0, "trajectory_ms_under_run_paths": 0.0}
    for t in all_totals:
        for lab, fields in t["labels"].items():
            acc = out["labels"].setdefault(lab, dict.fromkeys(fields, 0))
            for k, v in fields.items():
                acc[k] += v
        for k, v in t["counts"].items():
            acc = out["counts"].setdefault(k, [0, 0])
            acc[0] += v[0]
            acc[1] += v[1]
        for k in ("steps", "loop_wall_ms", "ledger_transforms", "cg_iterations", "cg_calls",
                  "trajectory_ms_under_run_paths"):
            out[k] += t[k]
    return out


def rate_bins(ends: list[float], first: float, end: float) -> list[float]:
    """Steps completed per second in equal slices of about BIN_S of [first, end]."""
    edges = np.linspace(first, end, max(1, round((end - first) / BIN_S)) + 1)
    counts, _ = np.histogram(ends, edges)
    return (counts / np.diff(edges)).tolist()


def zero_mode_bytes(path: Path) -> bytes:
    """Raw bytes of the density's zero Fourier coefficient, read from the checkpoint layout."""
    header = struct.Struct("<4sHHIIIId")
    with open(path, "rb") as fh:
        magic, _, dim, modes, *_ = header.unpack(fh.read(header.size))
        if magic != b"NSCH":
            raise ValueError(f"{path}: bad magic {magic!r}")
        kmax = modes // 2
        # band layout: (kmax+1,) in 1D, (2 kmax+1, kmax+1) in 2D with k=0 at row kmax
        index = 0 if dim == 1 else kmax * (kmax + 1)
        fh.seek(header.size + 16 * index)
        return fh.read(16)


def ledger_residuals(path: Path) -> list[float]:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("residual")
    return [float(line.split(",")[col]) for line in lines[1:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nsch" / "cli.py").is_file():
        print(f"benchmark: no nsch package under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    result = bench.run()
    (bench.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    calib = result["calibration_fft_ms"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"{result['step_samples']} untraced step samples")
    print(f"host calibration (fixed numpy FFT loop): {calib['before']:.4f} ms before, {calib['after']:.4f} ms after")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
