"""Repeat the benchmark over seeds and summarise it, with the machine it ran on.

    python3 perfbench/collect.py --seeds 1-10 --seconds 50 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 1,2 --trace 1 --workloads run-1d --out /tmp/layers.json

Runs ``run.py`` once per workload and seed, one after another, from the root
of a checkout.  For every metric the summary keeps all values and their median
and quartiles (``statistics.quantiles(values, n=4)``); the spread is the
interquartile distance as a share of the median.  It also records the host
calibration of each run and each workload's generated config.  An existing
``--out`` file keeps the workloads that are not measured again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": None,
        "caches": {},
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def summarise(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    # an existing summary keeps its other workloads, so they can be measured one at a time
    summary = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    summary["machine"] = machine()
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((Path(".bench_out") / f"{workload}-seed{seed}-trace{args.trace}" / "result.json")
                                .read_text())
            runs.append({"seed": seed, "result": line, "calibration_fft_ms": record["calibration_fft_ms"],
                         "config": record["config"]})
            print(f"{workload} seed {seed}: correct {line['correct']}, "
                  f"{line['failed']}/{line['attempted']} failed", file=sys.stderr)
        metrics = runs[0]["result"]["metrics"]
        summary["workloads"][workload] = {
            "seconds": args.seconds,
            "trace": args.trace,
            "config_first_seed": runs[0]["config"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "seeds": [r["seed"] for r in runs],
            "calibration_fft_ms": [r["calibration_fft_ms"] for r in runs],
            "metrics": {
                name: {"unit": metrics[name]["unit"],
                       **summarise([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in metrics
            },
        }
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
