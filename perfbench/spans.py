"""In-memory span tracer for the traced benchmark run.

Spans (name, start, end, parent) are recorded around calls into the public
functions of each ``nsch`` module.  Modules bind each other's functions with
``from .spectral import to_physical``, so wrapping ``nsch.spectral`` alone
would miss most calls: ``install`` replaces the function at every binding
site in every loaded ``nsch`` module.  Counters on ``numpy.fft.rfftn`` and
``numpy.fft.irfftn`` cross-check the transform spans.

A span opened while a trajectory's time loop runs (from the first ``step``
call to the end of ``run_trajectory``) is marked as in-loop; per-step metrics
use only in-loop spans, so set-up and verification work stay out of them.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, function) pairs that get a span; the label is "<module>.<function>"
TRACED = {
    "spectral": ("to_physical", "to_spectral", "multiply", "dot", "outer", "pointwise"),
    "scheme": ("step", "ch_drift", "momentum_rhs", "check_timestep", "recover_velocity"),
    "constitutive": ("chemical_potential",),
    "noise": ("forcing", "ito_grad_correction", "ito_value_correction"),
    "diagnostics": (
        "energy_ledger_step",
        "v15_functional",
        "korn_check",
        "poincare_check",
        "audit_ledger_rows",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "ensemble": ("run_trajectory", "run_paths", "martingale_test"),
    "config": ("parse_config",),
}
SIGMA_METHODS = ("value", "d1")
TRANSFORMS = ("spectral.to_physical", "spectral.to_spectral")
PRODUCTS = ("spectral.multiply", "spectral.dot", "spectral.outer", "spectral.pointwise")


class Tracer:
    """Owns the span lists and the counters of one traced process."""

    def __init__(self):
        self.labels: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.in_loop: list[bool] = []
        self.iters: dict[int, int] = {}  # recover_velocity span -> CG iterations
        self._stack = [-1]
        self._loop = False
        self.counts = {"sigma_evals": [0, 0], "rfftn": [0, 0], "irfftn": [0, 0], "fft_bytes": [0, 0]}

    def _label_id(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def _span(self, label: str, fn):
        nid = self._label_id(label)
        names, starts, ends, parents, loops, stack = (
            self.name, self.start, self.end, self.parent, self.in_loop, self._stack
        )
        clock = time.perf_counter
        opens_loop = label == "scheme.step"
        closes_loop = label == "ensemble.run_trajectory"
        keeps_iters = label == "scheme.recover_velocity"
        tracer = self

        def wrapper(*args, **kwargs):
            if opens_loop:
                tracer._loop = True
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            loops.append(tracer._loop)
            ends.append(0.0)
            starts.append(clock())
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if closes_loop:
                    tracer._loop = False
            if keeps_iters:
                tracer.iters[idx] = out[1]
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn, nbytes=False):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            slot = 1 if tracer._loop else 0
            counts[key][slot] += 1
            if nbytes:
                counts["fft_bytes"][slot] += np.asarray(args[0]).nbytes + out.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding site of the traced functions; call after importing nsch.cli."""
        modules = {n: m for n, m in sys.modules.items() if n == "nsch" or n.startswith("nsch.")}
        replace = {}
        for mod, names in TRACED.items():
            for fname in names:
                original = getattr(modules[f"nsch.{mod}"], fname)
                replace[id(original)] = (original, self._span(f"{mod}.{fname}", original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        noise = modules["nsch.noise"]
        for family in (noise.SineDiffusion, noise.ConstantDiffusion, noise.LinearDiffusion):
            for meth in SIGMA_METHODS:
                setattr(family, meth, self._counter("sigma_evals", getattr(family, meth)))
        np.fft.rfftn = self._counter("rfftn", np.fft.rfftn, nbytes=True)
        np.fft.irfftn = self._counter("irfftn", np.fft.irfftn, nbytes=True)

    def totals(self) -> dict:
        """Additive per-label totals, so several traced processes can be summed."""
        n = len(self.name)
        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        loops = np.asarray(self.in_loop, dtype=bool)
        dur = (np.asarray(self.end) - np.asarray(self.start)) * 1e3
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = dur - child

        label_of = np.asarray(self.labels, dtype=object)[names] if n else np.asarray([], dtype=object)
        ledger_id = {i for i, lab in enumerate(self.labels) if lab == "diagnostics.energy_ledger_step"}
        under_ledger = np.zeros(n, dtype=bool)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                under_ledger[i] = under_ledger[p] or names[p] in ledger_id

        per_label: dict[str, dict[str, float]] = {}
        for lab in sorted(set(self.labels)):
            sel = label_of == lab
            ls = sel & loops
            per_label[lab] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()),
                "self_ms": float(self_ms[sel].sum()),
                "loop_calls": int(ls.sum()),
                "loop_ms": float(dur[ls].sum()),
                "loop_self_ms": float(self_ms[ls].sum()),
            }

        is_transform = np.isin(label_of, TRANSFORMS) if n else np.zeros(0, dtype=bool)
        # loop wall time: first step start to the end of each run_trajectory
        loop_wall_ms = 0.0
        first_step: dict[int, float] = {}
        for i in range(n):
            if label_of[i] == "scheme.step" and parents[i] >= 0 and parents[i] not in first_step:
                first_step[int(parents[i])] = self.start[i]
        for traj, t0 in first_step.items():
            loop_wall_ms += (self.end[traj] - t0) * 1e3
        traj = np.flatnonzero((label_of == "ensemble.run_trajectory") & has_parent) if n else np.zeros(0, int)
        under_paths = traj[label_of[parents[traj]] == "ensemble.run_paths"] if len(traj) else traj
        cg = [it for idx, it in self.iters.items() if loops[idx]]
        return {
            "labels": per_label,
            "steps": per_label.get("scheme.step", {}).get("loop_calls", 0),
            "loop_wall_ms": loop_wall_ms,
            "ledger_transforms": int((is_transform & under_ledger).sum()),
            "trajectory_ms_under_run_paths": float(dur[under_paths].sum()),
            "cg_iterations": int(sum(cg)),
            "cg_calls": len(cg),
            "counts": {k: list(v) for k, v in self.counts.items()},
        }

    def dump(self, path):
        """Write every span; names index into ``labels``."""
        np.savez_compressed(
            path,
            labels=np.asarray(self.labels),
            name=np.asarray(self.name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            in_loop=np.asarray(self.in_loop, dtype=bool),
        )


def crosscheck(totals: dict) -> list[str]:
    """Transform spans must equal the numpy.fft calls they wrap, in and out of the loop."""
    problems = []
    labels = totals["labels"]
    for label, key in (("spectral.to_physical", "irfftn"), ("spectral.to_spectral", "rfftn")):
        span = labels.get(label, {"calls": 0, "loop_calls": 0})
        out_loop, in_loop = totals["counts"].get(key, (0, 0))
        if (span["calls"], span["loop_calls"]) != (out_loop + in_loop, in_loop):
            problems.append(
                f"{label}: {span['calls']} spans ({span['loop_calls']} in loop) but numpy.fft.{key} "
                f"ran {out_loop + in_loop} times ({in_loop} in loop)"
            )
    return problems
