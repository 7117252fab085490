"""Run one ``nsch`` command in this process, with step timestamps.

Usage (from the root of a checkout, ``src/`` holding the package):

    python3 perfbench/child.py RECORD.json [--trace SPANS.npz] -- run cfg --out dir

The command is ``nsch.cli.main`` itself; this script only chains timing hooks
around the calls the CLI already makes:

* ``run_trajectory`` gets an ``on_step`` that stamps the end of every step,
  after the CLI's own callback (checkpoint writes included);
* ``step`` in ``nsch.ensemble`` stamps the start of a trajectory's first step;
* ``run_paths`` stamps the end of the ensemble and collects the stamps that
  worker processes attach to each ``TrajectoryResult``.

All stamps are ``time.monotonic()``, which is system-wide, so the parent can
subtract its own launch time.  With ``--trace`` the functions of every
``nsch`` module are also wrapped in spans (see ``spans.py``).  The record
holds the exit code, the stamps and, when traced, the span totals.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class StepClock:
    """Collects per-trajectory (first step start, [step end, ...]) stamps."""

    def __init__(self):
        self.trajectories: list[tuple[float, list[float]]] = []
        self.ensemble_end: float | None = None
        self._first: list[float] = []

    def install(self, cli, ensemble):
        clock = time.monotonic
        inner_step = ensemble.step
        first = self._first

        def step(*args, **kwargs):
            if not first:
                first.append(clock())
            return inner_step(*args, **kwargs)

        def timed(inner_run):
            def run_trajectory(config, path_index, initial_state=None, on_step=None):
                ends: list[float] = []
                first.clear()

                def stamp(*args):
                    if on_step is not None:
                        on_step(*args)
                    ends.append(clock())

                result = inner_run(config, path_index, initial_state=initial_state, on_step=stamp)
                # survives pickling back from a pool worker
                result.bench_steps = (first[0] if first else None, ends)
                self.trajectories.append(result.bench_steps)
                return result

            return run_trajectory

        inner_paths = cli.run_paths

        def run_paths(config):
            report, results = inner_paths(config)
            self.ensemble_end = clock()
            self.trajectories = [getattr(r, "bench_steps", (None, [])) for r in results]
            return report, results

        ensemble.step = step
        ensemble.run_trajectory = timed(ensemble.run_trajectory)
        cli.run_trajectory = timed(cli.run_trajectory)
        cli.run_paths = run_paths


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, command = argv[:sep], argv[sep + 1 :]
    record_path = Path(own[0])
    spans_path = Path(own[own.index("--trace") + 1]) if "--trace" in own else None

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.monotonic()
    import nsch.cli as cli
    import nsch.ensemble as ensemble

    import_s = time.monotonic() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"child: nsch imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 90

    tracer = None
    if spans_path is not None:
        from spans import Tracer  # perfbench/spans.py, next to this file

        tracer = Tracer()
        tracer.install()
    clock = StepClock()
    clock.install(cli, ensemble)

    code = cli.main(command)

    record = {
        "exit": code,
        "import_s": import_s,
        "trajectories": clock.trajectories,
        "ensemble_end": clock.ensemble_end,
    }
    if tracer is not None:
        record["trace"] = tracer.totals()
        tracer.dump(spans_path)
    record_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
