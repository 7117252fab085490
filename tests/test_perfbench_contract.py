"""The names the benchmark harness reaches into must keep existing.

``perfbench/spans.py`` fetches every function of its ``TRACED`` table and
the sigma methods of three noise families with ``getattr`` when a traced
run starts, and ``perfbench/child.py`` replaces four functions of
``nsch.cli`` and ``nsch.ensemble``.  A missing name fails the traced run
only, so these tests check them directly.  ``perfbench/run.py`` gets no
timings, and exits 1, when the hooks that ``child.py`` wraps stop being
called, so short runs of ``child.py`` itself check that every step is
stamped and that ``report.json`` holds the keys ``run.py`` reads.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nsch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(nsch.__path__))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def noise_families(spans) -> list[str]:
    """Names of the ``noise.<Family>`` attributes that ``Tracer.install`` reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(spans.Tracer.install)))
    return sorted(
        {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "noise"
        }
    )


def test_traced_functions_exist():
    spans = load_spans()
    for module, names in spans.TRACED.items():
        mod = importlib.import_module(f"nsch.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"nsch.{module}.{name}"


def test_traced_noise_families_have_the_sigma_methods():
    spans = load_spans()
    families = noise_families(spans)
    assert len(families) == 3
    noise = importlib.import_module("nsch.noise")
    for family in families:
        for method in spans.SIGMA_METHODS:
            assert callable(getattr(getattr(noise, family, None), method, None)), f"nsch.noise.{family}.{method}"


def test_hooks_patched_by_the_child_exist():
    cli = importlib.import_module("nsch.cli")
    ensemble = importlib.import_module("nsch.ensemble")
    for mod, name in ((cli, "run_trajectory"), (cli, "run_paths"), (ensemble, "step"), (ensemble, "run_trajectory")):
        assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    params = inspect.signature(ensemble.run_trajectory).parameters
    assert list(params)[:2] == ["config", "path_index"]
    assert {"initial_state", "on_step"} <= set(params)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"nsch.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"nsch.{module}.{name}"


def test_tracer_installs_on_the_loaded_package():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nsch.cli; import spans; "
        "spans.Tracer().install(); print('installed')"
    )
    # pytest's pythonpath setting reaches this process only, so the child gets the package's path too
    src = str(PERFBENCH.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(PERFBENCH)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"


@pytest.mark.parametrize("command, paths", [("ensemble", 8), ("run", 1)])
def test_child_stamps_every_step(tmp_path, command, paths):
    # the 1D/32 noisy configuration of the benchmark's workloads, for 3 steps
    steps = 3
    config = tmp_path / "config.cfg"
    config.write_text(
        "[grid]\ndim = 1\nmodes = 32\n\n[scheme]\ndt = 1e-05\n\n[noise]\nkind = geometric\nmodes = 20\nseed = 1\n\n"
        f"[run]\nhorizon = {steps * 1e-5!r}\nsnapshot_stride = 1\npaths = {paths}\n"
    )
    record, out = tmp_path / "record.json", tmp_path / "out"
    argv = [sys.executable, str(PERFBENCH / "child.py"), str(record), "--", command, str(config), "--out", str(out)]
    if command == "ensemble":
        argv += ["--workers", "1"]
    # run from the root of the checkout, as the benchmark does: child.py imports nsch from ./src
    done = subprocess.run(argv, cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

    stamps = json.loads(record.read_text())
    assert stamps["exit"] == 0
    assert len(stamps["trajectories"]) == paths
    for first, ends in stamps["trajectories"]:
        assert first is not None and len(ends) == steps
    if command == "ensemble":
        assert stamps["ensemble_end"] is not None
        report = json.loads((out / "report.json").read_text())
        assert report["paths"] == paths and report["survivor_fraction"] == 1.0
        assert report["martingale"]["passed"] is True
