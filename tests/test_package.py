"""The package's public names, its import cost and its source layout."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsteer

SRC = Path(bellsteer.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "bellbench" / "tracing.py"


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from bellsteer import *", namespace)
    assert [name for name in bellsteer.__all__ if name not in namespace] == []
    assert all(getattr(bellsteer, name) is namespace[name] for name in bellsteer.__all__)


UNLOADED = ["scipy", "multiprocessing", "concurrent.futures.process"]


@pytest.fixture(scope="module")
def loaded_after_presets(tmp_path_factory):
    """Which of UNLOADED are in sys.modules after `bellsteer preset figure1`
    (the exact path) and `figure2` (the Lyapunov path), run in a fresh
    interpreter through the CLI into a temporary directory."""
    out = tmp_path_factory.mktemp("presets")
    code = (
        "import json, sys, bellsteer.cli\n"
        "for name in ('figure1', 'figure2'):\n"
        f"    assert bellsteer.cli.main(['preset', name, '--out', {str(out)!r}]) == 0\n"
        f"print(json.dumps([m in sys.modules for m in {UNLOADED!r}]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return dict(zip(UNLOADED, json.loads(result.stdout.splitlines()[-1])))


@pytest.mark.parametrize("module", UNLOADED)
def test_cli_import_leaves_module_unloaded(module, loaded_after_presets):
    # scipy is most of the import time, and no run needs it: it is a test
    # dependency, for the reference propagator in tests/oracles.py. Sweeps run
    # in-process, so no process pool is imported either.
    assert loaded_after_presets[module] is False


def test_source_lines_fit_in_99_columns():
    long = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []


def test_benchmark_traced_names_resolve(monkeypatch):
    # The benchmark's Tracer wraps each (module, attr) of LAYER_CALLS on
    # bellsteer.<module> as a function, and its switch_sweep workload replaces
    # SweepConfig.parallel; a missing or uncallable name fails every traced run.
    # tracing.py imports only the standard library, so it loads by path
    # (registered as a module while it runs, as its dataclasses need).
    spec = importlib.util.spec_from_file_location("bellbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.LAYER_CALLS
               if not callable(getattr(getattr(bellsteer, module), attr, None))]
    assert missing == []
    fields = [f.name for f in dataclasses.fields(bellsteer.experiments.SweepConfig)]
    assert "parallel" in fields
