"""The package's public names, its import cost and its source layout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsteer

SRC = Path(bellsteer.__file__).resolve().parent


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from bellsteer import *", namespace)
    assert [name for name in bellsteer.__all__ if name not in namespace] == []
    assert all(getattr(bellsteer, name) is namespace[name] for name in bellsteer.__all__)


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent.futures.process"])
def test_cli_import_leaves_module_unloaded(module):
    # scipy is most of the import time, and only linalg.expm needs it; sweeps
    # run in-process, so no process pool is imported either.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = f"import sys, bellsteer.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_source_lines_fit_in_99_columns():
    long = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []
