"""The package's public names, its import cost and its source layout."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellsteer

SRC = Path(bellsteer.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "bellbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
PHASE_TIMES = Path(__file__).resolve().parents[1] / "tools" / "phase_times.py"


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from bellsteer import *", namespace)
    assert [name for name in bellsteer.__all__ if name not in namespace] == []
    assert all(getattr(bellsteer, name) is namespace[name] for name in bellsteer.__all__)


def test_readme_counts_the_public_names():
    # README, "Python API", says how many names `bellsteer.__all__` holds.
    text = " ".join(README.read_text(encoding="utf-8").split())
    (count,) = re.findall(r"`bellsteer\.__all__`, which has (\d+) names", text)
    assert int(count) == len(bellsteer.__all__)


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


def test_propagators_share_one_signature():
    # The twin test classes run the same cases through the DOP853 reference
    # and through propagate_exact, and TestBoundary through integrate and
    # propagate_exact: all three take (h, law, psi0, psi_d0, cfg).
    from oracles import dop853_run

    signatures = [inspect.signature(f) for f in
                  (bellsteer.integrate, bellsteer.propagate_exact, dop853_run)]
    assert signatures[0] == signatures[1] == signatures[2]
    assert list(signatures[0].parameters) == ["h", "law", "psi0", "psi_d0", "cfg"]


def test_source_lines_fit_in_99_columns():
    long = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names read in the quoted annotations of a module, such as
    "Trajectory" in metrics' ``traj: "Trajectory"``."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    return {name.id
            for annotation in annotations
            for quoted in ast.walk(annotation)
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str)
            for name in ast.walk(ast.parse(quoted.value, mode="eval"))
            if isinstance(name, ast.Name)}


def test_src_imports_are_used():
    # Every name a module imports is read in it.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}"
                   for name in sorted(imported - read - _annotation_names(tree))]
    assert unused == []


# Top-level definitions that no code in src/ calls yet, each with its reason.
UNCALLED = {
    "metrics.lasalle_distance": "ROADMAP item 6 gives it a caller in the convergence report",
}


def test_src_definitions_have_callers():
    # Every top-level function and class in src/ is read somewhere in src/
    # outside its own body, as a name or as a module attribute such as
    # metrics.concurrence; an import does not count, nor does __all__.
    loads = []  # (name read, the top-level definition it is read in, or None)
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{stmt.name}"
                if path.name != "__init__.py":
                    defined.append((owner, stmt.name))
            loads += [(node.id if isinstance(node, ast.Name) else node.attr, owner)
                      for node in ast.walk(stmt)
                      if isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)]
    uncalled = [qualified for qualified, name in defined
                if not any(read == name and owner != qualified for read, owner in loads)]
    assert uncalled == list(UNCALLED)


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


# How a src/ docstring names a README section: README, "<heading>".
README_POINTER = re.compile(r'README, "([^"]+)"')


def test_docstring_readme_pointers_resolve():
    # Every README section a src/ docstring names is a heading of README.md
    # (a line of #s outside code blocks), so that an edit to README cannot
    # leave a pointer dangling. Line breaks in a docstring read as spaces.
    headings, fenced = set(), False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            headings.add(line.lstrip("#").strip())
    named = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = " ".join((ast.get_docstring(node) or "").split())
                where = f"{path.name}:{getattr(node, 'name', '')}"
                named += [(where, section) for section in README_POINTER.findall(doc)]
    assert len({section for _, section in named}) >= 6
    assert [(where, section) for where, section in named if section not in headings] == []


def test_src_lines_split_every_line_once():
    # tools/src_lines.py, the line counts CHANGES.md and ROADMAP quote: on
    # each file its four kinds sum to the file's line count, and the total
    # row sums the files.
    out = subprocess.run([sys.executable, str(SRC_LINES)], capture_output=True, text=True,
                         check=True).stdout
    header, *rows = [line.split() for line in out.splitlines()]
    assert header == ["file", "code", "docstring", "comment", "blank", "total"]
    counts = {name: [int(n) for n in numbers] for name, *numbers in rows}
    files = {path.name: path for path in SRC.glob("*.py")}
    assert sorted(counts) == sorted([*files, "total"])
    for name, path in files.items():
        *kinds, total = counts[name]
        assert sum(kinds) == total == len(path.read_text(encoding="utf-8").splitlines()), name
    assert counts["total"] == [sum(counts[name][i] for name in files) for i in range(5)]


def test_golden_compare_names_the_changed_column(tmp_path):
    # tools/golden.py compare, the check that a refactor leaves the preset
    # outputs byte-identical, on two small output directories: identical ones
    # pass, and one CSV field changed in its last digit fails and is named by
    # its column.
    rows = ["t,V", "0.0000000000000000e+00,5.0000000000000000e-01",
            "1.0000000000000001e-01,4.9000000000000000e-01"]
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "run.csv").write_text("\n".join(rows) + "\n")
        (d / "run.json").write_text('{"final_V": 0.49}\n')

    def compare():
        return subprocess.run([sys.executable, str(GOLDEN), "compare", str(a), str(b)],
                              capture_output=True, text=True)

    same = compare()
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.startswith("2 of 2 files byte-identical")
    rows[2] = rows[2].replace("4.9000000000000000e-01", "4.9000000000000005e-01")
    (b / "run.csv").write_text("\n".join(rows) + "\n")
    changed = compare()
    assert changed.returncode == 1
    assert "run.csv: V: max |delta| 5.551e-17, 1 of 2 fields differ" in changed.stdout
    assert "run.csv: t:" not in changed.stdout and "run.json" not in changed.stdout


def test_phase_times_prints_every_run_of_a_preset():
    # tools/phase_times.py, the per-phase CPU times of a preset: one row per
    # run of figure1 and a pass row, each with the six phases and their
    # total; figure1's runs are exact, so they take no sampling time.
    out = subprocess.run([sys.executable, str(PHASE_TIMES), "figure1", "--repeats", "1"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    header = lines.index("least CPU ms of 1 passes") + 1
    assert lines[header].split() == ["run", "stepping", "sampling", "columns", "report", "csv",
                                     "json", "total"]
    rows = {name: [float(x) for x in cells] for name, *cells in map(str.split, lines[header + 1:])}
    assert list(rows) == ["figure1_B0.1", "figure1_B0.2", "figure1_B0.4", "pass"]
    for name, (*phases, total) in rows.items():
        assert all(x >= 0 for x in phases) and total == pytest.approx(sum(phases), abs=0.05)
        assert phases[1] == 0.0 and phases[2] > 0 and phases[4] > 0, name
