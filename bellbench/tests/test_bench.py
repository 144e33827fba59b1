"""Tests of the benchmark itself, at reduced size (``--quick``).

Run from the repository root: ``python3 -m pytest bellbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bs():
    return workloads.load_bellsteer(ROOT)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--quick"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_prints_every_metric_with_its_unit(capsys, bs, workload, trace):
    result, text = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    env = json.loads(text.splitlines()[-1])["env"]
    assert {"python", "numpy", "scipy", "nproc", "cpu", "seed", "passes"} <= set(env)
    assert env["seed"] == 7
    assert "fail_frac" in text


def _scale_column(path: str, column: str, factor: float) -> None:
    header, *rows = Path(path).read_text().splitlines()
    col = header.split(",").index(column)
    out = [header]
    for row in rows:
        cells = row.split(",")
        cells[col] = "%.17g" % (float(cells[col]) * factor)
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failure(capsys, monkeypatch, bs, workload):
    ex = bs.experiments
    if workload == "switch_sweep":
        write, column = ex.write_sweep_csv, "final_concurrence"
        monkeypatch.setattr(ex, "write_sweep_csv", lambda rows, path: (write(rows, path), _scale_column(path, column, 0.999)))
    else:
        write, column = ex.write_trajectory_csv, "concurrence"
        monkeypatch.setattr(ex, "write_trajectory_csv", lambda traj, path: (write(traj, path), _scale_column(path, column, 0.999)))
    result, text = _run(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "fail_frac                        1 " in text


@pytest.mark.parametrize("defect", ["sign_flip", "stalled"])
def test_feedback_defects_are_caught(capsys, monkeypatch, bs, defect):
    field = bs.dynamics.control_field
    broken = {
        "sign_flip": lambda *a, **k: -field(*a, **k),
        "stalled": lambda *a, **k: 0.0,
    }[defect]
    monkeypatch.setattr(bs.dynamics, "control_field", broken)
    result, _ = _run(capsys, "feedback_presets", 0)
    assert result["failed"] == result["attempted"] >= 1


def test_normalize_scales_by_probe_speed():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [speed.REFERENCE_S, speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    assert probe.normalize(0.5, 1.5) == pytest.approx(1.0 - speed.REFERENCE_S)
    assert probe.normalize(2.5, 3.5) == pytest.approx(0.5 * (1.0 - 2 * speed.REFERENCE_S))
    assert probe.normalize(3.6, 3.7) == pytest.approx(0.05)  # no probe inside: the last one


def test_switch_times_come_from_the_seed(bs, tmp_path):
    def values(seed):
        return workloads.SwitchSweep(bs, tmp_path, seed, quick=False).values

    assert values(3) == values(3) != values(4)
    assert len(values(3)) == 16
    assert all(workloads.SWITCH_RANGE[0] <= v <= workloads.SWITCH_RANGE[1] for v in values(3))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bellbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "switch_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
