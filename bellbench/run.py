"""bellsteer benchmark: one workload per invocation, outputs checked.

Usage, from the root of a bellsteer checkout:

    python3 bellbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``. With
``--trace 0`` the run makes one warm-up pass, then timed passes until
``--seconds`` have gone by, then measures set-up in fresh processes; it prints
the end-to-end metrics. Their times are in reference seconds, corrected for the
CPU speed the run saw (see ``speed.py``); the text output also gives the raw
wall time. With ``--trace 1`` it makes a warm-up pass, an untraced pass and a
traced pass, and prints the per-layer metrics: per-call and per-pass times of
the layers in raw wall-clock time, and ``experiments.run_sweep_s``,
``experiments.sweep_pool_eff`` and the tracing overhead in reference seconds.
A run fails on an IntegrationError, a sweep-row error or a failed output
check; the text output gives ``fail_frac``, and the JSON result carries the
same counts as ``attempted`` and ``failed``. The last line of standard output
is the JSON result; the line before it records the environment. ``--quick`` shrinks every workload for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import speed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s.p50": "s",
    "run_s.p90": "s",
    "runs_per_s": "1/s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "dynamics.integrate_s": "s",
    "dynamics.integrate_self_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_us": "us",
    "dynamics.dp5_attempts": "count",
    "dynamics.rhs_per_sample": "count",
    "control.field_calls": "count",
    "control.field_us": "us",
    "control.lyapunov_value_us": "us",
    "metrics.concurrence_calls": "count",
    "metrics.concurrence_us": "us",
    "model.subspace_populations_us": "us",
    "metrics.peak_report_ms": "ms",
    "metrics.convergence_report_ms": "ms",
    "experiments.build_report_ms": "ms",
    "experiments.write_csv_ms": "ms",
    "experiments.csv_bytes": "bytes",
    "experiments.csv_us_per_row": "us",
    "experiments.run_sweep_s": "s",
    "experiments.sweep_pool_eff": "ratio",
    "experiments.parse_ms": "ms",
    "model.hamiltonians_us": "us",
    "trace.overhead_s": "s",
}

_PARSE_SPANS = (
    "experiments.preset_scenarios",
    "experiments.parse_config_text",
    "experiments.sweep_from_mapping",
)


def setup_seconds(name: str, seed: int, work_dir: Path, repeats: int, quick: bool) -> float:
    """Median set-up time over ``repeats`` fresh processes, each in reference
    seconds at the median speed of the kernels it ran right after set-up."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed), str(work_dir)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            cmd + (["--quick"] if quick else []),
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        child = json.loads(done.stdout.splitlines()[-1])
        times.append(child["elapsed"] * speed.REFERENCE_S / statistics.median(child["kernel_s"]))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest finished child."""
    kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def timed_run(bs, name: str, seed: int, seconds: float, work_dir: Path, quick: bool):
    wl = workloads.WORKLOADS[name](bs, work_dir, seed, quick)
    passes = []
    with speed.SpeedProbe() as probe:
        warm = [] if quick else [wl.run_pass()]
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(wl.run_pass())
    rss = peak_rss_mib()
    setup = setup_seconds(name, seed, work_dir, 1 if quick else SETUP_REPEATS, quick)

    walls = [probe.normalize(p.start, p.end) for p in passes]
    run_s = [probe.normalize(*call) for p in passes for call in p.calls]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "run_s.p50": float(np.percentile(run_s, 50)),
        "run_s.p90": float(np.percentile(run_s, 90)),
        "runs_per_s": statistics.median((p.attempted - p.failed) / w for p, w in zip(passes, walls)),
        "samples_per_s": statistics.median(p.samples / w for p, w in zip(passes, walls)),
        "peak_rss_mb": rss,
    }
    unit = "run_sweep call" if name == "switch_sweep" else "run_scenario call"
    notes = [
        f"{len(passes)} timed passes after {len(warm)} warm-up pass",
        f"raw wall_s {statistics.median(p.wall_s for p in passes):.6g} s; speed kernel "
        f"p5 {1e3 * np.percentile(probe.durations, 5):.4g} ms, median {1e3 * np.median(probe.durations):.4g} ms "
        f"over {len(probe.durations)} probes",
        f"run_s over {len(run_s)} timed {unit}s: {sum(t > metrics['run_s.p50'] for t in run_s)} beyond p50, "
        f"{sum(t > metrics['run_s.p90'] for t in run_s)} beyond p90",
    ]
    return metrics, END_TO_END_UNITS, warm + passes, notes


def traced_run(bs, name: str, seed: int, work_dir: Path, quick: bool):
    wl = workloads.WORKLOADS[name](bs, work_dir, seed, quick)
    run_sweep_s = pool_eff = 0.0
    with speed.SpeedProbe() as probe:
        passes = [] if quick else [wl.run_pass()]
        baseline = wl.run_pass()
        passes.append(baseline)
        if isinstance(wl, workloads.SwitchSweep):
            # Per-row time from a serial pass over total worker time in the pool.
            run_sweep_s, parallel = probe.normalize(baseline.start, baseline.end), wl.cfg.parallel
            wl = wl.serial()
            with Tracer(bs, only=("experiments.run_scenario",)) as rows:
                baseline = wl.run_pass()
            passes.append(baseline)
            row_s = sum(probe.normalize(s.start, s.end) for s in rows.spans)
            pool_eff = row_s / (parallel * run_sweep_s)

        with Tracer(bs) as tr:
            workloads.WORKLOADS[name](bs, work_dir, seed, quick)
            traced = wl.run_pass()
        passes.append(traced)
    overhead_s = probe.normalize(traced.start, traced.end) - probe.normalize(baseline.start, baseline.end)

    integrations = tr.named("dynamics.integrate")
    rhs_per_call = [s.leaf_calls["dynamics.rhs"] for s in integrations]
    fsal_misses = sum((n - 1) % 6 != 0 for n in rhs_per_call)
    sanity = []
    if fsal_misses:
        sanity.append(f"{fsal_misses} integrate calls break rhs_calls = 6 * attempts + 1")
    if tr.nesting_violations:
        sanity.append(f"{tr.nesting_violations} spans shorter than their wrapped children")
    traced.failed += fsal_misses + bool(tr.nesting_violations)
    traced.problems += sanity

    csv_spans = tr.named("experiments.write_csv")
    csv_rows = traced.samples if csv_spans else 0
    rhs_calls = tr.leaf_calls("dynamics.rhs")
    metrics = {
        "dynamics.integrate_s": tr.total_s("dynamics.integrate"),
        "dynamics.integrate_self_s": sum(s.self_s for s in integrations),
        "dynamics.rhs_calls": rhs_calls,
        "dynamics.rhs_us": tr.leaf_us("dynamics.rhs"),
        "dynamics.dp5_attempts": sum((n - 1) // 6 for n in rhs_per_call),
        "dynamics.rhs_per_sample": rhs_calls / traced.samples if traced.samples else 0.0,
        "control.field_calls": tr.leaf_calls("control.control_field"),
        "control.field_us": tr.leaf_us("control.control_field"),
        "control.lyapunov_value_us": tr.leaf_us("control.lyapunov_value"),
        "metrics.concurrence_calls": tr.leaf_calls("metrics.concurrence"),
        "metrics.concurrence_us": tr.leaf_us("metrics.concurrence"),
        "model.subspace_populations_us": tr.leaf_us("model.subspace_populations"),
        "metrics.peak_report_ms": tr.mean_ms("metrics.peak_report"),
        "metrics.convergence_report_ms": tr.mean_ms("metrics.convergence_report"),
        "experiments.build_report_ms": tr.mean_ms("experiments.build_report"),
        "experiments.write_csv_ms": tr.mean_ms("experiments.write_csv"),
        "experiments.csv_bytes": sum(
            Path(cfg.outputs.trajectory_csv).stat().st_size for _, cfg in getattr(wl, "jobs", [])
        ),
        "experiments.csv_us_per_row": 1e6 * tr.total_s("experiments.write_csv") / csv_rows if csv_rows else 0.0,
        "experiments.run_sweep_s": run_sweep_s,
        "experiments.sweep_pool_eff": pool_eff,
        "experiments.parse_ms": 1e3 * sum(
            s.duration for s in tr.spans if s.parent is None and s.name in _PARSE_SPANS
        ),
        "model.hamiltonians_us": 1e3 * tr.mean_ms("model.hamiltonians"),
        "trace.overhead_s": overhead_s,
    }
    notes = [
        f"raw wall_s: traced pass {traced.wall_s:.3f} s, untraced {baseline.wall_s:.3f} s",
        f"FSAL identity checked on {len(integrations)} integrate calls",
    ]
    return metrics, PER_LAYER_UNITS, passes, notes


def environment(seed: int, passes: int) -> dict:
    """Versions and machine, recorded beside every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "passes": passes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="reduced size, for the benchmark's tests")
    args = parser.parse_args(argv)

    bs = workloads.load_bellsteer(ROOT)
    scratch = ROOT / "bellbench" / ".work"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch, prefix=f"{args.workload}-") as tmp:
            if args.trace:
                out = traced_run(bs, args.workload, args.seed, Path(tmp), args.quick)
            else:
                out = timed_run(bs, args.workload, args.seed, args.seconds, Path(tmp), args.quick)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    metrics, units, passes, notes = out

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"bellbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes + [p for ps in passes for p in ps.problems]:
        print(f"  {note}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:.6g} {units[key]}")
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(json.dumps({"env": environment(args.seed, len(passes))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
