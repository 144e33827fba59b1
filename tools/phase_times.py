"""Print the CPU time of each phase of every run of a preset.

    python tools/phase_times.py PRESET [--src PATH] [--repeats N]

Runs `run_preset(PRESET, DIR, seed=7)` N times (default 15) into a
temporary DIR, with `bellsteer` imported from PATH, the `src` directory of
a checkout (default: the one beside this script), so two checkouts can be
timed side by side. It prints one row per run of the preset, and a pass
row that sums them, with the least CPU time (`time.process_time`) over the
N passes of each phase, in ms:

- stepping: `_dp5` without its sampling, on a closed loop; on the exact
  path, `propagate_exact` without `_diagnose`;
- sampling: `_dense_samples` and `_from_bloch`, the step table read back;
- columns: `integrate` without `_dp5`, the set-up and the column pass; on
  the exact path, `_diagnose`;
- report, csv and json: `build_report`, `write_trajectory_csv` and
  `_write_report_json`.

Each phase is timed by wrapping those functions in their modules, as the
package calls them by their module-level names.
"""

import argparse
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PHASES = ("stepping", "sampling", "columns", "report", "csv", "json")
# The functions timed, by module: each call adds its CPU time to its name's total.
TIMED = {
    "dynamics": ("_dp5", "_dense_samples", "_from_bloch", "_diagnose"),
    "experiments": ("integrate", "propagate_exact", "build_report", "write_trajectory_csv",
                    "_write_report_json"),
}


def phases(inclusive: dict[str, float]) -> list[float]:
    """The exclusive time of each of PHASES from the inclusive time of each timed name."""
    t = defaultdict(float, inclusive)
    sampling = t["_dense_samples"] + t["_from_bloch"]
    return [t["_dp5"] - sampling + t["propagate_exact"] - t["_diagnose"], sampling,
            t["integrate"] - t["_dp5"] + t["_diagnose"], t["build_report"],
            t["write_trajectory_csv"], t["_write_report_json"]]


def time_preset(name: str, src: Path, repeats: int) -> dict[str, list[float]]:
    """Each run's label and the least CPU time in s of each of PHASES over repeats passes."""
    sys.path.insert(0, str(src))
    import bellsteer

    print(f"bellsteer from {Path(bellsteer.__file__).parent}")
    runs: list[tuple[str, dict[str, float]]] = []

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                runs[-1][1][key] += time.process_time() - start
        return wrapper

    def run_scenario(cfg, label=None):
        runs.append((label, defaultdict(float)))
        return real_run(cfg, label)

    for module_name, names in TIMED.items():
        module = getattr(bellsteer, module_name)
        for key in names:
            setattr(module, key, timed(getattr(module, key), key))
    experiments = bellsteer.experiments
    real_run, experiments.run_scenario = experiments.run_scenario, run_scenario
    best: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as out:
        for _ in range(repeats):
            runs.clear()
            experiments.run_preset(name, out, seed=7)
            for label, inclusive in runs:
                times = phases(inclusive)
                best[label] = [min(a, b) for a, b in zip(best.get(label, times), times)]
    return best


def row(name: str, cells) -> str:
    return f"{name:<28}" + "".join(f"{cell:>10}" for cell in cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset")
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory to import from")
    parser.add_argument("--repeats", type=int, default=15, help="passes to take the least of")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    best = time_preset(args.preset, args.src.resolve(), args.repeats)
    print(f"least CPU ms of {args.repeats} passes")
    print(row("run", (*PHASES, "total")))
    for label, times in best.items():
        print(row(label, (f"{1e3 * s:.2f}" for s in (*times, sum(times)))))
    total = [sum(times[i] for times in best.values()) for i in range(len(PHASES))]
    print(row("pass", (f"{1e3 * s:.2f}" for s in (*total, sum(total)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
