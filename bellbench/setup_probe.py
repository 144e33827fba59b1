"""Set-up time of one workload in a fresh process.

Usage: python3 bellbench/setup_probe.py WORKLOAD SEED WORK_DIR [--quick]

Times importing bellsteer and building the workload's scenarios (or parsing
its sweep config). Then it runs the speed kernel a few times, so the caller
can normalise the time to the CPU speed it ran at, and prints both as one
JSON line.
"""

from time import perf_counter

_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

KERNEL_REPEATS = 20


def main(argv: list[str]) -> None:
    name, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    bs = workloads.load_bellsteer(Path(__file__).resolve().parent.parent)
    workloads.WORKLOADS[name](bs, work_dir, seed, "--quick" in argv)
    elapsed = perf_counter() - _START

    import speed

    print(json.dumps({"elapsed": elapsed, "kernel_s": [speed.kernel() for _ in range(KERNEL_REPEATS)]}))


if __name__ == "__main__":
    main(sys.argv[1:])
