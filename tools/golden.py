"""Write the preset outputs of a checkout, or compare two sets of them.

    python tools/golden.py write DIR [--src PATH]
    python tools/golden.py compare A B

`write` runs `run_preset(name, DIR, seed=7)` for every name in
`PRESET_NAMES`, with `bellsteer` imported from PATH, the `src` directory of
a checkout (default: the one beside this script). DIR then holds one
`<label>.csv` and one `<label>.json` per preset run.

`compare` exits 0 when A and B hold the same files and each is
byte-identical. Otherwise it prints what differs and exits 1: a file that
only one directory holds; for each column of a trajectory CSV, the largest
|Δ| and how many fields differ in their float64 bits; for each JSON file,
the keys whose values differ, nested keys joined by dots.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def write(out: Path, src: Path) -> None:
    """Write every preset's CSV and JSON into out, from the package in src."""
    sys.path.insert(0, str(src))
    import bellsteer
    from bellsteer.experiments import PRESET_NAMES, run_preset

    print(f"bellsteer from {Path(bellsteer.__file__).parent}")
    for name in PRESET_NAMES:
        run_preset(name, out, seed=7)


def csv_differences(a: Path, b: Path) -> list[str]:
    """One line per column of two trajectory CSVs whose fields differ."""
    header_a, header_b = (path.read_text().partition("\n")[0] for path in (a, b))
    if header_a != header_b:
        return [f"header {header_a!r} against {header_b!r}"]
    x, y = (np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) for path in (a, b))
    if x.shape != y.shape:
        return [f"{x.shape[0]} rows against {y.shape[0]}"]
    lines = []
    for name, u, v in zip(header_a.split(","), x.T, y.T):
        bits = int(np.count_nonzero(u.view(np.int64) != v.view(np.int64)))
        if bits:
            with np.errstate(invalid="ignore"):
                delta = np.nanmax(np.abs(u - v))
            lines.append(f"{name}: max |delta| {delta:.3e}, {bits} of {len(u)} fields differ")
    return lines


def flatten(value, prefix: str = "") -> dict[str, str]:
    """The leaves of a JSON value, keyed by their dotted path, each as JSON text."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: json.dumps(value)}
    leaves = {}
    for key, item in items:
        leaves.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return leaves


def json_differences(a: Path, b: Path) -> list[str]:
    """The keys of two JSON files whose values differ or that only one holds."""
    x, y = (flatten(json.loads(path.read_text())) for path in (a, b))
    return [f"key {key}" for key in sorted(x.keys() | y.keys()) if x.get(key) != y.get(key)]


def compare(a: Path, b: Path) -> int:
    """Print how the files of directories a and b differ; 0 when none does, else 1."""
    names_a, names_b = ({p.name for p in d.iterdir() if p.is_file()} for d in (a, b))
    lines = [f"{name}: only in {a if name in names_a else b}"
             for name in sorted(names_a ^ names_b)]
    same = 0
    for name in sorted(names_a & names_b):
        pa, pb = a / name, b / name
        if pa.read_bytes() == pb.read_bytes():
            same += 1
            continue
        if name.endswith(".csv"):
            found = csv_differences(pa, pb)
        elif name.endswith(".json"):
            found = json_differences(pa, pb)
        else:
            found = []
        lines += [f"{name}: {line}" for line in found or ["bytes differ"]]
    print(f"{same} of {len(names_a | names_b)} files byte-identical")
    for line in lines:
        print(line)
    return 1 if lines else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    w = commands.add_parser("write", help="write every preset's outputs into DIR")
    w.add_argument("dir", type=Path)
    w.add_argument("--src", type=Path, default=SRC, help="the src directory to import from")
    c = commands.add_parser("compare", help="compare two directories of outputs")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.dir, args.src.resolve())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
