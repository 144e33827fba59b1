"""Count the lines of the package's source by kind.

    python tools/src_lines.py

Each line of src/bellsteer/*.py, in the checkout that holds this script, is
one of:

- docstring: a line of a module, class or function docstring;
- comment: a line that holds only a comment;
- blank: an empty line, also inside a docstring;
- code: any other line.

It prints one row per file and a total row, each with the four counts and
the file's line total, which they sum to.
"""

import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src" / "bellsteer"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a parsed module span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The number of lines of each kind in the Python file at path."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def row(name: str, cells) -> str:
    return f"{name:<16}" + "".join(f"{cell:>10}" for cell in cells)


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(row("file", (*KINDS, "total")))
    for path in sorted(SRC.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(row(path.name, (*counts.values(), sum(counts.values()))))
    print(row("total", (*total.values(), sum(total.values()))))


if __name__ == "__main__":
    main()
