"""Regenerate the pinned golden outputs, one configuration per subcommand.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite tests/golden
    PYTHONPATH=src python tests/golden/regenerate.py --check  # only report changes

(plain `python tests/golden/regenerate.py` once the package is installed).
`--check` writes the outputs to a temporary directory instead and prints,
for each golden file, "unchanged" or the largest absolute and relative
change of its numbers and the first line that differs, old -> new (for a
table, its t is the line's first field); it exits 1 when a file changed.

Golden files pin the byte-exact output of fixed CLI invocations (format,
float rendering, draw order, and solver results together).  They are
environment artifacts: if the BLAS/LAPACK build or numpy's SIMD dispatch
changes, inspect the diff and regenerate deliberately.  numpy's AVX-512
kernels of arccos, arcsin, exp and log round differently from libm: with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", as on a CPU
without AVX-512, density.csv and fig1_density.csv change by up to 1.1e-16
and the other files do not.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from blockspec.cli import run

GOLDEN_DIR = Path(__file__).parent

CASES = [
    (["sample", "--n", "12", "--p", "2", "--gamma", "2,8", "--seed", "31",
      "--out", "sample.csv"], ["sample.csv", "sample.json"]),
    (["roots", "--n", "12", "--p", "3", "--gamma", "1,4,25", "--scaled",
      "--out", "roots.csv"], ["roots.csv", "roots.json"]),
    (["density", "--p", "1", "--gamma", "2", "--grid", "120",
      "--out", "density.csv"], ["density.csv", "density.json"]),
    (["oracle", "--p", "2", "--gamma", "2,8", "--grid", "120",
      "--out", "oracle.csv"], ["oracle.csv", "oracle.json"]),
    (["compare", "--n", "12", "--p", "2", "--gamma", "2,8", "--trials", "2",
      "--seed", "8", "--grid", "120", "--out", "compare.json"], ["compare.json"]),
    (["gap", "--n-list", "12,24", "--p", "2", "--gamma", "2,8", "--trials", "2",
      "--seed", "8", "--out", "gap.json"], ["gap.json"]),
    (["figure", "--name", "fig1", "--seed", "1", "--grid", "120",
      "--out", "fig1"], ["fig1_hist.csv", "fig1_density.csv", "fig1.json"]),
]


def numbers(path: Path) -> list[float]:
    """Every number in a golden file: the CSV fields below the header, or
    the JSON numbers in document order (booleans excluded)."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(field) for row in rows for field in row]

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from walk(value)
        elif isinstance(node, list):
            for value in node:
                yield from walk(value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield float(node)

    return list(walk(json.loads(path.read_text())))


def first_difference(old: Path, new: Path) -> str:
    """The first line at which the texts of `old` and `new` differ, both
    versions, or "(end)" for the file that ends before it."""
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
    before, after = (lines[i] if i < len(lines) else "(end)" for lines in (a, b))
    return f"line {i + 1}: {before} -> {after}"


def describe_change(old: Path, new: Path) -> str:
    """"unchanged", or how the numbers of `new` differ from those of `old`,
    and on a second line the first line at which the files differ."""
    if old.read_bytes() == new.read_bytes():
        return "unchanged"
    first = f"\n  first change at {first_difference(old, new)}"
    a, b = numbers(old), numbers(new)
    if len(a) != len(b):
        return f"changed: {len(a)} numbers -> {len(b)}{first}"
    absolute = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    relative = max(
        (abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0
    )
    return (
        f"changed: {len(a)} numbers, max abs change {absolute:.3g}, "
        f"max rel change {relative:.3g}{first}"
    )


def regenerate(out_dir: Path) -> int:
    """Run every case with `out_dir` as the working directory; the
    commands' own messages on stdout are dropped."""
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for argv, _ in CASES:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = run(argv)
            if rc != 0:
                print(f"command failed ({rc}): {argv}", file=sys.stderr)
                return rc
    finally:
        os.chdir(cwd)
    return 0


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: regenerate.py [--check]", file=sys.stderr)
        return 2
    if not argv:
        rc = regenerate(GOLDEN_DIR)
        if rc == 0:
            for _, outputs in CASES:
                for name in outputs:
                    print(f"wrote {GOLDEN_DIR / name}")
        return rc
    with tempfile.TemporaryDirectory() as tmp:
        rc = regenerate(Path(tmp))
        if rc != 0:
            return rc
        changed = False
        for _, outputs in CASES:
            for name in outputs:
                verdict = describe_change(GOLDEN_DIR / name, Path(tmp) / name)
                changed |= verdict != "unchanged"
                print(f"{name}: {verdict}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
