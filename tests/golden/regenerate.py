"""Regenerate the pinned golden outputs, one configuration per subcommand.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

(plain `python tests/golden/regenerate.py` once the package is installed).

Golden files pin the byte-exact output of fixed CLI invocations (format,
float rendering, draw order, and solver results together).  They are
environment artifacts: if the BLAS/LAPACK build changes, inspect the diff
and regenerate deliberately.
"""

import os
import sys
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


def main() -> int:
    os.chdir(GOLDEN_DIR)
    for argv, outputs in CASES:
        rc = run(argv)
        if rc != 0:
            print(f"command failed ({rc}): {argv}", file=sys.stderr)
            return rc
        for name in outputs:
            print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
