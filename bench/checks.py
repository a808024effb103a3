"""Checks on the files a CLI command writes, and the accuracy measurement
against the closed-form densities.

Every check returns a list of problems; an empty list means the outputs
passed.  Nothing here imports numpy or blockspec at module level, so the
workload process can time ``import blockspec.cli`` before importing this.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# KS acceptance tolerances of tests/data/pilot_fixtures.json (criterion4),
# by block size, and the matrix size they were calibrated at; smaller
# compare runs (the n = 12 golden case) are held to their golden bytes
# instead.  test_bench.py checks that these still match that file.
KS_TOL = {2: 0.05, 3: 0.07}
KS_MIN_N = 2000

DENSITY_HEADER = "t,density,cdf"

# quad tolerance of the p = 2 closed form when it serves as the reference
ORACLE_QUAD_TOL = 1e-12


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def load_json(path: Path):
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_csv(path: Path) -> tuple[str, list[list[float]]]:
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [[float(cell) for cell in line.split(",")] for line in fh if line.strip()]
    return header, rows


def check_file(path: Path) -> list[str]:
    """Format checks: strict JSON; finite CSV numbers; density CDFs."""
    try:
        if path.suffix == ".json":
            load_json(path)
            return []
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if any(not math.isfinite(x) for row in rows for x in row):
        return [f"{path.name}: non-finite number"]
    if header != DENSITY_HEADER:
        return []
    cdf = [row[2] for row in rows]
    problems = []
    if any(b < a for a, b in zip(cdf, cdf[1:])):
        problems.append(f"{path.name}: CDF decreases")
    if not cdf or abs(cdf[-1] - 1.0) > 1e-12:
        problems.append(f"{path.name}: CDF ends at {cdf[-1] if cdf else None}, not 1")
    return problems


def check_report(command: str, path: Path) -> list[str]:
    """The paper's claims that a compare or gap report must satisfy."""
    if command not in ("compare", "gap"):
        return []
    try:
        report = load_json(path)
        if command == "gap":
            return [
                f"gap: tail bound violated at n={row['n']}"
                for row in report["tail_checks"]
                if row["satisfied"] is not True
            ]
        summary, config = report["summary"], report["config"]
        problems = []
        if summary["bound_checks"]["levy"]["all_satisfied"] is not True:
            problems.append("compare: Levy bound violated")
        tol = KS_TOL[config["p"]]
        if config["n"] >= KS_MIN_N and not summary["median"] <= tol:
            problems.append(f"compare: KS median {summary['median']} > {tol}")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: {exc!r}"]


def sidecar_of(table: Path) -> Path:
    """The JSON sidecar the CLI writes next to a density table."""
    stem = table.stem.removesuffix("_density")
    return table.with_name(stem + ".json")


def oracle_error(table: Path) -> float | None:
    """max |density - closed form| of a p <= 2 density table; None otherwise."""
    header, rows = read_csv(table)
    if header != DENSITY_HEADER:
        return None
    meta = load_json(sidecar_of(table))
    p, gamma = meta["p"], meta["gamma"]
    if p > 2:
        return None
    from blockspec.spectral import arcsine_mixture_density, semicircle_density

    if p == 1:
        ref = [semicircle_density(gamma[0], row[0]) for row in rows]
    else:
        ref = [arcsine_mixture_density(gamma[0], gamma[1], row[0], ORACLE_QUAD_TOL) for row in rows]
    return max(abs(row[1] - r) for row, r in zip(rows, ref))
