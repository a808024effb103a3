"""Property tests of the `density`, `compare`, `gap` and `figure` commands
over their flag grammar.

`compare`, `gap` and `figure` run the density table and their solves through
one `map_trials` pool, and all four commands check their arguments before any
work starts.  Every argv drawn from their flags must end in exit 0, 2 or 3
with one line on stderr for a failure, no traceback, no warning and no file
left behind.  Exit 0 must write strict JSON, which holds only finite numbers,
and CSVs of finite values; for `density` the CDF runs from exactly 0.0 to
exactly 1.0.  Sizes stay small (n <= 60, trials <= 3, grid 100-200) so that
an example takes a fraction of a second.  `figure` takes its weights and n
from `cli.FIGURES`, which each example replaces by a drawn configuration.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from blockspec import cli
from blockspec.cli import run
from tests.test_oracle_property import MAGNITUDES, strict_json
from tests.test_spectrum_property import SEED, sometimes

WEIGHT = st.one_of(st.floats(min_value=0.01, max_value=1000.0), MAGNITUDES)
QUAD_TOL = st.one_of(
    st.none(),
    st.sampled_from([1e-300, 1e-12, 1e-6, 1.0]),
    st.floats(min_value=1e-10, max_value=1e-3),
)
SETTINGS = settings(max_examples=50, deadline=None, database=None, derandomize=True)


@st.composite
def weights(draw):
    """(p, gamma); about one time in four the weights are wrong in count or
    sign, or empty."""
    p = draw(st.integers(min_value=1, max_value=3))
    gamma = draw(st.lists(WEIGHT, min_size=p, max_size=p))
    gamma = sometimes(
        draw, gamma,
        st.sampled_from([gamma[1:], [*gamma, 1.0], [0.0, *gamma[1:]], [-1.0, *gamma[1:]]]),
    )
    return p, gamma


@st.composite
def weight_flags(draw):
    """(p, ["--p=..", "--gamma=.."]) for weights()."""
    p, gamma = draw(weights())
    # the --flag=value form keeps a leading minus from reading as a flag
    return p, [f"--p={p}", "--gamma=" + ",".join(repr(g) for g in gamma)]


def size(draw, p: int) -> int:
    """A valid size up to 60, or a size up to 60 that is mostly invalid."""
    n = draw(st.integers(min_value=2, max_value=60 // p)) * p
    return sometimes(draw, n, st.integers(min_value=-1, max_value=60))


def table_flags(draw) -> list[str]:
    grid = sometimes(draw, draw(st.integers(min_value=100, max_value=200)), st.just(99))
    quad_tol = draw(QUAD_TOL)
    return [f"--grid={grid}"] + ([] if quad_tol is None else [f"--quad-tol={quad_tol!r}"])


def trial_flags(draw) -> list[str]:
    trials = sometimes(draw, draw(st.integers(min_value=1, max_value=3)), st.integers(-1, 0))
    seed = sometimes(draw, draw(SEED), st.sampled_from([-1, 2**64]))
    return [f"--trials={trials}", f"--seed={seed}"]


@st.composite
def density_argv(draw):
    _, weights = draw(weight_flags())
    return ["density", *weights, *table_flags(draw)]


@st.composite
def compare_argv(draw):
    p, weights = draw(weight_flags())
    n = size(draw, p)
    return ["compare", f"--n={n}", *weights, *trial_flags(draw), *table_flags(draw)]


@st.composite
def gap_argv(draw):
    p, weights = draw(weight_flags())
    sizes = [size(draw, p) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    argv = ["gap", "--n-list=" + ",".join(map(str, sizes)), *weights, *trial_flags(draw)]
    epsilon = draw(
        st.one_of(
            st.none(),
            st.sampled_from([0.0, 30.0, 1e300, -1.0, math.inf, math.nan]),
            st.floats(min_value=0.0, max_value=100.0),
        )
    )
    return argv if epsilon is None else [*argv, f"--epsilon={epsilon!r}"]


@st.composite
def figure_case(draw):
    """(the FIGURES entry to replace, its drawn (gamma, n), argv)."""
    name = draw(st.sampled_from(sorted(cli.FIGURES)))
    p, gamma = draw(weights())
    seed = sometimes(draw, draw(SEED), st.sampled_from([-1, 2**64]))
    argv = ["figure", f"--name={name}", f"--seed={seed}", *table_flags(draw)]
    return name, (tuple(gamma), size(draw, p)), argv


def run_checked(argv: list[str], out: str, tmp: str) -> int:
    """Run argv in tmp with warnings as errors and check the failure contract."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            rc = run([*argv, "--out", out])
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    if rc == 0:
        assert err == ""
    else:
        prefix = "error:" if rc == 2 else "numerical failure:"
        assert rc in (2, 3) and err.startswith(prefix) and err.count("\n") == 1, (rc, err)
        assert os.listdir(tmp) == []
    return rc


@SETTINGS
@given(argv=density_argv())
def test_density_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.csv", tmp) != 0:
            return
        sidecar = strict_json(Path(tmp, "o.json").read_text())
        lines = Path(tmp, "o.csv").read_text().splitlines()
        assert lines[0] == "t,density,cdf" and len(lines) == sidecar["grid_size"] + 2
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert all(math.isfinite(x) for row in rows for x in row)
        cdf = [row[2] for row in rows]
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))


@SETTINGS
@given(argv=compare_argv())
def test_compare_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.json", tmp) != 0:
            return
        report = strict_json(Path(tmp, "o.json").read_text())
        trials = report["config"]["trials"]
        assert [row["trial"] for row in report["per_trial"]] == list(range(trials))
        assert report["summary"]["bound_checks"]["levy"]["checked"] == trials


@SETTINGS
@given(argv=gap_argv())
def test_gap_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.json", tmp) != 0:
            return
        report = strict_json(Path(tmp, "o.json").read_text())
        sizes = report["config"]["n_list"]
        assert [row["n"] for row in report["gap_table"]] == sizes
        assert [row["n"] for row in report["tail_checks"]] == sizes
        for row in report["gap_table"]:
            assert len(row["max_gaps"]) == report["config"]["trials"]


# about one example in four reaches exit 0, so more examples than the rest
@settings(SETTINGS, max_examples=150)
@given(case=figure_case())
def test_figure_exit_contract(case):
    name, config, argv = case
    with tempfile.TemporaryDirectory() as tmp, patch.dict(cli.FIGURES, {name: config}):
        if run_checked(argv, "o", tmp) != 0:
            return
        sidecar = strict_json(Path(tmp, "o.json").read_text())
        assert sidecar["figure"] == name and sidecar["n"] == config[1]
        for csv in ("o_hist.csv", "o_density.csv"):
            lines = Path(tmp, csv).read_text().splitlines()
            cells = [float(cell) for line in lines[1:] for cell in line.split(",")]
            assert cells and all(math.isfinite(x) for x in cells)
        assert sorted(os.listdir(tmp)) == ["o.json", "o_density.csv", "o_hist.csv"]
