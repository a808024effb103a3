"""Property tests of the seven CLI commands over their flag grammar.

Every argv drawn from a command's flags must end in exit 0, 2 or 3 with no
traceback and no warning (`run_checked`): a failure writes one line on
stderr and leaves no file behind, a success writes nothing on stderr.
Exit 0 must write strict JSON, which holds only finite numbers, and CSVs
of finite values: for `sample` and `roots` n values in ascending order,
for `density` and `oracle` a CDF from exactly 0.0 to exactly 1.0
(`check_density_table`).  `sample` and `roots` hand a banded eigensolve a
user-chosen n, p, weights and, for `sample`, seed and stream.  `compare`,
`gap` and `figure` run the density table and their solves through one
`map_trials` pool, and all of these commands check their arguments before
any work starts.  Sizes stay small (n <= 64, trials <= 3, grid 100-300) so
that an example takes a fraction of a second.  `figure` takes its weights
and n from `cli.FIGURES`, which each example replaces by a drawn
configuration.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

from blockspec import cli
from blockspec.cli import run

# magnitudes from a subnormal weight to the largest finite ones
MAGNITUDES = st.sampled_from([1e-308, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e308])
WEIGHT = st.one_of(st.floats(min_value=0.01, max_value=1000.0), MAGNITUDES)
# the ends of the 64-bit unsigned range and 2**63
SEED = st.one_of(
    st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1)
)
QUAD_TOL = st.one_of(
    st.none(),
    st.sampled_from([1e-300, 1e-12, 1e-6, 1.0]),
    st.floats(min_value=1e-10, max_value=1e-3),
)
SETTINGS = settings(max_examples=50, deadline=None, database=None, derandomize=True)


def sometimes(draw, value, bad):
    """value, or about one time in four a draw from the strategy bad."""
    return draw(bad) if draw(st.sampled_from([0, 0, 0, 1])) else value


def strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def run_checked(argv: list[str], out: str, tmp: str) -> int:
    """Run argv in tmp with warnings as errors and check the exit contract."""
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
    assert rc in (0, 2, 3), (rc, err)
    if rc == 0:
        assert err == ""
    else:
        prefix = "error:" if rc == 2 else "numerical failure:"
        assert err.startswith(prefix) and err.count("\n") == 1, (rc, err)
        assert os.listdir(tmp) == []
    return rc


def check_density_table(tmp: str) -> None:
    """The o.csv of `density` or `oracle`: its header, the sidecar's
    grid_size + 1 rows of finite cells, and a CDF that runs from exactly
    0.0 to exactly 1.0 and never decreases."""
    sidecar = strict_json(Path(tmp, "o.json").read_text())
    lines = Path(tmp, "o.csv").read_text().splitlines()
    assert lines[0] == "t,density,cdf" and len(lines) == sidecar["grid_size"] + 2
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert all(math.isfinite(x) for row in rows for x in row)
    cdf = [row[2] for row in rows]
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))


@st.composite
def spectrum_argv(draw):
    command = draw(st.sampled_from(["sample", "roots"]))
    p = draw(st.integers(min_value=1, max_value=4))
    # a valid size, or any size up to 64: mostly below 2p or not divisible by p
    n = draw(st.integers(min_value=2, max_value=64 // p)) * p
    n = sometimes(draw, n, st.integers(min_value=-1, max_value=64))
    gamma = draw(st.lists(WEIGHT, min_size=p, max_size=p))
    gamma = sometimes(
        draw, gamma,
        st.sampled_from([gamma[1:], [*gamma, 1.0], [0.0, *gamma[1:]], [-1.0, *gamma[1:]]]),
    )
    # the --flag=value form keeps a leading minus from reading as a flag
    argv = [command, f"--n={n}", f"--p={p}", "--gamma=" + ",".join(repr(g) for g in gamma)]
    if command == "sample":
        for flag in ("--seed", "--stream"):
            argv.append(f"{flag}={sometimes(draw, draw(SEED), st.sampled_from([-1, 2**64]))}")
    if draw(st.booleans()):
        argv.append("--scaled")
    return n, argv


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


@st.composite
def gammas(draw, p):
    g1 = draw(WEIGHT)
    if p == 1:
        return [g1]
    # gamma2 / gamma1 near 9/4 makes alpha_2 = 2 sqrt(gamma2) - 3 sqrt(gamma1)
    # cancel; the other ratios reach equal, reversed and far-apart weights
    ratio = draw(
        st.one_of(
            st.just(2.25),
            st.floats(min_value=-1e-6, max_value=1e-6).map(lambda d: 2.25 * (1.0 + d)),
            st.sampled_from([1.0, 0.25, 4.0, 9.0, 100.0]),
            st.floats(min_value=0.1, max_value=1e4),
        )
    )
    return [g1, g1 * ratio]


@st.composite
def oracle_argv(draw):
    p = draw(st.sampled_from([1, 2]))
    gamma = draw(gammas(p))
    argv = ["oracle", "--p", str(p), "--gamma", ",".join(repr(g) for g in gamma)]
    argv += ["--grid", str(draw(st.integers(min_value=100, max_value=300)))]
    quad_tol = draw(
        st.one_of(
            st.none(),
            st.sampled_from([1e-300, 1e-14, 1e-12, 1e-10, 1e-6, 1.0]),
            st.floats(min_value=1e-13, max_value=1e-3),
        )
    )
    if quad_tol is not None:
        argv += ["--quad-tol", repr(quad_tol)]
    return argv


@settings(SETTINGS, max_examples=60)
@given(case=spectrum_argv())
# Philox takes a list key holding a small int and one above 2**63 through float64
@example(case=(4, ["sample", "--n=4", "--p=2", "--gamma=1.0,1.0", "--seed=1",
                   f"--stream={2**64 - 1}"]))
def test_spectrum_exit_contract(case):
    n, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.csv", tmp) != 0:
            return
        sidecar = strict_json(Path(tmp, "o.json").read_text())
        assert sidecar["n"] == n and sidecar["scaled"] == ("--scaled" in argv)
        lines = Path(tmp, "o.csv").read_text().splitlines()
        assert lines[0] == "index,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(1, n + 1))
        values = [float(v) for _, v in rows]
        assert all(math.isfinite(v) for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


@SETTINGS
@given(argv=density_argv())
def test_density_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.csv", tmp) == 0:
            check_density_table(tmp)


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


@settings(SETTINGS, max_examples=60)
@given(argv=oracle_argv())
def test_oracle_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if run_checked(argv, "o.csv", tmp) == 0:
            check_density_table(tmp)
