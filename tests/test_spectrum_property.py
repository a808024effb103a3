"""Property test of the `sample` and `roots` commands over their flag grammar.

These are the two commands that hand a banded eigensolve a user-chosen n, p,
weights and, for `sample`, seed and stream.  Every argv drawn from their flags
must end in exit 0, 2 or 3 with one line on stderr for a failure, no
traceback and no warning.  Exit 0 must write n finite values in ascending
order and a strict JSON sidecar.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from blockspec.cli import run
from tests.test_oracle_property import MAGNITUDES, strict_json

WEIGHT = st.one_of(st.floats(min_value=0.01, max_value=1000.0), MAGNITUDES)
# the ends of the 64-bit unsigned range and 2**63
SEED = st.one_of(
    st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1)
)


def sometimes(draw, value, bad):
    """value, or about one time in four a draw from the strategy bad."""
    return draw(bad) if draw(st.sampled_from([0, 0, 0, 1])) else value


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


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=spectrum_argv())
# Philox takes a list key holding a small int and one above 2**63 through float64
@example(case=(4, ["sample", "--n=4", "--p=2", "--gamma=1.0,1.0", "--seed=1",
                   f"--stream={2**64 - 1}"]))
def test_spectrum_exit_contract(case):
    n, argv = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                rc = run([*argv, "--out", "o.csv"])
        finally:
            os.chdir(cwd)
        err = stderr.getvalue()
        if rc != 0:
            prefix = "error:" if rc == 2 else "numerical failure:"
            assert rc in (2, 3) and err.startswith(prefix) and err.count("\n") == 1, (rc, err)
            assert sorted(os.listdir(tmp)) == []
            return
        assert err == ""
        sidecar = strict_json(Path(tmp, "o.json").read_text())
        assert sidecar["n"] == n and sidecar["scaled"] == ("--scaled" in argv)
        lines = Path(tmp, "o.csv").read_text().splitlines()
        assert lines[0] == "index,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(1, n + 1))
        values = [float(v) for _, v in rows]
        assert all(math.isfinite(v) for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
