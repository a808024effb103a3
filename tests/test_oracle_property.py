"""Property test of the `oracle` command over its flag grammar.

Every argv drawn from `oracle`'s flags must end in exit 0, 2 or 3 with one
line on stderr for a failure, no traceback and no warning.  Exit 0 must write
only finite CSV values and strict JSON, with a CDF column that starts at
exactly 0.0, ends at exactly 1.0 and never decreases.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from blockspec.cli import run

# magnitudes from a subnormal weight to the largest finite ones
MAGNITUDES = st.sampled_from([1e-308, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e308])
WEIGHT = st.one_of(st.floats(min_value=0.01, max_value=1000.0), MAGNITUDES)


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


def strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(argv=oracle_argv())
def test_oracle_exit_contract(argv):
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
        strict_json(Path(tmp, "o.json").read_text())
        lines = Path(tmp, "o.csv").read_text().splitlines()
        assert lines[0] == "t,density,cdf"
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert all(math.isfinite(x) for row in rows for x in row)
        cdf = [row[2] for row in rows]
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
