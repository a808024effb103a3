"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest bench -q

Runs each workload once untraced and once traced in this process (about a
minute on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT)]

import checks  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

# span name -> the workload on which the README's layer table expects calls
REACHED = {
    "cli.run": "golden",
    "ensemble.build_G": "sweep",
    "ensemble.build_F_tilde": "sweep",
    "linalg.eigh_banded": "sweep",
    "linalg.eigh_dense": "golden",
    "linalg.spd_inv_sqrt": "golden",
    "spectral.density_grid": "figures",
    "spectral.limit_density": "figures",
    "spectral.quad": "figures",
    "spectral.brentq": "figures",
    "spectral.arcsine_mixture_density": "golden",
    "harness.map_trials": "sweep",
    "harness.gap_report": "sweep",
    "harness.approx_gap": "sweep",
    "harness.empirical_spectrum": "sweep",
    "harness.ks_distance": "sweep",
    "harness.levy_cubed_bound": "sweep",
    "formats.write": "golden",
}
# No CLI command calls these at this commit: the matrixpoly functions are
# library-only until roots are routed through them, and no golden
# configuration runs `oracle --p 1`, the only caller of semicircle_density.
UNREACHED = {"matrixpoly.recurrence_coeffs", "matrixpoly.roots", "spectral.semicircle_density"}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced iteration of every workload."""
    return {
        name: workload.measure(name, 1, 0.0, True, tmp_path_factory.mktemp(name))
        for name in workload.WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_traced_and_untraced_outputs_identical(traced_runs, name):
    result = traced_runs[name]
    assert [it["traced"] for it in result["iterations"]] == [False, True]
    # the traced iteration's files are compared byte for byte with the first
    assert result["failed"] == 0, result["failures"]
    assert result["oracle_err"] is not None and result["oracle_err"] > 0


def test_every_target_has_an_expectation():
    targets = {f"{layer}.{fn}" for layer, fns in spans.TARGETS.items() for fn in fns}
    assert targets == set(REACHED) | UNREACHED


@pytest.mark.parametrize("name", sorted(REACHED))
def test_listed_wrapper_is_reached(traced_runs, name):
    result = traced_runs[REACHED[name]]
    assert name not in result["absent"]
    assert result["layers"][f"{name}.calls"] > 0


def test_children_fit_in_parent_times_workers(tmp_path):
    from blockspec.harness import worker_count

    commands = workload.GOLDEN + [
        workload.Command(("gap", "--n-list", "300,600", "--p", "2", "--gamma", "2,8",
                          "--trials", "4", "--out", "g.json"), ("g.json",)),
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        *_, errors = workload.run_commands(commands, tmp_path / "run")
    finally:
        tracer.uninstall()
    assert errors == [None] * len(commands)
    busy: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            busy[id(span.parent)] = busy.get(id(span.parent), 0.0) + span.end - span.start
    parents = {id(span): span for span in tracer.spans}
    assert any(parents[key].name == "harness.map_trials" for key in busy)
    for key, total in busy.items():
        parent = parents[key]
        assert total <= (parent.end - parent.start) * worker_count() + 1e-6, parent.name


def test_wrappers_replace_every_namespace_and_uninstall():
    import blockspec.cli
    import blockspec.harness
    import blockspec.linalg

    original = blockspec.linalg.eigh_banded
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert blockspec.cli.eigh_banded is blockspec.linalg.eigh_banded
        assert blockspec.harness.eigh_banded is blockspec.linalg.eigh_banded
        assert blockspec.linalg.eigh_banded is not original
    finally:
        tracer.uninstall()
    assert blockspec.cli.eigh_banded is original


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "ensemble", {"build_gone": None})
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ensemble.build_gone"]
    assert tracer.metrics()["ensemble.build_gone.calls"] == 0


def test_golden_commands_match_regenerate():
    from tests.golden.regenerate import CASES

    assert [(list(c.argv), list(c.outputs)) for c in workload.GOLDEN] == CASES


def test_ks_tolerances_match_pilot_fixtures():
    fixtures = json.loads((ROOT / "tests" / "data" / "pilot_fixtures.json").read_text())
    rows = fixtures["criterion4"].values()
    assert {row["p"]: row["ks_tol"] for row in rows} == checks.KS_TOL
    assert min(row["n"] for row in rows) == checks.KS_MIN_N


def test_checks_reject_bad_outputs(tmp_path):
    bad_json = tmp_path / "a.json"
    bad_json.write_text('{"x": NaN}\n')
    assert checks.check_file(bad_json)
    bad_csv = tmp_path / "b.csv"
    bad_csv.write_text("index,value\n1,inf\n")
    assert checks.check_file(bad_csv)
    bad_cdf = tmp_path / "c.csv"
    bad_cdf.write_text("t,density,cdf\n0.0,1.0,0.6\n1.0,1.0,0.5\n")
    assert checks.check_file(bad_cdf) == ["c.csv: CDF decreases", "c.csv: CDF ends at 0.5, not 1"]


def test_repeat_check_flags_changed_bytes(tmp_path):
    cmd = workload.Command(("gap",), ("gap.json",))
    for name, text in (("first", "{}\n"), ("later", '{"a": 1}\n')):
        (tmp_path / name).mkdir()
        (tmp_path / name / "gap.json").write_text(text)
    problems = workload.check_command(cmd, tmp_path / "later", tmp_path / "first", False)
    assert "gap.json: bytes differ from the run's first iteration" in problems


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
