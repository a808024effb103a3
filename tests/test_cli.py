"""CLI behavior: subcommand outputs, exit codes, and bit-stable reruns."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blockspec
import blockspec.cli
import blockspec.harness
import blockspec.linalg
import blockspec.matrixpoly
import blockspec.spectral
from blockspec.cli import FIGURES, run
from blockspec.spectral import semicircle_density
from tests.oracles import read_density_csv, read_histogram_csv, read_json, read_spectrum_csv


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return run(argv)


@pytest.fixture
def solve_sizes(monkeypatch):
    """The size of every banded eigensolve a command makes, in call order."""
    solve = blockspec.linalg.eigh_banded
    sizes = []

    def counted(matrix):
        sizes.append(matrix.dim)
        return solve(matrix)

    for module in (blockspec.cli, blockspec.harness, blockspec.linalg, blockspec.matrixpoly):
        monkeypatch.setattr(module, "eigh_banded", counted)
    return sizes


class TestSubcommands:
    def test_sample(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["sample", "--n", "12", "--p", "2", "--gamma", "2,8", "--seed", "42"],
        )
        assert rc == 0
        values = read_spectrum_csv(tmp_path / "spectrum.csv")
        assert len(values) == 12
        assert np.all(np.diff(values) >= 0)
        sidecar = read_json(tmp_path / "spectrum.json")
        assert sidecar == {
            "n": 12, "p": 2, "gamma": [2.0, 8.0],
            "seed": {"master": 42, "stream": 0}, "scaled": False,
        }

    def test_sample_scaled_relation(self, tmp_path, monkeypatch):
        argv = ["sample", "--n", "8", "--p", "1", "--gamma", "2", "--seed", "5"]
        assert run_in(tmp_path, monkeypatch, argv + ["--out", "raw.csv"]) == 0
        assert run_in(tmp_path, monkeypatch, argv + ["--scaled", "--out", "sc.csv"]) == 0
        raw = read_spectrum_csv(tmp_path / "raw.csv")
        scaled = read_spectrum_csv(tmp_path / "sc.csv")
        np.testing.assert_array_equal(scaled, raw / math.sqrt(8))

    def test_roots(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["roots", "--n", "12", "--p", "3", "--gamma", "1,4,25", "--scaled"],
        )
        assert rc == 0
        values = read_spectrum_csv(tmp_path / "roots.csv")
        assert len(values) == 12
        assert read_json(tmp_path / "roots.json")["seed"] is None

    def test_density_normalized(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["density", "--p", "1", "--gamma", "2", "--grid", "400"],
        )
        assert rc == 0
        table = read_density_csv(tmp_path / "density.csv")
        mass = np.trapezoid(table.density, table.grid)
        assert abs(mass - 1.0) <= 1e-3
        sidecar = read_json(tmp_path / "density.json")
        assert sidecar["grid_size"] == 400
        assert sidecar["support"] == [-2.0, 2.0]
        # the CDF column is the raw closed-form CDF, held to quad_tol
        assert table.cdf[0] == 0.0 and abs(table.cdf[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert 0.0 < sidecar["quad_err_est"] <= sidecar["quad_tol"]

    def test_oracle_matches_density(self, tmp_path, monkeypatch):
        base = ["--p", "2", "--gamma", "2,8", "--grid", "150"]
        assert run_in(tmp_path, monkeypatch, ["density", *base, "--quad-tol", "1e-8",
                                              "--out", "d.csv"]) == 0
        assert run_in(tmp_path, monkeypatch, ["oracle", *base, "--out", "o.csv"]) == 0
        d = read_density_csv(tmp_path / "d.csv")
        o = read_density_csv(tmp_path / "o.csv")
        np.testing.assert_array_equal(d.grid, o.grid)
        assert np.abs(d.density - o.density).max() <= 1e-4
        assert read_json(tmp_path / "o.json")["kind"] == "arcsine-mixture"

    def test_compare_report(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["compare", "--n", "60", "--p", "2", "--gamma", "2,8",
             "--trials", "3", "--seed", "11", "--grid", "120"],
        )
        assert rc == 0
        report = read_json(tmp_path / "compare.json")
        assert report["config"]["trials"] == 3
        assert len(report["per_trial"]) == 3
        for row in report["per_trial"]:
            assert set(row) >= {"trial", "max_gap", "ks"}
            assert row["levy_ok"]
        assert report["summary"]["bound_checks"]["levy"]["violations"] == 0

    def test_gap_report(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["gap", "--n-list", "60,120", "--p", "1", "--gamma", "1",
             "--trials", "4", "--seed", "2", "--epsilon", "30"],
        )
        assert rc == 0
        report = read_json(tmp_path / "gap.json")
        assert [row["n"] for row in report["gap_table"]] == [60, 120]
        assert all(len(row["max_gaps"]) == 4 for row in report["gap_table"])
        assert all(check["satisfied"] for check in report["tail_checks"])

    def test_gap_rows_follow_list_order(self, tmp_path, monkeypatch, solve_sizes):
        # the solves start largest first (one thread runs them in that
        # order); the rows keep the order of --n-list
        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        rc = run_in(
            tmp_path, monkeypatch,
            ["gap", "--n-list", "60,120,30", "--p", "1", "--gamma", "1",
             "--trials", "2", "--seed", "2"],
        )
        assert rc == 0
        report = read_json(tmp_path / "gap.json")
        assert [row["n"] for row in report["gap_table"]] == [60, 120, 30]
        assert [check["n"] for check in report["tail_checks"]] == [60, 120, 30]
        assert solve_sizes == [120] * 3 + [60] * 3 + [30] * 3

    def test_figure_outputs(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["figure", "--name", "fig1", "--seed", "1", "--grid", "120"],
        )
        assert rc == 0
        centers, heights = read_histogram_csv(tmp_path / "fig1_hist.csv")
        table = read_density_csv(tmp_path / "fig1_density.csv")
        sidecar = read_json(tmp_path / "fig1.json")
        assert sidecar["n"] == 5000
        assert sidecar["binning"]["rule"] == "freedman-diaconis"
        assert sidecar["binning"]["bins"] == len(centers)
        # histogram is a probability density over the scaled spectrum
        width = sidecar["binning"]["bin_width"]
        assert np.sum(heights) * width == pytest.approx(1.0, abs=1e-9)
        assert abs(np.trapezoid(table.density, table.grid) - 1.0) <= 1e-3

    def test_figure_p3_config(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["figure", "--name", "fig4", "--seed", "2", "--grid", "120",
             "--out", "out/fig4"],
        )
        assert rc == 0
        sidecar = read_json(tmp_path / "out" / "fig4.json")
        assert sidecar["n"] == 5001
        assert sidecar["gamma"] == [1.0, 4.0, 25.0]
        centers, _ = read_histogram_csv(tmp_path / "out" / "fig4_hist.csv")
        table = read_density_csv(tmp_path / "out" / "fig4_density.csv")
        # histogram support sits inside the tabulated support
        lo, hi = table.grid[0], table.grid[-1]
        assert lo < centers.min() and centers.max() < hi

    def test_all_figures_track_their_limit_density(self, tmp_path, monkeypatch):
        # full-scale weak-convergence check: the histogram of the scaled
        # spectrum should sit on the limit density for every configuration
        # (pilot deviation 0.2-0.4% of peak; threshold 2% gives headroom)
        for name in sorted(FIGURES):
            rc = run_in(
                tmp_path, monkeypatch,
                ["figure", "--name", name, "--seed", "20260810"],
            )
            assert rc == 0
            centers, heights = read_histogram_csv(tmp_path / f"{name}_hist.csv")
            table = read_density_csv(tmp_path / f"{name}_density.csv")
            density_at = np.interp(centers, table.grid, table.density)
            deviation = np.mean(np.abs(heights - density_at)) / table.density.max()
            assert deviation <= 0.02, (name, deviation)

    def test_figure_configs_are_pinned(self):
        assert FIGURES == {
            "fig1": (2, (2.0, 8.0), 5000),
            "fig2": (2, (1.0, 100.0), 5000),
            "fig3": (3, (4.0, 4.0, 100.0), 5001),
            "fig4": (3, (1.0, 4.0, 25.0), 5001),
            "fig5": (3, (1.0, 100.0, 200.0), 5001),
        }


def child_env():
    """The environment for a child ``python -m blockspec.cli``.

    PYTHONPATH begins with the absolute directory holding the ``blockspec``
    this suite imported, so the child runs the same code from any working
    directory; a relative entry such as ``src`` would be looked up under the
    child's cwd.  Whatever PYTHONPATH was set stays after it.
    """
    env = dict(os.environ)
    root = str(Path(blockspec.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


class TestModuleEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "blockspec.cli",
             "sample", "--n", "8", "--p", "1", "--gamma", "2", "--seed", "3"],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "spectrum.csv").exists()

    def test_module_invocation_validation_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "blockspec.cli",
             "sample", "--n", "9", "--p", "2", "--gamma", "2,8", "--seed", "3"],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")


IMPORT_CHECK = """
import sys

import numpy as np

if sys.argv[1] == "scipy-first":
    import scipy.linalg
import blockspec.cli
from blockspec import linalg

if sys.argv[1] == "blockspec-first":
    loaded = [m for m in ("scipy.linalg", "scipy.integrate") if m in sys.modules]
    assert not loaded, loaded
import scipy.linalg.cython_lapack

assert scipy.linalg.cython_lapack is linalg._CYTHON_LAPACK
assert scipy.linalg.cython_lapack.__pyx_capi__["dsbevd"] is not None
import scipy.linalg
from blockspec.ensemble import GammaWeights, RngSeed, build_G

m = build_G(60, GammaWeights(2, (2.0, 8.0)), RngSeed(5, 0))
expected = np.sort(scipy.linalg.eigvals_banded(m.scipy_band_upper(), lower=False))
assert np.array_equal(linalg.eigh_banded(m), expected)
"""


class TestImportHygiene:
    """blockspec loads scipy.linalg.cython_lapack on its own, without the
    scipy.linalg package, and leaves a later scipy import working."""

    @pytest.mark.parametrize("order", ["blockspec-first", "scipy-first"])
    def test_cython_lapack_shared_with_scipy(self, tmp_path, order):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CHECK, order],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_gamma_count_mismatch(self, tmp_path, monkeypatch, capsys):
        rc = run_in(
            tmp_path, monkeypatch,
            ["sample", "--n", "12", "--p", "2", "--gamma", "2", "--seed", "1"],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_indivisible_n(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["sample", "--n", "13", "--p", "2", "--gamma", "2,8", "--seed", "1"],
        )
        assert rc == 2

    def test_unknown_flag(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["sample", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["frobnicate"]) == 2
        capsys.readouterr()

    def test_singular_weights_rejected_as_validation(self, tmp_path, monkeypatch, capsys):
        # equal p = 2 weights make the coupling block singular outright
        rc = run_in(
            tmp_path, monkeypatch,
            ["density", "--p", "2", "--gamma", "4,4", "--grid", "100"],
        )
        assert rc == 2
        assert "singular" in capsys.readouterr().err

    def test_indefinite_weights_fail_numerically(self, tmp_path, monkeypatch, capsys):
        # reversed p = 2 weights give an invertible but indefinite block
        rc = run_in(
            tmp_path, monkeypatch,
            ["density", "--p", "2", "--gamma", "8,2", "--grid", "100"],
        )
        assert rc == 3
        assert "positive definite" in capsys.readouterr().err

    def test_indefinite_weights_oracle_names_a0(self, tmp_path, monkeypatch, capsys):
        # A0 has eigenvalues sqrt(2/2) +- sqrt(8/2); the oracle's quadrature
        # would integrate a divergent branch instead
        rc = run_in(
            tmp_path, monkeypatch,
            ["oracle", "--p", "2", "--gamma", "8,2", "--grid", "100"],
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "positive definite A0" in err and "-1.000000e+00" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "8", "--p", "1", "--gamma", "nan", "--seed", "1"],
            ["sample", "--n", "8", "--p", "1", "--gamma", "inf", "--seed", "1"],
            ["density", "--p", "1", "--gamma", "nan", "--grid", "100"],
            ["density", "--p", "1", "--gamma", "2", "--grid", "100", "--quad-tol", "nan"],
            ["density", "--p", "1", "--gamma", "2", "--grid", "100", "--quad-tol", "inf"],
            ["oracle", "--p", "1", "--gamma", "2", "--grid", "100", "--quad-tol", "nan"],
            ["gap", "--n-list", "12", "--p", "1", "--gamma", "1", "--trials", "2",
             "--epsilon", "nan"],
        ],
        ids=["sample-gamma-nan", "sample-gamma-inf", "density-gamma-nan",
             "density-quad-tol-nan", "density-quad-tol-inf", "oracle-quad-tol-nan",
             "gap-epsilon-nan"],
    )
    def test_nonfinite_parameters_rejected(self, tmp_path, monkeypatch, capsys, argv):
        assert run_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_unattainable_quad_tol_fails_numerically(self, tmp_path, monkeypatch, capsys):
        rc = run_in(
            tmp_path, monkeypatch,
            ["density", "--p", "1", "--gamma", "2", "--grid", "100", "--quad-tol", "1e-300"],
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "quad_tol 1e-300" in err
        assert list(tmp_path.iterdir()) == []

    def test_huge_weight_oracle_writes_finite_rows(self, tmp_path, monkeypatch, capsys):
        # at gamma = 1e308 both 2 gamma and t^2 overflow near the support edge
        base = ["--p", "1", "--gamma", "1e308", "--grid", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_in(tmp_path, monkeypatch, ["oracle", *base, "--out", "o.csv"]) == 0
            assert run_in(tmp_path, monkeypatch, ["density", *base, "--out", "d.csv"]) == 0
        assert capsys.readouterr().err == ""
        o = read_density_csv(tmp_path / "o.csv")
        d = read_density_csv(tmp_path / "d.csv")
        assert np.isfinite(o.density).all() and np.isfinite(o.cdf).all()
        np.testing.assert_array_equal(o.grid, d.grid)
        ref = np.array([semicircle_density(1e308, t) for t in d.grid])
        peak = ref.max()
        assert np.abs(d.density - ref).max() <= 1e-6 * peak
        # the oracle table is the closed form itself, not rescaled
        np.testing.assert_array_equal(o.density, ref)
        assert o.cdf[0] == 0.0 and o.cdf[-1] == 1.0

    def test_oracle_quad_tol_is_enforced(self, tmp_path, monkeypatch, capsys):
        rc = run_in(
            tmp_path, monkeypatch,
            ["oracle", "--p", "2", "--gamma", "2,8", "--grid", "100", "--quad-tol", "1e-300"],
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: arcsine mixture quadrature at x = ")
        assert "share 5.000e-301 of quad_tol 1e-300" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_oracle_value_fails_numerically(self, tmp_path, monkeypatch, capsys):
        # a NaN from the closed form is caught by the table, not written
        monkeypatch.setattr(blockspec.spectral, "semicircle_density", lambda g, t: math.nan)
        rc = run_in(tmp_path, monkeypatch, ["oracle", "--p", "1", "--gamma", "2", "--grid", "100"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: non-finite density value nan at t = -2.0\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_tiny_weight_fails_in_quadrature_not_definiteness(
        self, tmp_path, monkeypatch, capsys
    ):
        # A0 = [[7.07e-151]] is positive definite at any scale; the absolute
        # quad_tol is what this configuration cannot meet
        rc = run_in(
            tmp_path, monkeypatch,
            ["compare", "--n", "8", "--p", "1", "--gamma", "1e-300", "--trials", "2",
             "--grid", "100"],
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: limit density quadrature at t = ")
        assert "exceeds its share 5.000e-07 of quad_tol 1e-06" in err
        assert "positive definite" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "8", "--p", "2", "--gamma", "1e308,1e308"],
            ["roots", "--n", "8", "--p", "2", "--gamma", "1e308,1e308"],
            ["gap", "--n-list", "8", "--p", "2", "--gamma", "1e308,1e308", "--trials", "2"],
        ],
        ids=["sample", "roots", "gap"],
    )
    def test_overflowing_weight_rejected(self, tmp_path, monkeypatch, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --gamma")
        assert "n=8" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--n", "7", "--p", "2", "--gamma", "2,8"],
            ["roots", "--n", "2", "--p", "2", "--gamma", "2,8"],
            ["compare", "--n", "7", "--p", "2", "--gamma", "2,8", "--trials", "1",
             "--grid", "100"],
            ["compare", "--n", "2", "--p", "2", "--gamma", "2,8", "--trials", "1",
             "--grid", "100"],
            ["gap", "--n-list", "7", "--p", "2", "--gamma", "2,8", "--trials", "1"],
            ["gap", "--n-list", "2", "--p", "2", "--gamma", "2,8", "--trials", "1"],
        ],
        ids=["roots-indivisible", "roots-below-2p", "compare-indivisible",
             "compare-below-2p", "gap-indivisible", "gap-below-2p"],
    )
    def test_bad_size_rejected(self, tmp_path, monkeypatch, capsys, argv):
        assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n=") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gap", "--n-list", "200,400", "--p", "2", "--gamma", "2,8", "--trials", "3",
              "--epsilon", "-1"], "error: epsilon must be finite and >= 0, got -1.0"),
            (["gap", "--n-list", "200,7", "--p", "2", "--gamma", "2,8", "--trials", "3"],
             "error: n=7 must be divisible by p=2"),
            (["gap", "--n-list", "200,2", "--p", "1", "--gamma", "1", "--trials", "3"],
             "error: n must be >= 3 so that log n > 1, got 2"),
            (["gap", "--n-list", "200,400", "--p", "2", "--gamma", "2,8", "--trials", "0"],
             "error: trials must be >= 1, got 0"),
            (["figure", "--name", "fig1", "--grid", "50"],
             "error: grid_size must be >= 100, got 50"),
            (["figure", "--name", "fig1", "--quad-tol", "0"],
             "error: quad_tol must be positive and finite, got 0.0"),
            (["compare", "--n", "12", "--p", "2", "--gamma", "2,8", "--grid", "50"],
             "error: grid_size must be >= 100, got 50"),
            (["compare", "--n", "12", "--p", "2", "--gamma", "4,4"],
             "error: A0 is singular for these gamma weights"),
        ],
        ids=["gap-epsilon", "gap-indivisible-second", "gap-n-below-3", "gap-trials",
             "figure-grid", "figure-quad-tol", "compare-grid", "compare-singular-a0"],
    )
    def test_arguments_checked_before_any_solve(
        self, tmp_path, monkeypatch, capsys, solve_sizes, argv, message
    ):
        assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert solve_sizes == []
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gap_nonpositive_trials_rejected(self, tmp_path, monkeypatch, capsys, trials):
        rc = run_in(
            tmp_path, monkeypatch,
            ["gap", "--n-list", "12", "--p", "2", "--gamma", "2,8", "--trials", trials],
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "gap.json").exists()

    @pytest.mark.parametrize("out", ["blocker/out.csv", "blocker/sub/out.csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "8", "--p", "1", "--gamma", "2", "--seed", "1"],
            ["compare", "--n", "8", "--p", "1", "--gamma", "2", "--trials", "2",
             "--grid", "100"],
        ],
        ids=["sample", "compare"],
    )
    def test_unwritable_out_rejected(self, tmp_path, monkeypatch, capsys, argv, out):
        # a regular file where the output's parent directory should be
        (tmp_path / "blocker").write_text("")
        assert run_in(tmp_path, monkeypatch, argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "blocker" in err
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv,outputs",
        [
            (["sample", "--n", "12", "--p", "2", "--gamma", "2,8", "--seed", "9"],
             ["spectrum.csv", "spectrum.json"]),
            (["roots", "--n", "12", "--p", "2", "--gamma", "2,8"],
             ["roots.csv", "roots.json"]),
            (["density", "--p", "1", "--gamma", "2", "--grid", "120"],
             ["density.csv", "density.json"]),
            (["oracle", "--p", "1", "--gamma", "2", "--grid", "120"],
             ["oracle.csv", "oracle.json"]),
            (["compare", "--n", "20", "--p", "2", "--gamma", "2,8",
              "--trials", "2", "--seed", "4", "--grid", "120"],
             ["compare.json"]),
            (["gap", "--n-list", "40", "--p", "1", "--gamma", "1",
              "--trials", "3", "--seed", "4"],
             ["gap.json"]),
        ],
    )
    def test_rerun_is_bit_identical(self, tmp_path, monkeypatch, argv, outputs):
        assert run_in(tmp_path, monkeypatch, argv) == 0
        first = {name: (tmp_path / name).read_bytes() for name in outputs}
        assert run_in(tmp_path, monkeypatch, argv) == 0
        for name in outputs:
            assert (tmp_path / name).read_bytes() == first[name], name

    @pytest.mark.parametrize(
        "argv,output",
        [
            (["compare", "--n", "600", "--p", "3", "--gamma", "1,4,25",
              "--trials", "4", "--seed", "6", "--grid", "100"], "compare.json"),
            (["gap", "--n-list", "600,1200", "--p", "2", "--gamma", "2,8",
              "--trials", "4", "--seed", "6"], "gap.json"),
            (["figure", "--name", "fig3", "--grid", "100"], "fig3_density.csv"),
            # an unsorted list: solves run largest first, rows keep list order
            (["gap", "--n-list", "1200,300,600", "--p", "2", "--gamma", "2,8",
              "--trials", "3", "--seed", "6"], "gap.json"),
        ],
    )
    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch, argv, output):
        # sizes at which the banded solves and the density table overlap on
        # two threads; every file the command writes is compared
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
            workdir = tmp_path / threads
            workdir.mkdir()
            assert run_in(workdir, monkeypatch, argv) == 0
            outputs[threads] = {path.name: path.read_bytes() for path in workdir.iterdir()}
        assert output in outputs["1"]
        assert outputs["1"] == outputs["2"]

    def test_worker_count_does_not_change_failure(self, tmp_path, monkeypatch, capsys,
                                                  solve_sizes):
        # the density table is the first task: its exit-3 failure is the one
        # reported, and on one thread it comes before any solve
        argv = ["compare", "--n", "3000", "--p", "3", "--gamma", "1,4,25",
                "--quad-tol", "1e-300"]
        results = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
            solve_sizes.clear()
            rc = run_in(tmp_path, monkeypatch, argv)
            results[threads] = (rc, capsys.readouterr().err)
            if threads == "1":
                assert solve_sizes == []
        assert results["1"] == results["2"]
        rc, err = results["1"]
        assert rc == 3 and err.count("\n") == 1
        assert err.startswith("numerical failure: limit density quadrature at t = ")
        assert list(tmp_path.iterdir()) == []
