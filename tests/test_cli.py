"""CLI behavior: subcommand outputs, exit codes, and bit-stable reruns."""

import math
import os
import shlex
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
from blockspec.ensemble import GammaWeights, RngSeed
from blockspec.errors import ConvergenceError, NumericalError
from blockspec.harness import empirical_spectrum
from blockspec.spectral import density_grid, semicircle_density
from tests.golden.regenerate import CASES as GOLDEN_CASES, GOLDEN_DIR
from tests.oracles import read_density_csv, read_histogram_csv, read_json, read_spectrum_csv


# the messages for an --out whose JSON sidecar would not be a file of its
# own, and for one that names no file
OUT_REJECTED = "'{}' leaves no separate path for the table's JSON sidecar"
NO_FILE = "'{}' names no file"
# the start of the message for weights whose A0 is invertible but
# indefinite, up to its smallest eigenvalue
INDEFINITE_A0 = "A0 is not positive definite: smallest eigenvalue "


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return run(argv)


def stage_message(call, *args) -> str:
    """The message of the NumericalError that call(*args) raises, which an
    exit 3 prints after the command and its options."""
    with pytest.raises(NumericalError) as info:
        call(*args)
    return str(info.value)


@pytest.fixture
def solve_sizes(monkeypatch):
    """The size of every banded eigensolve a command makes, in call order."""
    solve = blockspec.linalg.eigh_banded
    sizes = []

    def counted(matrix):
        sizes.append(matrix.dim)
        return solve(matrix)

    for module in (blockspec.harness, blockspec.linalg, blockspec.matrixpoly):
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
        oracle_sidecar = read_json(tmp_path / "o.json")
        assert oracle_sidecar["kind"] == "arcsine-mixture"
        assert "quad_err_est" not in oracle_sidecar

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
        assert 0.0 < report["summary"]["quad_err_est"] <= report["config"]["quad_tol"]

    def test_gap_report(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["gap", "--n-list", "60,120", "--p", "1", "--gamma", "1",
             "--trials", "4", "--seed", "2", "--epsilon", "30"],
        )
        assert rc == 0
        report = read_json(tmp_path / "gap.json")
        assert [row["n"] for row in report["gap_table"]] == [60, 120]
        for row in report["gap_table"]:
            assert len(row["max_gaps"]) == 4
            # bit for bit: each max gap divided by sqrt(log n)
            scaled = np.array(row["max_gaps"]) / math.sqrt(math.log(row["n"]))
            assert row["scaled_gaps"] == scaled.tolist()
            assert row["median_scaled"] == float(np.median(scaled))
            assert row["p90_scaled"] == float(np.quantile(scaled, 0.9))
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

    def test_repeated_command_reuses_its_roots(self, tmp_path, monkeypatch, solve_sizes):
        # the roots depend only on (n, gamma): in one process a second
        # compare or gap of the same configuration makes only its sampled
        # solves, and writes the same bytes as the first
        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        cases = [
            (["compare", "--n", "60", "--p", "3", "--gamma", "1,4,25", "--trials", "3",
              "--seed", "5", "--grid", "100"], "compare.json", [60] * 4, [60] * 3),
            (["gap", "--n-list", "60,120", "--p", "2", "--gamma", "2,8", "--trials", "2",
              "--seed", "5"], "gap.json", [120] * 3 + [60] * 3, [120] * 2 + [60] * 2),
        ]
        for argv, output, first, again in cases:
            written = []
            for expected in (first, again):
                solve_sizes.clear()
                assert run_in(tmp_path, monkeypatch, argv) == 0
                assert solve_sizes == expected
                written.append((tmp_path / output).read_bytes())
            assert written[0] == written[1]

    def test_figure_outputs(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["figure", "--name", "fig1", "--seed", "1", "--grid", "120"],
        )
        assert rc == 0
        centers, heights = read_histogram_csv(tmp_path / "fig1_hist.csv")
        table = read_density_csv(tmp_path / "fig1_density.csv", tmp_path / "fig1.json")
        sidecar = read_json(tmp_path / "fig1.json")
        assert sidecar["n"] == 5000
        assert sidecar["binning"]["rule"] == "freedman-diaconis"
        assert sidecar["binning"]["bins"] == len(centers)
        # histogram is a probability density over the scaled spectrum
        width = sidecar["binning"]["bin_width"]
        assert np.sum(heights) * width == pytest.approx(1.0, abs=1e-9)
        assert abs(np.trapezoid(table.density, table.grid) - 1.0) <= 1e-3
        assert 0.0 < sidecar["quad_err_est"] <= sidecar["quad_tol"]

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["sample", "--n", "8", "--p", "1", "--gamma", "2", "--out", "sub/s.csv"],
             "wrote sub/s.csv and sub/s.json"),
            (["gap", "--n-list", "8", "--p", "1", "--gamma", "2", "--trials", "2",
              "--out", "./g.json"], "wrote ./g.json"),
            (["figure", "--name", "fig1", "--grid", "100", "--out", "sub/f"],
             "wrote sub/f_hist.csv, sub/f_density.csv and sub/f.json"),
        ],
        ids=["sample", "gap", "figure"],
    )
    def test_wrote_line_lists_every_output(self, tmp_path, monkeypatch, capsys, argv, line):
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_figure_makes_no_full_solve(self, tmp_path, monkeypatch, solve_sizes):
        # the histogram comes from bisection and Sturm counts on the
        # tridiagonal reduction, never from all n eigenvalues
        rc = run_in(
            tmp_path, monkeypatch,
            ["figure", "--name", "fig2", "--seed", "3", "--grid", "100"],
        )
        assert rc == 0
        assert solve_sizes == []

    def test_figure_histogram_equals_numpy_of_the_full_spectrum(self, tmp_path, monkeypatch):
        rc = run_in(
            tmp_path, monkeypatch,
            ["figure", "--name", "fig4", "--seed", "7", "--grid", "100"],
        )
        assert rc == 0
        centers, heights = read_histogram_csv(tmp_path / "fig4_hist.csv")
        sidecar = read_json(tmp_path / "fig4.json")
        values = empirical_spectrum(5001, GammaWeights((1.0, 4.0, 25.0)), RngSeed(7)).values
        counts, edges = np.histogram(values / np.sqrt(5001), bins="fd")
        assert sidecar["binning"]["bins"] == len(counts) == len(centers)
        width = sidecar["binning"]["bin_width"]
        assert width == pytest.approx(edges[1] - edges[0], rel=1e-13)
        np.testing.assert_allclose(centers, (edges[:-1] + edges[1:]) / 2, rtol=0,
                                   atol=1e-13 * np.abs(edges).max())
        np.testing.assert_array_equal(np.rint(heights * width * 5001), counts)

    def test_figure_reduction_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        reduce = blockspec.linalg._DSBTRD

        def perturbed(*args):
            reduce(*args)
            args[7][0] += 1.0  # the first off-diagonal of T

        monkeypatch.setattr(blockspec.linalg, "_DSBTRD", perturbed)
        rc = run_in(tmp_path, monkeypatch, ["figure", "--name", "fig1", "--grid", "100"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: figure --seed 0 --grid 100 --quad-tol 1e-06 --name fig1: "
            "band reduction (dsbtrd): | ||T||_F^2 - ||M||_F^2 | = "
        )
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_figure_quadrature_failure_names_the_figure(self, tmp_path, monkeypatch, capsys):
        # on one thread the density table fails before the sampled solve starts
        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        argv = ["figure", "--name", "fig1", "--grid", "100", "--quad-tol", "1e-300"]
        assert run_in(tmp_path, monkeypatch, argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: figure --seed 0 --grid 100 --quad-tol 1e-300 --name fig1: "
            "limit density quadrature at t = "
        )
        stage = stage_message(density_grid, GammaWeights((2.0, 8.0)), 100, 1e-300)
        assert err == ("numerical failure: figure --seed 0 --grid 100 --quad-tol 1e-300 "
                       f"--name fig1: {stage}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "12", "--p", "2", "--gamma", "2,8"],
            ["roots", "--n", "12", "--p", "2", "--gamma", "2,8"],
        ],
        ids=["sample", "roots"],
    )
    def test_banded_solve_reduction_failure_exits_3(self, tmp_path, monkeypatch, capsys, argv):
        # every full spectrum goes through the gated reduction as well
        reduce = blockspec.linalg._DSBTRD

        def perturbed(*args):
            reduce(*args)
            args[7][0] += 1.0

        monkeypatch.setattr(blockspec.linalg, "_DSBTRD", perturbed)
        assert run_in(tmp_path, monkeypatch, argv) == 3
        err = capsys.readouterr().err
        assert "band reduction (dsbtrd)" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["sample", "--n", "12", "--p", "2", "--gamma", "2,8"],
             "sample --n 12 --p 2 --gamma 2,8 --seed 0 --stream 0"),
            (["roots", "--n", "12", "--p", "3", "--gamma", "1,4,25"],
             "roots --n 12 --p 3 --gamma 1,4,25"),
            (["figure", "--name", "fig4", "--grid", "100"],
             "figure --seed 0 --grid 100 --quad-tol 1e-06 --name fig4"),
        ],
        ids=["sample", "roots", "figure"],
    )
    def test_narrowing_failure_exits_3(self, tmp_path, monkeypatch, capsys, argv, prefix):
        # G and F-tilde are narrowed to bandwidth p before the reduction,
        # and that step has a gate of its own
        rotations = blockspec.linalg._narrowing_rotations

        def perturbed(coupling):
            cos, sin = rotations(coupling)
            cos[0, 0] += 1e-6
            return cos, sin

        monkeypatch.setattr(blockspec.linalg, "_narrowing_rotations", perturbed)
        assert run_in(tmp_path, monkeypatch, argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {prefix}: band narrowing: |")
        assert "exceeds 4 * dim * eps * ||M||_F" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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
        table = read_density_csv(
            tmp_path / "out" / "fig4_density.csv", tmp_path / "out" / "fig4.json"
        )
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
            table = read_density_csv(tmp_path / f"{name}_density.csv", tmp_path / f"{name}.json")
            density_at = np.interp(centers, table.grid, table.density)
            deviation = np.mean(np.abs(heights - density_at)) / table.density.max()
            assert deviation <= 0.02, (name, deviation)

    def test_figure_configs_are_pinned(self):
        assert FIGURES == {
            "fig1": ((2.0, 8.0), 5000),
            "fig2": ((1.0, 100.0), 5000),
            "fig3": ((4.0, 4.0, 100.0), 5001),
            "fig4": ((1.0, 4.0, 25.0), 5001),
            "fig5": ((1.0, 100.0, 200.0), 5001),
        }


def readme_examples() -> list[list[str]]:
    """The arguments of every `blockspec ...` line of the sh block under
    README's `## CLI` heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("blockspec ")]


def expected_outputs(argv: list[str]) -> list[str]:
    """The files a command writes: a table and its JSON sidecar, a report,
    or a figure's histogram, density table and sidecar."""
    args = blockspec.cli.build_parser().parse_args(argv)
    if args.command == "figure":
        base = args.out or args.name
        return [f"{base}_hist.csv", f"{base}_density.csv", f"{base}.json"]
    if args.command in ("compare", "gap"):
        return [args.out]
    return [str(args.out), str(Path(args.out).with_suffix(".json"))]


def test_readme_examples_run(tmp_path, monkeypatch):
    examples = readme_examples()
    assert len(examples) == 7 and {argv[0] for argv in examples} == {
        "sample", "roots", "density", "oracle", "compare", "gap", "figure"
    }
    for argv in examples:
        assert run_in(tmp_path, monkeypatch, argv) == 0, argv
        for name in expected_outputs(argv):
            assert (tmp_path / name).is_file(), (argv, name)


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

    def test_p2_oracle_bytes_do_not_follow_simd_dispatch(self, tmp_path):
        # numpy's AVX-512 kernels of arctan2, arccos, arcsin, exp and log
        # round differently from libm; with them switched off, as on a CPU
        # without AVX-512, the p = 2 oracle table must keep its golden bytes
        # (numpy ignores feature names it does not know)
        env = child_env()
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512_SKX"
        proc = subprocess.run(
            [sys.executable, "-m", "blockspec.cli",
             "oracle", "--p", "2", "--gamma", "2,8", "--grid", "120", "--out", "oracle.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("oracle.csv", "oracle.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


IMPORT_CHECK = """
import sys

import numpy as np

if sys.argv[1] == "scipy-first":
    import scipy.linalg
import blockspec.cli
from blockspec import linalg

if sys.argv[1] == "blockspec-first":
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, loaded
    unused = {"concurrent.futures", "numpy.polynomial", "dataclasses"} & set(sys.modules)
    assert not unused, unused
    import scipy.linalg
from blockspec.ensemble import GammaWeights, RngSeed, build_G

m = build_G(60, GammaWeights((2.0, 8.0)), RngSeed(5, 0))
ab = linalg._narrowed_band(m.diag.copy(), m.coupling.copy())
expected = np.sort(scipy.linalg.eigvals_banded(ab, lower=False))
assert np.array_equal(linalg.eigh_banded(m), expected)
"""


RUN_CHECK = """
import sys

from blockspec.cli import run

for command in ("oracle", "density"):
    argv = [command, "--p", "2", "--gamma", "2,8", "--grid", "100", "--out", command + ".csv"]
    assert run(argv) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""


class TestImportHygiene:
    """`import blockspec.cli` loads no scipy module, nor concurrent.futures,
    numpy.polynomial or dataclasses, and the banded solve equals scipy's bit
    for bit whether scipy.linalg is imported before blockspec or after it.
    The p = 2 oracle and density tables load no scipy module either."""

    @pytest.mark.parametrize("order", ["blockspec-first", "scipy-first"])
    def test_no_scipy_at_start_up(self, tmp_path, order):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CHECK, order],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_scipy_for_p2_tables(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CHECK],
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--gamma", "-1,1"], "all gamma values must be positive and finite, got (-1.0, 1.0)"),
            (["--gamma=-1,1"], "all gamma values must be positive and finite, got (-1.0, 1.0)"),
            ([], "the following arguments are required: --gamma"),
            (["--gamma", "2,8", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["--gamma", "2,8", "--bogus"], "unrecognized arguments: --bogus"),
            (["--gamma", ""], "could not parse --gamma '': could not convert string to float: ''"),
        ],
        ids=["negative-gamma-spaced", "negative-gamma-attached", "missing-gamma", "bad-int",
             "unknown-flag", "empty-gamma"],
    )
    def test_usage_errors_are_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # argparse's errors, and a value that begins with '-' written after a
        # space, end like every other validation error: one line, exit 2
        assert run_in(tmp_path, monkeypatch, ["sample", "--n", "8", "--p", "2", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_indefinite_weights_rejected_as_validation(self, tmp_path, monkeypatch, capsys):
        # reversed p = 2 weights give an invertible but indefinite block
        rc = run_in(
            tmp_path, monkeypatch,
            ["density", "--p", "2", "--gamma", "8,2", "--grid", "100"],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: A0 is not positive definite") and "-1.000000e+00" in err
        assert list(tmp_path.iterdir()) == []

    def test_indefinite_weights_oracle_names_a0(self, tmp_path, monkeypatch, capsys):
        # A0 has eigenvalues sqrt(2/2) +- sqrt(8/2); the oracle's quadrature
        # would integrate a divergent branch instead
        rc = run_in(
            tmp_path, monkeypatch,
            ["oracle", "--p", "2", "--gamma", "8,2", "--grid", "100"],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "A0 is not positive definite" in err and "-1.000000e+00" in err
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
        stage = stage_message(density_grid, GammaWeights((2.0,)), 100, 1e-300)
        assert err == (
            f"numerical failure: density --p 1 --gamma 2 --grid 100 --quad-tol 1e-300: {stage}\n"
        )
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

    @pytest.mark.parametrize("command", ["density", "oracle"])
    def test_grid_middle_point_is_zero(self, tmp_path, monkeypatch, capsys, command):
        # At 4 gamma_2 = 9 gamma_1 the p = 2 density grows like 1/sqrt|t| as
        # t -> 0-; np.linspace puts the middle of 188 intervals at -8.9e-16.
        argv = [command, "--p", "2", "--gamma", "2,4.5", "--grid", "188", "--out", "d.csv"]
        assert run_in(tmp_path, monkeypatch, argv) == 0, capsys.readouterr().err
        table = read_density_csv(tmp_path / "d.csv")
        assert table.grid[94] == 0.0
        assert np.isfinite(table.density).all() and np.isfinite(table.cdf).all()

    def test_oracle_quad_tol_is_enforced(self, tmp_path, monkeypatch, capsys):
        rc = run_in(
            tmp_path, monkeypatch,
            ["oracle", "--p", "2", "--gamma", "2,8", "--grid", "100", "--quad-tol", "1e-300"],
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: oracle --p 2 --gamma 2,8 --grid 100 --quad-tol 1e-300: "
            "arcsine mixture quadrature at x = "
        )
        assert "share 5.000e-301 of quad_tol 1e-300" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_oracle_value_fails_numerically(self, tmp_path, monkeypatch, capsys):
        # a NaN from the closed form is caught by the table, not written
        monkeypatch.setattr(blockspec.spectral, "semicircle_density", lambda g, t: math.nan)
        rc = run_in(tmp_path, monkeypatch, ["oracle", "--p", "1", "--gamma", "2", "--grid", "100"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: oracle --p 1 --gamma 2 --grid 100 --quad-tol 1e-10: "
            "non-finite density value nan at t = -2.0\n"
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
        assert err.startswith(
            "numerical failure: compare --n 8 --p 1 --gamma 1e-300 --seed 0 --trials 2 "
            "--grid 100 --quad-tol 1e-06: limit density quadrature at t = "
        )
        # the shared half-gap [L / 2, L] of the level L = sqrt(2e-300), bisected once,
        # at the largest t below it: (quad_tol / 2) (t / L) / 2
        assert "exceeds its share 2.400e-07 of quad_tol 1e-06 on the k-panel [" in err
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
            # 10**20 is past numpy's array size limit, so it is rejected before
            # any allocation; sizes that numpy can address but memory cannot
            # hold would allocate gigabytes and are not run here
            ["sample", "--n", str(10**20), "--p", "2", "--gamma", "2,8"],
            ["roots", "--n", str(10**20), "--p", "1", "--gamma", "2"],
            ["compare", "--n", str(10**20), "--p", "2", "--gamma", "2,8", "--trials", "1",
             "--grid", "100"],
            ["gap", "--n-list", str(10**20), "--p", "2", "--gamma", "2,8", "--trials", "1"],
        ],
        ids=["roots-indivisible", "roots-below-2p", "compare-indivisible",
             "compare-below-2p", "gap-indivisible", "gap-below-2p", "sample-huge", "roots-huge",
             "compare-huge", "gap-huge"],
    )
    def test_bad_size_rejected(self, tmp_path, monkeypatch, capsys, argv):
        assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n=") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "exc,message",
        [
            (MemoryError("Unable to allocate 8.00 EiB for an array"),
             "out of memory: Unable to allocate 8.00 EiB for an array\n"),
            (MemoryError(), "out of memory\n"),
        ],
        ids=["numpy-message", "bare"],
    )
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["sample", "--n", "8", "--p", "2", "--gamma", "2,8"],
             "sample --n 8 --p 2 --gamma 2,8 --seed 0 --stream 0"),
            (["compare", "--n", "8", "--p", "2", "--gamma", "2,8", "--trials", "2",
              "--grid", "100"],
             "compare --n 8 --p 2 --gamma 2,8 --seed 0 --trials 2 --grid 100 --quad-tol 1e-06"),
            # options in the parser's order whatever their order given, --out
            # left out, and a switch named when set
            (["sample", "--scaled", "--stream=3", "--gamma", "2,8", "--p", "2", "--n", "8",
              "--seed", "5", "--out", "s.csv"],
             "sample --n 8 --p 2 --gamma 2,8 --seed 5 --scaled --stream 3"),
        ],
        ids=["sample", "compare", "sample-reordered"],
    )
    def test_allocation_failure_exits_3(self, tmp_path, monkeypatch, capsys, argv, name, exc,
                                        message):
        def no_memory(n, w, seed):
            raise exc

        monkeypatch.setattr(blockspec.harness, "build_G", no_memory)
        assert run_in(tmp_path, monkeypatch, argv) == 3
        assert capsys.readouterr().err == f"numerical failure: {name}: {message}"
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
            # two faults: the first line names the one checked first
            (["compare", "--n", "12", "--p", "2", "--gamma", "4,4", "--grid", "99"],
             "error: A0 is singular for these gamma weights"),
            (["density", "--p", "2", "--gamma", "4,4", "--grid", "99"],
             "error: A0 is singular for these gamma weights"),
            (["oracle", "--p", "2", "--gamma", "4,4", "--grid", "99"],
             "error: A0 is singular for these gamma weights"),
            # A0 is checked before the grid
            (["density", "--p", "2", "--gamma", "8,2", "--grid", "99"],
             f"error: {INDEFINITE_A0}-1.000000e+00"),
            (["density", "--p", "2", "--gamma", "8,2", "--grid", "100"],
             f"error: {INDEFINITE_A0}-1.000000e+00"),
            (["oracle", "--p", "2", "--gamma", "8,2", "--grid", "100"],
             f"error: {INDEFINITE_A0}-1.000000e+00"),
            (["compare", "--n", "4000", "--p", "2", "--gamma", "8,2", "--trials", "4"],
             f"error: {INDEFINITE_A0}-1.000000e+00"),
            # an invertible A0 with eigenvalues -1.414, 0.310 and 3.226
            (["density", "--p", "3", "--gamma", "9,1,1", "--grid", "100"],
             f"error: {INDEFINITE_A0}-1.414"),
            (["compare", "--n", "3000", "--p", "3", "--gamma", "9,1,1", "--trials", "4"],
             f"error: {INDEFINITE_A0}-1.414"),
            # A0's first and last rows are equal
            (["compare", "--n", "3000", "--p", "3", "--gamma", "1,9,1", "--trials", "4"],
             "error: A0 is singular for these gamma weights; the limit law is not defined"),
            (["sample", "--n", "8", "--p", "1", "--gamma", "2", "--out", "x.json"],
             f"error: argument --out: {OUT_REJECTED.format('x.json')}"),
            (["roots", "--n", "8", "--p", "1", "--gamma", "2", "--out", "x.json"],
             f"error: argument --out: {OUT_REJECTED.format('x.json')}"),
        ],
        ids=["gap-epsilon", "gap-indivisible-second", "gap-n-below-3", "gap-trials",
             "figure-grid", "figure-quad-tol", "compare-grid", "compare-singular-a0",
             "compare-singular-a0-and-grid", "density-singular-a0-and-grid",
             "oracle-singular-a0-and-grid", "density-indefinite-and-grid",
             "density-indefinite", "oracle-indefinite", "compare-indefinite",
             "density-indefinite-p3", "compare-indefinite-p3", "compare-singular-a0-p3",
             "sample-out-json", "roots-out-json"],
    )
    def test_arguments_checked_before_any_solve(
        self, tmp_path, monkeypatch, capsys, solve_sizes, argv, message
    ):
        assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert solve_sizes == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--n", "12"],
            ["compare", "--n", "3000", "--trials", "4", "--grid", "100"],
            ["gap", "--n-list", "1000,2000", "--trials", "4"],
        ],
        ids=["roots", "compare", "gap"],
    )
    def test_singular_recurrence_block_rejected_before_the_pool(
        self, tmp_path, monkeypatch, capsys, solve_sizes, argv
    ):
        # A0 is positive definite for these weights, but A_1 of the
        # recurrence is singular: each command exits 2 on the coefficient
        # check before any task starts (a call of map_trials would raise)
        monkeypatch.setattr(blockspec.cli, "map_trials", None)
        monkeypatch.setattr(blockspec.harness, "map_trials", None)
        argv = argv + ["--p", "2", "--gamma", "0.7071067811865476,1"]
        assert run_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "error: A_1 is numerically singular\n"
        assert solve_sizes == []
        assert list(tmp_path.iterdir()) == []

    def test_gap_checks_the_coefficients_once(
        self, tmp_path, monkeypatch, capsys, solve_sizes
    ):
        # stage i of the recurrence does not depend on n, so one check at
        # the largest size covers the whole list, and a singular A_i still
        # exits 2 before any task starts
        checked = []
        check = blockspec.harness.recurrence_coeffs

        def counted(n, w):
            checked.append(n)
            return check(n, w)

        monkeypatch.setattr(blockspec.harness, "recurrence_coeffs", counted)
        monkeypatch.setattr(blockspec.harness, "map_trials", None)
        argv = ["gap", "--n-list", "1000,3000,2000", "--trials", "4",
                "--p", "2", "--gamma", "0.7071067811865476,1"]
        assert run_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "error: A_1 is numerically singular\n"
        assert checked == [3000]
        assert solve_sizes == []
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["--help"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        # every run reuses one parser; a usage error and --help on it leave
        # it as it was, so a golden configuration after them still writes
        # the golden bytes
        built = []
        build = blockspec.cli.build_parser

        def counted():
            built.append(True)
            return build()

        monkeypatch.setattr(blockspec.cli, "build_parser", counted)
        blockspec.cli._parser.cache_clear()
        argv, outputs = next(case for case in GOLDEN_CASES if case[0][0] == "oracle")
        assert run_in(tmp_path, monkeypatch, argv + ["--grid", "x"]) == 2
        assert run_in(tmp_path, monkeypatch, ["--help"]) == 0
        assert run_in(tmp_path, monkeypatch, ["oracle", "--help"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert run_in(tmp_path, monkeypatch, argv) == 0
        capsys.readouterr()
        assert len(built) == 1
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    @pytest.mark.parametrize("threads", ["65", "100000"])
    def test_worker_count_above_the_maximum_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    threads):
        # rejected before the pool starts: no thread is ever constructed
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was constructed")

        monkeypatch.setattr(blockspec.harness.threading, "Thread", refuse)
        monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
        rc = run_in(
            tmp_path, monkeypatch,
            ["compare", "--n", "12", "--p", "2", "--gamma", "2,8", "--trials", "200",
             "--grid", "100"],
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: BLOCKSPEC_THREADS must be <= 64, got {threads}\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("out", ["", ".", "..", "/", "sub/", "x.json", "x.JSON", "sub/x.Json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "8", "--p", "1", "--gamma", "2"],
            ["roots", "--n", "8", "--p", "1", "--gamma", "2"],
            ["density", "--p", "1", "--gamma", "2", "--grid", "100"],
            ["oracle", "--p", "1", "--gamma", "2", "--grid", "100"],
        ],
        ids=["sample", "roots", "density", "oracle"],
    )
    def test_out_without_a_sidecar_path_rejected(
        self, tmp_path, monkeypatch, capsys, solve_sizes, argv, out
    ):
        # the JSON sidecar goes to --out with the suffix .json: an --out that
        # already ends in .json in any case (x.JSON and x.json are one file
        # on a case-insensitive file system), or that names no file, leaves
        # it no path of its own.  No table is computed (a call of either
        # density would raise)
        monkeypatch.setattr(blockspec.cli, "density_grid", None)
        monkeypatch.setattr(blockspec.cli, "oracle_density", None)
        assert run_in(tmp_path, monkeypatch, argv + ["--out", out]) == 2
        message = (OUT_REJECTED if out.lower().endswith(".json") else NO_FILE).format(out)
        assert capsys.readouterr().err == f"error: argument --out: {message}\n"
        assert solve_sizes == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", ".", "..", "/", "sub/", "sub/.."])
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "--name", "fig1", "--grid", "100"],
            ["compare", "--n", "8", "--p", "1", "--gamma", "2", "--trials", "1"],
            ["gap", "--n-list", "8", "--p", "1", "--gamma", "2", "--trials", "1"],
        ],
        ids=["figure", "compare", "gap"],
    )
    def test_out_naming_no_file_rejected(self, tmp_path, monkeypatch, capsys, argv, out):
        # pathlib would drop a trailing '/', and figure's base '.' or '..' would
        # write `_hist.csv` or `...json`.  No solve starts (a call would raise)
        monkeypatch.setattr(blockspec.cli, "map_trials", None)
        monkeypatch.setattr(blockspec.cli, "gap_report", None)
        assert run_in(tmp_path, monkeypatch, argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: argument --out: {NO_FILE.format(out)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,blocked",
        [
            (["sample", "--n", "8", "--p", "1", "--gamma", "2", "--out", "s.csv"], "s.json"),
            (["density", "--p", "1", "--gamma", "2", "--grid", "100", "--out", "d.csv"],
             "d.json"),
            (["figure", "--name", "fig1", "--grid", "100", "--out", "f"], "f.json"),
            (["figure", "--name", "fig1", "--grid", "100", "--out", "f"], "f_density.csv"),
        ],
        ids=["sample-sidecar", "density-sidecar", "figure-sidecar", "figure-density"],
    )
    def test_blocked_output_leaves_no_output(self, tmp_path, monkeypatch, capsys, argv, blocked):
        # a directory where one output should go: the outputs written before
        # it are removed again, so the command leaves all of them or none
        (tmp_path / blocked).mkdir()
        assert run_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert repr(blocked) in err
        assert [p.name for p in tmp_path.iterdir()] == [blocked]


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
            # n = 5000: only the minimum and the maximum bisected, in the second pool round
            (["figure", "--name", "fig1", "--grid", "100"], "fig1_hist.csv"),
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

    def test_worker_count_does_not_change_figure_failure(self, tmp_path, monkeypatch, capsys):
        # the density table fails in the first round, beside the reduction;
        # the order statistics of the second round never start, and on one
        # thread neither does the reduction
        argv = ["figure", "--name", "fig1", "--quad-tol", "1e-300"]
        calls = []

        def refuse(name):
            def call(*args):
                calls.append(name)
                raise AssertionError(f"{name} started")
            return call

        results = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
            with monkeypatch.context() as patch:
                if threads == "1":
                    patch.setattr(blockspec.harness, "tridiagonal_form", refuse("reduction"))
                patch.setattr(blockspec.linalg.SturmCounter, "eigenvalue", refuse("bisection"))
                rc = run_in(tmp_path, monkeypatch, argv)
            results[threads] = (rc, capsys.readouterr().err)
        assert calls == []
        assert results["1"] == results["2"]
        rc, err = results["1"]
        assert rc == 3 and err.count("\n") == 1
        assert err.startswith(
            "numerical failure: figure --seed 0 --grid 400 --quad-tol 1e-300 --name fig1: "
            "limit density quadrature at t = "
        )
        assert list(tmp_path.iterdir()) == []

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
        assert err.startswith(
            "numerical failure: compare --n 3000 --p 3 --gamma 1,4,25 --seed 0 --trials 5 "
            "--grid 400 --quad-tol 1e-300: limit density quadrature at t = "
        )
        stage = stage_message(density_grid, GammaWeights((1.0, 4.0, 25.0)), 400, 1e-300)
        assert err.endswith(f" --quad-tol 1e-300: {stage}\n")
        assert list(tmp_path.iterdir()) == []

    def test_worker_count_does_not_change_gap_failure(self, tmp_path, monkeypatch, capsys):
        # every sampled solve at n = 12 fails with a message naming its
        # matrix; the tasks run n = 24 first, so the report is trial 0 at
        # n = 12 on both thread counts, however the failing solves overlap
        argv = ["gap", "--n-list", "12,24", "--p", "2", "--gamma", "2,8", "--trials", "3",
                "--out", "sub/gap.json"]
        w = GammaWeights((2.0, 8.0))
        lowest = empirical_spectrum(12, w, RngSeed(0, 0)).values[0]
        solve = blockspec.harness.eigh_banded

        def fail_at_12(matrix):
            values = solve(matrix)
            if matrix.dim == 12:
                raise ConvergenceError(f"injected failure, lowest eigenvalue {values[0]!r}")
            return values

        monkeypatch.setattr(blockspec.harness, "eigh_banded", fail_at_12)
        results = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
            rc = run_in(tmp_path, monkeypatch, argv)
            results[threads] = (rc, capsys.readouterr().err)
        assert results["1"] == results["2"] == (
            3,
            "numerical failure: gap --p 2 --gamma 2,8 --seed 0 --trials 3 --n-list 12,24 "
            f"--epsilon 30.0: injected failure, lowest eigenvalue {lowest!r}\n",
        )
        assert list(tmp_path.iterdir()) == []
