"""Monte Carlo harness: spectra, gap statistics, tail bound, KS distance,
and the cubed Levy-distance bound.

Distributional checks run on pinned seeds calibrated in
tests/data/pilot_fixtures.json; the heavier sweeps live in the acceptance
module.
"""

import json
import math
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import blockspec.harness as harness
import blockspec.matrixpoly as matrixpoly
from blockspec.cli import FIGURES
from blockspec.ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    rng_from_seed,
)
from blockspec.errors import NumericalError, ValidationError
from blockspec.harness import (
    approx_gap,
    empirical_spectrum,
    fd_histogram,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    levy_distance,
    map_trials,
    scaled_tridiagonal,
    spectrum_histogram,
    tail_bound,
    tail_bound_experiment,
    worker_count,
)
from blockspec.linalg import SturmCounter, eigh_banded
from blockspec.matrixpoly import recurrence_coeffs, roots
from blockspec.spectral import SpectralDensity, density_grid
from tests.oracles import (
    bisected_fd_histogram,
    blocks_of,
    build_F,
    build_F_tilde,
    levy_reference,
    to_dense,
)

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "pilot_fixtures.json").read_text()
)

W1 = GammaWeights((2.0,))
W2 = GammaWeights((2.0, 8.0))


@pytest.fixture(scope="module")
def semicircle_table():
    return density_grid(W1, 400, 1e-7)


class TestEmpiricalSpectrum:
    def test_shape_and_order(self):
        spec = empirical_spectrum(4, W2, RngSeed(3, 0))
        assert len(spec.values) == 4
        assert np.all(np.diff(spec.values) >= 0)
        assert spec.scaled is False and spec.seed == RngSeed(3, 0)

    def test_scaled_is_exact_division(self):
        raw = empirical_spectrum(12, W2, RngSeed(3, 0))
        scaled = raw.to_scaled()
        assert scaled.scaled is True and scaled.seed == raw.seed
        np.testing.assert_array_equal(scaled.values, raw.values / math.sqrt(12))
        with pytest.raises(ValidationError, match="already scaled"):
            scaled.to_scaled()

    def test_semicircle_support_at_n2000(self):
        fx = FIXTURES["ks_semicircle"]
        seed = RngSeed(fx["master_seed"], fx["trial"])
        spec = empirical_spectrum(fx["n"], W1, seed).to_scaled()
        assert spec.values.min() > -2.3
        assert spec.values.max() < 2.3


def histogram_of_sorted(x):
    """fd_histogram fed a sorted array's own values and searchsorted counts."""
    return fd_histogram(len(x), x.__getitem__, partial(np.searchsorted, x, side="left"))


def recording(x, asked):
    """order_stats for fd_histogram that reads the sorted array x and
    appends each list of ranks it is asked for to asked."""

    def order_stats(ranks):
        asked.append(list(ranks))
        return x[ranks]

    return order_stats


class TestFdHistogram:
    @staticmethod
    def samples():
        rng = np.random.default_rng(11)
        yield "normal-5000", rng.standard_normal(5000)
        yield "cauchy-1000", rng.standard_cauchy(1000)
        yield "ties-500", rng.integers(-3, 4, 500).astype(float)
        yield "uniform-17", rng.uniform(-1, 1, 17)
        for size in (1, 2, 3, 4, 5):
            yield f"normal-{size}", rng.standard_normal(size)
        yield "iqr-zero", np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        yield "constant", np.full(6, 3.25)
        yield "single", np.array([-7.5])
        for size in (9, 13, 4001):  # both quartiles on an order statistic
            yield f"normal-{size}", rng.standard_normal(size)

    def test_equals_numpy_bit_for_bit(self):
        for name, x in self.samples():
            x = np.sort(x)
            got = histogram_of_sorted(x)
            counts, edges = np.histogram(x, bins="fd")
            heights, _ = np.histogram(x, bins="fd", density=True)
            np.testing.assert_array_equal(got.edges, edges, err_msg=name)
            np.testing.assert_array_equal(got.counts, counts, err_msg=name)
            np.testing.assert_array_equal(got.density, heights, err_msg=name)
            assert got.counts.dtype == counts.dtype, name

    def test_numpy_special_cases(self):
        # IQR 0 gives one bin over [min, max]; min = max gives edges -/+ 0.5
        got = histogram_of_sorted(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]))
        assert got.edges.tolist() == [0.0, 2.0] and got.counts.tolist() == [7]
        got = histogram_of_sorted(np.full(6, 3.25))
        assert got.edges.tolist() == [2.75, 3.75] and got.counts.tolist() == [6]

    @pytest.mark.parametrize("size", [1000, 5000, 5001])
    def test_certified_sample_asks_only_for_min_and_max(self, size):
        # the quartile brackets certify the bin count, so the quartiles
        # themselves are never asked for; at 5001 each quartile is one rank
        x = np.sort(np.random.default_rng(size).standard_normal(size))
        asked = []
        got = fd_histogram(size, recording(x, asked), partial(np.searchsorted, x, side="left"))
        assert asked == [[0, size - 1]]
        counts, edges = np.histogram(x, bins="fd")
        np.testing.assert_array_equal(got.edges, edges)
        np.testing.assert_array_equal(got.counts, counts)

    @pytest.mark.parametrize("name,x,quartile_ranks", [
        pytest.param(name, x, ranks, id=name) for name, x, ranks in [
            ("iqr-zero", [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0], [4, 5, 1, 2]),
            ("constant", [3.25] * 6, [3, 4, 1, 2]),
            ("single", [-7.5], [0]),
            # quartiles 0.25 and 0.75, width 2 * 0.5 * 8^(-1/3) = 0.5: 2 bins exactly
            ("integer-ratio", [0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0], [5, 6, 1, 2]),
            # the slack 16 eps max|x| underflows to 0, so no bracket ever
            # certifies, and a midpoint of two adjacent subnormals rounds
            # onto an end: only the step cap ends the loop
            ("subnormal", np.sort(np.random.default_rng(5).standard_normal(1000)) * 5e-324,
             [749, 750, 249, 250]),
        ]
    ])
    def test_uncertified_sample_asks_for_the_quartiles(self, name, x, quartile_ranks):
        x = np.array(x)
        if name == "integer-ratio":
            width = 2.0 * np.subtract(*np.percentile(x, [75, 25])) * len(x) ** (-1.0 / 3.0)
            assert (x[-1] - x[0]) / width == 2.0
        asked, counted = [], []

        def count_below(points):
            counted.append(points)
            return np.searchsorted(x, points, side="left")

        got = fd_histogram(len(x), recording(x, asked), count_below)
        assert asked == [[0, len(x) - 1], quartile_ranks]
        if name == "subnormal":
            assert harness.QUARTILE_SLACK * math.ulp(1.0) * np.abs(x).max() == 0.0
            assert len(counted) == harness.MAX_BRACKET_STEPS + 1
        counts, edges = np.histogram(x, bins="fd")
        np.testing.assert_array_equal(got.edges, edges)
        np.testing.assert_array_equal(got.counts, counts)

    def test_order_statistics_a_few_ulps_off_the_counts(self):
        # order_stats may be some ulps of the largest magnitude off the
        # counts, as dstebz is off the Sturm counts.  Here the upper
        # quartile's two values read 4 eps * 100 below where the counts put
        # them, and the maximum is moved down until the counts' quartiles
        # give one bin fewer than order_stats' quartiles, by the widest
        # margin; the bin count must be order_stats'
        x = np.sort(np.random.default_rng(3).standard_normal(1000))
        y = x.copy()
        y[[749, 750]] -= 4 * math.ulp(1.0) * 100.0

        def ratio(z):  # numpy's span / width
            iqr = np.subtract(*np.percentile(z, [75, 25]))
            return (z[-1] - z[0]) / (2.0 * iqr * len(z) ** (-1.0 / 3.0))

        x[-1] = y[-1] = 100.0
        bins = math.ceil(ratio(x))
        last = x[0] + bins * 2.0 * np.subtract(*np.percentile(x, [75, 25])) * 1000 ** (-1.0 / 3.0)
        while True:
            x[-1] = y[-1] = math.nextafter(last, 0.0)
            if math.ceil(ratio(y)) != bins + 1:
                break
            last = x[-1]
        x[-1] = y[-1] = last
        assert math.ceil(ratio(x)) == bins and ratio(x) < bins - 1e-11
        got = fd_histogram(len(x), y.__getitem__, partial(np.searchsorted, x, side="left"))
        edges = np.histogram_bin_edges(y, bins="fd")
        assert len(edges) == bins + 2
        np.testing.assert_array_equal(got.edges, edges)

    def test_quartile_on_a_negative_zero_matches_numpy(self):
        x = np.array([-1.0, -0.0, -0.0, 0.5, 1.0])
        got = harness._percentile(len(x), x.__getitem__, 0.25)
        expected = np.percentile(x, 25)
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError, match="at least one value"):
            fd_histogram(0, lambda ranks: [0.0] * len(ranks), lambda edges: edges)


class TestSpectrumHistogram:
    def test_equals_numpy_histogram_of_the_full_spectrum(self):
        # bins and counts equal, edges within rounding of the two solvers
        worst = 0.0
        for w in (W1, W2, GammaWeights((1.0, 4.0, 25.0))):
            for blocks in (2, 3, 7, 40, 300):
                n = blocks * w.p
                for master in range(1, 9):
                    seed = RngSeed(master, 5)
                    got = spectrum_histogram(scaled_tridiagonal(n, w, seed))
                    values = empirical_spectrum(n, w, seed).to_scaled().values
                    counts, edges = np.histogram(values, bins="fd")
                    case = f"p={w.p} n={n} seed={master}"
                    np.testing.assert_array_equal(got.counts, counts, err_msg=case)
                    error = float(np.abs(got.edges - edges).max() / np.abs(edges).max())
                    assert error <= 1e-13, case
                    worst = max(worst, error)
        print(f"worst relative edge difference {worst:.2e}")

    @pytest.mark.parametrize("name", ["fig1", "fig4"])
    @pytest.mark.parametrize("master", [1, 20260810])
    def test_equals_bisecting_every_order_statistic(self, name, master):
        # fig1 (n = 5000) reads two ranks per quartile, fig4 (n = 5001) one
        gamma, n = FIGURES[name]
        t = scaled_tridiagonal(n, GammaWeights(gamma), RngSeed(master, 0))
        got, expected = spectrum_histogram(t), bisected_fd_histogram(t)
        assert got.edges.tobytes() == expected.edges.tobytes()
        assert got.counts.tobytes() == expected.counts.tobytes()

    def test_fig1_bisects_only_min_and_max(self, monkeypatch):
        calls = []
        bisect = SturmCounter.eigenvalue

        def counted(counter, k):
            calls.append(k)
            return bisect(counter, k)

        gamma, n = FIGURES["fig1"]
        t = scaled_tridiagonal(n, GammaWeights(gamma), RngSeed(1, 0))
        monkeypatch.setattr(SturmCounter, "eigenvalue", counted)
        spectrum_histogram(t)
        assert sorted(calls) == [0, n - 1]

    def test_makes_no_full_solve(self, monkeypatch):
        def refuse(m):
            raise AssertionError("spectrum_histogram called eigh_banded")

        monkeypatch.setattr(harness, "eigh_banded", refuse)
        assert spectrum_histogram(scaled_tridiagonal(60, W2, RngSeed(1))).counts.sum() == 60


class TestApproxGap:
    def test_zero_noise_oracle(self, monkeypatch):
        # with every normal forced to 0 and every chi draw to sqrt(dof),
        # the sample equals the deterministic matrix and the gap vanishes
        monkeypatch.setattr(
            harness, "build_G", lambda n, w, seed: blocks_of(to_dense(build_F(n, w)), w.p)
        )
        (gaps,) = gap_report([12], W2, 2, 0)
        assert gaps.max() <= 1e-10

    def test_scaled_gap_definition(self):
        gap = approx_gap(
            empirical_spectrum(100, W1, RngSeed(5, 1)),
            eigh_banded(blocks_of(to_dense(build_F_tilde(100, W1)), W1.p)),
        )
        assert type(gap) is float

    def test_reference_shortcut_matches(self):
        # the shared roots solve of gap_report equals the standalone one
        ref = roots(recurrence_coeffs(60, W2))
        (gaps,) = gap_report([60], W2, 3, 9)
        assert gaps.tolist() == [
            approx_gap(empirical_spectrum(60, W2, RngSeed(9, trial)), ref) for trial in range(3)
        ]
        # roots solves the narrowed band: both solves are backward stable, so
        # it agrees with the oracle F-tilde's spectrum within 4 n eps ||F||_2
        oracle = np.sort(scipy.linalg.eigvals_banded(build_F_tilde(60, W2), lower=False))
        bound = 4 * 60 * np.finfo(float).eps * np.abs(oracle).max()
        np.testing.assert_allclose(ref, oracle, rtol=0, atol=bound)

    def test_median_scaled_gap_does_not_grow(self):
        fx = FIXTURES["criterion5"]
        small, large = gap_report([100, 400], GammaWeights((1.0,)), 10, fx["master_seed"])
        assert (len(small), len(large)) == (10, 10)
        assert np.median(large / math.sqrt(math.log(400))) <= 1.5 * np.median(
            small / math.sqrt(math.log(100))
        )

    def test_p2_sanity_ceiling(self):
        (gaps,) = gap_report([200], W2, 3, 20260810)
        assert gaps.max() <= 60.0

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError, match="log n > 1"):
            gap_report([12, 2], GammaWeights((1.0,)), 1, 0)

    def test_requires_unscaled_spectrum(self):
        scaled = empirical_spectrum(12, W2, RngSeed(0, 0)).to_scaled()
        with pytest.raises(ValidationError, match="unscaled"):
            approx_gap(scaled, np.zeros(12))

    def test_reports_follow_list_order(self):
        # sizes are solved largest first; the gaps of a size do not depend on
        # the other sizes in the list, and a repeated size repeats its gaps
        alone = {n: gap_report([n], W2, 2, 4)[0] for n in (24, 12)}
        reports = gap_report([12, 24, 12], W2, 2, 4)
        assert len(reports) == 3
        for n, gaps in zip([12, 24, 12], reports):
            np.testing.assert_array_equal(gaps, alone[n])

    def test_coefficients_checked_once(self, monkeypatch):
        # each size's coefficients are built and checked once per process,
        # largest first, all before the pool starts and none inside a task;
        # a second identical report builds none
        checked, checked_at_pool = [], []
        check, pool = matrixpoly.recurrence_coeffs, harness.map_trials
        monkeypatch.setattr(
            matrixpoly, "recurrence_coeffs", lambda n, w: checked.append(n) or check(n, w)
        )
        monkeypatch.setattr(
            harness, "map_trials", lambda tasks: checked_at_pool.append(list(checked)) or pool(tasks)
        )
        reports = gap_report([12, 36, 24], W2, 2, 4)
        assert checked == [36, 24, 12]
        assert checked_at_pool == [[36, 24, 12]]
        assert [len(gaps) for gaps in reports] == [2, 2, 2]
        again = gap_report([12, 36, 24], W2, 2, 4)
        assert checked == [36, 24, 12]
        assert checked_at_pool == [[36, 24, 12]] * 2
        for gaps, same in zip(reports, again):
            np.testing.assert_array_equal(same, gaps)

    def test_every_size_checked_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "roots_of", lambda *a: solves.append(a))
        monkeypatch.setattr(harness, "eigh_banded", lambda m: solves.append(m))
        with pytest.raises(ValidationError, match="n=7"):
            gap_report([200, 7], W2, 3, 0)
        assert solves == []


class TestTailBound:
    @staticmethod
    def gaps(n, trials, master_seed):
        (gaps,) = gap_report([n], W1, trials, master_seed)
        return gaps

    def test_huge_epsilon(self):
        res = tail_bound_experiment(60, 1, 1e6, self.gaps(60, 5, 1))
        assert res.bound == 0.0
        assert res.empirical_freq == 0.0
        assert res.satisfied

    def test_zero_epsilon_clips_to_one(self):
        res = tail_bound_experiment(60, 1, 0.0, self.gaps(60, 5, 1))
        assert res.bound == 1.0
        assert res.empirical_freq == 1.0
        assert res.satisfied

    def test_bound_formula(self):
        assert tail_bound(100, 1, 30.0) == pytest.approx(400.0 * math.exp(-50.0))

    def test_reuses_supplied_gaps(self):
        gaps = [0.5, 2.0, 31.0]
        res = tail_bound_experiment(100, 1, 30.0, gaps)
        assert res.trials == 3
        assert res.empirical_freq == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            gap_report([12], W2, trials, 1)
        with pytest.raises(ValidationError, match="trials"):
            tail_bound_experiment(12, 2, 30.0, [])


class TestKsDistance:
    def test_inverse_transform_sampling(self, semicircle_table):
        fx = FIXTURES["inverse_transform"]
        rng = rng_from_seed(RngSeed(fx["master_seed"], fx["stream"]))
        u = np.sort(rng.uniform(0.0, 1.0, fx["n"]))
        x = np.sort(np.interp(u, semicircle_table.cdf, semicircle_table.grid))
        spec = EmpiricalSpectrum(W1, None, True, x)
        assert ks_distance(spec, semicircle_table) <= fx["tol"]

    def test_point_mass_at_median(self, semicircle_table):
        median = float(
            np.interp(0.5, semicircle_table.cdf, semicircle_table.grid)
        )
        spec = EmpiricalSpectrum(W1, None, True, np.full(50, median))
        assert ks_distance(spec, semicircle_table) == pytest.approx(0.5, abs=0.02)

    def test_empirical_semicircle(self, semicircle_table):
        fx = FIXTURES["ks_semicircle"]
        seed = RngSeed(fx["master_seed"], fx["trial"])
        spec = empirical_spectrum(fx["n"], W1, seed).to_scaled()
        assert ks_distance(spec, semicircle_table) <= fx["tol"]

    def test_requires_scaled_spectrum(self, semicircle_table):
        spec = EmpiricalSpectrum(W1, None, False, np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="scaled"):
            ks_distance(spec, semicircle_table)

    def test_requires_normalized_density(self, semicircle_table):
        # ks_distance reads the CDF column as a distribution function; a
        # table whose CDF does not end at exactly 1 cannot be built
        with pytest.raises(NumericalError, match="CDF ends at 0.9, not exactly 1.0"):
            SpectralDensity(
                W1, semicircle_table.grid, semicircle_table.density,
                semicircle_table.cdf * 0.9, semicircle_table.quad_tol,
            )


class TestLevyBound:
    def _spectrum(self, values):
        values = np.sort(np.asarray(values, dtype=float))
        return EmpiricalSpectrum(GammaWeights((1.0,)), None, True, values)

    def test_identical_inputs(self):
        values = np.linspace(-1, 1, 40)
        res = levy_cubed_bound(self._spectrum(values), values)
        assert res.lhs_l3 == 0.0
        assert res.rhs_mean_sq == 0.0
        assert res.satisfied is True

    def test_uniform_shift(self):
        rng = np.random.default_rng(21)
        base = np.sort(rng.standard_normal(80))
        for delta in (0.05, 0.4, 0.9):
            res = levy_cubed_bound(self._spectrum(base + delta), base)
            assert res.rhs_mean_sq == pytest.approx(delta * delta)
            # shifting by delta moves the CDF by at most delta sideways
            assert res.lhs_l3 <= delta ** 3 * (1 + 1e-9)
            assert res.satisfied

    def test_p2_trials(self):
        f_tilde = blocks_of(to_dense(build_F_tilde(400, W2)), W2.p)
        roots_scaled = eigh_banded(f_tilde) / math.sqrt(400)
        for trial in range(5):
            spec = empirical_spectrum(400, W2, RngSeed(20260810, trial)).to_scaled()
            assert levy_cubed_bound(spec, roots_scaled).satisfied

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            levy_cubed_bound(self._spectrum([0.0, 1.0]), np.array([0.0]))

    @staticmethod
    def cases():
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            a = np.sort(rng.standard_normal(n))
            kind = trial % 5
            if kind == 0:  # a perturbed copy
                b = a + rng.normal(0.0, 0.2, n)
            elif kind == 1:  # independent, wider
                b = rng.standard_normal(n) * 1.5
            elif kind == 2:  # ties within and across the samples
                a = np.round(a, 1)
                b = np.round(rng.standard_normal(n), 1)
            elif kind == 3:  # a shifted copy
                b = a + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.5))
            else:  # identical samples
                b = a.copy()
            yield np.sort(a), np.sort(b)
        yield np.array([0.5]), np.array([0.25])  # n = 1: the distance is |a_1 - b_1|
        yield np.array([0.0]), np.array([3.0])  # n = 1, capped at 1/n

    def test_equals_reference(self):
        for a, b in self.cases():
            value = levy_distance(a, b)
            assert type(value) is float
            assert value == levy_reference(a, b), (a, b)
            assert value == levy_distance(b, a)
            if np.array_equal(a, b):
                assert value == 0.0
            # the inequality the check rests on holds for every pair
            assert value ** 3 <= np.mean((a - b) ** 2) * (1 + 1e-9)


class TestKsConvergence:
    def test_ks_decreases_with_n_against_oracle(self):
        from blockspec.spectral import oracle_density

        fx = FIXTURES["ks_oracle_convergence"]
        oracle = oracle_density(W2, 400, 1e-10)
        medians = {}
        for n in (200, 1600):
            kss = [
                ks_distance(
                    empirical_spectrum(n, W2, RngSeed(fx["master_seed"], i)).to_scaled(), oracle
                )
                for i in range(fx["trials"])
            ]
            medians[n] = float(np.median(kss))
        assert medians[1600] < medians[200]


class TestWorkers:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("BLOCKSPEC_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("BLOCKSPEC_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.delenv("BLOCKSPEC_THREADS")
        assert worker_count() >= 1
        monkeypatch.setenv("BLOCKSPEC_THREADS", "nope")
        with pytest.raises(ValidationError):
            worker_count()

    @pytest.mark.parametrize("value", ["65", "100000", str(10**30)])
    def test_worker_count_above_the_maximum_rejected(self, monkeypatch, value):
        monkeypatch.setenv("BLOCKSPEC_THREADS", value)
        with pytest.raises(ValidationError, match=f"BLOCKSPEC_THREADS must be <= 64, got {value}$"):
            worker_count()
        monkeypatch.setenv("BLOCKSPEC_THREADS", str(harness.MAX_WORKERS))
        assert worker_count() == harness.MAX_WORKERS == 64

    @pytest.mark.parametrize("cpus,expected", [(1, 1), (3, 3), (16, 8)])
    def test_auto_worker_count_follows_affinity(self, monkeypatch, cpus, expected):
        # no threads are started: worker_count only reads the affinity mask
        monkeypatch.setattr(
            harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.delenv("BLOCKSPEC_THREADS", raising=False)
        assert worker_count() == expected
        monkeypatch.setenv("BLOCKSPEC_THREADS", "0")
        assert worker_count() == expected
        monkeypatch.setenv("BLOCKSPEC_THREADS", "12")
        assert worker_count() == 12

    def test_map_trials_order_independent(self, monkeypatch):
        def work(i):
            return eigh_banded(harness.build_G(30, W1, RngSeed(77, i))).tolist()

        tasks = [partial(work, i) for i in range(6)]
        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        sequential = map_trials(tasks)
        monkeypatch.setenv("BLOCKSPEC_THREADS", "4")
        threaded = map_trials(tasks)
        assert sequential == threaded

    def test_map_trials_takes_each_task_once_under_contention(self, monkeypatch):
        # more workers than cores on tiny tasks, with a short switch interval:
        # a lost update of the shared index would run a task twice or never
        monkeypatch.setenv("BLOCKSPEC_THREADS", "8")
        calls = []

        def work(i):
            calls.append(i)
            return i

        out = []
        runner = threading.Thread(
            target=lambda: out.append(map_trials([partial(work, i) for i in range(2000)]))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out == [list(range(2000))]
        assert sorted(calls) == list(range(2000))

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_map_trials_keeps_key_order(self, monkeypatch, threads):
        # later tasks finish first on a pool; results still follow the list
        monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
        keys = ["table", *range(6)]

        def work(key):
            if key == "table":
                time.sleep(0.03)
                return "table"
            time.sleep(0.005 * (6 - key))
            return key * key

        assert map_trials([partial(work, key) for key in keys]) == ["table", 0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_map_trials_raises_first_failure_in_key_order(self, monkeypatch, threads):
        # task 0 fails last in time but first in list order, so its error is
        # the one raised; once task 1 has failed no further task starts, so
        # only the tasks the workers took first ever run
        monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
        first = NumericalError("task 0 failed")
        started = []

        def work(key):
            started.append(key)
            if key == 0:
                time.sleep(0.05)
                raise first
            if key == 1:
                raise NumericalError("task 1 failed")
            time.sleep(0.02)
            return key

        with pytest.raises(NumericalError) as excinfo:
            map_trials([partial(work, key) for key in range(60)])
        assert excinfo.value is first
        assert 0 in started and len(started) <= int(threads)
        if threads == "1":
            assert started == [0]
