"""Monte Carlo harness: spectra, gap statistics, tail bound, KS distance,
and the cubed Levy-distance bound.

Distributional checks run on pinned seeds calibrated in
tests/data/pilot_fixtures.json; the heavier sweeps live in the acceptance
module.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import blockspec.harness as harness
from blockspec.ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_F,
    rng_from_seed,
)
from blockspec.errors import NumericalError, ValidationError
from blockspec.harness import (
    ExperimentConfig,
    approx_gap,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    levy_distance,
    map_trials,
    tail_bound,
    tail_bound_experiment,
    worker_count,
)
from blockspec.linalg import eigh_banded
from blockspec.spectral import LimitModel, density_grid
from tests.oracles import build_F_tilde, levy_reference

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "pilot_fixtures.json").read_text()
)

W1 = GammaWeights(1, (2.0,))
W2 = GammaWeights(2, (2.0, 8.0))


@pytest.fixture(scope="module")
def semicircle_table():
    return density_grid(LimitModel.from_gamma(W1), 400, 1e-7)


class TestEmpiricalSpectrum:
    def test_shape_and_order(self):
        cfg = ExperimentConfig(n=4, w=W2, trials=1, master_seed=3)
        spec = empirical_spectrum(cfg, 0, scaled=False)
        assert len(spec.values) == 4
        assert np.all(np.diff(spec.values) >= 0)

    def test_scaled_is_exact_division(self):
        cfg = ExperimentConfig(n=12, w=W2, trials=1, master_seed=3)
        raw = empirical_spectrum(cfg, 0, scaled=False)
        scaled = empirical_spectrum(cfg, 0, scaled=True)
        np.testing.assert_array_equal(scaled.values, raw.values / math.sqrt(12))

    def test_semicircle_support_at_n2000(self):
        fx = FIXTURES["ks_semicircle"]
        cfg = ExperimentConfig(n=fx["n"], w=W1, trials=1, master_seed=fx["master_seed"])
        spec = empirical_spectrum(cfg, fx["trial"], scaled=True)
        assert spec.values.min() > -2.3
        assert spec.values.max() < 2.3


class TestApproxGap:
    def test_zero_noise_oracle(self, monkeypatch):
        # with every normal forced to 0 and every chi draw to sqrt(dof),
        # the sample equals the deterministic matrix and the gap vanishes
        monkeypatch.setattr(harness, "build_G", lambda n, w, seed: build_F(n, w))
        (report,) = gap_report([12], W2, 2, 0)
        assert report.max_gaps.max() <= 1e-10
        assert report.scaled_gaps.max() <= 1e-10

    def test_scaled_gap_definition(self):
        cfg = ExperimentConfig(n=100, w=W1, trials=2, master_seed=5)
        entry = approx_gap(
            empirical_spectrum(cfg, 1, scaled=False), eigh_banded(build_F_tilde(100, W1))
        )
        assert entry.n == 100
        assert entry.scaled_gap == pytest.approx(
            entry.max_gap / math.sqrt(math.log(100))
        )

    def test_reference_shortcut_matches(self):
        # the shared roots solve of gap_report equals the oracle F-tilde spectrum
        ref = eigh_banded(build_F_tilde(60, W2))
        cfg = ExperimentConfig(n=60, w=W2, trials=3, master_seed=9)
        (report,) = gap_report([60], W2, 3, 9)
        for trial in range(3):
            entry = approx_gap(empirical_spectrum(cfg, trial, scaled=False), ref)
            assert report.max_gaps[trial] == entry.max_gap
            assert report.scaled_gaps[trial] == entry.scaled_gap

    def test_median_scaled_gap_does_not_grow(self):
        fx = FIXTURES["criterion5"]
        small, large = gap_report([100, 400], GammaWeights(1, (1.0,)), 10, fx["master_seed"])
        assert (small.n, large.n) == (100, 400)
        assert large.median_scaled <= 1.5 * small.median_scaled

    def test_p2_sanity_ceiling(self):
        (rep,) = gap_report([200], W2, 3, 20260810)
        assert rep.max_gaps.max() <= 60.0

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError, match="log n > 1"):
            gap_report([12, 2], GammaWeights(1, (1.0,)), 1, 0)

    def test_requires_unscaled_spectrum(self):
        cfg = ExperimentConfig(n=12, w=W2, trials=1, master_seed=0)
        with pytest.raises(ValidationError, match="unscaled"):
            approx_gap(empirical_spectrum(cfg, 0, scaled=True), np.zeros(12))

    def test_reports_follow_list_order(self):
        # sizes are solved largest first; a report does not depend on the
        # other sizes in the list, and a repeated size repeats its report
        alone = {n: gap_report([n], W2, 2, 4)[0] for n in (24, 12)}
        reports = gap_report([12, 24, 12], W2, 2, 4)
        assert [r.n for r in reports] == [12, 24, 12]
        for report in reports:
            np.testing.assert_array_equal(report.max_gaps, alone[report.n].max_gaps)
            np.testing.assert_array_equal(report.scaled_gaps, alone[report.n].scaled_gaps)

    def test_every_size_checked_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "roots", lambda *a: solves.append(a))
        monkeypatch.setattr(harness, "eigh_banded", lambda m: solves.append(m))
        with pytest.raises(ValidationError, match="n=7"):
            gap_report([200, 7], W2, 3, 0)
        assert solves == []


class TestTailBound:
    def test_huge_epsilon(self):
        res = tail_bound_experiment(60, W1, 1e6, 5, 1)
        assert res.bound == 0.0
        assert res.empirical_freq == 0.0
        assert res.satisfied

    def test_zero_epsilon_clips_to_one(self):
        res = tail_bound_experiment(60, W1, 0.0, 5, 1)
        assert res.bound == 1.0
        assert res.empirical_freq == 1.0
        assert res.satisfied

    def test_bound_formula(self):
        assert tail_bound(100, 1, 30.0) == pytest.approx(400.0 * math.exp(-50.0))

    def test_reuses_supplied_gaps(self):
        gaps = [0.5, 2.0, 31.0]
        res = tail_bound_experiment(100, W1, 30.0, 3, 0, max_gaps=gaps)
        assert res.empirical_freq == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            gap_report([12], W2, trials, 1)
        with pytest.raises(ValidationError, match="trials"):
            tail_bound_experiment(12, W2, 30.0, trials, 1, max_gaps=[])


class TestKsDistance:
    def test_inverse_transform_sampling(self, semicircle_table):
        fx = FIXTURES["inverse_transform"]
        rng = rng_from_seed(RngSeed(fx["master_seed"], fx["stream"]))
        u = np.sort(rng.uniform(0.0, 1.0, fx["n"]))
        x = np.sort(np.interp(u, semicircle_table.cdf, semicircle_table.grid))
        spec = EmpiricalSpectrum(
            n=fx["n"], p=1, gamma=(2.0,), seed=None, scaled=True, values=x
        )
        assert ks_distance(spec, semicircle_table) <= fx["tol"]

    def test_point_mass_at_median(self, semicircle_table):
        median = float(
            np.interp(0.5, semicircle_table.cdf, semicircle_table.grid)
        )
        spec = EmpiricalSpectrum(
            n=50, p=1, gamma=(2.0,), seed=None, scaled=True,
            values=np.full(50, median),
        )
        assert ks_distance(spec, semicircle_table) == pytest.approx(0.5, abs=0.02)

    def test_empirical_semicircle(self, semicircle_table):
        fx = FIXTURES["ks_semicircle"]
        cfg = ExperimentConfig(n=fx["n"], w=W1, trials=1, master_seed=fx["master_seed"])
        spec = empirical_spectrum(cfg, fx["trial"], scaled=True)
        assert ks_distance(spec, semicircle_table) <= fx["tol"]

    def test_requires_scaled_spectrum(self, semicircle_table):
        spec = EmpiricalSpectrum(
            n=2, p=1, gamma=(2.0,), seed=None, scaled=False,
            values=np.array([0.0, 1.0]),
        )
        with pytest.raises(ValidationError, match="scaled"):
            ks_distance(spec, semicircle_table)

    def test_requires_normalized_density(self, semicircle_table):
        from blockspec.spectral import SpectralDensity

        broken = SpectralDensity(
            grid=semicircle_table.grid,
            density=semicircle_table.density,
            cdf=semicircle_table.cdf * 0.9,
        )
        spec = EmpiricalSpectrum(
            n=2, p=1, gamma=(2.0,), seed=None, scaled=True,
            values=np.array([0.0, 1.0]),
        )
        with pytest.raises(ValidationError, match="normalized"):
            ks_distance(spec, broken)


class TestLevyBound:
    def _spectrum(self, values):
        values = np.sort(np.asarray(values, dtype=float))
        return EmpiricalSpectrum(
            n=len(values), p=1, gamma=(1.0,), seed=None, scaled=True, values=values
        )

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
        roots_scaled = eigh_banded(build_F_tilde(400, W2)) / math.sqrt(400)
        cfg = ExperimentConfig(n=400, w=W2, trials=5, master_seed=20260810)
        for trial in range(5):
            spec = empirical_spectrum(cfg, trial, scaled=True)
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
            cfg = ExperimentConfig(
                n=n, w=W2, trials=fx["trials"], master_seed=fx["master_seed"]
            )
            kss = [
                ks_distance(empirical_spectrum(cfg, i, scaled=True), oracle)
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

        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        sequential = map_trials(work, range(6))
        monkeypatch.setenv("BLOCKSPEC_THREADS", "4")
        threaded = map_trials(work, range(6))
        assert sequential == threaded

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_map_trials_keeps_key_order(self, monkeypatch, threads):
        # later keys finish first on a pool; results still follow the keys
        monkeypatch.setenv("BLOCKSPEC_THREADS", threads)
        keys = ["table", *range(6)]

        def work(key):
            if key == "table":
                time.sleep(0.03)
                return "table"
            time.sleep(0.005 * (6 - key))
            return key * key

        assert map_trials(work, keys) == ["table", 0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_map_trials_raises_first_failure_in_key_order(self, monkeypatch, threads):
        # task 0 fails last in time but first in key order, so its error is
        # the one raised; the pending tasks are cancelled, not run
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
            map_trials(work, range(60))
        assert excinfo.value is first
        assert 0 in started and len(started) < 60
        if threads == "1":
            assert started == [0]
