"""Monte Carlo harness: spectra, gap statistics, tail bound, KS distance,
and the cubed Levy-distance bound.

Distributional checks run on pinned seeds calibrated in
tests/data/pilot_fixtures.json; the heavier sweeps live in the acceptance
module.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import blockspec.harness as harness
from blockspec.ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_F,
    build_F_tilde,
    rng_from_seed,
)
from blockspec.errors import ValidationError
from blockspec.harness import (
    ExperimentConfig,
    approx_gap,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    map_trials,
    tail_bound,
    tail_bound_experiment,
    worker_count,
)
from blockspec.linalg import eigh_banded
from blockspec.spectral import LimitModel, density_grid

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
        entry = approx_gap(12, W2, RngSeed(0, 0))
        assert entry.max_gap <= 1e-10
        assert entry.scaled_gap <= 1e-10

    def test_scaled_gap_definition(self):
        entry = approx_gap(100, W1, RngSeed(5, 1))
        assert entry.scaled_gap == pytest.approx(
            entry.max_gap / math.sqrt(math.log(100))
        )

    def test_reference_shortcut_matches(self):
        ref = eigh_banded(build_F_tilde(60, W2))
        a = approx_gap(60, W2, RngSeed(9, 2))
        b = approx_gap(60, W2, RngSeed(9, 2), reference=ref)
        assert a == b

    def test_median_scaled_gap_does_not_grow(self):
        fx = FIXTURES["criterion5"]
        reports = {
            n: gap_report(n, GammaWeights(1, (1.0,)), 10, fx["master_seed"])
            for n in (100, 400)
        }
        assert reports[400].median_scaled <= 1.5 * reports[100].median_scaled

    def test_p2_sanity_ceiling(self):
        rep = gap_report(200, W2, 3, 20260810)
        assert rep.max_gaps.max() <= 60.0

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            approx_gap(2, GammaWeights(1, (1.0,)), RngSeed(0, 0))


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
            gap_report(12, W2, trials, 1)
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
        assert res.lhs_l3_proxy == 0.0
        assert res.rhs_mean_sq == 0.0
        assert res.satisfied

    def test_uniform_shift(self):
        rng = np.random.default_rng(21)
        base = np.sort(rng.standard_normal(80))
        for delta in (0.05, 0.4, 0.9):
            res = levy_cubed_bound(self._spectrum(base + delta), base)
            assert res.rhs_mean_sq == pytest.approx(delta * delta)
            # proxy underestimates the true distance, which is at most delta
            assert res.lhs_l3_proxy <= delta ** 3 * (1 + 1e-9)
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

    def test_proxy_against_exact_reference(self):
        # slow reference: bisection over eps with the sandwich condition
        # checked on a dense probe set; the proxy must never exceed it
        # (for empirical CDFs the sup is attained at the jump points, so the
        # proxy is typically exact)
        from blockspec.harness import _levy_lower_bound

        def exact_levy(a, b):
            probes = np.unique(np.concatenate([a, b]))
            probes = np.unique(np.concatenate([
                probes, probes - 1e-12, probes + 1e-12,
                np.linspace(probes[0] - 1.0, probes[-1] + 1.0, 2001),
            ]))

            def cdf(sample, x):
                return np.searchsorted(sample, x, side="right") / len(sample)

            lo, hi = 0.0, float(probes[-1] - probes[0]) + 1.0
            g = cdf(b, probes)
            for _ in range(60):
                mid = (lo + hi) / 2.0
                ok = not (
                    np.any(g > cdf(a, probes + mid) + mid + 1e-15)
                    or np.any(cdf(a, probes - mid) - mid > g + 1e-15)
                )
                lo, hi = (lo, mid) if ok else (mid, hi)
            return hi

        rng = np.random.default_rng(77)
        for trial in range(12):
            n = int(rng.integers(5, 40))
            a = np.sort(rng.standard_normal(n))
            if trial % 3 == 0:
                b = np.sort(a + rng.normal(0.0, 0.2, n))
            elif trial % 3 == 1:
                b = np.sort(rng.standard_normal(n) * 1.5)
            else:
                b = np.sort(rng.standard_normal(int(rng.integers(5, 40))))
            proxy = _levy_lower_bound(a, b)
            exact = exact_levy(a, b)
            assert proxy <= exact * (1 + 1e-6) + 1e-12
            assert proxy >= exact - 1e-6


class TestKsConvergence:
    def test_ks_decreases_with_n_against_oracle(self):
        from blockspec.spectral import support_bound, tabulate_density
        from blockspec.spectral import arcsine_mixture_density

        fx = FIXTURES["ks_oracle_convergence"]
        model = LimitModel.from_gamma(W2)
        oracle = tabulate_density(
            lambda t: arcsine_mixture_density(2.0, 8.0, t),
            support_bound(model), 400, p=2, gamma=W2.gamma, quad_tol=1e-10,
        )
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
            return approx_gap(30, W1, RngSeed(77, i)).max_gap

        monkeypatch.setenv("BLOCKSPEC_THREADS", "1")
        sequential = map_trials(work, range(6))
        monkeypatch.setenv("BLOCKSPEC_THREADS", "4")
        threaded = map_trials(work, range(6))
        assert sequential == threaded
