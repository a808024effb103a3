"""Monte Carlo experiments tying random spectra to the deterministic
predictions: the uniform eigenvalue/root approximation, its exponential tail
bound, the cubed Levy-distance bound, and KS agreement with the limit law.

Trial i always draws from seed (master, i), so runs are reproducible and
trials can execute concurrently without sharing state.  They do run
concurrently: `map_trials` uses threads, and the banded eigensolve that
dominates a trial releases the GIL (see `linalg`).  Theorem-style gap
quantities are unscaled; weak-convergence quantities divide by sqrt(n).
Every spectrum carries a `scaled` flag to keep the two apart.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_F_tilde,
    build_G,
)
from .errors import ValidationError
from .linalg import eigh_banded
from .spectral import SpectralDensity


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for comparison experiments."""

    n: int
    w: GammaWeights
    trials: int
    master_seed: int
    grid_size: int = 400
    quad_tol: float = 1e-6

    def __post_init__(self):
        if self.n % self.w.p != 0:
            raise ValidationError(f"n={self.n} must be divisible by p={self.w.p}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")


class GapEntry(NamedTuple):
    """One seed's uniform eigenvalue/root gap, raw and log-scaled."""

    n: int
    max_gap: float
    scaled_gap: float


@dataclass
class GapReport:
    """Per-seed gap values for one matrix size."""

    n: int
    max_gaps: np.ndarray
    scaled_gaps: np.ndarray

    def __post_init__(self):
        self.max_gaps = np.asarray(self.max_gaps, dtype=float)
        self.scaled_gaps = np.asarray(self.scaled_gaps, dtype=float)
        if np.any(self.max_gaps < 0):
            raise ValidationError("max_gap values must be nonnegative")

    @property
    def median_scaled(self) -> float:
        return float(np.median(self.scaled_gaps))

    @property
    def p90_scaled(self) -> float:
        return float(np.quantile(self.scaled_gaps, 0.9))


class TailBoundResult(NamedTuple):
    """Observed exceedance frequency against the exponential tail bound."""

    epsilon: float
    trials: int
    empirical_freq: float
    bound: float
    threshold: float
    satisfied: bool


class LevyBound(NamedTuple):
    """Cubed Levy-distance lower proxy against the mean squared gap."""

    lhs_l3_proxy: float
    rhs_mean_sq: float
    satisfied: bool


def worker_count() -> int:
    """Worker cap from BLOCKSPEC_THREADS.

    0 or unset means the number of CPUs this process may run on, at most 8.
    """
    raw = os.environ.get("BLOCKSPEC_THREADS", "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BLOCKSPEC_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValidationError(f"BLOCKSPEC_THREADS must be >= 0, got {value}")
    if value == 0:
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:  # macOS and Windows have no affinity call
            usable = os.cpu_count() or 1
        return min(usable, 8)
    return value


def map_trials(fn: Callable[[int], object], trials: Iterable[int]) -> list:
    """Apply fn to each trial index; results come back in trial order.

    With more than one worker the calls run on a thread pool.  They overlap
    where fn runs outside the GIL: the LAPACK call in `eigh_banded`, which
    dominates a trial at the sizes the CLI runs, releases it.  Results do
    not depend on the worker count.
    """
    trials = list(trials)
    workers = min(worker_count(), len(trials)) if trials else 1
    if workers <= 1:
        return [fn(i) for i in trials]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, trials))


def empirical_spectrum(cfg: ExperimentConfig, trial: int, scaled: bool) -> EmpiricalSpectrum:
    """Sorted eigenvalues of one sampled matrix (divided by sqrt(n) if scaled)."""
    seed = RngSeed(cfg.master_seed, trial)
    values = eigh_banded(build_G(cfg.n, cfg.w, seed))
    if scaled:
        values = values / math.sqrt(cfg.n)
    return EmpiricalSpectrum(
        n=cfg.n, p=cfg.w.p, gamma=cfg.w.gamma, seed=seed, scaled=scaled, values=values
    )


def approx_gap(
    n: int,
    w: GammaWeights,
    seed: RngSeed,
    reference: np.ndarray | None = None,
) -> GapEntry:
    """Max sorted-order gap between the sampled spectrum and the deterministic
    roots, unscaled, plus the same divided by sqrt(log n).

    `reference` may carry precomputed deterministic eigenvalues so that trial
    sweeps do not redo the banded solve for every seed.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3 so that log n > 1, got {n}")
    if reference is None:
        reference = eigh_banded(build_F_tilde(n, w))
    sampled = eigh_banded(build_G(n, w, seed))
    max_gap = float(np.abs(sampled - reference).max())
    return GapEntry(n=n, max_gap=max_gap, scaled_gap=max_gap / math.sqrt(math.log(n)))


def gap_report(n: int, w: GammaWeights, trials: int, master_seed: int) -> GapReport:
    """Gap entries for seeds (master_seed, 0..trials-1) at one matrix size."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    reference = eigh_banded(build_F_tilde(n, w))
    entries = map_trials(
        lambda i: approx_gap(n, w, RngSeed(master_seed, i), reference=reference),
        range(trials),
    )
    return GapReport(
        n=n,
        max_gaps=np.array([e.max_gap for e in entries]),
        scaled_gaps=np.array([e.scaled_gap for e in entries]),
    )


def tail_bound(n: int, p: int, epsilon: float) -> float:
    """min(1, 2 n (p+1) exp(-eps^2 / (18 p^2)))."""
    return min(1.0, 2.0 * n * (p + 1) * math.exp(-epsilon * epsilon / (18.0 * p * p)))


def tail_bound_experiment(
    n: int,
    w: GammaWeights,
    epsilon: float,
    trials: int,
    master_seed: int,
    max_gaps: Sequence[float] | None = None,
) -> TailBoundResult:
    """Fraction of trials with max_gap >= epsilon against the tail bound.

    The pass threshold adds binomial slack: bound + 3 sigma + 1/trials, so a
    finite-trial frequency has statistical headroom without excusing a true
    violation when the bound is essentially zero.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if max_gaps is None:
        max_gaps = gap_report(n, w, trials, master_seed).max_gaps
    if len(max_gaps) != trials:
        raise ValidationError("max_gaps length must equal trials")
    freq = float(np.mean(np.asarray(max_gaps) >= epsilon))
    bound = tail_bound(n, w.p, epsilon)
    threshold = min(1.0, bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials) + 1.0 / trials)
    return TailBoundResult(
        epsilon=epsilon,
        trials=trials,
        empirical_freq=freq,
        bound=bound,
        threshold=threshold,
        satisfied=freq <= threshold,
    )


def ks_distance(spectrum: EmpiricalSpectrum, density: SpectralDensity) -> float:
    """KS statistic of the spectrum against the tabulated limit CDF.

    Supremum over both the sample points (one-sided empirical CDF values
    against the linearly interpolated table) and the table's own grid.
    """
    if not spectrum.scaled:
        raise ValidationError("ks_distance expects a scaled spectrum")
    if not density.normalized:
        raise ValidationError("ks_distance expects a normalized density table")
    values = spectrum.values
    n = len(values)
    limit_at_samples = np.interp(values, density.grid, density.cdf)
    ranks = np.arange(1, n + 1) / n
    d_samples = max(
        float(np.abs(ranks - limit_at_samples).max()),
        float(np.abs(ranks - 1.0 / n - limit_at_samples).max()),
    )
    emp_at_grid = np.searchsorted(values, density.grid, side="right") / n
    d_grid = float(np.abs(emp_at_grid - density.cdf).max())
    return max(d_samples, d_grid)


def _levy_lower_bound(a: np.ndarray, b: np.ndarray) -> float:
    """Lower bound on the Levy distance between two empirical CDFs.

    For each probe x, the smallest eps satisfying the one-sided sandwich
    conditions is found by bisection; the max over probes underestimates the
    true distance (the probe set is finite), which is exactly what the cubed
    bound check needs.
    """
    probes = np.unique(np.concatenate([a, b]))
    span = float(max(a[-1], b[-1]) - min(a[0], b[0])) + 1.0

    def cdf(sample: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(sample, x, side="right") / len(sample)

    best = 0.0
    for f_sample, g_sample in ((a, b), (b, a)):
        g_at = cdf(g_sample, probes)
        for sign in (1.0, -1.0):
            lo = np.zeros_like(probes)
            hi = np.full_like(probes, span)
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if sign > 0:
                    ok = g_at <= cdf(f_sample, probes + mid) + mid
                else:
                    ok = cdf(f_sample, probes - mid) - mid <= g_at
                hi = np.where(ok, mid, hi)
                lo = np.where(ok, lo, mid)
            best = max(best, float(lo.max()))
    return best * (1.0 - 1e-12)


def levy_cubed_bound(emp: EmpiricalSpectrum, roots_scaled: np.ndarray) -> LevyBound:
    """Check (Levy lower proxy)^3 <= mean squared sorted-order gap."""
    roots_scaled = np.asarray(roots_scaled, dtype=float)
    if len(roots_scaled) != len(emp.values):
        raise ValidationError(
            f"length mismatch: {len(emp.values)} eigenvalues vs "
            f"{len(roots_scaled)} roots"
        )
    rhs = float(np.mean((emp.values - roots_scaled) ** 2))
    lhs = _levy_lower_bound(emp.values, roots_scaled) ** 3
    return LevyBound(lhs_l3_proxy=lhs, rhs_mean_sq=rhs, satisfied=lhs <= rhs * (1.0 + 1e-9))
