"""Monte Carlo experiments tying random spectra to the deterministic
predictions: the uniform eigenvalue/root approximation, its exponential tail
bound, the bound L^3 <= mean squared gap on the exact Levy distance L between
the sampled spectrum and the roots, and KS agreement with the limit law.

Trial i always draws from seed (master, i), so runs are reproducible and
trials can execute concurrently without sharing state.  A command hands all
of its independent work to one `map_trials` call, keyed by task: the limit
density table, each deterministic roots solve and each trial's sampled
solve.  The tasks run on threads, and the banded eigensolve that dominates
them releases the GIL (see `linalg`).  Statistics are computed from the
assembled results afterwards.  Theorem-style gap quantities are unscaled;
weak-convergence quantities divide by sqrt(n).  Every spectrum carries a
`scaled` flag to keep the two apart.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .ensemble import EmpiricalSpectrum, GammaWeights, RngSeed, build_G, check_size
from .errors import ValidationError
from .linalg import eigh_banded
from .matrixpoly import recurrence_coeffs, roots
from .spectral import SpectralDensity


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for comparison experiments."""

    n: int
    w: GammaWeights
    trials: int
    master_seed: int

    def __post_init__(self):
        check_size(self.n, self.w)
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")


K = TypeVar("K")
R = TypeVar("R")


@dataclass
class GapReport:
    """Per-seed gap values for one matrix size."""

    n: int
    max_gaps: np.ndarray

    def __post_init__(self):
        self.max_gaps = np.asarray(self.max_gaps, dtype=float)
        if np.any(self.max_gaps < 0):
            raise ValidationError("max_gap values must be nonnegative")

    @property
    def scaled_gaps(self) -> np.ndarray:
        """The max gaps divided by sqrt(log n)."""
        return self.max_gaps / math.sqrt(math.log(self.n))

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
    """Cubed exact Levy distance against the mean squared gap."""

    lhs_l3: float
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


def map_trials(fn: Callable[[K], R], keys: Iterable[K]) -> list[R]:
    """Apply fn to each task key; results come back in the keys' order.

    A key names one independent task, such as a trial index or a label for
    a density table or a roots solve.  With more than one worker the calls
    run on a thread pool and start in key order, so callers list a short
    task that may fail first and the solves largest first.  They overlap
    where fn runs outside the GIL: the LAPACK call in `eigh_banded`, which
    dominates a solve at the sizes the CLI runs, releases it.  Results do
    not depend on the worker count.

    When tasks fail, the exception of the first failing task in key order
    is raised, whatever order they failed in, and the tasks not yet started
    are cancelled; tasks already running finish before it propagates.
    """
    keys = list(keys)
    workers = min(worker_count(), len(keys)) if keys else 1
    if workers <= 1:
        return [fn(key) for key in keys]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Executor.map cancels the pending futures once a result raises
        return list(pool.map(fn, keys))


def empirical_spectrum(cfg: ExperimentConfig, trial: int, scaled: bool) -> EmpiricalSpectrum:
    """Sorted eigenvalues of one sampled matrix (divided by sqrt(n) if scaled)."""
    seed = RngSeed(cfg.master_seed, trial)
    values = eigh_banded(build_G(cfg.n, cfg.w, seed))
    if scaled:
        values = values / math.sqrt(cfg.n)
    return EmpiricalSpectrum(
        n=cfg.n, p=cfg.w.p, gamma=cfg.w.gamma, seed=seed, scaled=scaled, values=values
    )


def approx_gap(sampled: EmpiricalSpectrum, reference: np.ndarray) -> float:
    """Max sorted-order gap between one unscaled sampled spectrum and the
    deterministic roots."""
    if sampled.scaled:
        raise ValidationError("approx_gap expects an unscaled spectrum")
    return float(np.abs(sampled.values - reference).max())


def gap_report(
    n_list: Sequence[int], w: GammaWeights, trials: int, master_seed: int
) -> list[GapReport]:
    """One GapReport per size in n_list, in list order, each over the seeds
    (master_seed, 0..trials-1).

    Every argument is checked before any solve starts.  The roots solve and
    the sampled solves of all sizes then go to one `map_trials` call, the
    largest size first; a size listed twice is solved once.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    configs = {}
    for n in n_list:
        configs[n] = ExperimentConfig(n=n, w=w, trials=trials, master_seed=master_seed)
        if n < 3:
            raise ValidationError(f"n must be >= 3 so that log n > 1, got {n}")
    coeffs = {n: recurrence_coeffs(n, w) for n in configs}

    def solve(key: tuple[int, int | None]) -> np.ndarray | EmpiricalSpectrum:
        n, trial = key
        if trial is None:
            return roots(coeffs[n], n // w.p)
        return empirical_spectrum(configs[n], trial, scaled=False)

    keys = [(n, trial) for n in sorted(configs, reverse=True) for trial in (None, *range(trials))]
    solved = dict(zip(keys, map_trials(solve, keys)))
    return [
        GapReport(n, [approx_gap(solved[n, i], solved[n, None]) for i in range(trials)])
        for n in n_list
    ]


def tail_bound(n: int, p: int, epsilon: float) -> float:
    """min(1, 2 n (p+1) exp(-eps^2 / (18 p^2)))."""
    return min(1.0, 2.0 * n * (p + 1) * math.exp(-epsilon * epsilon / (18.0 * p * p)))


def check_epsilon(epsilon: float) -> None:
    """Reject a tail threshold that is not a finite number >= 0."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")


def tail_bound_experiment(
    n: int, p: int, epsilon: float, max_gaps: Sequence[float]
) -> TailBoundResult:
    """Fraction of the trials' max gaps (one per trial, as in a `GapReport`
    for size n) at or above epsilon, against the tail bound.

    The pass threshold adds binomial slack: bound + 3 sigma + 1/trials, so a
    finite-trial frequency has statistical headroom without excusing a true
    violation when the bound is essentially zero.
    """
    check_epsilon(epsilon)
    trials = len(max_gaps)
    if trials < 1:
        raise ValidationError("max_gaps is empty: the tail check needs trials >= 1")
    freq = float(np.mean(np.asarray(max_gaps) >= epsilon))
    bound = tail_bound(n, p, epsilon)
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


def levy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Levy distance between the empirical CDFs F, G of two sorted samples
    a, b of equal length n.

    With eps n in [m, m + 1), the sandwich F(x - eps) - eps <= G(x) <=
    F(x + eps) + eps holds for all x iff eps >= D_m = max over i > m of
    max(a_{i-m} - b_i, b_{i-m} - a_i).  D_m does not increase with m, so
    the distance is max(m/n, D_m) at the least m with D_m < (m + 1)/n,
    found by binary search over m.
    """
    n = len(a)

    def d(m: int) -> float:
        if m == n:
            return -math.inf
        return float(max((a[: n - m] - b[m:]).max(), (b[: n - m] - a[m:]).max()))

    lo, hi = 0, n  # the condition holds at m = n, where D_n = -inf
    while lo < hi:
        mid = (lo + hi) // 2
        if d(mid) < (mid + 1) / n:
            hi = mid
        else:
            lo = mid + 1
    return max(lo / n, d(lo))


def levy_cubed_bound(emp: EmpiricalSpectrum, roots_scaled: np.ndarray) -> LevyBound:
    """Check (Levy distance)^3 <= mean squared sorted-order gap."""
    roots_scaled = np.asarray(roots_scaled, dtype=float)
    if len(roots_scaled) != len(emp.values):
        raise ValidationError(
            f"length mismatch: {len(emp.values)} eigenvalues vs "
            f"{len(roots_scaled)} roots"
        )
    rhs = float(np.mean((emp.values - roots_scaled) ** 2))
    lhs = levy_distance(emp.values, roots_scaled) ** 3
    return LevyBound(lhs_l3=lhs, rhs_mean_sq=rhs, satisfied=lhs <= rhs * (1.0 + 1e-9))
