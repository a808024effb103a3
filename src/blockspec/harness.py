"""Monte Carlo experiments tying random spectra to the deterministic
predictions: the uniform eigenvalue/root approximation, its exponential tail
bound, the bound L^3 <= mean squared gap on the exact Levy distance L between
the sampled spectrum and the roots, and KS agreement with the limit law.

Trial i always draws from seed (master, i), so runs are reproducible and
trials can execute concurrently without sharing state.  A command hands its
independent work to `map_trials` as lists of tasks.  `compare` and `gap`
make one call: each deterministic roots solve and each trial's sampled
solve, and for `compare` also the limit density table.  The roots come from
`matrixpoly.roots_of`, solved once per (n, w) per process, so a repeated
`compare` or `gap` in one process (each iteration of the benchmark's
`sweep` workload after its first) makes only its sampled solves; one
command per process, as the console script runs, gains nothing.  `figure`
makes two rounds: the density table beside the sampled band reduction
(`scaled_tridiagonal`), then the minimum and the maximum of the histogram
(`spectrum_histogram`), which brackets its quartiles and fills its bins by
counting eigenvalues instead of computing them all.  Every sampled solve
and reduction takes G as its p x p blocks, which `linalg.narrow_band`
writes as a band of bandwidth p (a few ms at n = 5000); the LAPACK band
reduction of the figure matrices then takes 71-151 ms of CPU, and the
spectra are those of the narrowed band, within rounding of G's.  The tasks
run on threads, and the LAPACK calls that dominate them release the GIL
(see `linalg`); the narrowing's Python walk over the blocks holds it.
Statistics are computed from the assembled results afterwards.
Theorem-style gap quantities are unscaled; weak-convergence quantities
divide by sqrt(n): a spectrum through `EmpiricalSpectrum.to_scaled`, while
`scaled_tridiagonal` divides T itself.  Every spectrum carries a `scaled`
flag to keep the two apart.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .ensemble import EmpiricalSpectrum, GammaWeights, RngSeed, build_G, check_size
from .errors import ValidationError
from .linalg import (
    SturmCounter,
    Tridiagonal,
    bisect_eigvals,
    eigh_banded,
    narrow_band,
    tridiagonal_form,
)
from .matrixpoly import recurrence_coeffs, roots_of
from .spectral import SpectralDensity


R = TypeVar("R")


class TailBoundResult(NamedTuple):
    """Observed exceedance frequency against the exponential tail bound."""

    epsilon: float
    trials: int
    empirical_freq: float
    bound: float
    threshold: float
    satisfied: bool


class Histogram(NamedTuple):
    """Bin counts and bin edges, as np.histogram returns them."""

    counts: np.ndarray
    edges: np.ndarray

    @property
    def density(self) -> np.ndarray:
        """Bin heights that integrate to 1, as np.histogram(..., density=True)."""
        return self.counts / np.diff(self.edges) / self.counts.sum()


class LevyBound(NamedTuple):
    """Cubed exact Levy distance against the mean squared gap."""

    lhs_l3: float
    rhs_mean_sq: float
    satisfied: bool


# the largest BLOCKSPEC_THREADS accepted: well above the core counts the
# pool is meant for, and a huge value would make Thread.start fail mid-run
MAX_WORKERS = 64


def worker_count() -> int:
    """Worker cap from BLOCKSPEC_THREADS, at most MAX_WORKERS.

    0 or unset means the number of CPUs this process may run on, at most 8.
    """
    raw = os.environ.get("BLOCKSPEC_THREADS", "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BLOCKSPEC_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValidationError(f"BLOCKSPEC_THREADS must be >= 0, got {value}")
    if value > MAX_WORKERS:
        raise ValidationError(f"BLOCKSPEC_THREADS must be <= {MAX_WORKERS}, got {value}")
    if value == 0:
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:  # macOS and Windows have no affinity call
            usable = os.cpu_count() or 1
        return min(usable, 8)
    return value


def map_trials(tasks: Sequence[Callable[[], R]]) -> list[R]:
    """Call each zero-argument task; results come back in list order.

    A task is one independent piece of work, such as a trial's sampled
    solve, a roots solve or a density table.  With more than one worker the
    tasks run on a thread pool and start in list order, so callers list a
    short task that may fail first and the solves largest first.  They
    overlap where a task runs outside the GIL: the LAPACK call in
    `eigh_banded`, which dominates a solve at the sizes the CLI runs,
    releases it.  Results do not depend on the worker count.

    Each worker takes the next task in list order and stores its result
    at that task's index; the calling thread is one of the workers, so one
    worker is a serial run and starts no thread.  Once a task has failed,
    no further task starts; tasks already running finish, and then the
    exception of the failing task earliest in list order is raised.  Every
    task before it has started by then, so that is the exception a serial
    run raises.
    """
    workers = min(worker_count(), len(tasks))
    results: list = [None] * len(tasks)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    upcoming = iter(range(len(tasks)))

    def work() -> None:
        while True:
            with lock:
                index = None if failures else next(upcoming, None)
            if index is None:
                return
            try:
                results[index] = tasks[index]()
            except BaseException as exc:  # raised again below, in the caller's thread
                with lock:
                    failures[index] = exc

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def check_trials(trials: int) -> None:
    """Reject a trial count below 1."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")


def empirical_spectrum(n: int, w: GammaWeights, seed: RngSeed) -> EmpiricalSpectrum:
    """Sorted, unscaled eigenvalues of the matrix G sampled from seed: those
    of its band of bandwidth p (`linalg.narrow_band`)."""
    return EmpiricalSpectrum(w, seed, False, eigh_banded(narrow_band(build_G(n, w, seed))))


def _percentile_ranks(size: int, q: float) -> tuple[list[int], float]:
    """(ranks, t): np.percentile(x, 100 q) of a sample of `size` values,
    with numpy's linear interpolation, reads the order statistics (0-based)
    in ranks, [k] when the next one would get weight t = 0, else [k, k + 1]
    with weight t on k + 1."""
    index = (size - 1) * q
    if index >= size - 1:
        return [size - 1], 0.0
    k = math.floor(index)
    t = index - k
    return ([k], t) if t == 0 else ([k, k + 1], t)


def _percentile(size: int, order_stat: Callable[[int], float], q: float) -> float:
    """np.percentile(x, 100 q) of a sample of `size` values whose k-th
    smallest (0-based) is order_stat(k), asked only for `_percentile_ranks`."""
    ranks, t = _percentile_ranks(size, q)
    a = order_stat(ranks[0])
    if t == 0:  # a + diff * 0, bit for bit, without asking for b
        return a + 0.0
    b = order_stat(ranks[1])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


# `fd_histogram` widens its quartile brackets by QUARTILE_SLACK eps times
# the sample's largest magnitude, and bisects them at most
# MAX_BRACKET_STEPS times before it asks for the quartiles themselves
QUARTILE_SLACK = 16
MAX_BRACKET_STEPS = 60


def fd_histogram(
    size: int,
    order_stats: Callable[[list[int]], Sequence[float]],
    count_below: Callable[[np.ndarray], np.ndarray],
) -> Histogram:
    """np.histogram(x, bins="fd") of a sample x of `size` values, built from
    its minimum and maximum, a few counts that bracket its quartiles, and
    one count per interior bin edge.

    order_stats(ranks) gives the k-th smallest value (0-based) for each k
    in ranks, in that order.  count_below(points) gives, for each point,
    the number of values below it; a count of the values at or below it
    differs only where a value equals a point, which numpy puts in the
    upper bin at an edge.  The edges, the bin count and the heights follow
    numpy's formulas step by step: a width 2 IQR size^(-1/3), one bin when
    the IQR is 0, edges min -/+ 0.5 when min = max, bins closed on the left
    and the last one on both sides.  Fed a sorted array's own values and
    np.searchsorted counts, the result equals np.histogram bit for bit.

    order_stats is asked once, for ranks 0 and size - 1.  The quartiles
    only decide the integer bin count, so each rank k that they read gets
    a bracket [lo, hi], first [min, max].  A step is one count_below call
    at the distinct midpoints of the brackets wider than the slack s =
    QUARTILE_SLACK eps max(|min|, |max|); a count of at least k + 1 at a
    point makes it an upper end for rank k, else a lower end, and each
    bracket keeps its narrowest ends.  After each step the IQR is bounded
    crosswise, upper quartile of the hi ends + s minus lower quartile of
    the lo ends - s and the other way round, and the bin count is
    certified once the lower bound gives a positive width and numpy's
    formula gives one integer at both bounds.  Why that count is exact:
    the exact quartiles are monotone in their order statistics and move by
    s when all of them do; `_percentile` rounds them by less than 4 eps
    times their operands, which no value exceeds in magnitude (a quartile
    near 0 between operands near -/+1e6 carries rounding of 1e6, so the
    slack is not sized by the quartile); the rest of s covers order
    statistics a few ulps of that magnitude off the counts
    (`spectrum_histogram`).  The rounded IQR subtraction, the width 2 IQR
    size^(-1/3), span / width and ceil are each monotone in the IQR.  So
    the edges (from the exact min and max) and the counts are bit for bit
    those of asking for the quartiles.  When no bracket is wider than s,
    or after MAX_BRACKET_STEPS steps, order_stats is asked for the quartile
    ranks after all: for an IQR of 0 (a constant sample, size 1) or a
    ratio span / width that is an exact integer.
    """
    if size < 1:
        raise ValidationError(f"a histogram needs at least one value, got {size}")
    low, high = (float(v) for v in order_stats([0, size - 1]))
    first, last = (low - 0.5, high + 0.5) if low == high else (low, high)
    ranks = list(dict.fromkeys(
        [*_percentile_ranks(size, 0.75)[0], *_percentile_ranks(size, 0.25)[0]]
    ))
    slack = QUARTILE_SLACK * math.ulp(1.0) * max(abs(low), abs(high))
    lo, hi = np.full(len(ranks), low), np.full(len(ranks), high)

    def certified_bins() -> int | None:
        """The bin count if numpy's formula gives one integer over the
        widened IQR bounds of the brackets, else None."""
        at_lo, at_hi = (dict(zip(ranks, ends.tolist())).__getitem__ for ends in (lo, hi))
        q75 = _percentile(size, at_lo, 0.75) - slack, _percentile(size, at_hi, 0.75) + slack
        q25 = _percentile(size, at_lo, 0.25) - slack, _percentile(size, at_hi, 0.25) + slack
        width_low, width_high = (
            2.0 * iqr * size ** (-1.0 / 3.0) for iqr in (q75[0] - q25[1], q75[1] - q25[0])
        )
        if not width_low > 0:
            return None
        most, least = (last - first) / width_low, (last - first) / width_high
        if not math.isfinite(most) or math.ceil(least) != math.ceil(most):
            return None
        return math.ceil(most)

    bins = None
    for _ in range(MAX_BRACKET_STEPS):
        wide = hi - lo > slack
        if not wide.any():
            break
        # brackets that still coincide share a midpoint, and every count
        # narrows every bracket it falls in
        mid = np.unique(0.5 * lo[wide] + 0.5 * hi[wide])
        above = np.asarray(count_below(mid))[None, :] > np.asarray(ranks)[:, None]
        hi = np.minimum(hi, np.where(above, mid, np.inf).min(axis=1))
        lo = np.maximum(lo, np.where(above, -np.inf, mid).max(axis=1))
        bins = certified_bins()
        if bins is not None:
            break
    if bins is None:
        order_stat = dict(zip(ranks, order_stats(ranks))).__getitem__
        iqr = _percentile(size, order_stat, 0.75) - _percentile(size, order_stat, 0.25)
        width = 2.0 * iqr * size ** (-1.0 / 3.0)
        bins = int(np.ceil((last - first) / width)) if width else 1
    edges = np.linspace(first, last, bins + 1)
    below = np.asarray(count_below(edges[1:-1]), dtype=np.intp)
    return Histogram(np.diff(np.concatenate(([0], below, [size]))), edges)


def scaled_tridiagonal(n: int, w: GammaWeights, seed: RngSeed) -> Tridiagonal:
    """T / sqrt(n), for the tridiagonal form T of the matrix G sampled from
    seed: `tridiagonal_form` of its band of bandwidth p
    (`linalg.narrow_band`), each step checked by its own gate."""
    t = tridiagonal_form(narrow_band(build_G(n, w, seed)))
    scale = math.sqrt(n)
    return Tridiagonal(t.d / scale, t.e / scale)


def spectrum_histogram(t: Tridiagonal) -> Histogram:
    """Freedman-Diaconis histogram of the eigenvalues of t, without
    computing them all.

    The minimum and the maximum are bisected (dstebz), one `map_trials`
    task each; the quartile brackets of `fd_histogram` and every interior
    bin edge are Sturm counts (dlaebz) on one `SturmCounter`, whose form
    is prepared once for all of them, and the quartiles are bisected
    only when the brackets cannot certify the bin count.  The result is bit
    for bit the one of bisecting the quartiles as well: dstebz runs the
    same Sturm count (same recurrence, pivmin and power-of-two scaling) and
    returns the midpoint of an interval narrower than 2 eps times its
    endpoints' magnitude where the count reaches k + 1.  Where it sets an
    off-diagonal below eps sqrt|d_i d_(i+1)| to 0, the eigenvalues move by
    at most 2 eps max |d_i|.  Both stay within the slack of
    `fd_histogram`, whose largest magnitude is the spectral norm of t.
    For t = `scaled_tridiagonal(n, w, seed)`, bins and
    counts equal those of np.histogram of
    empirical_spectrum(n, w, seed).to_scaled().values unless an eigenvalue
    lies within rounding of a bin edge, and the edges agree to about 1e-14
    relative.
    """

    def order_stats(ranks: list[int]) -> list[float]:
        tasks = [partial(bisect_eigvals, t, k + 1, k + 1) for k in ranks]
        return [float(value[0]) for value in map_trials(tasks)]

    return fd_histogram(len(t.d), order_stats, SturmCounter(t))


def approx_gap(sampled: EmpiricalSpectrum, reference: np.ndarray) -> float:
    """Max sorted-order gap between one unscaled sampled spectrum and the
    deterministic roots."""
    if sampled.scaled:
        raise ValidationError("approx_gap expects an unscaled spectrum")
    return float(np.abs(sampled.values - reference).max())


def gap_report(
    n_list: Sequence[int], w: GammaWeights, trials: int, master_seed: int
) -> list[np.ndarray]:
    """The max gaps (`approx_gap`) of each size in n_list, in list order: one
    array per size, one gap per seed (master_seed, 0..trials-1).

    Every argument is checked before any solve starts.  The roots
    (`roots_of`, solved once per process) and the sampled solves of all
    sizes then go to one `map_trials` call, the largest size first; a size
    listed twice is solved once.
    """
    check_trials(trials)
    for n in n_list:
        check_size(n, w)
        if n < 3:
            raise ValidationError(f"n must be >= 3 so that log n > 1, got {n}")
    sizes = sorted(set(n_list), reverse=True)
    # the A_i checks: stage i does not depend on n, so the largest size
    # covers every other
    recurrence_coeffs(sizes[0], w)
    seeds = [RngSeed(master_seed, trial) for trial in range(trials)]
    tasks = []
    for n in sizes:
        tasks.append(partial(roots_of, n, w))
        tasks += [partial(empirical_spectrum, n, w, seed) for seed in seeds]
    solved = iter(map_trials(tasks))
    gaps = {}
    for n in sizes:
        reference = next(solved)
        gaps[n] = [approx_gap(next(solved), reference) for _ in range(trials)]
    return [np.array(gaps[n]) for n in n_list]


def tail_bound(n: int, p: int, epsilon: float) -> float:
    """min(1, 2 n (p+1) exp(-eps^2 / (18 p^2)))."""
    return min(1.0, 2.0 * n * (p + 1) * math.exp(-epsilon * epsilon / (18.0 * p * p)))


def check_epsilon(epsilon: float) -> None:
    """Reject a tail threshold that is not a finite number >= 0."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")


def tail_bound_experiment(
    n: int, p: int, epsilon: float, max_gaps: np.ndarray
) -> TailBoundResult:
    """Fraction of the trials' max gaps (one per trial, as `gap_report`
    gives them for size n) at or above epsilon, against the tail bound.

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
