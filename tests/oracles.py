"""Reference constructions the tests compare the library against.

Each one is a direct, loop-by-loop transcription of a definition that the
library computes in a vectorized or closed form:

- `entry` and `to_dense`: one entry of a banded matrix, read off its
  band storage, and the whole matrix written out;
- `block_band`: a p-block tridiagonal matrix written entry by entry into
  band storage of bandwidth 2p - 1, the band that holds it without a
  similarity, against the narrowing inside `linalg.tridiagonal_form`, and
  `blocks_of`, the blocks of a dense p-block tridiagonal matrix;
- `chi_sample`: one chi draw, the per-entry form of `build_G`'s single
  vectorized draw, and `g_band`, G drawn entry by entry into its band of
  bandwidth 2p - 1 from the same draws as `build_G`;
- `build_F_tilde`: the block Jacobi matrix of the matrix orthogonal
  polynomials, entry by entry, against `f_tilde_blocks` of
  `matrixpoly.recurrence_coeffs`, the blocks `matrixpoly.roots` solves;
- `build_F`: the deterministic counterpart of G, cospectral with F-tilde;
- `eval_R`, `cheb_T` and `cheb_U`: R_m and the matrix Chebyshev polynomials
  run through the recurrence, against `matrixpoly.roots` and the scalar
  closed forms, and `markov_bound_check`, the resolvent-type bound;
- `build_AB`, `lambda_and_weights` and `trace_density`: the coefficient
  pair at one s, its eigenvalue curves with derivative weights, and the
  trace density at one (s, t), against the batched quadrature kernel of
  `spectral`, and `density_at`, that kernel's table at a single point;
- `arcsine_branch_loop`: the p = 2 oracle at one point, branch by branch,
  against the one `_bisect` pass of `arcsine_mixture_density` over many;
- `limit_moments`: the moments of the limit law from powers of the block
  Toeplitz symbol, against the moments of a `density_grid` table;
- `lu_log_abs_det`: sign and log|det| from an LU with partial pivoting,
  the per-block gate that `linalg.singular_blocks` must cover;
- `levy_reference`: the Levy distance of two empirical CDFs by trying every
  candidate value, against `harness.levy_distance`;
- `bisected_fd_histogram`: `figure`'s histogram with every order statistic
  that numpy's Freedman-Diaconis rule reads bisected and the rule applied
  by numpy itself, against `harness.spectrum_histogram`, which bisects only
  the minimum and the maximum.

It also holds the test-side helpers with no caller in the library:
`banded_from_dense`, `truncated` (the first m stages of a coefficient set),
`sturm_counts` (one `linalg.SturmCounter` call) and the readers of the
files `formats` writes.

A band is a plain array in LAPACK's upper band storage, the form
scipy.linalg.eigvals_banded takes: ab of shape (u + 1, dim) holds entry
(i, j) of the symmetric matrix at ab[u + i - j, j] for 0-based i <= j, so
its bandwidth u and dim are read from its shape, and the corner
ab[u - d, :d], which no entry maps to, is zero.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg

from blockspec.ensemble import GammaWeights, RngSeed, check_size, chi_layout, rng_from_seed
from blockspec.errors import NumericalError, ValidationError
from blockspec import spectral
from blockspec.harness import Histogram
from blockspec.linalg import (
    BlockTridiagonal,
    SturmCounter,
    Tridiagonal,
    require_symmetric,
    spd_inv_sqrt,
)
from blockspec.matrixpoly import RecurrenceCoeffs
from blockspec.spectral import SpectralDensity, limit_blocks


def entry(ab: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of the banded matrix stored in ab, 0-based; zero
    outside the band."""
    i, j = (i, j) if i <= j else (j, i)
    u = len(ab) - 1
    if j - i > u:
        return 0.0
    return float(ab[u + i - j, j])


def to_dense(ab: np.ndarray) -> np.ndarray:
    """The full symmetric matrix held by the band storage ab."""
    u, dim = len(ab) - 1, ab.shape[1]
    out = np.zeros((dim, dim))
    for d in range(u + 1):
        idx = np.arange(dim - d)
        out[idx, idx + d] = ab[u - d, d:]
        out[idx + d, idx] = ab[u - d, d:]
    return out


def block_band(m: BlockTridiagonal) -> np.ndarray:
    """m in band storage of bandwidth min(2p - 1, dim - 1), entry by entry:
    the upper triangle of D_b at rows and columns b p.., and C_b at rows
    b p.. and columns (b + 1) p..."""
    k, p = m.diag.shape[:2]
    dim = k * p
    u = min(2 * p - 1, dim - 1)
    ab = np.zeros((u + 1, dim))
    for b in range(k):
        for i in range(p):
            for j in range(i, p):
                ab[u + i - j, b * p + j] = m.diag[b, i, j]
    for b in range(k - 1):
        for i in range(p):
            for j in range(p):
                ab[u - p + i - j, (b + 1) * p + j] = m.coupling[b, i, j]
    return ab


def blocks_of(dense: np.ndarray, p: int) -> BlockTridiagonal:
    """The diagonal and coupling p x p blocks of a dense matrix; entries
    two or more blocks off the diagonal are not read."""
    k = len(dense) // p
    diag = [dense[b * p:(b + 1) * p, b * p:(b + 1) * p] for b in range(k)]
    coupling = [dense[b * p:(b + 1) * p, (b + 1) * p:(b + 2) * p] for b in range(k - 1)]
    return BlockTridiagonal(np.array(diag), np.array(coupling).reshape(k - 1, p, p))


def f_tilde_blocks(coeffs: RecurrenceCoeffs) -> BlockTridiagonal:
    """The block Jacobi matrix F-tilde of a coefficient set, as
    `matrixpoly.roots` builds it: diagonal blocks B_0..B_{m-1}, coupling
    blocks A_1..A_{m-1}."""
    return BlockTridiagonal(coeffs.B, coeffs.A[:-1])


def chi_sample(rng: np.random.Generator, dof: float) -> float:
    """One chi draw with `dof` degrees of freedom (dof may be fractional).

    Drawn as sqrt of a gamma(dof/2, scale 2) variate; dof = 0 gives 0.
    """
    if dof < 0:
        raise ValidationError(f"chi degrees of freedom must be >= 0, got {dof}")
    if dof == 0:
        return 0.0
    return float(np.sqrt(rng.gamma(dof / 2.0, 2.0)))


def g_band(n: int, w: GammaWeights, seed: RngSeed) -> np.ndarray:
    """G in band storage of bandwidth 2p - 1, from the draws of `build_G`
    made one at a time: the n diagonal normals, then one `chi_sample` per
    position of `chi_layout`, in its order, divided by sqrt(2)."""
    rows, cols, dof = chi_layout(n, w)
    rng = rng_from_seed(seed)
    u = 2 * w.p - 1
    ab = np.zeros((u + 1, n))
    ab[u] = rng.standard_normal(n)
    for r, c, k in zip(rows.tolist(), cols.tolist(), dof.tolist()):
        ab[u + r - c, c - 1] = chi_sample(rng, k) / math.sqrt(2.0)
    return ab


def build_F_tilde(n: int, w: GammaWeights) -> np.ndarray:
    """Block Jacobi matrix of the associated matrix orthogonal polynomials.

    Diagonal blocks (i = 0..n/p-1) have zero diagonal and off-diagonal
    entries sqrt((ip + min(q,l)) * gamma_{|q-l|} / 2); coupling blocks
    (i = 1..n/p-1) have entries sqrt(((i-1)p + max(q,l)) * gamma_{p-|q-l|} / 2).
    Its spectrum equals the spectrum of build_F after sorting.
    """
    check_size(n, w)
    p, gamma = w.p, w.gamma
    m = n // p
    u = min(2 * p - 1, n - 1)
    ab = np.zeros((u + 1, n))
    for i in range(m):
        off = i * p
        for q in range(1, p + 1):
            for l in range(q + 1, p + 1):
                val = math.sqrt((i * p + q) * gamma[l - q - 1] / 2.0)
                ab[u + q - l, off + l - 1] = val
    for i in range(1, m):
        row_off = (i - 1) * p
        for q in range(1, p + 1):
            for l in range(1, p + 1):
                r, c = row_off + q, i * p + l
                val = math.sqrt(((i - 1) * p + max(q, l)) * gamma[p - abs(q - l) - 1] / 2.0)
                ab[u + r - c, c - 1] = val
    return ab


def build_F(n: int, w: GammaWeights) -> np.ndarray:
    """Deterministic counterpart of G from `ensemble.chi_layout`: normals -> 0,
    chi_k draws -> sqrt(k).  Permutation-similar to build_F_tilde."""
    rows, cols, dof = chi_layout(n, w)
    kd = 2 * w.p - 1
    ab = np.zeros((kd + 1, n))
    ab[kd + rows - cols, cols - 1] = np.sqrt(dof) / math.sqrt(2.0)
    return ab


def truncated(coeffs: RecurrenceCoeffs, m: int) -> RecurrenceCoeffs:
    """The coefficient set of the first m stages of coeffs."""
    return RecurrenceCoeffs(coeffs.A[:m], coeffs.B[:m])


def eval_R(coeffs: RecurrenceCoeffs, m: int, x: complex) -> np.ndarray:
    """R_m(x) by running the recurrence; x may be real or complex."""
    return _recurrence(coeffs.A[:m], coeffs.B[:m], x)


def _recurrence(a: np.ndarray, b: np.ndarray, x: complex) -> np.ndarray:
    """R_m(x) for the stacks a = A_1..A_m and b = B_0..B_{m-1}, each (m, p, p),
    solving each stage for R_{j+1}; the A_j^T term keeps it right for any
    nonsingular A, symmetric or not."""
    p = a.shape[-1]
    dtype = complex if np.iscomplexobj(x) else float
    r_prev = np.zeros((p, p), dtype=dtype)
    r_cur = np.eye(p, dtype=dtype)
    eye = np.eye(p)
    for j in range(len(a)):
        rhs = (x * eye - b[j]) @ r_cur
        if j > 0:
            rhs -= a[j - 1].T @ r_prev
        r_prev, r_cur = r_cur, np.linalg.solve(a[j], rhs)
    return r_cur


def cheb_T(a: np.ndarray, b: np.ndarray, n: int, t: float) -> np.ndarray:
    """Matrix Chebyshev polynomial of the first kind, T_n at t: R_n of the
    recurrence with every B_j = B, A_1 = sqrt(2) A and A_j = A for j >= 2.
    For symmetric A that is T_0 = I, t T_0 = sqrt(2) A T_1 + B T_0,
    t T_1 = A T_2 + B T_1 + sqrt(2) A T_0 and, for n >= 2,
    t T_n = A T_{n+1} + B T_n + A T_{n-1}."""
    stack = np.repeat(np.asarray(a, dtype=float)[None], n, axis=0)
    stack[:1] *= math.sqrt(2.0)
    return _recurrence(stack, np.broadcast_to(b, stack.shape), t)


def cheb_U(a: np.ndarray, b: np.ndarray, n: int, t: float) -> np.ndarray:
    """Matrix Chebyshev polynomial of the second kind, U_n at t: U_{-1} = 0,
    U_0 = I and t U_n = A^T U_{n+1} + B U_n + A U_{n-1}, the recurrence with
    every A_j = A^T and every B_j = B."""
    a = np.asarray(a, dtype=float)
    shape = (n, *a.shape)
    return _recurrence(np.broadcast_to(a.T, shape), np.broadcast_to(b, shape), t)


class MarkovBound(NamedTuple):
    """One evaluation of the resolvent-type quadratic form and its bounds."""

    lhs: float
    upper: float
    lower: float


def markov_bound_check(
    coeffs: RecurrenceCoeffs, n: int, z: complex, v: np.ndarray, m_bound: float
) -> MarkovBound:
    """|v^T R_n(z) R_{n+1}(z)^{-1} A_{n+1}^{-1} v| and its bounds, for v nonzero
    and m_bound = M such that all roots of R_{n+1} lie in [-M, M], z outside.
    The upper bound v^T v / dist(z, [-M, M]) always applies; the strict lower
    bound v^T v / (2|z|) applies when |z| > M."""
    v = np.asarray(v, dtype=float)
    z = complex(z)
    y = np.linalg.solve(eval_R(coeffs, n + 1, z), np.linalg.solve(coeffs.A[n], v))
    vtv = float(v @ v)
    dist = math.hypot(max(abs(z.real) - m_bound, 0.0), z.imag)
    return MarkovBound(
        lhs=float(abs(v @ (eval_R(coeffs, n, z) @ y))),
        upper=vtv / dist,
        lower=vtv / (2.0 * abs(z)),
    )


class LambdaPoint(NamedTuple):
    """One eigenvalue curve sample: the value and its derivative weight."""

    value: float
    weight: float


def build_AB(w: GammaWeights, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient pair (A(s), B(s)) = sqrt(s*p) * (A0, B0)."""
    if s <= 0:
        raise ValidationError(f"s must be > 0, got {s}")
    factor = math.sqrt(s * w.p)
    a0, b0, _ = limit_blocks(w)
    return factor * a0, factor * b0


def lambda_and_weights(a: np.ndarray, b: np.ndarray, t: float) -> list[LambdaPoint]:
    """Eigenvalue curve samples of W(t) = A^{-1/2}(B - tI)A^{-1/2}, ascending.

    Each point carries weight u^T A^{-1} u = ||A^{-1/2} u||^2 for its unit
    eigenvector u, which equals -dlambda/dt.  A must be positive definite.
    """
    a = require_symmetric(a)
    b = require_symmetric(b)
    s_half = spd_inv_sqrt(a)
    w_mat = s_half @ (b - t * np.eye(a.shape[0])) @ s_half
    values, vectors = np.linalg.eigh((w_mat + w_mat.T) / 2.0)
    weights = np.sum((s_half @ vectors) ** 2, axis=0)
    return [LambdaPoint(float(v), float(wt)) for v, wt in zip(values, weights)]


def trace_density(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """Density of the Chebyshev-type matrix measure trace at t.

    Sum of weight / (pi * sqrt(4 - lambda^2)) over curves with |lambda| < 2;
    zero when no curve is inside (-2, 2).
    """
    total = 0.0
    for lam, weight in lambda_and_weights(a, b, t):
        if abs(lam) < 2.0:
            total += weight / (math.pi * math.sqrt(4.0 - lam * lam))
    return total


def density_at(w: GammaWeights, t: float, quad_tol: float = 1e-8) -> float:
    """Limit density f(t): the one-point table of `spectral._density_table`,
    the kernel behind `density_grid`, held to the absolute tolerance quad_tol
    by its embedded error estimate, after the checks of `density_grid` on
    A0 and quad_tol."""
    blocks = limit_blocks(w)
    spectral._require_quad_tol(quad_tol)
    density, _, _ = spectral._density_table(*blocks, np.array([float(t)]), quad_tol)
    return float(density[0])


def arcsine_branch_loop(gamma1: float, gamma2: float, x: float, quad_tol: float) -> float:
    """The p = 2 oracle density at one x, each branch in a `_bisect` pass
    of its own, one row whose accepted panels `_bisect` adds in the order
    they were accepted, and the branches added in order: the summation
    order that `arcsine_mixture_density` must keep for every point of an
    array."""
    total = 0.0
    for params, edges in spectral._branch_integrands(
        *spectral._arcsine_branches(gamma1, gamma2), x
    ):
        edges = np.array(edges)
        a, b = edges[:-1], edges[1:]
        totals, stuck = spectral._bisect(
            lambda row, a, b, end: spectral._theta_panels(
                partial(spectral._arcsine_integrand, *params), a, b
            ),
            np.zeros(len(a), dtype=int), a, b, b, quad_tol / 2.0 * ((b - a) / edges[-1]),
            spectral._MAX_BISECTIONS, 1,
        )
        if stuck:
            raise NumericalError(f"x = {x!r} is stuck at quad_tol {quad_tol!r}")
        total += float(totals[0, 0])
    return total


def support_bound(w: GammaWeights) -> float:
    """Row-sum bound M* = ||B0||_inf + 2 ||A0||_inf on the support, the
    end of every table's grid, summed as `spectral._grid` sums it."""
    a0, b0, _ = limit_blocks(w)
    return float(np.abs(b0).sum(axis=1).max() + 2.0 * np.abs(a0).sum(axis=1).max())


def limit_moments(w: GammaWeights, k_max: int) -> np.ndarray:
    """Moments m_0..m_k_max of the limit law, with no quadrature.

    The density is the trace of an s-integral over (0, 1/p] of Chebyshev-T
    matrix measures with coefficients sqrt(s p) (A0, B0).  Such a measure
    has the moments of the doubly infinite block Toeplitz operator with
    symbol B0 + A0 (z + 1/z), so with mu_k the trace of the z^0 coefficient
    of the symbol's k-th power, the s-integral of (s p)^(k/2) gives
    m_k = mu_k / (p (k/2 + 1)).
    """
    p = w.p
    a0, b0, _ = limit_blocks(w)
    # coeffs[k_max + j] is the p x p coefficient of z^j in the current power
    coeffs = np.zeros((2 * k_max + 1, p, p))
    coeffs[k_max] = np.eye(p)
    moments = [1.0]
    for k in range(1, k_max + 1):
        power = coeffs @ b0
        power[1:] += coeffs[:-1] @ a0
        power[:-1] += coeffs[1:] @ a0
        coeffs = power
        moments.append(float(np.trace(coeffs[k_max])) / (p * (k / 2 + 1)))
    return np.array(moments)


def lu_log_abs_det(m: np.ndarray) -> tuple[int, float]:
    """(sign, log|det|) from scipy.linalg.lu_factor.

    sign is 0 with log|det| = -inf when some pivot is at most 1e-12 times
    the max row sum norm ||M||_inf (numerical singularity).
    """
    m = np.asarray(m, dtype=float)
    row_norm = float(np.abs(m).sum(axis=1).max())
    if row_norm == 0.0:
        return 0, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.diagonal(lu)
    if np.abs(pivots).min() <= 1e-12 * row_norm:
        return 0, -np.inf
    sign = 1 if (piv != np.arange(len(piv))).sum() % 2 == 0 else -1
    sign *= 1 if (pivots < 0).sum() % 2 == 0 else -1
    return sign, float(np.log(np.abs(pivots)).sum())


def levy_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Levy distance between the empirical CDFs F, G of two sorted samples
    a, b of equal length n, in O(n^4) by trying every candidate.

    The least eps >= 0 with F(x - eps) - eps <= G(x) <= F(x + eps) + eps
    for all x.  The right half can fail first at a jump x = b_i of G, the
    left half at a jump x = a_i + eps of F(x - eps), so eps passes iff for
    every i, i/n - #{j: a_j - b_i <= eps}/n <= eps and i/n - #{j: b_j - a_i
    <= eps}/n <= eps.  Each count difference k is compared as k/n; both
    sides of every comparison change only at a value k/n or a difference
    a_i - b_j or b_i - a_j, so the least passing eps is one of those.
    """
    n = len(a)
    a_minus_b = np.subtract.outer(a, b)  # [i, j] = a_i - b_j
    gaps = (a_minus_b.T, -a_minus_b)  # [i, j] = a_j - b_i and b_j - a_i
    ranks = np.arange(1, n + 1)
    candidates = np.concatenate([np.arange(n + 1) / n, a_minus_b.ravel(), -a_minus_b.ravel()])
    for eps in np.unique(candidates[candidates >= 0.0]):
        if all(
            ((ranks - (gap <= eps).sum(axis=1)) / n <= eps).all() for gap in gaps
        ):
            return float(eps)
    raise AssertionError("eps = 1 always passes")


def bisected_fd_histogram(t: Tridiagonal) -> Histogram:
    """np.histogram(values, bins="fd") of the eigenvalues of t, with each
    value that the rule reads bisected (dstebz): the minimum, the maximum
    and the two neighbours of each quartile position, one where the
    position is whole.  numpy's own np.histogram_bin_edges applies the rule
    to a sorted stand-in that holds those values at their ranks and, at
    every other rank, the next bisected value above it.  Each bin's count
    is the difference of Sturm counts at its edges.
    """
    n = len(t.d)
    positions = [(n - 1) * q for q in (0.25, 0.75)]
    ranks = sorted({0, n - 1, *map(math.floor, positions), *map(math.ceil, positions)})
    counter = SturmCounter(t)
    values = np.array([counter.eigenvalue(k) for k in ranks])
    stand_in = values[np.searchsorted(ranks, np.arange(n))]
    edges = np.histogram_bin_edges(stand_in, bins="fd")
    below = counter(edges[1:-1])
    return Histogram(np.diff(np.concatenate(([0], below, [n]))), edges)


def sturm_counts(t: Tridiagonal, x: np.ndarray) -> np.ndarray:
    """For each x, the number of eigenvalues of t at or below x, counted
    once: `SturmCounter(t)(x)`."""
    return SturmCounter(t)(x)


def banded_from_dense(m: np.ndarray, bandwidth: int) -> np.ndarray:
    """The band storage of a symmetric matrix, keeping `bandwidth` bands."""
    m = require_symmetric(m)
    ab = np.zeros((bandwidth + 1, m.shape[0]))
    for d in range(bandwidth + 1):
        ab[bandwidth - d, d:] = np.diagonal(m, d)
    return ab


def read_json(path: str | Path) -> dict:
    with open(path, "r") as fh:
        return json.load(fh)


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise ValidationError(f"unexpected spectrum CSV header: {header!r}")
        return np.array([float(line.split(",")[1]) for line in fh if line.strip()])


def read_density_csv(path: str | Path, sidecar: str | Path | None = None) -> SpectralDensity:
    """The table at path, with the weights and quad_tol of its JSON sidecar,
    by default the path with suffix .json (a figure's is <name>.json)."""
    meta = read_json(Path(path).with_suffix(".json") if sidecar is None else sidecar)
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "t,density,cdf":
            raise ValidationError(f"unexpected density CSV header: {header!r}")
        rows = [tuple(map(float, line.split(","))) for line in fh if line.strip()]
    grid, density, cdf = (np.array(col) for col in zip(*rows))
    w = GammaWeights(meta["gamma"])
    return SpectralDensity(w, grid, density, cdf, meta["quad_tol"], meta.get("quad_err_est"))


def read_histogram_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "bin_center,frequency_density":
            raise ValidationError(f"unexpected histogram CSV header: {header!r}")
        rows = [tuple(map(float, line.split(","))) for line in fh if line.strip()]
    centers, heights = (np.array(col) for col in zip(*rows))
    return centers, heights
