"""Matrix orthogonal polynomial recurrences, matrix Chebyshev polynomials,
and root computation via the block Jacobi matrix.

The three-term recurrence is

    x R_m(x) = A_{m+1} R_{m+1}(x) + B_m R_m(x) + A_m^T R_{m-1}(x)

with R_{-1} = 0, R_0 = I.  A coefficient set holds A_1..A_m and B_0..B_{m-1}
as (m, p, p) stacks of symmetric blocks (the transpose is kept in eval_R
regardless, so the recurrence stays correct for general nonsingular A).
Roots of det R_m are never found by polynomial root-finding: they are the
eigenvalues of the block Jacobi matrix built from the coefficients (F-tilde,
cospectral with `ensemble.build_F`).  `eval_R` evaluates R_m itself; no
library code calls it, and the tests use det R_m at the roots as their
residual check.  `coefficient_blocks` is the one construction of the entry
pattern, for these stages and for the limit blocks A0, B0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ensemble import GammaWeights, check_size
from .errors import NumericalError, ValidationError
from .linalg import SymmetricBanded, asymmetric_blocks, eigh_banded, singular_blocks


class RecurrenceCoeffs:
    """Stacks A (m, p, p) of A_1..A_m and B (m, p, p) of B_0..B_{m-1}.

    All blocks must be finite and symmetric by the condition that
    `linalg.asymmetric_blocks` states, and no A_i may be singular by the
    condition that `linalg.singular_blocks` states.
    """

    def __init__(self, p: int, m: int, A: np.ndarray, B: np.ndarray):
        self.p = p
        self.m = m
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        shape = (self.m, self.p, self.p)
        if self.A.shape != shape or self.B.shape != shape:
            raise ValidationError(
                f"A and B must have shape {shape}, got {self.A.shape}, {self.B.shape}"
            )
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValidationError("coefficient blocks must be finite")
        for name, blocks in (("A", self.A), ("B", self.B)):
            bad = asymmetric_blocks(blocks)
            if bad.size:
                raise ValidationError(f"{name} block {bad[0]} is not symmetric")
        bad = singular_blocks(self.A)
        if bad.size:
            raise ValidationError(f"A_{bad[0] + 1} is numerically singular")


class MarkovBound(NamedTuple):
    """One evaluation of the resolvent-type quadratic form and its bounds."""

    lhs: float
    upper: float
    lower_applicable: bool
    lower: float


def coefficient_blocks(w: GammaWeights, a_count, b_count) -> tuple[np.ndarray, np.ndarray]:
    """The entry pattern: A[q, l] = sqrt(a_count gamma_{p-|q-l|} / 2) and,
    off the diagonal, B[q, l] = sqrt(b_count gamma_{|q-l|} / 2).

    The stage counts broadcast against (p, p).  count * gamma / 2 stays
    under one square root: sqrt(a b / 2) and sqrt(a) sqrt(b / 2) differ in
    the last bit.
    """
    off = np.abs(np.subtract.outer(np.arange(w.p), np.arange(w.p)))
    gamma = np.asarray(w.gamma)
    a = np.sqrt(a_count * gamma[w.p - off - 1] / 2.0)
    b = np.where(off > 0, np.sqrt(b_count * gamma[off - 1] / 2.0), 0.0)
    return a, b


def recurrence_coeffs(n: int, w: GammaWeights) -> RecurrenceCoeffs:
    """Coefficient blocks for matrix size n: stage i = 0..n/p-1 has counts
    i p + max(q, l) in A_{i+1} and i p + min(q, l) in B_i (1-based q, l)."""
    check_size(n, w)
    q, l = np.indices((w.p, w.p)) + 1
    stage = w.p * np.arange(n // w.p)[:, None, None]
    a, b = coefficient_blocks(w, stage + np.maximum(q, l), stage + np.minimum(q, l))
    return RecurrenceCoeffs(p=w.p, m=n // w.p, A=a, B=b)


def eval_R(coeffs: RecurrenceCoeffs, m: int, x: complex) -> np.ndarray:
    """R_m(x) by running the recurrence; x may be real or complex."""
    if not 0 <= m <= coeffs.m:
        raise ValidationError(f"need 0 <= m <= {coeffs.m}, got {m}")
    return _recurrence(coeffs.A[:m], coeffs.B[:m], x)


def _recurrence(a: np.ndarray, b: np.ndarray, x: complex) -> np.ndarray:
    """R_m(x) for the stacks a = A_1..A_m and b = B_0..B_{m-1}, each (m, p, p).

    Each stage solves against A_{j+1} via LU with partial pivoting; a
    numerically singular stage raises NumericalError naming it.
    """
    p = a.shape[-1]
    dtype = complex if np.iscomplexobj(x) else float
    r_prev = np.zeros((p, p), dtype=dtype)
    r_cur = np.eye(p, dtype=dtype)
    eye = np.eye(p)
    for j in range(len(a)):
        rhs = (x * eye - b[j]) @ r_cur
        if j > 0:
            rhs -= a[j - 1].T @ r_prev
        try:
            r_next = np.linalg.solve(a[j], rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"A_{j + 1} is singular in the recurrence: {exc}") from exc
        r_prev, r_cur = r_cur, r_next
    return r_cur


def cheb_T(a: np.ndarray, b: np.ndarray, n: int, t: float) -> np.ndarray:
    """Matrix Chebyshev polynomial of the first kind, T_n at t.

    T_n is R_n of the recurrence with every B_j = B, A_1 = sqrt(2) A and
    A_j = A for j >= 2.  For symmetric A that is T_0 = I and
        t T_0 = sqrt(2) A T_1 + B T_0
        t T_1 = A T_2 + B T_1 + sqrt(2) A T_0
        t T_n = A T_{n+1} + B T_n + A T_{n-1},  n >= 2.
    """
    a = np.asarray(a, dtype=float)
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    stack = np.repeat(a[None], n, axis=0)
    stack[:1] *= math.sqrt(2.0)
    return _recurrence(stack, np.broadcast_to(np.asarray(b, dtype=float), stack.shape), t)


def cheb_U(a: np.ndarray, b: np.ndarray, n: int, t: float) -> np.ndarray:
    """Matrix Chebyshev polynomial of the second kind, U_n at t.

    U_{-1} = 0, U_0 = I, and t U_n = A^T U_{n+1} + B U_n + A U_{n-1}: the
    recurrence with every A_j = A^T and every B_j = B.
    """
    a = np.asarray(a, dtype=float)
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    shape = (n, *a.shape)
    return _recurrence(
        np.broadcast_to(a.T, shape), np.broadcast_to(np.asarray(b, dtype=float), shape), t
    )


def jacobi_matrix(coeffs: RecurrenceCoeffs, m: int) -> SymmetricBanded:
    """Block tridiagonal matrix with diagonal B_0..B_{m-1}, coupling A_1..A_{m-1}.

    Entry (q, l) of block i sits on row i p + q, in band l - q for B_i and
    band p + l - q for A_{i+1}; each stack is written by one indexed
    assignment.
    """
    if not 1 <= m <= coeffs.m:
        raise ValidationError(f"need 1 <= m <= {coeffs.m}, got {m}")
    p = coeffs.p
    out = SymmetricBanded.zeros(m * p, min(2 * p - 1, m * p - 1))
    q, l = np.indices((p, p))
    row = p * np.arange(m)[:, None, None] + q
    upper = q <= l
    out.bands[(l - q)[upper], row[:, upper]] = coeffs.B[:m][:, upper]
    out.bands[p + l - q, row[: m - 1]] = coeffs.A[: m - 1]
    return out


def roots(coeffs: RecurrenceCoeffs, m: int) -> np.ndarray:
    """The m*p roots of det R_m, ascending, with multiplicity.

    Computed as the spectrum of the block Jacobi matrix; coincident
    eigenvalues realize root multiplicities with uniform weight 1/(m*p).
    """
    return eigh_banded(jacobi_matrix(coeffs, m))


def markov_bound_check(
    coeffs: RecurrenceCoeffs,
    n: int,
    z: complex,
    v: np.ndarray,
    m_bound: float,
) -> MarkovBound:
    """Evaluate |v^T R_n(z) R_{n+1}(z)^{-1} A_{n+1}^{-1} v| and its bounds.

    The caller supplies m_bound = M such that all roots of R_{n+1} lie in
    [-M, M] and z outside that interval.  The upper bound v^T v / dist(z, [-M, M])
    always applies; the strict lower bound v^T v / (2|z|) applies when |z| > M.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v != 0):
        raise ValidationError("v must be nonzero")
    if n + 1 > coeffs.m:
        raise ValidationError(f"need n + 1 <= {coeffs.m}, got n={n}")
    z = complex(z)
    dist = _dist_to_interval(z, m_bound)
    if dist <= 0:
        raise ValidationError(f"z={z} must lie outside [-{m_bound}, {m_bound}]")
    r_n = eval_R(coeffs, n, z)
    r_n1 = eval_R(coeffs, n + 1, z)
    try:
        y = np.linalg.solve(r_n1, np.linalg.solve(coeffs.A[n], v).astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"R_{n + 1}(z) is singular at z={z}") from exc
    lhs = float(abs(v @ (r_n @ y)))
    vtv = float(v @ v)
    lower_applicable = bool(abs(z) > m_bound)
    lower = vtv / (2.0 * abs(z)) if lower_applicable else math.nan
    return MarkovBound(
        lhs=lhs,
        upper=vtv / dist,
        lower_applicable=lower_applicable,
        lower=lower,
    )


def _dist_to_interval(z: complex, m_bound: float) -> float:
    if abs(z.real) <= m_bound:
        return abs(z.imag)
    return math.hypot(abs(z.real) - m_bound, z.imag)
