"""Real symmetric linear algebra: the banded eigensolver, the narrowing of a
p-block tridiagonal matrix (`BlockTridiagonal`) to a band of bandwidth p,
the reduction of a band to tridiagonal form with bisection and Sturm
counts on the result, the SPD inverse square root, and the numerical
singularity test for stacks of small blocks.

All matrices are plain float64 numpy arrays.  Dense inputs must be symmetric
(checked), banded inputs are symmetric by construction of SymmetricBanded,
which takes only its band storage ab and reads dim and bandwidth from the
shape of ab, and a BlockTridiagonal holds its blocks as (k, p, p) stacks.
Both solves are backed by numpy's LAPACK, which meets the backward-stable
accuracy contracts stated per function; the dense solve inside
spd_inv_sqrt additionally verifies its residuals, and every banded solve
checks two invariants of its tridiagonal reduction.

The banded routines call LAPACK dsbtrd, dsterf, dstebz and dlaebz as ctypes
foreign calls, so the GIL is released for each call's duration and work on
several threads (harness.map_trials) runs in parallel.  The routines are the
ones in the LAPACK that numpy.linalg's _umath_linalg extension links
against: the extension is opened once with ctypes.CDLL by its file, and the
symbol lookup also searches the libraries it depends on, so nothing new is
loaded, scipy included.  A full spectrum is dsbtrd, the reduction gate,
then dsterf, the two steps of dsbevd for eigenvalues only, so for the band
it is given it is bit-identical to scipy.linalg.eigvals_banded wherever
dsbevd would not rescale the band.  The matrices of blockspec are p-block
tridiagonal and are built as their blocks, and `narrow_band` writes them
as a band of bandwidth p (O(dim p^2) in numpy and Python floats, no LAPACK
call), so their spectra are those of the narrowed band: within rounding of
the matrix's own, and cheap, since dsbtrd costs O(dim^2 bandwidth).

The call convention, bound once per routine by `_routine`: the symbols are
the raw Fortran ones, so every argument is passed by reference.  Arrays are
typed with numpy.ctypeslib.ndpointer, which checks their dtype (float64, or
the Fortran INTEGER: 64-bit when numpy's LAPACK is ILP64,
numpy.linalg.lapack_lite._ilp64) and contiguity before LAPACK runs and
raises ctypes.ArgumentError otherwise.  Scalars are ctypes instances, an
argument the call never references is None, and the lengths of the
CHARACTER arguments follow the last argument.  A negative INFO raises
ValidationError naming the rejected argument (`_info`).

The safe-range scaling: dsbevd reduces a matrix without scaling it when its
max |m_ij| lies in [sqrt(tiny / eps), sqrt(eps / tiny)] ~ [1e-146, 1e146],
where the squares of its entries stay finite and normal.  A band or
tridiagonal outside that range goes to LAPACK as 2^-k times itself, with
max |m_ij| 2^-k in [1/2, 1) (`_scale_down`), and the results come back
times 2^k (`_scale_up`): exact unless an entry leaves the normal range, and
a result beyond the float range raises ConvergenceError.
"""

from __future__ import annotations

import ctypes
import math
from typing import NamedTuple

import numpy as np
from numpy.ctypeslib import ndpointer
from numpy.linalg import _umath_linalg, lapack_lite

from .errors import ConvergenceError, ValidationError

# Relative asymmetry max |M - M^T| <= SYMMETRY_RTOL max(1, max |M|) that
# require_symmetric and asymmetric_blocks accept.
SYMMETRY_RTOL = 1e-12

# Fortran INTEGER of numpy's LAPACK, and the names its builds give a routine:
# the scipy-openblas wheels prefix "scipy_", ILP64 builds suffix "64_".
if lapack_lite._ilp64:
    _INT, _SUFFIX = ctypes.c_int64, "_64_"
else:
    _INT, _SUFFIX = ctypes.c_int, "_"
_INT_P = ctypes.POINTER(_INT)
_DOUBLE = ctypes.c_double
_DOUBLE_P = ctypes.POINTER(_DOUBLE)
_CHAR, _LEN, _UNUSED = ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p
_DOUBLES = ndpointer(np.float64, flags="C_CONTIGUOUS")
_INTS = ndpointer(_INT, flags="C_CONTIGUOUS")
_DOUBLES_F = ndpointer(np.float64, flags="F_CONTIGUOUS")
_INTS_F = ndpointer(_INT, flags="F_CONTIGUOUS")

_SAFE_MIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_SAFE_MAX = 1.0 / _SAFE_MIN


def _scale_down(matrix: str, *arrays: np.ndarray) -> tuple[list[np.ndarray], int]:
    """(`arrays` times 2^-k, k): k is 0 when their max |entry| is 0 or in
    [_SAFE_MIN, _SAFE_MAX], else it puts that max in [1/2, 1).  A
    non-finite entry raises ValidationError naming the `matrix`."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{matrix} has non-finite entries")
    size = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    k = 0 if size == 0.0 or _SAFE_MIN <= size <= _SAFE_MAX else math.frexp(size)[1]
    return [np.ldexp(a, -k) for a in arrays], k


def _scale_up(values: list[np.ndarray], k: int, stage: str) -> list[np.ndarray]:
    """`values` times 2^k, in place; ConvergenceError "<stage> when scaled
    by 2^k" if one leaves the float range."""
    with np.errstate(over="ignore"):  # an overflow raises below
        values = [np.ldexp(v, k, out=v) for v in values]
    if not all(np.isfinite(v).all() for v in values):
        raise ConvergenceError(f"{stage} when scaled by 2^{k}")
    return values


_LAPACK = ctypes.CDLL(_umath_linalg.__file__)


def _routine(name: str, *argtypes):
    """ctypes foreign function for numpy's LAPACK routine `name`, under the
    first of the names its builds give it that `_LAPACK` exports."""
    symbols = (f"scipy_{name}{_SUFFIX}", f"{name}{_SUFFIX}")
    found = [symbol for symbol in symbols if hasattr(_LAPACK, symbol)]
    if not found:
        raise ImportError(
            f"neither {_umath_linalg.__file__} nor a library it loads exports any "
            f"of the LAPACK symbols {', '.join(symbols)}"
        )
    routine = getattr(_LAPACK, found[0])
    routine.argtypes, routine.restype = argtypes, None
    return routine


def _info(name: str, info) -> int:
    """The INFO value of routine `name`, raising if it rejected an argument."""
    if info.value < 0:
        raise ValidationError(f"{name} rejected argument {-info.value}")
    return info.value


# dsbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info, len(vect), len(uplo))
_DSBTRD = _routine(
    "dsbtrd", _CHAR, _CHAR, _INT_P, _INT_P, _DOUBLES_F, _INT_P, _DOUBLES, _DOUBLES,
    _UNUSED, _INT_P, _DOUBLES, _INT_P, _LEN, _LEN,
)

# dsterf(n, d, e, info)
_DSTERF = _routine("dsterf", _INT_P, _DOUBLES, _DOUBLES, _INT_P)

# dstebz(range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
#        isplit, work, iwork, info, len(range), len(order))
_DSTEBZ = _routine(
    "dstebz", _CHAR, _CHAR, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _INT_P, _DOUBLE_P,
    _DOUBLES, _DOUBLES, _INT_P, _INT_P, _DOUBLES, _INTS, _INTS, _DOUBLES, _INTS, _INT_P,
    _LEN, _LEN,
)

# dlaebz(ijob, nitmax, n, mmax, minp, nbmin, abstol, reltol, pivmin, d, e, e2,
#        nval, ab, c, mout, nab, work, iwork, info)
_DLAEBZ = _routine(
    "dlaebz", _INT_P, _INT_P, _INT_P, _INT_P, _INT_P, _INT_P, _DOUBLE_P, _DOUBLE_P,
    _DOUBLE_P, _DOUBLES, _DOUBLES, _DOUBLES, _UNUSED, _DOUBLES_F, _UNUSED, _INT_P,
    _INTS_F, _UNUSED, _UNUSED, _INT_P,
)


class SymmetricBanded:
    """Symmetric matrix in LAPACK's upper band storage: ab, of shape
    (u + 1, dim) in Fortran order, holds entry (i, j) at ab[u + i - j, j]
    for 0-based i <= j, so symmetry holds by construction.  `dim` and the
    `bandwidth` u, the number of nonzero super-diagonals, are read from
    ab's shape.  The corner ab[u - d, :d], which no entry maps to, is zeroed
    on construction, in a copy: a caller's array is never changed.
    """

    def __init__(self, ab: np.ndarray):
        self.ab = np.array(ab, dtype=float, order="F")
        if self.ab.ndim != 2 or 0 in self.ab.shape:
            raise ValidationError(
                f"ab must be 2-d with at least one row and one column, got shape {self.ab.shape}"
            )
        self.bandwidth, self.dim = self.ab.shape[0] - 1, self.ab.shape[1]
        for row in range(self.bandwidth):
            self.ab[row, : self.bandwidth - row] = 0.0


class BlockTridiagonal(NamedTuple):
    """Symmetric p-block tridiagonal matrix of k blocks, dim = k p: `diag`
    (k, p, p) holds the symmetric diagonal blocks D_0..D_{k-1} and
    `coupling` (k - 1, p, p) the coupling blocks C_0..C_{k-2}, with C_b at
    block row b and block column b + 1 (and C_b^T at block row b + 1 and
    block column b).  `narrow_band` writes it as a band."""

    diag: np.ndarray
    coupling: np.ndarray


def require_symmetric(m: np.ndarray) -> np.ndarray:
    """Return m as a float array, raising if it is not square symmetric."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if asymmetric_blocks(m[None]).size:
        raise ValidationError("matrix is not symmetric")
    return m


def eigh_banded(m: SymmetricBanded) -> np.ndarray:
    """All eigenvalues of a symmetric banded matrix, ascending.

    LAPACK dsterf, the QR step of dsbevd, on tridiagonal_form(m), with the
    GIL released.  Both steps are backward stable: the values are the
    exact eigenvalues of M + E with ||E||_2 of order dim * machine epsilon
    * ||M||_2, so each is within that distance of an eigenvalue of M.
    Requires bandwidth < dim (densify wider matrices first).
    """
    d, e = tridiagonal_form(m)  # fresh arrays, overwritten by dsterf
    info = _INT(0)
    _DSTERF(_INT(len(d)), d, e, info)
    if _info("dsterf", info) > 0:
        raise ConvergenceError(
            f"banded eigensolver (dsterf) did not converge: {info.value} off-diagonal "
            "elements of the tridiagonal form did not converge to zero"
        )
    if not np.all(np.isfinite(d)):
        raise ConvergenceError("banded eigensolver produced non-finite values")
    return d


class Tridiagonal(NamedTuple):
    """Symmetric tridiagonal matrix: diagonal d (length dim) and
    off-diagonal e (length dim - 1)."""

    d: np.ndarray
    e: np.ndarray


def tridiagonal_form(m: SymmetricBanded) -> Tridiagonal:
    """A tridiagonal T = Q^T M Q orthogonally similar to m, so with the
    eigenvalues of m.

    This is LAPACK dsbtrd, the reduction dsbevd makes before its QR step
    (`eigh_banded`), with the GIL released.  Two invariants of the
    similarity are checked: |tr T - tr M| <= 4 dim eps ||M||_F and
    |(||T||_F^2 - ||M||_F^2)| <= 4 dim eps ||M||_F^2, with eps = 2^-52;
    a breach raises ConvergenceError naming the stage.  The factor 4 is
    set from measurement: over 1e5 random bands of dim 2-12 the larger
    residual reached 1.34 dim eps (at dim 3), and on the five figure
    matrices at n = 5000 it stays below 0.01 dim eps.  A band outside the
    safe range is reduced and checked as 2^-k M, and T is scaled back by
    2^k (the module's safe-range scaling); a T beyond the float range
    raises ConvergenceError.
    """
    if m.bandwidth >= m.dim:
        raise ValidationError(
            f"bandwidth {m.bandwidth} >= dim {m.dim}: densify and use a dense eigensolver"
        )
    (ab,), scale = _scale_down("banded matrix", m.ab)  # a copy, overwritten by dsbtrd
    n, kd = m.dim, m.bandwidth
    before = _band_invariants(ab)
    d = np.empty(n)
    e = np.empty(max(n - 1, 1))
    info = _INT(0)
    _DSBTRD(
        b"N", b"U", _INT(n), _INT(kd), ab, _INT(kd + 1), d, e, None, _INT(1),
        np.empty(n), info, 1, 1,
    )
    _info("dsbtrd", info)
    e = e[: n - 1]
    after = float(d.sum()), float(d @ d + 2.0 * (e @ e))
    _similarity_gate("band reduction (dsbtrd)", n, before, after)
    return Tridiagonal(*_scale_up([d, e], scale, "band reduction (dsbtrd): T overflows"))


def _band_invariants(ab: np.ndarray) -> tuple[float, float]:
    """(tr M, ||M||_F^2) of the symmetric band M stored in ab."""
    kd = ab.shape[0] - 1
    return float(ab[kd].sum()), float(np.sum(ab[kd] ** 2) + 2.0 * np.sum(ab[:kd] ** 2))


def _similarity_gate(
    stage: str, dim: int, before: tuple[float, float], after: tuple[float, float]
) -> None:
    """Check that T, with invariants `after` = (tr T, ||T||_F^2), can be an
    orthogonal similarity of the dim x dim matrix M with invariants
    `before`: |tr T - tr M| <= 4 dim eps ||M||_F and
    |(||T||_F^2 - ||M||_F^2)| <= 4 dim eps ||M||_F^2, with eps = 2^-52.
    A breach raises ConvergenceError naming the `stage`."""
    (trace, frob_sq), (new_trace, new_frob_sq) = before, after
    tol = 4 * dim * np.finfo(float).eps * math.sqrt(frob_sq)
    trace_residual = abs(new_trace - trace)
    frob_residual = abs(new_frob_sq - frob_sq)
    # written so that a NaN residual fails too
    if not trace_residual <= tol:
        raise ConvergenceError(
            f"{stage}: |tr T - tr M| = {trace_residual:.3e} "
            f"exceeds 4 * dim * eps * ||M||_F = {tol:.3e}"
        )
    if not frob_residual <= tol * math.sqrt(frob_sq):
        raise ConvergenceError(
            f"{stage}: | ||T||_F^2 - ||M||_F^2 | = {frob_residual:.3e} "
            f"exceeds 4 * dim * eps * ||M||_F^2 = {tol * math.sqrt(frob_sq):.3e}"
        )


def narrow_band(m: BlockTridiagonal) -> SymmetricBanded:
    """A band of bandwidth min(p, dim - 1) orthogonally similar to the
    p-block tridiagonal m, so with the eigenvalues of m.

    The block-diagonal similarity Q = diag(Q_0, .., Q_{k-1}), Q_0 = I,
    keeps m's block shape, and each Q_{b+1} is chosen so that the coupling
    block Q_b^T C_b Q_{b+1} is lower triangular, which puts every entry
    within p of the diagonal.  Q_{b+1} is p(p - 1) / 2 Givens rotations,
    found by a walk over the blocks (`_narrowing_rotations`); the rotated
    blocks Q_b^T D_b Q_b and Q_b^T C_b Q_{b+1} are then formed in batched
    numpy, and the entries above the triangle, rounding-level by
    construction, are dropped.  This is the first sweep of successive band
    reduction (Bischof, Lang and Sun 2000) without a bulge to chase: it
    costs O(dim p^2), a few ms at dim = 5000, and dsbtrd, which reduces a
    band in O(dim^2 bandwidth), is given bandwidth p, though m has entries
    up to 2p - 1 off the diagonal.  One block (k = 1) has no coupling, and
    its band has bandwidth dim - 1, so that `tridiagonal_form` takes it.

    Each rotation is backward stable, so the eigenvalues of the result are
    those of M + E with ||E||_2 of order p^2 eps ||M||_2.  The similarity
    is checked as the reduction is (`tridiagonal_form`): |tr T - tr M| <=
    4 dim eps ||M||_F and |(||T||_F^2 - ||M||_F^2)| <= 4 dim eps ||M||_F^2
    for the narrowed band T, or ConvergenceError names the stage "band
    narrowing".  An m outside the safe range is narrowed and checked as
    2^-k M and scaled back by 2^k (the module's safe-range scaling).
    """
    shape = np.shape(m.diag)
    if len(shape) != 3 or 0 in shape or shape[1] != shape[2] or (
        np.shape(m.coupling) != (shape[0] - 1, *shape[1:])
    ):
        raise ValidationError(
            f"a p-block tridiagonal needs k >= 1 diagonal blocks (k, p, p) and k - 1 "
            f"coupling blocks (k - 1, p, p), got shapes {shape} and {np.shape(m.coupling)}"
        )
    # copies, rotated in place
    (diag, coupling), scale = _scale_down("block tridiagonal matrix", m.diag, m.coupling)
    p, dim = shape[1], shape[0] * shape[1]
    before = (
        float(np.trace(diag, axis1=1, axis2=2).sum()),
        float(np.sum(diag**2) + 2.0 * np.sum(coupling**2)),
    )
    cos, sin = _narrowing_rotations(coupling)
    pairs = list(enumerate(_rotation_pairs(p)))
    # Q_{b+1}^T on the rows of D_{b+1} and C_{b+1}, then Q_{b+1} on the
    # columns of D_{b+1} and C_b, each one rotation at a time in the walk's
    # order, which is how the walk rotates C_b
    for x, cos_x, sin_x in ((diag[1:], cos, sin), (coupling[1:], cos[:-1], sin[:-1])):
        for k, (i, j) in pairs:
            c, s = cos_x[:, k, None], sin_x[:, k, None]
            x[:, i], x[:, j] = c * x[:, i] + s * x[:, j], c * x[:, j] - s * x[:, i]
    for x in (diag[1:], coupling):
        for k, (i, j) in pairs:
            c, s = cos[:, k, None], sin[:, k, None]
            x[..., i], x[..., j] = c * x[..., i] + s * x[..., j], c * x[..., j] - s * x[..., i]
    narrowed = np.zeros((p + 1, dim), order="F")
    for i in range(p):
        for j in range(i, p):
            narrowed[p + i - j, j::p] = diag[:, i, j]
            narrowed[j - i, p + i::p] = coupling[:, j, i]
    narrowed = narrowed[p - min(p, dim - 1):]  # one block: no row at offset p
    _similarity_gate("band narrowing", dim, before, _band_invariants(narrowed))
    (narrowed,) = _scale_up([narrowed], scale, "band narrowing: the narrowed band overflows")
    return SymmetricBanded(narrowed)


def _rotation_pairs(p: int) -> list[tuple[int, int]]:
    """The column pairs (i, j) of the rotations that make a p x p block
    lower triangular, in order: row i's entries right of the diagonal are
    zeroed against its diagonal entry, for i = 0..p-2."""
    return [(i, j) for i in range(p - 1) for j in range(i + 1, p)]


def _narrowing_rotations(coupling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin), each of shape (k - 1, p (p - 1) / 2): the Givens rotations
    that make Q_{b+1}, for the stack (k - 1, p, p) of coupling blocks C_b of
    `narrow_band`.

    The walk keeps X = Q_b^T C_b, starting from X = C_0.  For each pair (i,
    j) of `_rotation_pairs` it zeroes X[i, j] against X[i, i] by rotating
    columns i and j, col_i <- c col_i + s col_j and col_j <- c col_j - s
    col_i, with c = X[i, i] / r, s = X[i, j] / r, r = hypot(X[i, i], X[i,
    j]); an entry that is already 0 is skipped (c = 1, s = 0, which also
    covers r = 0).  The rows of C_{b+1} are then rotated the same way, in
    the same order, to give the next X.  The walk is sequential, so it runs
    in Python floats read through a memoryview: no per-block numpy call.
    """
    steps, p = coupling.shape[0], coupling.shape[1]
    pairs = _rotation_pairs(p)
    cos, sin = np.ones((steps, len(pairs))), np.zeros((steps, len(pairs)))
    blocks, cos_out, sin_out = (memoryview(a.reshape(-1)) for a in (coupling, cos, sin))
    # flat indices into a row-major p x p block: X[i, i] and X[i, j], the
    # (X[r, i], X[r, j]) below row i, and the (X[i, l], X[j, l]) of rows i, j
    pivots = [(i * p + i, i * p + j) for i, j in pairs]
    below = [[(r * p + i, r * p + j) for r in range(i + 1, p)] for i, j in pairs]
    across = [[(i * p + l, j * p + l) for l in range(p)] for i, j in pairs]
    hypot, size, turns = math.hypot, p * p, len(pairs)
    x = blocks[:size].tolist()
    for b in range(steps):
        taken = []
        for k in range(turns):
            ii, ij = pivots[k]
            z = x[ij]
            if z == 0.0:
                continue
            a = x[ii]
            r = hypot(a, z)
            c, s = a / r, z / r
            x[ii], x[ij] = r, 0.0
            for u, v in below[k]:
                xu, xv = x[u], x[v]
                x[u], x[v] = c * xu + s * xv, c * xv - s * xu
            cos_out[b * turns + k], sin_out[b * turns + k] = c, s
            taken.append((k, c, s))
        if b + 1 < steps:
            x = blocks[(b + 1) * size:(b + 2) * size].tolist()
            for k, c, s in taken:
                for u, v in across[k]:
                    xu, xv = x[u], x[v]
                    x[u], x[v] = c * xu + s * xv, c * xv - s * xu
    return cos, sin


def _lapack_tridiagonal(t: Tridiagonal) -> tuple[list[np.ndarray], int]:
    """([d, e], k): t's d and e as float64 arrays of length dim, e padded
    with a zero, scaled down by 2^-k into the safe range (`_scale_down`)."""
    d = np.asarray(t.d, dtype=float)
    n = len(d)
    if d.ndim != 1 or n < 1 or np.shape(t.e) != (n - 1,):
        raise ValidationError(
            f"a tridiagonal needs dim >= 1 diagonal and dim - 1 off-diagonal "
            f"entries, got shapes {np.shape(t.d)} and {np.shape(t.e)}"
        )
    e = np.zeros(n)
    e[: n - 1] = t.e
    return _scale_down("tridiagonal matrix", d, e)


def bisect_eigvals(t: Tridiagonal, il: int, iu: int) -> np.ndarray:
    """Eigenvalues il..iu (1-based, in ascending order) of t, ascending.

    LAPACK dstebz with RANGE = 'I' finds them by Sturm-count bisection to
    about two ulps relative, at O(dim) per count, with the GIL released.
    Its info code and the number of values it returns are checked.  A t
    outside the safe range is bisected as 2^-k t and the values are scaled
    back by 2^k (the module's safe-range scaling); values beyond the float
    range raise ConvergenceError.
    """
    (d, e), scale = _lapack_tridiagonal(t)
    n = len(d)
    if not 1 <= il <= iu <= n:
        raise ValidationError(f"need 1 <= il <= iu <= dim = {n}, got il = {il}, iu = {iu}")
    w = np.empty(n)
    found, info = _INT(0), _INT(0)
    _DSTEBZ(
        b"I", b"E", _INT(n), _DOUBLE(0.0), _DOUBLE(0.0), _INT(il), _INT(iu),
        _DOUBLE(2.0 * np.finfo(float).tiny), d, e, found, _INT(0), w,
        np.empty(n, dtype=_INT), np.empty(n, dtype=_INT), np.empty(4 * n),
        np.empty(3 * n, dtype=_INT), info, 1, 1,
    )
    if _info("dstebz", info) > 0:
        raise ConvergenceError(f"bisection (dstebz) failed with info = {info.value}")
    if found.value != iu - il + 1:
        raise ConvergenceError(
            f"bisection (dstebz) returned {found.value} eigenvalues for indices {il}..{iu}"
        )
    (values,) = _scale_up([w[: found.value]], scale, "bisection (dstebz): eigenvalues overflow")
    return values


class SturmCounter:
    """For each x, the number of eigenvalues of the tridiagonal t at or
    below x: counter = SturmCounter(t), then counter(x).

    By Sylvester's law of inertia this is the number of nonpositive pivots
    of the LDL^T factorization of T - x I.  One LAPACK dlaebz call
    (IJOB = 1) counts them at every x, in O(dim) each, with the GIL
    released.  As in dstebz, a pivot smaller in magnitude than pivmin =
    tiny max(1, max e_i^2) is replaced by -pivmin, so a pivot that is
    exactly 0 cannot break the count.  Counts do not change when T and x
    are both scaled by 2^-k, so a t outside the safe range is counted as
    2^-k t at 2^-k x.  x must be 1-d without NaN; +-inf count as 0 and dim.

    The form dlaebz reads (t checked, e padded, both scaled, e^2 and
    pivmin) is prepared once, on construction, so a caller that counts at
    several sets of points, as `harness.spectrum_histogram` does, pays for
    it once.
    """

    def __init__(self, t: Tridiagonal):
        (self._d, self._e), self._scale = _lapack_tridiagonal(t)
        self._e2 = self._e * self._e
        self._pivmin = np.finfo(float).tiny * max(1.0, float(self._e2.max()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValidationError(f"Sturm count points must be 1-d, got shape {x.shape}")
        if np.isnan(x).any():
            raise ValidationError("Sturm count points must not be NaN")
        if len(x) == 0:
            return np.zeros(0, dtype=np.intp)
        # dlaebz counts at both ends of each interval: consecutive points make
        # one interval, and an odd count is padded with x[0]
        intervals = (len(x) + 1) // 2
        with np.errstate(over="ignore"):  # a point beyond the float range counts as +-inf
            ab = np.asfortranarray(np.ldexp(np.resize(x, (intervals, 2)), -self._scale))
        nab = np.empty(ab.shape, dtype=_INT, order="F")
        info = _INT(0)
        _DLAEBZ(
            _INT(1), _INT(0), _INT(len(self._d)), _INT(intervals), _INT(intervals), _INT(0),
            _DOUBLE(0.0), _DOUBLE(0.0), _DOUBLE(self._pivmin), self._d, self._e, self._e2,
            None, ab, None, _INT(0), nab, None, None, info,
        )
        _info("dlaebz", info)
        return nab.reshape(-1)[: len(x)].astype(np.intp)


def spd_inv_sqrt(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse square root S of a positive definite matrix, S M S = I.

    The eigensolve's residual max |M V - V Lambda| and orthonormality defect
    max |V^T V - I| must be at most 1e-12 max(1, ||M||_2), its backward-error
    check; otherwise ConvergenceError is raised.  The smallest eigenvalue
    must exceed 1e-12 times the largest eigenvalue magnitude ||M||_2, a test
    that does not depend on the scale of M; otherwise ValidationError names
    the matrix as `name` and gives its smallest eigenvalue.
    """
    m = require_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver did not converge: {exc}") from exc
    norm = float(np.abs(values).max())
    scale = max(1.0, norm)
    residual = max(
        float(np.abs(m @ vectors - vectors * values).max()),
        float(np.abs(vectors.T @ vectors - np.eye(len(values))).max()),
    )
    if residual > 1e-12 * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    min_eig = float(values[0])
    if not min_eig > 1e-12 * norm:
        raise ValidationError(
            f"{name} is not positive definite: smallest eigenvalue {min_eig:.6e} "
            f"<= 1e-12 * ||{name}||_2 = 1e-12 * {norm:.6e}"
        )
    s = (vectors / np.sqrt(values)) @ vectors.T
    return (s + s.T) / 2.0


def singular_blocks(a: np.ndarray) -> np.ndarray:
    """Indices of the numerically singular blocks of a stack a of shape
    (m, p, p), ascending.

    With N = max(||A_i||_inf, 1e-300), A_i is singular when slogdet gives
    sign 0 or log|det A_i| <= log(1e-12) + p log N + 1e-9, or when
    sigma_min(A_i) <= sqrt(p (p + 1) / 2) 1e-12 N.  This rejects every
    block that an LU gate with partial pivoting rejects, one that tests
    |det| <= 1e-12 N^p and every pivot |u_kk| <= 1e-12 N: the first clause
    is its determinant test, with 1e-9 of slack for a log-sum taken in
    another order, and the second covers its pivot test, since |l_jk| <= 1
    under partial pivoting gives |u_kk| >= sigma_min / ||L||_2 >=
    sigma_min / sqrt(p (p + 1) / 2).
    """
    p = a.shape[-1]
    norm = np.maximum(np.abs(a).sum(axis=2).max(axis=1, initial=0.0), 1e-300)
    sign, logdet = np.linalg.slogdet(a)
    sigma_min = np.linalg.svd(a, compute_uv=False).min(axis=1, initial=np.inf)
    return np.flatnonzero(
        (sign == 0)
        | (logdet <= math.log(1e-12) + p * np.log(norm) + 1e-9)
        | (sigma_min <= math.sqrt(p * (p + 1) / 2.0) * 1e-12 * norm)
    )


def asymmetric_blocks(a: np.ndarray) -> np.ndarray:
    """Indices of the blocks X of a stack a of shape (m, p, p) with
    max |X - X^T| > SYMMETRY_RTOL max(1, max |X|), ascending."""
    asym = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    return np.flatnonzero(asym > SYMMETRY_RTOL * np.abs(a).max(axis=(1, 2), initial=1.0))
