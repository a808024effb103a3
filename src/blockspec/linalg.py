"""Real symmetric linear algebra: the banded eigensolver, the SPD inverse
square root, and the numerical singularity test for stacks of small blocks.

All matrices are plain float64 numpy arrays.  Dense inputs must be symmetric
(checked), banded inputs are symmetric by construction of SymmetricBanded.
Both solves are backed by numpy's LAPACK, which meets the backward-stable
accuracy contracts stated per function; the dense solve inside
spd_inv_sqrt additionally verifies its residuals.

The banded solve calls LAPACK dsbevd as a ctypes foreign call, so the GIL is
released for the call's duration and solves on several threads
(harness.map_trials) run in parallel.  The routine is the one in the LAPACK
that numpy.linalg's _umath_linalg extension links against: the extension is
opened with ctypes.CDLL by its file, and the symbol lookup also searches the
libraries it depends on, so nothing new is loaded.  That is the same
OpenBLAS routine scipy.linalg.eigvals_banded runs in the tested build, with
the same arguments, so the values are bit-identical; scipy itself is not
imported, which keeps it out of the start-up of every CLI process.  The
symbol is the raw Fortran one: every argument is passed by reference,
INTEGERs are 64-bit when numpy's LAPACK is ILP64
(numpy.linalg.lapack_lite._ilp64), and the lengths of the two CHARACTER
arguments follow the last argument.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg, lapack_lite

from .errors import ConvergenceError, NotPositiveDefiniteError, ValidationError

# Relative asymmetry max |M - M^T| <= SYMMETRY_RTOL max(1, max |M|) that
# require_symmetric accepts.
SYMMETRY_RTOL = 1e-12

# Fortran INTEGER of numpy's LAPACK, and the names its builds give dsbevd:
# the scipy-openblas wheels prefix "scipy_", ILP64 builds suffix "64_".
if lapack_lite._ilp64:
    _INT, _DSBEVD_SYMBOLS = ctypes.c_int64, ("scipy_dsbevd_64_", "dsbevd_64_")
else:
    _INT, _DSBEVD_SYMBOLS = ctypes.c_int, ("scipy_dsbevd_", "dsbevd_")
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def _lapack_routine(library: str, symbols: tuple[str, ...], *argtypes):
    """ctypes foreign function for the first of `symbols` that the shared
    object `library` or one of its dependencies exports."""
    lib = ctypes.CDLL(library)
    for symbol in symbols:
        try:
            routine = getattr(lib, symbol)
        except AttributeError:
            continue
        routine.argtypes, routine.restype = argtypes, None
        return routine
    raise ImportError(
        f"neither {library} nor a library it loads exports any of the LAPACK "
        f"symbols {', '.join(symbols)}"
    )


# dsbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, iwork, liwork, info,
#        len(jobz), len(uplo))
_DSBEVD = _lapack_routine(
    _umath_linalg.__file__, _DSBEVD_SYMBOLS,
    ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P, _DOUBLE_P, _INT_P,
    _DOUBLE_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _INT_P, _INT_P,
    ctypes.c_size_t, ctypes.c_size_t,
)


def _int(v: int):
    """A Fortran INTEGER argument, passed by reference."""
    return ctypes.byref(_INT(v))


@dataclass
class SymmetricBanded:
    """Symmetric n x n matrix with `bandwidth` nonzero super-diagonals.

    bands[d, j] holds entry (j, j+d) for 0-based j (d = 0 is the diagonal);
    each band is padded with trailing zeros to length dim.  Only the upper
    bands are stored, so symmetry holds by construction.
    """

    dim: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if self.bandwidth < 0:
            raise ValidationError(f"bandwidth must be >= 0, got {self.bandwidth}")
        self.bands = np.asarray(self.bands, dtype=float)
        if self.bands.shape != (self.bandwidth + 1, self.dim):
            raise ValidationError(
                f"bands must have shape {(self.bandwidth + 1, self.dim)}, "
                f"got {self.bands.shape}"
            )

    @classmethod
    def zeros(cls, dim: int, bandwidth: int) -> "SymmetricBanded":
        return cls(dim, bandwidth, np.zeros((bandwidth + 1, dim)))

    def scipy_band_upper(self) -> np.ndarray:
        """LAPACK upper band storage (dsbevd, scipy.linalg.eig_banded), in
        Fortran order: ab[u + i - j, j] holds entry (i, j) for i <= j."""
        u = self.bandwidth
        ab = np.zeros((u + 1, self.dim), order="F")
        for d in range(u + 1):
            ab[u - d, d:] = self.bands[d, : self.dim - d]
        return ab


def require_symmetric(m: np.ndarray) -> np.ndarray:
    """Return m as a float array, raising if it is not square symmetric."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if np.abs(m - m.T).max(initial=0.0) > SYMMETRY_RTOL * scale:
        raise ValidationError("matrix is not symmetric")
    return m


def eigh_banded(m: SymmetricBanded) -> np.ndarray:
    """All eigenvalues of a symmetric banded matrix, ascending.

    dsbevd is backward stable: the values are the exact eigenvalues of
    M + E with ||E||_2 of order dim * machine epsilon * ||M||_2, so each is
    within that distance of an eigenvalue of M.  Requires bandwidth < dim
    (densify wider matrices first).  LAPACK dsbevd runs with the GIL
    released (see the module docstring).
    """
    if m.bandwidth >= m.dim:
        raise ValidationError(
            f"bandwidth {m.bandwidth} >= dim {m.dim}: densify and use a dense eigensolver"
        )
    ab = m.scipy_band_upper()  # overwritten by dsbevd
    if not np.all(np.isfinite(ab)):
        raise ValidationError("banded matrix has non-finite entries")
    n, kd = m.dim, m.bandwidth
    values = np.empty(n)
    z = np.empty(1)  # not referenced for jobz = 'N'
    lwork = 2 * n  # dsbevd's minimum for jobz = 'N'
    work = np.empty(lwork)
    iwork = np.empty(1, dtype=_INT)
    info = _INT(0)
    _DSBEVD(
        b"N", b"U", _int(n), _int(kd), ab.ctypes.data_as(_DOUBLE_P), _int(kd + 1),
        values.ctypes.data_as(_DOUBLE_P), z.ctypes.data_as(_DOUBLE_P), _int(1),
        work.ctypes.data_as(_DOUBLE_P), _int(lwork), iwork.ctypes.data_as(_INT_P),
        _int(1), ctypes.byref(info), 1, 1,
    )
    if info.value < 0:
        raise ValidationError(f"dsbevd rejected argument {-info.value}")
    if info.value > 0:
        raise ConvergenceError(
            f"banded eigensolver did not converge: {info.value} off-diagonal "
            "elements of the tridiagonal form did not converge to zero"
        )
    if not np.all(np.isfinite(values)):
        raise ConvergenceError("banded eigensolver produced non-finite values")
    return np.sort(values)


def spd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root S of a positive definite matrix, S M S = I.

    The eigensolve's residual max |M V - V Lambda| and orthonormality defect
    max |V^T V - I| must be at most 1e-12 max(1, ||M||_2), its backward-error
    check; otherwise ConvergenceError is raised.  The smallest eigenvalue
    must exceed 1e-12 times the largest eigenvalue magnitude ||M||_2, a test
    that does not depend on the scale of M; otherwise the matrix is rejected
    (this is how invalid gamma configurations surface downstream).
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
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {min_eig:.6e} "
            f"<= 1e-12 * ||M||_2 = 1e-12 * {norm:.6e}",
            min_eigenvalue=min_eig,
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
