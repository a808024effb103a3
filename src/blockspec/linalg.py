"""Real symmetric linear algebra: dense and banded eigensolvers, SPD matrix
functions, and log-determinants.

All matrices are plain float64 numpy arrays.  Dense inputs must be symmetric
(checked), banded inputs are symmetric by construction of SymmetricBanded.
Dense and banded solves are backed by LAPACK (numpy.linalg / scipy's LAPACK),
which meets the backward-stable accuracy contracts stated per function; the
dense path additionally verifies its residuals against the caller's tol.

The banded solve calls LAPACK dsbevd through the function pointer that
scipy.linalg.cython_lapack exports, as a ctypes foreign call.  That is the
routine scipy.linalg.eigvals_banded runs, with the same arguments and so
bit-identical values, but ctypes releases the GIL for the call's duration,
so solves on several threads (harness.map_trials) run in parallel.  The
LU of log_abs_det calls dgetrf from the same table, the routine
scipy.linalg.lu_factor runs.

Only the cython_lapack extension is loaded, from its file, not the
scipy.linalg package: that package's __init__ pulls in scipy's array-API
layer and with it numpy.f2py, numpy.testing and numpy.ma, which more than
doubles the start-up time of every CLI process, for two pointers.  The extension is looked up with
importlib's PathFinder under scipy's directory and executed by its own
loader.  Its module init registers it in sys.modules under its full name;
that entry is removed again, since a later `import scipy.linalg.cython_lapack`
would find it there and never bind it to the package, so that
`scipy.linalg.cython_lapack` raised AttributeError.  The interpreter keeps
the initialised extension, so such a later import gets this same module
object.  If scipy.linalg.cython_lapack is already imported, that module is
used.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, ValidationError

# Relative pivot threshold below which a determinant is reported as zero.
# Matches the root-residual tolerance used by the polynomial layer.
SINGULAR_PIVOT_RTOL = 1e-12


def _load_cython_lapack():
    """scipy.linalg.cython_lapack without importing scipy.linalg (see the
    module docstring)."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = PathFinder.find_spec("scipy")
    spec = scipy_spec and PathFinder.find_spec(
        name, [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
    )
    if spec is None:
        raise ImportError(f"cannot find {name}: blockspec requires scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


_CYTHON_LAPACK = _load_cython_lapack()


def _lapack_function(name: str, *argtypes):
    """ctypes foreign function for a routine exported by cython_lapack.

    The capsule's name is its C signature; it must be passed back verbatim
    to get the pointer.
    """
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsule = _CYTHON_LAPACK.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# dsbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, iwork, liwork, info)
_DSBEVD = _lapack_function(
    "dsbevd",
    ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P, _DOUBLE_P, _INT_P,
    _DOUBLE_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _INT_P, _INT_P,
)
# dgetrf(m, n, a, lda, ipiv, info)
_DGETRF = _lapack_function("dgetrf", _INT_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _INT_P)


def _int(v: int):
    """A Fortran INTEGER argument, passed by reference."""
    return ctypes.byref(ctypes.c_int(v))


class EigenDecomposition(NamedTuple):
    """Full spectrum, ascending; vectors are orthonormal columns (or None)."""

    values: np.ndarray
    vectors: np.ndarray | None


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

    @classmethod
    def from_dense(cls, m: np.ndarray, bandwidth: int) -> "SymmetricBanded":
        m = require_symmetric(m)
        n = m.shape[0]
        out = cls.zeros(n, bandwidth)
        for d in range(bandwidth + 1):
            out.bands[d, : n - d] = np.diagonal(m, d)
        return out

    def entry(self, i: int, j: int) -> float:
        """Entry (i, j), 0-based; zero outside the band."""
        i, j = (i, j) if i <= j else (j, i)
        d = j - i
        if d > self.bandwidth:
            return 0.0
        return float(self.bands[d, i])

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for d in range(self.bandwidth + 1):
            idx = np.arange(self.dim - d)
            m[idx, idx + d] = self.bands[d, : self.dim - d]
            m[idx + d, idx] = self.bands[d, : self.dim - d]
        return m

    def scipy_band_upper(self) -> np.ndarray:
        """LAPACK upper band storage (dsbevd, scipy.linalg.eig_banded), in
        Fortran order: ab[u + i - j, j] holds entry (i, j) for i <= j."""
        u = self.bandwidth
        ab = np.zeros((u + 1, self.dim), order="F")
        for d in range(u + 1):
            ab[u - d, d:] = self.bands[d, : self.dim - d]
        return ab


def require_symmetric(m: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Return m as a float array, raising if it is not square symmetric."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if np.abs(m - m.T).max(initial=0.0) > rtol * scale:
        raise ValidationError("matrix is not symmetric")
    return m


def eigh_dense(m: np.ndarray, tol: float = 1e-9) -> EigenDecomposition:
    """Full spectrum and orthonormal eigenvectors of a symmetric matrix.

    Residual ||M v - lambda v|| and the orthonormality defect are verified
    to be below tol * max(1, ||M||); violations raise ConvergenceError.
    """
    m = require_symmetric(m)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver did not converge: {exc}") from exc
    scale = max(1.0, float(np.abs(values).max()) if values.size else 0.0)
    residual = float(np.abs(m @ vectors - vectors * values).max())
    ortho = float(np.abs(vectors.T @ vectors - np.eye(m.shape[0])).max())
    worst = max(residual, ortho)
    if worst > tol * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {worst:.3e} exceeds {tol:.1e} * {scale:.3e}",
            worst_residual=worst,
        )
    return EigenDecomposition(values=values, vectors=vectors)


def eigh_banded(m: SymmetricBanded, tol: float = 1e-9) -> np.ndarray:
    """All eigenvalues of a symmetric banded matrix, ascending.

    Backward-stable: each value is within tol * max(1, ||M||) of a true
    eigenvalue.  Requires bandwidth < dim (densify wider matrices first).
    LAPACK dsbevd runs with the GIL released (see the module docstring).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if m.bandwidth >= m.dim:
        raise ValidationError(
            f"bandwidth {m.bandwidth} >= dim {m.dim}: densify and use eigh_dense"
        )
    ab = m.scipy_band_upper()  # overwritten by dsbevd
    if not np.all(np.isfinite(ab)):
        raise ValidationError("banded matrix has non-finite entries")
    n, kd = m.dim, m.bandwidth
    values = np.empty(n)
    z = np.empty(1)  # not referenced for jobz = 'N'
    lwork = 2 * n  # dsbevd's minimum for jobz = 'N'
    work = np.empty(lwork)
    iwork = np.empty(1, dtype=np.intc)
    info = ctypes.c_int(0)
    _DSBEVD(
        b"N", b"U", _int(n), _int(kd), ab.ctypes.data_as(_DOUBLE_P), _int(kd + 1),
        values.ctypes.data_as(_DOUBLE_P), z.ctypes.data_as(_DOUBLE_P), _int(1),
        work.ctypes.data_as(_DOUBLE_P), _int(lwork), iwork.ctypes.data_as(_INT_P),
        _int(1), ctypes.byref(info),
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


def spd_inv_sqrt(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inverse square root S of a positive definite matrix, S M S = I.

    The smallest eigenvalue must exceed tol; otherwise the matrix is
    rejected (this is how invalid gamma configurations surface downstream).
    """
    m = require_symmetric(m)
    values, vectors = eigh_dense(m, tol=max(tol, 1e-12))
    min_eig = float(values[0])
    if min_eig <= tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {min_eig:.6e} "
            f"<= tol {tol:.1e}",
            min_eigenvalue=min_eig,
        )
    s = (vectors / np.sqrt(values)) @ vectors.T
    return (s + s.T) / 2.0


def log_abs_det(m: np.ndarray) -> tuple[int, float]:
    """(sign, log|det|) via LU with partial pivoting (LAPACK dgetrf).

    sign is 0 with log|det| = -inf when some pivot falls below
    SINGULAR_PIVOT_RTOL times the max row sum norm (numerical singularity);
    that includes the exact zero pivots dgetrf reports with info > 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    row_norm = float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    if row_norm == 0.0:
        return 0, -np.inf
    k = m.shape[0]
    lu = np.array(m, order="F")  # overwritten by dgetrf
    ipiv = np.empty(k, dtype=np.intc)
    info = ctypes.c_int(0)
    _DGETRF(
        _int(k), _int(k), lu.ctypes.data_as(_DOUBLE_P), _int(k),
        ipiv.ctypes.data_as(_INT_P), ctypes.byref(info),
    )
    if info.value < 0:
        raise ValidationError(f"dgetrf rejected argument {-info.value}")
    piv = ipiv - 1
    pivots = np.diagonal(lu)
    if np.abs(pivots).min() <= SINGULAR_PIVOT_RTOL * row_norm:
        return 0, -np.inf
    sign = 1 if (piv != np.arange(len(piv))).sum() % 2 == 0 else -1
    sign *= 1 if (pivots < 0).sum() % 2 == 0 else -1
    return sign, float(np.log(np.abs(pivots)).sum())
