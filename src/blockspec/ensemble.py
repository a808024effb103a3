"""Seeded sampling of the random block matrix G.

G is symmetric p-block tridiagonal, with one scalar entry layout (1-based
global indices, r < c, offset d = c - r):

  d = 0            standard normal draw (one per diagonal position)
  1 <= d <= p-1    chi draw with dof gamma_d * (n - c + 1), always present
  p <= d <= 2p-1   chi draw with dof gamma_{2p-d} * (n - r - p + 1), present
                   only when r and c fall in adjacent p-blocks

and all off-diagonal entries carry the 1/sqrt(2) prefactor.  Its
deterministic counterpart F replaces each normal with 0 and each chi_k draw
with sqrt(k).  F is permutation-similar to F-tilde, the block Jacobi matrix
of the associated matrix orthogonal polynomials (diagonal blocks B_i and
coupling blocks A_i of `matrixpoly.recurrence_coeffs(n, w)`).  The library
builds only F-tilde, in `matrixpoly.roots`; the tests build F and assert
equal spectra.

`chi_layout` is the one construction of this layout: it returns every chi
position with its dof as arrays, and `build_G` reads it and scatters each
draw into its p x p block of a `linalg.BlockTridiagonal`, the form
`linalg.eigh_banded` and `linalg.tridiagonal_form` take: with r in block
b = (r - 1) // p, entry (r, c) lies in the diagonal block D_b when c is in
block b too, and in the coupling block C_b when c is in block b + 1.  The test suite keeps an
independent blockwise transcription of the block patterns and a loop over
the positional rule as oracles for it.

The weights are one `GammaWeights(gamma)`, and its block size p is
len(gamma).  A spectrum is an `EmpiricalSpectrum(w, seed, scaled, values)`:
it carries the weights as one `GammaWeights` w, and its size n is
len(values).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ValidationError
from .linalg import BlockTridiagonal


class _Value:
    """Base of the immutable value types: the attributes named in _fields
    are set once, in __init__, and give equality, hash and repr."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class GammaWeights(_Value):
    """The positive weights gamma_1..gamma_p; the block size p is how many
    there are."""

    _fields = ("gamma",)

    def __init__(self, gamma: tuple[float, ...]):
        gamma = tuple(float(g) for g in gamma)
        if not gamma:
            raise ValidationError("gamma must list at least one weight")
        if not all(0.0 < g < math.inf for g in gamma):
            raise ValidationError(f"all gamma values must be positive and finite, got {gamma}")
        self._set(gamma=gamma, p=len(gamma))


class RngSeed(_Value):
    """(master, stream) pair; identical pairs give bit-identical draws.
    Each is an integer in [0, 2**64), Python or numpy, stored as an int."""

    _fields = ("master", "stream")

    def __init__(self, master: int, stream: int = 0):
        values = {}
        for name, v in (("master", master), ("stream", stream)):
            try:
                v = operator.index(v)
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {v!r}") from None
            if not (0 <= v < 2**64):
                raise ValidationError(f"{name} must be a 64-bit unsigned integer")
            values[name] = v
        self._set(**values)


class EmpiricalSpectrum:
    """Sorted finite eigenvalues of one sampled matrix plus their
    provenance: the weights w, the seed (None for the deterministic roots)
    and the `scaled` flag.  The size n is read from len(values) and must be
    divisible by w.p.
    """

    def __init__(self, w: GammaWeights, seed: RngSeed | None, scaled: bool, values: np.ndarray):
        self.w = w
        self.seed = seed
        self.scaled = scaled
        self.values = np.asarray(values, dtype=float)
        self.n = len(self.values)
        if not np.isfinite(self.values).all():
            raise ValidationError("eigenvalues must be finite")
        if np.any(np.diff(self.values) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        if self.n % w.p != 0:
            raise ValidationError(f"n={self.n} is not divisible by p={w.p}")

    def to_scaled(self) -> "EmpiricalSpectrum":
        """The same spectrum divided by sqrt(n), the weak-convergence scale."""
        if self.scaled:
            raise ValidationError("the spectrum is already scaled")
        return EmpiricalSpectrum(self.w, self.seed, True, self.values / math.sqrt(self.n))


def rng_from_seed(seed: RngSeed) -> np.random.Generator:
    """Counter-based generator keyed on (master, stream).

    The key is built as uint64: Philox converts a list of Python ints above
    2**63 through float64, which rounds them or, with a warning, zeroes them.
    """
    key = np.array([seed.master, seed.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_size(n: int, w: GammaWeights) -> None:
    """Reject sizes the block layout cannot take, whose 2 p n float64 block
    entries are beyond numpy's size limit, or that overflow gamma * n."""
    if n % w.p != 0:
        raise ValidationError(f"n={n} must be divisible by p={w.p}")
    if n < 2 * w.p:
        raise ValidationError(f"n={n} must be at least 2p={2 * w.p}")
    if 2 * w.p * n * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"n={n} is too large: numpy cannot hold its 2 p n block entries")
    if not math.isfinite(max(w.gamma) * n):
        raise ValidationError(
            f"--gamma value {max(w.gamma)!r} times n={n} is not a finite float"
        )


def chi_layout(n: int, w: GammaWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, dof) of every chi entry of G, 1-based with r < c.

    Positions come in row-major order of the upper triangle, which is the
    draw order of `build_G`; dof follows the positional rule in the module
    docstring and is always positive.
    """
    check_size(n, w)
    p = w.p
    r = np.arange(1, n + 1)[:, None]
    d = np.arange(1, 2 * p)[None, :]
    c = r + d
    near = d < p
    # offsets p..2p-1 exist only across adjacent blocks
    present = (c <= n) & (near | ((c - 1) // p == (r - 1) // p + 1))
    weight = np.asarray(w.gamma)[np.where(near, d - 1, 2 * p - d - 1)]
    dof = weight * np.where(near, n - c + 1, n - r - p + 1)
    return np.broadcast_to(r, c.shape)[present], c[present], dof[present]


def build_G(n: int, w: GammaWeights, seed: RngSeed) -> BlockTridiagonal:
    """Sample the random block matrix G of size n for weights w, as its p x p
    blocks.

    Draw order is part of the contract: the n diagonal normals first, then
    the off-diagonal chis in row-major order of the upper triangle.  Entries
    at distinct positions are independent; only (r, c)/(c, r) symmetry ties
    values.
    """
    rows, cols, dof = chi_layout(n, w)
    rng = rng_from_seed(seed)
    p = w.p
    normals = rng.standard_normal(n)
    chis = np.sqrt(rng.gamma(dof / 2.0, 2.0)) / math.sqrt(2.0)
    # block row b of G is [D_b C_b], p x 2p: 0-based entry (r, c) lies in
    # its row r - b p and its column c - b p
    block = (rows - 1) // p
    block_rows = np.zeros((n // p, p, 2 * p))
    block_rows[block, (rows - 1) % p, cols - 1 - block * p] = chis
    upper = block_rows[:, :, :p]
    diag = upper + upper.transpose(0, 2, 1)
    diag[:, range(p), range(p)] = normals.reshape(-1, p)
    return BlockTridiagonal(diag, block_rows[:-1, :, p:])
