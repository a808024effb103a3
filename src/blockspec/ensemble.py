"""Seeded sampling of the random block matrix G and its deterministic
counterparts F and F-tilde.

All three matrices are symmetric banded with half-bandwidth 2p-1 and share
one scalar entry layout (1-based global indices, r < c, offset d = c - r):

  d = 0            standard normal draw (one per diagonal position)
  1 <= d <= p-1    chi draw with dof gamma_d * (n - c + 1), always present
  p <= d <= 2p-1   chi draw with dof gamma_{2p-d} * (n - r - p + 1), present
                   only when r and c fall in adjacent p-blocks

F replaces each normal with 0 and each chi_k draw with sqrt(k); all entries
carry the 1/sqrt(2) prefactor.  F-tilde is the block Jacobi matrix of the
associated matrix orthogonal polynomials and is permutation-similar to F
(equal spectra), which the tests assert.

Entry degrees of freedom are bookkept twice on purpose: `block_dof_table`
transcribes the diagonal/off-diagonal block patterns blockwise, while
`scalar_entry_dof` applies the unified positional rule above.  The two are
cross-checked in the test suite; a disagreement means a construction bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import SymmetricBanded

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GammaWeights:
    """Block size p and the p positive weights gamma_1..gamma_p."""

    p: int
    gamma: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValidationError(f"p must be >= 1, got {self.p}")
        gamma = tuple(float(g) for g in self.gamma)
        if len(gamma) != self.p:
            raise ValidationError(
                f"expected {self.p} gamma values, got {len(gamma)}"
            )
        if not all(0.0 < g < math.inf for g in gamma):
            raise ValidationError(f"all gamma values must be positive and finite, got {gamma}")
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class RngSeed:
    """(master, stream) pair; identical pairs give bit-identical draws."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            v = getattr(self, name)
            if not (0 <= v < 2**64):
                raise ValidationError(f"{name} must be a 64-bit unsigned integer")


@dataclass
class EmpiricalSpectrum:
    """Sorted eigenvalues of one sampled matrix plus their provenance."""

    n: int
    p: int
    gamma: tuple[float, ...]
    seed: RngSeed | None
    scaled: bool
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.n:
            raise ValidationError(
                f"expected {self.n} eigenvalues, got {len(self.values)}"
            )
        if np.any(np.diff(self.values) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        if self.n % self.p != 0:
            raise ValidationError(f"n={self.n} is not divisible by p={self.p}")


def rng_from_seed(seed: RngSeed) -> np.random.Generator:
    """Counter-based generator keyed on (master, stream)."""
    return np.random.Generator(np.random.Philox(key=[seed.master, seed.stream]))


def chi_sample(rng: np.random.Generator, dof: float) -> float:
    """One chi draw with `dof` degrees of freedom (dof may be fractional).

    Drawn as sqrt of a gamma(dof/2, scale 2) variate; dof = 0 gives 0.
    """
    if dof < 0:
        raise ValidationError(f"chi degrees of freedom must be >= 0, got {dof}")
    if dof == 0:
        return 0.0
    return float(np.sqrt(rng.gamma(dof / 2.0, 2.0)))


def _check_size(n: int, w: GammaWeights) -> None:
    if n % w.p != 0:
        raise ValidationError(f"n={n} must be divisible by p={w.p}")
    if n < 2 * w.p:
        raise ValidationError(f"n={n} must be at least 2p={2 * w.p}")


def scalar_entry_dof(r: int, c: int, n: int, w: GammaWeights) -> float | None:
    """Chi dof at 1-based position (r, c) of G, or None where no entry exists.

    This is the unified positional rule; it exists purely as a cross-check
    against the block-level construction in `block_dof_table`.
    """
    if not (1 <= r < c <= n):
        raise ValidationError(f"need 1 <= r < c <= n, got r={r}, c={c}, n={n}")
    p = w.p
    d = c - r
    if d > 2 * p - 1:
        return None
    if d <= p - 1:
        return w.gamma[d - 1] * (n - c + 1)
    # band offsets p..2p-1 exist only across adjacent blocks
    if (c - 1) // p != (r - 1) // p + 1:
        return None
    return w.gamma[2 * p - d - 1] * (n - r - p + 1)


def block_dof_table(n: int, w: GammaWeights) -> dict[tuple[int, int], float]:
    """Chi dofs of the strict upper triangle of G, assembled blockwise.

    Keys are 1-based (r, c) with r < c.  Diagonal blocks i = 0..n/p-1 have
    zero diagonal (normals live there) and dof gamma_{|q-l|} * (n - ip - max(q,l) + 1)
    at local position (q, l); coupling blocks i = 1..n/p-1 sit on rows of
    block i-1 and columns of block i with dof
    gamma_{p-|q-l|} * (n - ip - min(q,l) + 1).
    """
    _check_size(n, w)
    p, gamma = w.p, w.gamma
    m = n // p
    table: dict[tuple[int, int], float] = {}
    for i in range(m):
        off = i * p
        for q in range(1, p + 1):
            for l in range(q + 1, p + 1):
                table[(off + q, off + l)] = gamma[l - q - 1] * (n - off - l + 1)
    for i in range(1, m):
        row_off, col_off = (i - 1) * p, i * p
        for q in range(1, p + 1):
            for l in range(1, p + 1):
                dof = gamma[p - abs(q - l) - 1] * (n - i * p - min(q, l) + 1)
                table[(row_off + q, col_off + l)] = dof
    return table


def _upper_positions(n: int, p: int):
    """Banded upper-triangle positions in row-major order, 1-based."""
    width = 2 * p - 1
    for r in range(1, n + 1):
        for c in range(r + 1, min(n, r + width) + 1):
            yield r, c


def build_G(n: int, w: GammaWeights, seed: RngSeed) -> SymmetricBanded:
    """Sample the random block matrix G of size n for weights w.

    Draw order is part of the contract: the n diagonal normals first, then
    the off-diagonal chis in row-major order of the upper triangle.  Entries
    at distinct positions are independent; only (r, c)/(c, r) symmetry ties
    values.
    """
    _check_size(n, w)
    rng = rng_from_seed(seed)
    out = SymmetricBanded.zeros(n, 2 * w.p - 1)
    out.bands[0, :] = rng.standard_normal(n)
    table = block_dof_table(n, w)
    for r, c in _upper_positions(n, w.p):
        dof = table.get((r, c))
        if dof is None:
            continue
        if dof <= 0:
            raise NumericalError(
                f"internal dof bookkeeping error at ({r}, {c}): dof={dof}"
            )
        out.bands[c - r, r - 1] = chi_sample(rng, dof) / _SQRT2
    return out


def build_F(n: int, w: GammaWeights) -> SymmetricBanded:
    """Deterministic counterpart of G: normals -> 0, chi_k draws -> sqrt(k)."""
    _check_size(n, w)
    out = SymmetricBanded.zeros(n, 2 * w.p - 1)
    table = block_dof_table(n, w)
    for (r, c), dof in table.items():
        out.bands[c - r, r - 1] = math.sqrt(dof) / _SQRT2
    return out


def build_F_tilde(n: int, w: GammaWeights) -> SymmetricBanded:
    """Block Jacobi matrix of the associated matrix orthogonal polynomials.

    Diagonal blocks (i = 0..n/p-1) have zero diagonal and off-diagonal
    entries sqrt((ip + min(q,l)) * gamma_{|q-l|} / 2); coupling blocks
    (i = 1..n/p-1) have entries sqrt(((i-1)p + max(q,l)) * gamma_{p-|q-l|} / 2).
    Its spectrum equals the spectrum of build_F after sorting.
    """
    _check_size(n, w)
    p, gamma = w.p, w.gamma
    m = n // p
    out = SymmetricBanded.zeros(n, min(2 * p - 1, n - 1))
    for i in range(m):
        off = i * p
        for q in range(1, p + 1):
            for l in range(q + 1, p + 1):
                val = math.sqrt((i * p + q) * gamma[l - q - 1] / 2.0)
                out.bands[l - q, off + q - 1] = val
    for i in range(1, m):
        row_off = (i - 1) * p
        for q in range(1, p + 1):
            for l in range(1, p + 1):
                r, c = row_off + q, i * p + l
                val = math.sqrt(((i - 1) * p + max(q, l)) * gamma[p - abs(q - l) - 1] / 2.0)
                out.bands[c - r, r - 1] = val
    return out
