"""Limiting spectral density of the scaled ensemble, evaluated through the
eigenvalue curves of the matrix pencil behind the Chebyshev matrix measure,
plus independent closed-form oracles for p = 1 and p = 2.

The coefficient family is sqrt(s*p)-homogeneous: A(s) = sqrt(s*p) * A0 and
B(s) = sqrt(s*p) * B0, with (A0, B0) = `limit_blocks(w)` of the gamma
weights w: the limit law depends on the weights alone.  For fixed
(s, t) the density integrand is

    sum_j  w_j / (pi * sqrt(4 - lambda_j^2))   over  |lambda_j| < 2,

where lambda_j are the eigenvalues of W(t) = A^{-1/2} (B - t I) A^{-1/2}
(real symmetric and similar to the defining pencil) and w_j = u_j^T A^{-1} u_j
for the unit eigenvectors u_j.  By first-order perturbation, dlambda_j/dt =
-w_j, so every curve is strictly decreasing in t and the weights double as
exact derivatives, which avoids curve tracking entirely.

The s-integral runs over (0, 1/p].  W(t) at s is W0 - k A0^{-1} with
k = t / sqrt(s p), W0 = A0^{-1/2} B0 A0^{-1/2}, and its weights carry the
factor 1 / sqrt(s p), so in k the integrand depends on k alone and t only
sets the range, k from t outward (`_density_table`).  The square-root kinks
where some lambda_j crosses +-2 are 2p fixed levels of k, the eigenvalues
of B0 -+ 2 A0 (`_levels`).  The integrals between levels are computed once,
on shared panels, and every grid point adds one panel of its own.  The
panels are batched over the grid and integrated with a fixed
Gauss-Legendre rule, checked against its embedded half-size rule.  The
same eigenvalues give the CDF in closed form through arccos(lambda_j / 2),
since dlambda_j/dt = -w_j.  One bisection driver, `_bisect`, refines the
failed panels of this kernel and of the p = 2 oracle.

The p = 2 oracle mixes two arcsine branches.  In u = sqrt(s) in (0, U],
U = 1/sqrt(2), branch j has the integrand 2u / (pi sqrt(Q_j(u))) with
Q_j(u) = 4 a_j^2 u^2 - (x - b_j u)^2 = (alpha_j u - x)(beta_j u + x),
alpha_j = 2 a_j + b_j and beta_j = 2 a_j - b_j > 0, so the roots x / alpha_j
and -x / beta_j bound the interval where Q_j > 0.  Integrating the
branch's arcsine CDF arccos(z_j(u)) / pi, z_j(u) = (b_j u - x) / (2 a_j u),
against 2u du by parts gives the CDF from the density f:
F(x) = sum_j arccos(z_j(U)) / (2 pi) + x f(x) / 2.  For p = 1 the oracle is
the semicircle law of the Dumitriu-Edelman beta-Hermite model.

Both tables are a `SpectralDensity(w, grid, density, cdf, quad_tol,
quad_err_est=None)` of the weights w = `GammaWeights(gamma)` they were
computed for, p = len(gamma); only the oracle's has no quad_err_est.
`check_density_args` states their argument checks once and returns
(A0, B0, S0): both build their grid from those blocks, and `density_grid`
hands them to `_density_table`, so a table builds its limit blocks and
S0 = A0^{-1/2} once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .ensemble import GammaWeights
from .errors import NumericalError, ValidationError
from .linalg import singular_blocks, spd_inv_sqrt
from .matrixpoly import coefficient_blocks


class SpectralDensity:
    """Tabulated limit density of the weights w on an ascending grid with
    its CDF, which starts at exactly 0 and ends at exactly 1, tabulated to
    quad_tol; quad_err_est is the largest quadrature error estimate of a
    grid point (`density_grid`), None for the closed-form oracle."""

    def __init__(
        self,
        w: GammaWeights,
        grid: np.ndarray,
        density: np.ndarray,
        cdf: np.ndarray,
        quad_tol: float,
        quad_err_est: float | None = None,
    ):
        self.w = w
        self.grid = np.asarray(grid, dtype=float)
        self.density = np.asarray(density, dtype=float)
        self.cdf = np.asarray(cdf, dtype=float)
        self.quad_tol = quad_tol
        self.quad_err_est = quad_err_est
        if not (len(self.grid) == len(self.density) == len(self.cdf)):
            raise ValidationError("grid, density and cdf lengths differ")
        for name, values in (("grid", self.grid), ("density", self.density), ("cdf", self.cdf)):
            if not np.isfinite(values).all():
                i = int(np.argmin(np.isfinite(values)))
                raise NumericalError(
                    f"non-finite {name} value {float(values[i])!r} at t = {float(self.grid[i])!r}"
                )
        if np.any(np.diff(self.grid) <= 0):
            raise ValidationError("grid must be strictly ascending")
        if np.any(self.density < 0):
            raise ValidationError("density must be nonnegative")
        if np.any(np.diff(self.cdf) < 0.0):
            i = int(np.argmax(np.diff(self.cdf) < 0.0)) + 1
            raise NumericalError(
                f"CDF decreases from {float(self.cdf[i - 1])!r} to {float(self.cdf[i])!r} "
                f"at t = {float(self.grid[i])!r}"
            )
        for end, value, exact in (("starts", self.cdf[0], 0.0), ("ends", self.cdf[-1], 1.0)):
            if value != exact:
                raise NumericalError(f"CDF {end} at {float(value)!r}, not exactly {exact!r}")

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


class LimitBlocks(NamedTuple):
    """The limit blocks of `limit_blocks` and S0 = A0^{-1/2}."""

    a0: np.ndarray
    b0: np.ndarray
    s0: np.ndarray


def limit_blocks(w: GammaWeights) -> LimitBlocks:
    """The s-independent factors (A0, B0) of the homogeneous coefficient
    family: the gamma pattern of `coefficient_blocks` at count 1, A0 with
    entries sqrt(gamma_{p-|i-j|} / 2) and B0 with zero diagonal and entries
    sqrt(gamma_{|i-j|} / 2), with S0 = A0^{-1/2}.

    The one gate of the limit law: every density path works with S0, so
    A0 must not be singular (`linalg.singular_blocks`) and must be positive
    definite (`linalg.spd_inv_sqrt`, which computes S0); ValidationError is
    raised otherwise, the singular test first.
    """
    a0, b0 = coefficient_blocks(w, 1, 1)
    if singular_blocks(a0[None]).size:
        raise ValidationError(
            "A0 is singular for these gamma weights; the limit law is not defined"
        )
    return LimitBlocks(a0, b0, spd_inv_sqrt(a0, "A0"))


def _require_finite_x(x: float) -> None:
    """Reject an oracle argument x that is not a finite number."""
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")


def _require_quad_tol(quad_tol: float) -> None:
    """Reject a quadrature tolerance that is not a positive finite number."""
    if not 0.0 < quad_tol < math.inf:
        raise ValidationError(f"quad_tol must be positive and finite, got {quad_tol}")


# one panel is integrated with the _GL_NODES-node Gauss-Legendre rule on
# (0, 1), nodes _RULE_X and weights _RULE_W; the embedded _GL_NODES // 2 rule
# on the same panel, appended to both, gives the error estimate.  Both rules
# are np.polynomial.legendre.leggauss mapped to (0, 1), x -> (x + 1) / 2 and
# w -> w / 2, written out in shortest repr so that importing the module does
# not load numpy.polynomial; the tests pin them bit for bit.
_GL_NODES = 32
_RULE_X = np.array([
    0.001368069075259215, 0.007194244227365809, 0.017618872206246805, 0.03254696203113017,
    0.051839422116973954, 0.07531619313371501, 0.10275810201602881, 0.13390894062985514,
    0.16847786653489238, 0.20614212137961885, 0.24655004553388532, 0.28932436193468236,
    0.33406569885893617, 0.38035631887393145, 0.42776401920860174, 0.4758461671561308,
    0.5241538328438692, 0.5722359807913983, 0.6196436811260685, 0.6659343011410639,
    0.7106756380653176, 0.7534499544661146, 0.7938578786203812, 0.8315221334651076,
    0.8660910593701449, 0.8972418979839711, 0.924683806866285, 0.948160577883026,
    0.9674530379688698, 0.9823811277937532, 0.9928057557726342, 0.9986319309247408,
    # the embedded 16-node rule
    0.005299532504175031, 0.0277124884633837, 0.06718439880608412, 0.1222977958224985,
    0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939159, 0.9722875115366163, 0.994700467495825,
])
_RULE_W = np.array([
    0.003509305004735253, 0.008137197365452872, 0.012696032654631012, 0.017136931456510882,
    0.021417949011113418, 0.025499029631188046, 0.029342046739267783, 0.03291111138818084,
    0.03617289705442417, 0.039096947893535114, 0.041655962113473353, 0.04382604650220189,
    0.04558693934788189, 0.046922199540402255, 0.047819360039637354, 0.04827004425736383,
    0.04827004425736383, 0.047819360039637354, 0.046922199540402255, 0.04558693934788189,
    0.04382604650220189, 0.041655962113473353, 0.039096947893535114, 0.03617289705442417,
    0.03291111138818084, 0.029342046739267783, 0.025499029631188046, 0.021417949011113418,
    0.017136931456510882, 0.012696032654631012, 0.008137197365452872, 0.003509305004735253,
    # the embedded 16-node rule
    0.013576229705877088, 0.031126761969323728, 0.0475792558412463, 0.062314485627767036,
    0.07479799440828835, 0.08457825969750132, 0.09130170752246182, 0.09472530522753432,
    0.09472530522753432, 0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
    0.062314485627767036, 0.0475792558412463, 0.031126761969323728, 0.013576229705877088,
])
_MAX_DEPTH = 8  # the kernel's depth limit in `_bisect`
_ROUNDING = 64 * np.finfo(float).eps  # relative rounding level of a panel integral
_CHUNK_PANELS = 64  # panels per batched eigh call (64 * 48 matrices)


def _integrands(a0inv: np.ndarray, w0: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(2 / (pi p)) (D(k), E_below(k), E_above(k)) for the pencil
    W(k) = W0 - k A0^{-1}, a0inv = A0^{-1} and w0 = W0 = S0 B0 S0 with
    S0 = A0^{-1/2}, stacked on a new first axis; k has any shape.

    D(k) = sum_j w_j / sqrt(4 - lambda_j^2) over |lambda_j| < 2, for the
    eigenvalues lambda_j of W(k) and the weights w_j = v_j^T A0^{-1} v_j of
    its unit eigenvectors v_j.  E_below(k) = sum_j arccos(lambda_j / 2) and
    E_above(k) = sum_j arccos(-lambda_j / 2), with lambda_j / 2 clipped to
    [-1, 1], add up to p pi.
    """
    lam, vec = np.linalg.eigh(w0 - k[..., None, None] * a0inv)
    weights = np.sum(vec * (a0inv @ vec), axis=-2)
    inside = np.abs(lam) < 2.0
    radicand = np.where(inside, (2.0 - lam) * (2.0 + lam), 1.0)
    half = np.clip(lam / 2.0, -1.0, 1.0)
    terms = [
        np.sum(np.where(inside, weights / np.sqrt(radicand), 0.0), axis=-1),
        np.sum(np.arccos(half), axis=-1),
        np.sum(np.arccos(-half), axis=-1),
    ]
    return np.stack(terms) * (2.0 / (math.pi * len(a0inv)))


def _panel_integrals(
    integrand, t: np.ndarray, a: np.ndarray, b: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of the three integrands of integrand(t, x) over the panels
    [a, b] in x, t a parameter per panel, with one error estimate a panel.

    Panel i is mapped through x = a + (end - a) sin^2(theta), with b between
    a and end, for theta in (0, theta_end) with sin^2(theta_end) = (b - a) /
    (end - a).  The map cancels the inverse-square-root behaviour of a kink
    at a and at end, so all three integrands are smooth in theta even when
    the kink at end lies just past the panel.  A panel with b < a gives the
    integral from a to b, the negative of that over [b, a].  Returns the
    (3, panels) integrals and the largest of their three error estimates,
    |K-node rule - K/2-node rule|, per panel.
    """
    theta_end = np.arcsin(np.sqrt((b - a) / (end - a)))
    high = np.empty((3, len(t)))
    low = np.empty((3, len(t)))
    for lo in range(0, len(t), _CHUNK_PANELS):
        rows = slice(lo, lo + _CHUNK_PANELS)
        width = (end[rows] - a[rows])[:, None]
        theta = theta_end[rows, None] * _RULE_X
        u = a[rows, None] + width * np.sin(theta) ** 2
        jac = width * np.sin(2.0 * theta) * theta_end[rows, None] * _RULE_W
        nodes = jac * integrand(t[rows, None], u)
        high[:, rows] = nodes[..., :_GL_NODES].sum(axis=-1)
        low[:, rows] = nodes[..., _GL_NODES:].sum(axis=-1)
    return high, np.abs(high - low).max(axis=0)


def _bisect(integrate, row, a, b, end, share, max_depth: int, rows: int):
    """Adaptive quadrature on the panels [a, b] of the rows in range(rows);
    integrate(row, a, b, end) gives the (k, panels) integrals of the live
    panels and their estimates.

    A panel whose estimate meets its share is accepted, so the accepted
    estimates sum to at most the total share.  The others are bisected: both
    halves keep the row and take half the share, the left half ends at the
    midpoint and the right half keeps end.  A panel is stuck when its share
    is 0, its estimate is at the rounding level of its integrals, which
    bisection cannot lower, or after max_depth bisections.

    Returns (totals, stuck).  totals, (k + 1, rows), holds each row's sums
    of the k integrals and of the estimates over its accepted panels, added
    one by one in the order they were accepted: a row's totals do not
    depend on the other rows, and a row with no accepted panel has exact
    zeros.  stuck is None, or for the first stuck panel (depth, (row, a, b,
    share, err), the estimates of all panels not accepted at that depth).
    """
    accepted, stuck = [], None
    for depth in range(max_depth + 1):
        values, err = integrate(row, a, b, end)
        ok = (err <= share) & (share > 0.0)
        accepted.append((row[ok], np.vstack([values[:, ok], err[ok]])))
        if ok.all():
            break
        failed = ~ok & ((depth == max_depth) | (share == 0.0)
                        | (err <= _ROUNDING * np.abs(values).max(axis=0)))
        if failed.any():
            i = int(np.argmax(failed))
            stuck = (depth, (row[i], a[i], b[i], share[i], err[i]), err[~ok])
            break
        row, a, b, end, share = (x[~ok] for x in (row, a, b, end, share))
        mid = (a + b) / 2.0
        row, share = np.repeat(row, 2), np.repeat(share / 2.0, 2)
        a, b, end = (np.stack(pair, axis=1).ravel() for pair in ((a, mid), (mid, b), (mid, end)))
    row, parts = (np.concatenate(x, axis=-1) for x in zip(*accepted))
    return np.stack([np.bincount(row, weights=x, minlength=rows) for x in parts]), stuck


def _graded_edges(start: float, stop: float) -> list[float]:
    """Panel edges start, 10 start, 100 start, ... below stop, then stop:
    panels growing tenfold away from a narrow feature at start."""
    edges = [start]
    while edges[-1] * 10.0 < stop:
        edges.append(edges[-1] * 10.0)
    return edges + [stop]


def _levels(a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """The k at which an eigenvalue of W(k) = W0 - k A0^{-1} meets +-2,
    ascending and distinct, with 0 left out.

    W0 - k A0^{-1} - l I = S0 (B0 - k I - l A0) S0 with S0 = A0^{-1/2}, so
    W(k) has the eigenvalue l exactly where k is an eigenvalue of B0 - l A0:
    the levels are the eigenvalues of B0 - 2 A0 and B0 + 2 A0.
    """
    levels = np.concatenate([np.linalg.eigvalsh(b0 - 2.0 * a0), np.linalg.eigvalsh(b0 + 2.0 * a0)])
    return np.unique(levels[levels != 0.0])


def _panel_sums(integrand, q, a, b, end, share, at_t, weight, quad_tol: float,
                variable: str, unit: float):
    """`_panel_integrals` of integrand(q, x) on the panels [a, b], refined
    by `_bisect` until each meets its share: the (4, panels) rows of the
    three integrals and the summed estimate of each panel.  A stuck panel
    raises NumericalError naming at_t of that panel, its estimate and share
    times weight, the factor with which they enter at_t's estimate, and its
    bounds times unit, in the variable named."""
    keep = np.nonzero(b != a)[0]  # an empty panel adds an exact 0
    totals, stuck = _bisect(
        lambda row, a, b, end: _panel_integrals(integrand, q[row], a, b, end),
        keep, a[keep], b[keep], end[keep], share[keep], _MAX_DEPTH, len(a),
    )
    if stuck:
        depth, (i, lo, hi, part, err), _ = stuck
        raise NumericalError(
            f"limit density quadrature at t = {float(at_t[i])!r}: error "
            f"estimate {err * weight[i]:.3e} exceeds its share {part * weight[i]:.3e} "
            f"of quad_tol {quad_tol!r} on the {variable}-panel "
            f"[{float(lo * unit)!r}, {float(hi * unit)!r}] after {depth} bisections"
        )
    return totals


def _half_line(values, levels: np.ndarray, sign: float, ts: np.ndarray, scale: float,
               quad_tol: float):
    """Density, mass below t, mass above t and error estimate, (4, len(ts)),
    at the ts of one sign, sign * t > 0, by the scheme of `_density_table`
    with values(k) = `_integrands` at k; levels holds the x = sign * k /
    scale of the `_levels` of that sign, ascending and below 1."""

    def in_k(q, x):
        # q = t / scale on t's own panel, the integrands of f(t) and the
        # masses at t; q = +-1 on a shared panel, unweighted
        d, below, above = values(np.copysign(x, q) * scale)
        return np.stack([np.abs(q) * d / x**2, q * q * below / x**3, q * q * above / x**3])

    def in_v(q, v):
        d, below, above = values(q / v * scale)
        return np.stack([d, below * v, above * v])

    x = np.abs(ts) / scale
    n = len(levels)
    inner = 1 if sign > 0.0 else 2  # the mass that reaches 1 as |t| grows
    out = np.zeros((4, len(ts)))
    out[inner] = 1.0  # past the last level, where f and the outer mass are 0
    gap = np.searchsorted(levels, x, side="right")
    live = np.nonzero(gap < n)[0]
    if not len(live):
        return out
    x, gap, ts = x[live], gap[live], ts[live]
    q = ts / scale
    lo = np.concatenate([[0.0], levels[:-1]])
    mid = (lo + levels) / 2.0
    # the shared half-gaps outward: [mid_0, L_0], then [L_{i-1}, mid_i] and
    # [mid_i, L_i]; reach is the largest x of a t that uses one
    a_sh = np.stack([lo, mid], axis=1).ravel()[1:]
    b_sh = np.stack([mid, levels], axis=1).ravel()[1:]
    reach = np.stack([lo, levels], axis=1).ravel()[1:]
    reach[-1] = mid[-1]
    direct = (gap == n - 1) & (x >= mid[-1])
    near_zero = (gap == 0) & (x < mid[0])
    # t takes the shared panels from first on; the direct half-gap takes none
    first = np.where(direct, 2 * n - 1, 2 * gap)
    used = int(first.min())
    own = ~near_zero
    a_own = np.where(direct, x, mid[gap])[own]
    b_own = np.where(direct, levels[-1], x)[own]
    end_own = np.where(direct | (x > mid[gap]), levels[gap], lo[gap])[own]
    count = 2 * n - 1 - used
    # a stuck shared panel is reported at the largest |t| that uses it
    widest = [int(np.argmax(np.where(first <= j, x, -1.0))) for j in range(used, 2 * n - 1)]
    sums = _panel_sums(
        in_k,
        np.concatenate([np.full(count, sign), q[own]]),
        np.concatenate([a_sh[used:], a_own]),
        np.concatenate([b_sh[used:], b_own]),
        np.concatenate([b_sh[used:], end_own]),
        np.concatenate([quad_tol / (2 * (2 * n - 1)) / reach[used:],
                        np.full(len(a_own), quad_tol / 2.0)]),
        np.concatenate([ts[widest], ts[own]]),
        np.concatenate([x[widest], np.ones(len(a_own))]),
        quad_tol, "k", sign * scale,
    )
    shared = np.zeros((4, 2 * n))
    shared[:, used:-1] = sums[:, :count]
    shared[inner, -1] = 1.0 / levels[-1] ** 2  # the inner mass past the last level
    suffix = np.cumsum(shared[:, ::-1], axis=1)[:, ::-1]
    point = np.empty((4, len(x)))
    # an anchored panel runs from mid to t, so its integral enters negated
    point[:3, own] = sums[:3, count:] * np.where(direct, 1.0, -1.0)[own]
    point[3, own] = sums[3, count:]
    if near_zero.any():
        # v = t / k over [t / mid_0, 1], the start floored at the smallest
        # normal float, in panels graded tenfold from the start
        owner, a_v, b_v = [], [], []
        for i in np.nonzero(near_zero)[0]:
            e = _graded_edges(max(x[i] / mid[0], np.finfo(float).tiny), 1.0)
            owner += [i] * (len(e) - 1)
            a_v += e[:-1]
            b_v += e[1:]
        owner, a_v, b_v = np.array(owner), np.array(a_v), np.array(b_v)
        sums = _panel_sums(in_v, q[owner], a_v, b_v, b_v, quad_tol / 2.0 / np.bincount(owner)[owner],
                           ts[owner], np.ones(len(owner)), quad_tol, "v", 1.0)
        point[:, near_zero] = np.stack(
            [np.bincount(owner, weights=row, minlength=len(x)) for row in sums]
        )[:, near_zero]
    weight = np.stack([x, x * x, x * x, x])
    out[:, live] = point + weight * suffix[:, first]
    return out


def _density_table(
    a0: np.ndarray, b0: np.ndarray, s0: np.ndarray, ts: np.ndarray, quad_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Limit density, CDF and quadrature error estimate at every t in ts,
    for the limit blocks (A0, B0, S0) = `limit_blocks(w)` and a quad_tol
    that `check_density_args` has accepted.

    In k = t / (u sqrt(p)), u = sqrt(s), the pencil is W(k) = W0 - k A0^{-1}
    (`_integrands`), and the integrals over u in (0, sqrt(1/p)] run over k
    from t outward.  With x = |k| and C = 2 / (pi p),

        f(t) = |t| int_{|t|}^inf C D(k) x^-2 dx,
        mass below t = t^2 int_{|t|}^inf C E_below(k) x^-3 dx,

    and the mass above t alike with E_above.  The integrands are smooth
    between the levels (`_levels`), with inverse square roots at them.  Past
    the last level of each sign no curve is inside (-2, 2): D = 0 there, one
    E is 0 and the other is p pi, whose tail from x = L is 1 / L^2.

    Each gap between levels is cut at its midpoint, its anchor.  The
    half-gaps are shared panels, mapped toward their level, integrated once
    and summed outward.  Each t takes the sums past its own gap's anchor
    and integrates one panel of its own, from the anchor to t, mapped toward
    the nearer level.  Two gaps differ.  In the first, (0, L_1), a t below
    the anchor is integrated in v = t / k over [t / anchor, 1], on panels
    graded tenfold; there the integrands C D(t / v) of f(t) and
    C E(t / v) v of the masses stay bounded as t -> 0.  In the outer half
    of the last gap, t integrates [|t|, L] directly, so the outer mass is
    an integral, not a difference, and it is an exact 0 from L on.  At
    t = 0, f = C D(0) and the masses are C E(0) / 2.

    The mass below t has the t-derivative f, since dlambda_j/dt = -w_j;
    the two masses add up to 1.  The CDF is the mass below t where that is
    the smaller one and 1 - (mass above t) elsewhere: both are exact zeros
    outside the support, so the table starts at 0 and ends at 1 with no
    normalization, and either tail keeps its relative precision.

    The k-integrals run in units of scale, the power of two just above the
    largest |level|, for any weights: every panel in use then lies in
    (0, 1), where x^-3 stays finite and t^2 <= |t|.  A panel's estimate
    enters f(t) times |t| and the masses times t^2, so at most |t| times
    itself.  t's own panels share quad_tol / 2, their estimates weighted
    exactly; each of the 2n - 1 shared panels of a side with n levels gets
    (quad_tol / 2) / (2n - 1) / r, r the largest |t| that uses it, whatever
    the ts.  The estimate returned for t is its own estimates plus |t|
    times those of the shared panels it uses: at most quad_tol.  `_bisect`
    refines the panels; NumericalError is raised when a panel is stuck, at
    the latest after _MAX_DEPTH bisections.
    """
    values = partial(_integrands, s0 @ s0, s0 @ b0 @ s0)
    ts = np.asarray(ts, dtype=float)
    levels = _levels(a0, b0)
    scale = math.ldexp(1.0, math.frexp(float(np.abs(levels).max(initial=0.0)))[1])
    levels = levels / scale
    table = np.zeros((4, len(ts)))
    for sign, side in ((1.0, levels[levels > 0.0]), (-1.0, -levels[levels < 0.0][::-1])):
        on = sign * ts > 0.0
        if on.any():
            table[:, on] = _half_line(values, side, sign, ts[on], scale, quad_tol)
    at_zero = ts == 0.0
    if at_zero.any():
        f0, below0, above0 = values(np.zeros(1))[:, 0]
        table[:3, at_zero] = [[f0], [below0 / 2.0], [above0 / 2.0]]
    density, below, above, err = table
    cdf = np.where(below <= above, below, 1.0 - above)
    return density, cdf, err


def semicircle_density(gamma1: float, x: float) -> float:
    """Closed-form p = 1 limit density sqrt(2*gamma1 - x^2) / (pi * gamma1),
    as sqrt((1 - y)(1 + y)) / (pi r) with r = sqrt(gamma1 / 2), y = x / (2 r):
    neither 2 gamma1 nor x^2 can overflow, and y = +-1 exactly at the p = 1
    support bound M* = 2 r (`_grid`).  gamma1 must be positive and finite
    (`GammaWeights`) and x finite."""
    GammaWeights((gamma1,))
    _require_finite_x(x)
    r = math.sqrt(gamma1 / 2.0)
    y = x / (2.0 * r)
    if abs(y) >= 1.0:
        return 0.0
    return math.sqrt((1.0 - y) * (1.0 + y)) / (math.pi * r)


def arcsine_mixture_density(gamma1: float, gamma2: float, x, quad_tol: float = 1e-10):
    """Closed-form p = 2 limit density at x, a number or a 1-d array of
    points: a two-branch arcsine mixture.

    Branch j integrates 1 / (pi * sqrt(4 a_j^2 s - (x - b_j sqrt(s))^2)) over
    s in (0, 1/2] wherever the radicand is positive, with
    a_1 = sqrt(gamma2) + sqrt(gamma1), a_2 = sqrt(gamma2) - sqrt(gamma1),
    b_1 = sqrt(gamma1), b_2 = -sqrt(gamma1).  This is the independent oracle
    for the generic p = 2 path.  It requires weights that `GammaWeights`
    accepts with gamma1 < gamma2, where A0 is positive definite, as
    `limit_blocks` does, and finite points.

    Each branch is integrated only where Q_j > 0 (module docstring), under
    the kernel's map v = lo + (end - lo) sin^2(theta), on the kernel's
    Gauss-Legendre panels in theta (`_theta_panels`), refined by `_bisect`
    with shares in proportion to panel width.  Each branch's error estimate
    must meet the share quad_tol / 2, or NumericalError is raised.

    The (point, branch) pairs are the rows of one `_bisect` pass, which
    adds each row's accepted panels in the order they were accepted, the
    order of a pass of that row alone: each point's value is bit for bit
    its value as a point on its own.  The rows do not interact, so when one
    is stuck each row reruns alone, in order, and the first stuck one
    raises: the error of a loop over the points, and their branches, in
    order.  A number x gives a float, an array an array.
    """
    GammaWeights((gamma1, gamma2))
    if not gamma1 < gamma2:
        # A0 has the eigenvalues sqrt(gamma2 / 2) +- sqrt(gamma1 / 2)
        raise ValidationError(
            "the p = 2 oracle requires gamma1 < gamma2, where A0 is positive "
            f"definite, got gamma1 = {gamma1}, gamma2 = {gamma2}"
        )
    points = np.asarray(x, dtype=float)
    if points.ndim > 1:
        raise ValidationError(f"x must be a number or a 1-d array, got shape {points.shape}")
    xs = points.reshape(-1).tolist()
    for value in xs:
        _require_finite_x(value)
    _require_quad_tol(quad_tol)
    m, branches = _arcsine_branches(gamma1, gamma2)
    share = quad_tol / 2.0
    # each row's point, params and theta_end, and the row and [a, b] of each
    # panel that `_bisect` starts from
    owner, params, last, row, a, b = [], [], [], [], [], []
    for i, value in enumerate(xs):
        for branch, edges in _branch_integrands(m, branches, value):
            row += [len(owner)] * (len(edges) - 1)
            a += edges[:-1]
            b += edges[1:]
            owner.append(i)
            params.append(branch)
            last.append(edges[-1])
    params = np.array(params, dtype=float).reshape(-1, 6).T
    row = np.array(row, dtype=np.intp)
    a, b, last = np.array(a), np.array(b), np.array(last)
    shares = share * ((b - a) / last[row])

    def integrate(row, a, b, end):
        return _theta_panels(partial(_arcsine_integrand, *params[:, row, None]), a, b)

    totals, stuck = _bisect(integrate, row, a, b, b, shares, _MAX_BISECTIONS, len(owner))
    if stuck and len(owner) > 1:
        for r in range(len(owner)):
            alone = row == r
            rerun = _bisect(integrate, *(v[alone] for v in (row, a, b, b, shares)),
                            _MAX_BISECTIONS, len(owner))
            if rerun[1]:
                totals, stuck = rerun
                break
    if stuck:
        depth, (r, lo, hi, part, est), pending = stuck
        err = totals[-1].sum() + pending.sum()
        raise NumericalError(
            f"arcsine mixture quadrature at x = {xs[owner[r]]!r}: error estimate "
            f"{float(err):.3e} against its share {share:.3e} of quad_tol "
            f"{quad_tol!r}: the theta-panel [{float(lo)!r}, {float(hi)!r}] keeps the "
            f"estimate {est:.3e} above its share {part:.3e} after {depth} bisections"
        )
    # bincount returns integers when no row is weighted at all
    density = np.bincount(np.array(owner, dtype=np.intp), weights=totals[0], minlength=len(xs))
    density = density.astype(float, copy=False)
    return float(density[0]) if points.ndim == 0 else density


def _branch_integrands(m: float, branches: tuple, x: float) -> list:
    """(params, edges) for each arcsine branch that is not empty at x, with
    (m, branches) = `_arcsine_branches`: the branch's density term is the
    integral of `_arcsine_integrand(*params, theta)` from edges[0] = 0 to
    edges[-1] = theta_end, and edges holds the panels that `_bisect` starts
    from."""
    xi = x / m
    found = []
    for alpha, beta in branches:
        if not -beta < xi < max(alpha, 0.0):
            continue  # (alpha v - xi)(beta v + xi) <= 0 on all of (0, 1]
        if xi >= 0.0 or alpha >= 0.0:
            # c (v - lo) vanishes at lo; the other factor, slope v + offset, stays positive
            c, lo, width, slope, offset = (
                (alpha, xi / alpha, (alpha - xi) / alpha, beta, xi) if xi >= 0.0
                else (beta, -xi / beta, (xi + beta) / beta, alpha, -xi)
            )
            k = 2.0 * math.sqrt(width / c) / (math.pi * m)
            # the other factor vanishes `near` below v = lo, a feature of width
            # theta0 = sqrt(near / width) at theta = 0.  Both rules of a panel
            # much wider than theta0 miss it alike, so their difference does not
            # show the error (on [0, pi / 2] that was seen below theta0 = 2e-3);
            # panels growing tenfold from theta0 resolve it
            near = (slope * lo + offset) / slope if slope > 0.0 else math.inf
            theta0 = math.sqrt(near / width)
            edges = [0.0] + (_graded_edges(theta0, math.pi / 2.0) if 0.0 < theta0 < 0.1
                             else [math.pi / 2.0])
            found.append(((True, k, lo, width, slope, offset), edges))
        else:
            # the factors vanish at lo = -xi / beta and end = xi / alpha, which
            # leaves k v; an end past v = 1 only shortens the theta range
            lo, width = -xi / beta, xi / alpha + xi / beta
            k = 2.0 / (math.pi * m * math.sqrt(-alpha * beta))
            edges = [0.0, math.pi / 2.0 if xi >= alpha else math.atan2(
                math.sqrt((xi + beta) / beta), math.sqrt((xi - alpha) / alpha)
            )]
            found.append(((False, k, lo, width, 0.0, 1.0), edges))
    return found


def _arcsine_integrand(curved, k, lo, width, slope, offset, theta):
    """A branch's theta-integrand (`_branch_integrands`): with
    v = lo + width sin^2(theta), k v cos(theta) / sqrt(slope v + offset)
    where curved is true (or nonzero), else k v (slope 0 and offset 1).  The
    parameters are numbers or arrays that broadcast against theta."""
    v = lo + width * np.sin(theta) ** 2
    return np.where(curved, k * v * np.cos(theta) / np.sqrt(slope * v + offset), k * v)


# the oracle's depth limit in `_bisect`: theta_end <= pi / 2, so a panel
# bisected 40 times is under 1.5e-12 wide, and the 32 nodes of one near
# pi / 2 lie only a few ulps of theta apart; past that the rule no longer
# samples distinct points
_MAX_BISECTIONS = 40


def _theta_panels(integrand, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `_panel_integrals` rule on the theta-panels [a, b], all nodes in
    one call of integrand: the (1, panels) integrals and their estimates."""
    width = (b - a)[:, None]
    nodes = width * _RULE_W * integrand(a[:, None] + width * _RULE_X)
    high = nodes[:, :_GL_NODES].sum(axis=1)
    return high[None], np.abs(high - nodes[:, _GL_NODES:].sum(axis=1))


def _arcsine_branches(gamma1: float, gamma2: float) -> tuple[float, tuple]:
    """M* and the branch factors (alpha_j, beta_j) U / M*, so that branch j's
    radicand is M*^2 (alpha_j v - xi)(beta_j v + xi) in v = u / U, xi = x / M*.
    M* is summed as in `_grid`: alpha_1 = 1 exactly, and xi = +-1
    lies outside both branches."""
    s1, s2 = math.sqrt(gamma1 / 2.0), math.sqrt(gamma2 / 2.0)
    m = s1 + 2.0 * (s2 + s1)
    # (2 s2 - 3 s1) / M* as (4 gamma2 - 9 gamma1) / (2 M*^2): no cancellation,
    # exactly 0 at 4 gamma2 = 9 gamma1, and the numerator / 16 cannot overflow
    alpha2 = 8.0 * ((0.25 * gamma2 - 0.5625 * gamma1) / m) / m
    return m, ((1.0, (2.0 * s2 + s1) / m), (alpha2, (2.0 * s2 - s1) / m))


def _branch_cdf(alpha: float, beta: float, xi: float) -> float:
    """arccos(z_j(U)) / (2 pi) = atan2(sqrt(xi + beta), sqrt(alpha - xi)) / pi;
    exactly 0 or 1/2 wherever `arcsine_mixture_density` finds the branch empty."""
    if xi <= -beta:
        return 0.0
    if xi >= alpha:
        return 0.5
    return math.atan2(math.sqrt(xi + beta), math.sqrt(alpha - xi)) / math.pi


def check_density_args(
    w: GammaWeights, grid_size: int, quad_tol: float
) -> LimitBlocks:
    """The argument checks of `density_grid` and `oracle_density`, in their
    order (A0 singular, A0 indefinite, grid, quad_tol), for them and for
    callers that reject bad arguments before any other work.  Returns
    (A0, B0, S0) (`limit_blocks`)."""
    blocks = limit_blocks(w)
    if grid_size < 100:
        raise ValidationError(f"grid_size must be >= 100, got {grid_size}")
    _require_quad_tol(quad_tol)
    return blocks


def _grid(a0: np.ndarray, b0: np.ndarray, grid_size: int) -> np.ndarray:
    """The grid_size + 1 points of a table spanning [-M*, M*] for the limit
    blocks (A0, B0), with M* = ||B0||_inf + 2 ||A0||_inf the row-sum bound
    on the support: the coefficient pair sqrt(s p) (A0, B0) at s = 1/p.
    linspace ends the grid at exactly -+M*."""
    bound = float(np.abs(b0).sum(axis=1).max() + 2.0 * np.abs(a0).sum(axis=1).max())
    grid = np.linspace(-bound, bound, grid_size + 1)
    if grid_size % 2 == 0:
        # linspace can miss 0 by an ulp of M*, where a p = 2 density may diverge
        grid[grid_size // 2] = 0.0
    return grid


def oracle_density(w: GammaWeights, grid_size: int, quad_tol: float) -> SpectralDensity:
    """The closed-form oracle table for p = 1 or 2 on the grid of `density_grid`:
    the density unscaled at each point, and the exact CDF of the module docstring."""
    a0, b0, _ = check_density_args(w, grid_size, quad_tol)
    grid = _grid(a0, b0, grid_size)
    if w.p == 1:
        density = [semicircle_density(w.gamma[0], t) for t in grid]
        # y = t / (2 r) as in semicircle_density, exactly +-1 at +-M* = +-2 r
        cdf = [0.5 + (y * math.sqrt((1.0 - y) * (1.0 + y)) + math.asin(y)) / math.pi
               if abs(y) < 1.0 else float(y > 0.0) for y in grid / grid[-1]]
    elif w.p == 2:
        density = arcsine_mixture_density(*w.gamma, grid, quad_tol)
        m, branches = _arcsine_branches(*w.gamma)
        cdf = [sum(_branch_cdf(*ab, t / m) for ab in branches) + t * f / 2.0
               for t, f in zip(grid.tolist(), density.tolist())]
    else:
        raise ValidationError(f"the closed-form oracle needs p = 1 or p = 2, got p = {w.p}")
    return SpectralDensity(w, grid, density, cdf, quad_tol)


def density_grid(w: GammaWeights, grid_size: int, quad_tol: float) -> SpectralDensity:
    """Tabulate the limit density and its CDF on grid_size + 1 points
    spanning [-M*, M*], batched over the grid in the quadrature kernel."""
    a0, b0, s0 = check_density_args(w, grid_size, quad_tol)
    grid = _grid(a0, b0, grid_size)
    density, cdf, err = _density_table(a0, b0, s0, grid, quad_tol)
    return SpectralDensity(w, grid, density, cdf, quad_tol, float(err.max()))
