"""Limiting spectral density of the scaled ensemble, evaluated through the
eigenvalue curves of the matrix pencil behind the Chebyshev matrix measure,
plus independent closed-form oracles for p = 1 and p = 2.

The coefficient family is sqrt(s*p)-homogeneous: A(s) = sqrt(s*p) * A0 and
B(s) = sqrt(s*p) * B0, with A0, B0 built from the gamma weights.  For fixed
(s, t) the density integrand is

    sum_j  w_j / (pi * sqrt(4 - lambda_j^2))   over  |lambda_j| < 2,

where lambda_j are the eigenvalues of W(t) = A^{-1/2} (B - t I) A^{-1/2}
(real symmetric and similar to the defining pencil) and w_j = u_j^T A^{-1} u_j
for the unit eigenvectors u_j.  By first-order perturbation, dlambda_j/dt =
-w_j, so every curve is strictly decreasing in t and the weights double as
exact derivatives, which avoids curve tracking entirely.

The s-integral runs over (0, 1/p].  A u = sqrt(s) substitution removes the
1/sqrt(s) divergence of the weights at s -> 0.  The square-root kinks where
some lambda_j crosses +-2 come in closed form from two p x p eigenvalue
problems, and one batched pass integrates every grid point's panels between
kinks with a fixed Gauss-Legendre rule, checked against its embedded
half-size rule.  The same eigenvalues give the CDF in closed form through
arccos(lambda_j / 2), since dlambda_j/dt = -w_j.

The p = 2 oracle mixes two arcsine branches.  In u = sqrt(s) in (0, U],
U = 1/sqrt(2), branch j has the integrand 2u / (pi sqrt(Q_j(u))) with
Q_j(u) = 4 a_j^2 u^2 - (x - b_j u)^2 = (alpha_j u - x)(beta_j u + x),
alpha_j = 2 a_j + b_j and beta_j = 2 a_j - b_j > 0, so the roots x / alpha_j
and -x / beta_j bound the interval where Q_j > 0.  Integrating the
branch's arcsine CDF arccos(z_j(u)) / pi, z_j(u) = (b_j u - x) / (2 a_j u),
against 2u du by parts gives the CDF from the density f:
F(x) = sum_j arccos(z_j(U)) / (2 pi) + x f(x) / 2.  For p = 1 the oracle is
the semicircle law of the Dumitriu-Edelman beta-Hermite model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import GammaWeights
from .errors import NotPositiveDefiniteError, NumericalError, ValidationError
from .linalg import require_symmetric, singular_blocks, spd_inv_sqrt
from .matrixpoly import coefficient_blocks


@dataclass
class SpectralDensity:
    """Tabulated limit density on an ascending grid with its CDF."""

    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    p: int | None = None
    gamma: tuple[float, ...] | None = None
    quad_tol: float | None = None
    quad_err_est: float | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        self.cdf = np.asarray(self.cdf, dtype=float)
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

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def normalized(self) -> bool:
        return abs(float(self.cdf[-1]) - 1.0) <= 1e-9


@dataclass
class LimitModel:
    """The s-independent factors A0, B0 of the homogeneous coefficient family.

    A0 has entries sqrt(gamma_{p-|i-j|} / 2); B0 has zero diagonal and
    entries sqrt(gamma_{|i-j|} / 2).  A0 must be invertible (not singular
    by `linalg.singular_blocks`); density evaluation additionally requires
    it to be positive definite.
    """

    p: int
    gamma: tuple[float, ...]
    A0: np.ndarray
    B0: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.A0 = require_symmetric(self.A0)
        self.B0 = require_symmetric(self.B0)
        self.gamma = tuple(float(g) for g in self.gamma)
        if self.A0.shape != (self.p, self.p) or self.B0.shape != (self.p, self.p):
            raise ValidationError("A0 and B0 must be p x p")
        if singular_blocks(self.A0[None]).size:
            raise ValidationError(
                "A0 is singular for these gamma weights; the limit law is not defined"
            )

    @classmethod
    def from_gamma(cls, w: GammaWeights) -> "LimitModel":
        a0, b0 = coefficient_blocks(w, 1, 1)
        return cls(p=w.p, gamma=w.gamma, A0=a0, B0=b0)

    def _spd_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S0, A0inv, W0) with S0 = A0^{-1/2}; requires A0 positive definite."""
        if "spd" not in self._cache:
            try:
                s0 = spd_inv_sqrt(self.A0)
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    "density evaluation requires a positive definite A0 block "
                    f"(smallest eigenvalue {exc.min_eigenvalue:.6e}, at most 1e-12 "
                    "times the largest in magnitude); invertible but indefinite "
                    "weight configurations are rejected",
                    min_eigenvalue=exc.min_eigenvalue,
                ) from exc
            self._cache["spd"] = (s0, s0 @ s0, s0 @ self.B0 @ s0)
        return self._cache["spd"]


def _require_quad_tol(quad_tol: float) -> None:
    """Reject a quadrature tolerance that is not a positive finite number."""
    if not 0.0 < quad_tol < math.inf:
        raise ValidationError(f"quad_tol must be positive and finite, got {quad_tol}")


def _rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


# one panel is integrated with _GL_NODES Gauss-Legendre nodes; the embedded
# _GL_NODES // 2 rule on the same panel gives the error estimate
_GL_NODES = 32
_RULE_X, _RULE_W = (
    np.concatenate(parts) for parts in zip(_rule(_GL_NODES), _rule(_GL_NODES // 2))
)
_MIN_PANEL = 1e-14  # narrower u-panels are skipped
_MAX_DEPTH = 8  # bisections of one panel before its tolerance counts as failed
_ROUNDING = 64 * np.finfo(float).eps  # relative rounding level of a panel integral
_CHUNK_PANELS = 64  # panels per batched eigh call (64 * 48 matrices)


def _integrands(model: LimitModel, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The u-integrands of the density, the mass below t and the mass above t.

    t and u broadcast together; the three integrands are stacked on a new
    first axis.  ds = 2u du, and the weights of W(u, t) carry the factor
    1 / (u sqrt(p)), so the density integrand is 2u times the trace density
    sum_j w_j / (pi sqrt(4 - lambda_j^2)) of the coefficient pair
    sqrt(s p) (A0, B0) at s = u^2.
    """
    _, a0inv, w0 = model._spd_parts()
    sqrt_p = math.sqrt(model.p)
    lam, vec = np.linalg.eigh(w0 - (t / (u * sqrt_p))[..., None, None] * a0inv)
    weights = np.sum(vec * (a0inv @ vec), axis=-2)
    inside = np.abs(lam) < 2.0
    radicand = np.where(inside, (2.0 - lam) * (2.0 + lam), 1.0)
    half = np.clip(lam / 2.0, -1.0, 1.0)
    density = np.sum(np.where(inside, weights / np.sqrt(radicand), 0.0), axis=-1)
    below = np.sum(np.arccos(half), axis=-1)
    above = np.sum(np.arccos(-half), axis=-1)
    return np.stack(
        [
            density * (2.0 / (math.pi * sqrt_p)),
            below * u * (2.0 / math.pi),
            above * u * (2.0 / math.pi),
        ]
    )


def _panel_integrals(
    model: LimitModel, t: np.ndarray, a: np.ndarray, b: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of the three `_integrands` over the u-panels [a, b], with
    one error estimate a panel.

    Panel i is mapped through u = a + (end - a) sin^2(theta), end >= b, for
    theta in (0, theta_end) with sin^2(theta_end) = (b - a) / (end - a).  The
    map cancels the inverse-square-root behaviour of a kink at a and at end,
    so all three integrands are smooth in theta even when the kink at end
    lies just past the panel.  Returns the (3, panels) integrals and the
    largest of their three error estimates, |K-node rule - K/2-node rule|,
    per panel.
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
        nodes = jac * _integrands(model, t[rows, None], u)
        high[:, rows] = nodes[..., :_GL_NODES].sum(axis=-1)
        low[:, rows] = nodes[..., _GL_NODES:].sum(axis=-1)
    return high, np.abs(high - low).max(axis=0)


def _kinks(model: LimitModel, ts: np.ndarray) -> np.ndarray:
    """u-locations where an eigenvalue curve of W(u, t) meets +-2, per t.

    With u = sqrt(s), W(u, t) = W0 - (t / (u sqrt(p))) A0^{-1}, and
    W0 - k A0^{-1} - l I = S0 (B0 - k I - l A0) S0 with S0 = A0^{-1/2}.  So a
    curve meets the level l exactly where k = t / (u sqrt(p)) is an
    eigenvalue of B0 - l A0: two p x p eigenvalue problems give every kink
    at every t.  Row i holds t_i / (k sqrt(p)) for each nonzero eigenvalue k
    of B0 - 2 A0 and B0 + 2 A0; entries outside (0, u_max] lie off the
    integration range.
    """
    levels = np.concatenate(
        [
            np.linalg.eigvalsh(model.B0 - 2.0 * model.A0),
            np.linalg.eigvalsh(model.B0 + 2.0 * model.A0),
        ]
    )
    return ts[:, None] / (levels[levels != 0.0] * math.sqrt(model.p))


def _density_table(
    model: LimitModel, ts: np.ndarray, quad_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Limit density, CDF and quadrature error estimate at every t in ts.

    With u = sqrt(s) the s-integrals run over u in (0, u_max], u_max =
    sqrt(1/p), split into panels at the `_kinks` inside that range, so every
    panel carries smooth integrands once mapped.

    The density integrand is sum_j w_j / (pi sqrt(4 - lambda_j^2)) over
    |lambda_j| < 2.  The mass below t has integrand sum_j arccos(lambda_j/2)
    / pi with lambda_j / 2 clipped to [-1, 1], whose t-derivative is the
    density integrand because dlambda_j/dt = -w_j; the mass above t uses
    arccos(-lambda_j / 2), and the two add up to 1.  The CDF is the mass
    below t where that is the smaller one and 1 - (mass above t) elsewhere:
    both are exact zeros outside the support, so the table starts at 0 and
    ends at 1 with no normalization, and either tail keeps its relative
    precision.

    Every (t, panel) pair gets the share quad_tol / (panels at t) of the
    tolerance.  A panel whose error estimate exceeds its share is bisected
    and evaluated again; NumericalError is raised when a panel still exceeds
    its share after _MAX_DEPTH bisections, or when its estimate is already
    at the rounding level of its integrals, which bisection cannot lower.
    """
    _require_quad_tol(quad_tol)
    ts = np.asarray(ts, dtype=float)
    u_max = math.sqrt(1.0 / model.p)
    kinks = _kinks(model, ts)
    inner = np.sort(np.where((kinks > 0.0) & (kinks < u_max), kinks, u_max), axis=1)
    edges = np.concatenate(
        [np.zeros((len(ts), 1)), inner, np.full((len(ts), 1), u_max)], axis=1
    )
    # the nearest kink past u_max, if any, ends the map of the last panel
    past = np.where(kinks >= u_max, kinks, np.inf).min(axis=1, initial=np.inf)
    past = np.where(np.isfinite(past), past, u_max)
    a, b = edges[:, :-1], edges[:, 1:]
    keep = b - a >= _MIN_PANEL
    row = np.nonzero(keep)[0]
    a, b = a[keep], b[keep]
    end = np.where(b == u_max, past[row], b)
    share = quad_tol / keep.sum(axis=1)[row]

    found = []
    for depth in range(_MAX_DEPTH + 1):
        values, err = _panel_integrals(model, ts[row], a, b, end)
        ok = err <= share
        found.append((row[ok], values[:, ok], err[ok]))
        if ok.all():
            break
        stuck = ~ok & ((depth == _MAX_DEPTH) | (err <= _ROUNDING * values.max(axis=0)))
        if stuck.any():
            i = int(np.argmax(stuck))
            raise NumericalError(
                f"limit density quadrature at t = {float(ts[row[i]])!r}: error "
                f"estimate {err[i]:.3e} exceeds its share {share[i]:.3e} of quad_tol "
                f"{quad_tol!r} on the u-panel [{float(a[i])!r}, {float(b[i])!r}] "
                f"after {depth} bisections"
            )
        # bisect the failed panels; the right half keeps the map's end
        a, b, end, share = a[~ok], b[~ok], end[~ok], share[~ok]
        mid = (a + b) / 2.0
        row = np.repeat(row[~ok], 2)
        a, b, end = (np.stack(pair, axis=1).ravel() for pair in ((a, mid), (mid, b), (mid, end)))
        share = np.repeat(share / 2.0, 2)

    row = np.concatenate([part[0] for part in found])
    values = np.concatenate([part[1] for part in found], axis=1)
    err = np.concatenate([part[2] for part in found])
    density, below, above, err = (
        np.bincount(row, weights=w, minlength=len(ts)) for w in (*values, err)
    )
    cdf = np.where(below <= above, below, 1.0 - above)
    return density, cdf, err


def limit_density(model: LimitModel, t: float, quad_tol: float = 1e-8) -> float:
    """Limit density f(t): the s-integral of the trace density over (0, 1/p].

    The one-point case of the batched kernel behind `density_grid`, held to
    the absolute tolerance quad_tol by its embedded error estimate.
    """
    density, _, _ = _density_table(model, np.array([float(t)]), quad_tol)
    return float(density[0])


def semicircle_density(gamma1: float, x: float) -> float:
    """Closed-form p = 1 limit density sqrt(2*gamma1 - x^2) / (pi * gamma1),
    as sqrt((1 - y)(1 + y)) / (pi r) with r = sqrt(gamma1 / 2), y = x / (2 r):
    neither 2 gamma1 nor x^2 can overflow, and y = +-1 exactly at the p = 1
    `support_bound` 2 r."""
    if gamma1 <= 0:
        raise ValidationError(f"gamma1 must be > 0, got {gamma1}")
    r = math.sqrt(gamma1 / 2.0)
    y = x / (2.0 * r)
    if abs(y) >= 1.0:
        return 0.0
    return math.sqrt((1.0 - y) * (1.0 + y)) / (math.pi * r)


def arcsine_mixture_density(
    gamma1: float, gamma2: float, x: float, quad_tol: float = 1e-10
) -> float:
    """Closed-form p = 2 limit density: a two-branch arcsine mixture.

    Branch j integrates 1 / (pi * sqrt(4 a_j^2 s - (x - b_j sqrt(s))^2)) over
    s in (0, 1/2] wherever the radicand is positive, with
    a_1 = sqrt(gamma2) + sqrt(gamma1), a_2 = sqrt(gamma2) - sqrt(gamma1),
    b_1 = sqrt(gamma1), b_2 = -sqrt(gamma1).  This is the independent oracle
    for the generic p = 2 path.  It requires gamma1 < gamma2, where A0 is
    positive definite, as the generic path does.

    Each branch is integrated only where Q_j > 0 (module docstring), under
    the kernel's map v = lo + (end - lo) sin^2(theta), and its error
    estimate must meet the share quad_tol / 2, or NumericalError is raised.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValidationError("gamma weights must be > 0")
    if gamma1 == gamma2:
        raise ValidationError(
            "gamma1 == gamma2 makes the coupling block singular; "
            "the p = 2 limit density is not defined"
        )
    if gamma1 > gamma2:
        # A0 has eigenvalues sqrt(gamma2 / 2) +- sqrt(gamma1 / 2)
        min_eig = math.sqrt(gamma2 / 2.0) - math.sqrt(gamma1 / 2.0)
        raise NotPositiveDefiniteError(
            "the p = 2 oracle requires a positive definite A0 block; gamma1 > gamma2 "
            f"gives it the smallest eigenvalue {min_eig:.6e}",
            min_eigenvalue=min_eig,
        )
    _require_quad_tol(quad_tol)
    # imported here: the oracle is the only user of scipy's adaptive quad
    from scipy.integrate import quad

    m, branches = _arcsine_branches(gamma1, gamma2)
    xi = x / m
    share = quad_tol / 2.0
    total = 0.0
    for alpha, beta in branches:
        if not -beta < xi < max(alpha, 0.0):
            continue  # (alpha v - xi)(beta v + xi) <= 0 on all of (0, 1]
        if xi >= 0.0 or alpha >= 0.0:
            # c (v - lo) vanishes at lo; the other factor, slope v + offset, stays positive
            c, lo, width, slope, offset = (
                (alpha, xi / alpha, (alpha - xi) / alpha, beta, xi) if xi >= 0.0
                else (beta, -xi / beta, (xi + beta) / beta, alpha, -xi)
            )
            k, theta_end = 2.0 * math.sqrt(width / c) / (math.pi * m), math.pi / 2.0

            def integrand(theta: float) -> float:
                v = lo + width * math.sin(theta) ** 2
                return k * v * math.cos(theta) / math.sqrt(slope * v + offset)

        else:
            # the factors vanish at lo = -xi / beta and end = xi / alpha, which
            # leaves k v; an end past v = 1 only shortens the theta range
            lo, width = -xi / beta, xi / alpha + xi / beta
            k = 2.0 / (math.pi * m * math.sqrt(-alpha * beta))
            theta_end = math.pi / 2.0 if xi >= alpha else math.atan2(
                math.sqrt((xi + beta) / beta), math.sqrt((xi - alpha) / alpha)
            )

            def integrand(theta: float) -> float:
                return k * (lo + width * math.sin(theta) ** 2)

        # quad rejects a zero tolerance; a share that underflows fails below
        value, err, _, *failure = quad(integrand, 0.0, theta_end, epsrel=0.0, limit=200,
                                       epsabs=max(share, math.ulp(0.0)), full_output=1)
        if failure or not err <= share:
            raise NumericalError(
                f"arcsine mixture quadrature at x = {float(x)!r}: error estimate {err:.3e} "
                f"against its share {share:.3e} of quad_tol {quad_tol!r}: "
                + (" ".join(failure[0].split()) if failure else "the estimate exceeds it")
            )
        total += value
    return total


def _arcsine_branches(gamma1: float, gamma2: float) -> tuple[float, tuple]:
    """M* and the branch factors (alpha_j, beta_j) U / M*, so that branch j's
    radicand is M*^2 (alpha_j v - xi)(beta_j v + xi) in v = u / U, xi = x / M*.
    M* is summed as in `support_bound`: alpha_1 = 1 exactly, and xi = +-1
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


def support_bound(model: LimitModel) -> float:
    """Row-sum bound M* = ||B0||_inf + 2 ||A0||_inf on the support: the
    coefficient pair sqrt(s p) (A0, B0) at s = 1/p."""
    return float(np.abs(model.B0).sum(axis=1).max() + 2.0 * np.abs(model.A0).sum(axis=1).max())


def check_density_args(grid_size: int, quad_tol: float) -> None:
    """The argument checks of `density_grid` and `oracle_density`, in their
    order, for callers that reject bad arguments before any other work."""
    if grid_size < 100:
        raise ValidationError(f"grid_size must be >= 100, got {grid_size}")
    _require_quad_tol(quad_tol)


def _grid(bound: float, grid_size: int, quad_tol: float) -> np.ndarray:
    check_density_args(grid_size, quad_tol)
    return np.linspace(-bound, bound, grid_size + 1)


def oracle_density(w: GammaWeights, grid_size: int, quad_tol: float) -> SpectralDensity:
    """The closed-form oracle table for p = 1 or 2 on the grid of `density_grid`:
    the density unscaled at each point, and the exact CDF of the module docstring."""
    bound = support_bound(LimitModel.from_gamma(w))
    grid = _grid(bound, grid_size, quad_tol)
    if w.p == 1:
        density = [semicircle_density(w.gamma[0], t) for t in grid]
        # y = t / (2 r) as in semicircle_density, exactly +-1 at +-M* = +-2 r
        cdf = [0.5 + (y * math.sqrt((1.0 - y) * (1.0 + y)) + math.asin(y)) / math.pi
               if abs(y) < 1.0 else float(y > 0.0) for y in grid / bound]
    elif w.p == 2:
        density = [arcsine_mixture_density(*w.gamma, t, quad_tol) for t in grid]
        m, branches = _arcsine_branches(*w.gamma)
        cdf = [sum(_branch_cdf(*ab, t / m) for ab in branches) + t * f / 2.0
               for t, f in zip(grid, density)]
    else:
        raise ValidationError(f"the closed-form oracle needs p = 1 or p = 2, got p = {w.p}")
    return SpectralDensity(grid, density, cdf, p=w.p, gamma=w.gamma, quad_tol=quad_tol)


def density_grid(model: LimitModel, grid_size: int, quad_tol: float = 1e-8) -> SpectralDensity:
    """Tabulate the limit density and its CDF on grid_size + 1 points
    spanning [-M*, M*], in one batched pass of the quadrature kernel."""
    grid = _grid(support_bound(model), grid_size, quad_tol)
    density, cdf, err = _density_table(model, grid, quad_tol)
    return SpectralDensity(
        grid=grid,
        density=density,
        cdf=cdf,
        p=model.p,
        gamma=model.gamma,
        quad_tol=quad_tol,
        quad_err_est=float(err.max()),
    )
