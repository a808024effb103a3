"""Limit density machinery: coefficient family, eigenvalue curves and their
derivative weights, the trace density, the generic s-integral against both
closed-form oracles, and the tabulated grid.

The generic and closed-form paths are fully independent computations of the
same density, so their pointwise agreement is the central correctness check.
"""

import math

import numpy as np
import pytest

from blockspec import spectral
from blockspec.cli import FIGURES
from blockspec.ensemble import GammaWeights
from blockspec.errors import (
    NotPositiveDefiniteError,
    NumericalError,
    ValidationError,
)
from blockspec.spectral import (
    LimitModel,
    SpectralDensity,
    arcsine_mixture_density,
    density_grid,
    limit_density,
    oracle_density,
    semicircle_density,
    support_bound,
)
from tests.oracles import build_AB, lambda_and_weights, trace_density

M1 = LimitModel.from_gamma(GammaWeights(1, (2.0,)))
M2 = LimitModel.from_gamma(GammaWeights(2, (2.0, 8.0)))


class TestLimitModel:
    def test_blocks_p2(self):
        np.testing.assert_allclose(M2.A0, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(M2.B0, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_singular_A0_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            LimitModel.from_gamma(GammaWeights(2, (4.0, 4.0)))

    def test_indefinite_A0_rejected_at_density_time(self):
        # gamma reversed: A0 = [[1, 2], [2, 1]] is invertible but indefinite
        model = LimitModel.from_gamma(GammaWeights(2, (8.0, 2.0)))
        with pytest.raises(NotPositiveDefiniteError, match="positive definite"):
            limit_density(model, 0.5)


class TestBuildAB:
    def test_p2_at_half(self):
        a, b = build_AB(M2, 0.5)
        np.testing.assert_allclose(a, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(b, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_p1_scalar(self):
        model = LimitModel.from_gamma(GammaWeights(1, (3.0,)))
        a, b = build_AB(model, 0.7)
        assert a[0, 0] == pytest.approx(math.sqrt(0.7 * 3.0 / 2.0))
        assert b[0, 0] == 0.0

    def test_sqrt_homogeneity(self):
        a1, b1 = build_AB(M2, 0.11)
        a4, b4 = build_AB(M2, 0.44)
        np.testing.assert_allclose(a4, 2.0 * a1, atol=1e-15)
        np.testing.assert_allclose(b4, 2.0 * b1, atol=1e-15)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValidationError):
            build_AB(M2, 0.0)


class TestLambdaAndWeights:
    def test_scalar_case(self):
        pts = lambda_and_weights(np.array([[2.0]]), np.array([[0.6]]), 0.1)
        assert len(pts) == 1
        assert pts[0].value == pytest.approx((0.6 - 0.1) / 2.0)
        assert pts[0].weight == pytest.approx(0.5)

    def test_similarity_oracle(self):
        # spectrum must match the nonsymmetric product A^{-1}(B - tI),
        # computed through the QR-iteration path
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = rng.integers(2, 5)
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            a = (q * rng.uniform(0.5, 3.0, p)) @ q.T
            a = (a + a.T) / 2.0
            b = rng.standard_normal((p, p))
            b = (b + b.T) / 2.0
            t = rng.uniform(-2.0, 2.0)
            ours = [pt.value for pt in lambda_and_weights(a, b, t)]
            ref = np.sort(np.linalg.eigvals(np.linalg.solve(a, b - t * np.eye(p))).real)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_weights_match_central_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        checked = 0
        while checked < 20:
            p = rng.integers(1, 4)
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            a = (q * rng.uniform(0.5, 2.0, p)) @ q.T
            a = (a + a.T) / 2.0
            b = rng.standard_normal((p, p))
            b = (b + b.T) / 2.0
            t = rng.uniform(-1.0, 1.0)
            lams = np.array([pt.value for pt in lambda_and_weights(a, b, t)])
            if p > 1 and np.min(np.diff(lams)) < 1e-3:
                continue  # skip near-degenerate spectra; pairing is ambiguous
            plus = np.array([pt.value for pt in lambda_and_weights(a, b, t + h)])
            minus = np.array([pt.value for pt in lambda_and_weights(a, b, t - h)])
            weights = np.array([pt.weight for pt in lambda_and_weights(a, b, t)])
            np.testing.assert_allclose((plus - minus) / (2 * h), -weights, atol=1e-7)
            checked += 1

    def test_curves_strictly_decreasing(self):
        ts = np.linspace(-3.0, 3.0, 25)
        for j in range(2):
            values = [
                lambda_and_weights(M2.A0, M2.B0, t)[j].value for t in ts
            ]
            assert np.all(np.diff(values) < 0)


class TestTraceDensity:
    def test_p1_arcsine(self):
        a = np.array([[1.0]])
        b = np.array([[0.0]])
        for t in (-1.5, 0.3, 1.9):
            assert trace_density(a, b, t) == pytest.approx(
                1.0 / (math.pi * math.sqrt(4.0 - t * t))
            )
        assert trace_density(a, b, 2.5) == 0.0

    def test_p1_at_zero(self):
        assert trace_density(np.array([[1.0]]), np.array([[0.0]]), 0.0) == pytest.approx(
            1.0 / (2.0 * math.pi)
        )

    def test_empty_indicator(self):
        # lambda = -10 here, far outside (-2, 2)
        assert trace_density(np.array([[0.1]]), np.array([[0.0]]), 1.0) == 0.0


class TestLimitDensity:
    def test_semicircle_values(self):
        assert limit_density(M1, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-9)
        assert limit_density(M1, 2.5) == 0.0
        assert limit_density(M1, -2.5) == 0.0

    def test_semicircle_grid(self):
        for x in np.linspace(-1.95, 1.95, 27):
            assert limit_density(M1, x, 1e-9) == pytest.approx(
                semicircle_density(2.0, x), abs=1e-7
            )

    def test_matches_arcsine_mixture(self):
        for x in np.linspace(-6.8, 6.8, 35):
            assert limit_density(M2, x, 1e-9) == pytest.approx(
                arcsine_mixture_density(2.0, 8.0, x), abs=1e-7
            )

    def test_density_is_asymmetric_for_unequal_weights(self):
        # the two arcsine branches have supports (-5, 7) and (-3, 1) at the
        # top coefficient scale, so mass extends further right than left;
        # both computation paths agree on this
        assert limit_density(M2, 6.0) > 0.02
        assert limit_density(M2, -6.0) == 0.0
        assert arcsine_mixture_density(2.0, 8.0, 6.0) > 0.02
        assert arcsine_mixture_density(2.0, 8.0, -6.0) == 0.0

    def test_gamma_scaling_homogeneity(self):
        # scaling every gamma by c stretches the density by sqrt(c)
        c = 2.3
        for p, gamma in ((1, (2.0,)), (2, (2.0, 8.0))):
            base = LimitModel.from_gamma(GammaWeights(p, gamma))
            scaled = LimitModel.from_gamma(
                GammaWeights(p, tuple(c * g for g in gamma))
            )
            for t in (0.0, 0.8, -1.3, 2.1):
                assert limit_density(scaled, t * math.sqrt(c)) * math.sqrt(
                    c
                ) == pytest.approx(limit_density(base, t), abs=1e-6)

    def test_quad_tol_validated(self):
        with pytest.raises(ValidationError):
            limit_density(M1, 0.0, quad_tol=0.0)

    @pytest.mark.parametrize("quad_tol", [math.nan, math.inf, -1e-6])
    def test_nonfinite_quad_tol_rejected(self, quad_tol):
        with pytest.raises(ValidationError, match="quad_tol"):
            limit_density(M1, 0.0, quad_tol=quad_tol)
        with pytest.raises(ValidationError, match="quad_tol"):
            density_grid(M1, 100, quad_tol)

    def test_grid_aligned_curve_crossing(self):
        # regression: at t = -3 sqrt(2) with tied weights (4, 4, 100) a curve
        # meets +2 exactly at a scan point (u_max / 4); a sign-based scan that
        # drops exact hits loses the breakpoint and about 2% of this value.
        # Reference frozen from a panel integration under a sin^2 endpoint
        # substitution at tolerance 1e-12.
        model = LimitModel.from_gamma(GammaWeights(3, (4.0, 4.0, 100.0)))
        value = limit_density(model, -3.0 * math.sqrt(2.0), 1e-10)
        assert value == pytest.approx(0.04484540135872291, abs=1e-8)


class TestSemicircle:
    def test_value_at_zero(self):
        assert semicircle_density(2.0, 0.0) == pytest.approx(1.0 / math.pi)

    def test_support_endpoints(self):
        assert semicircle_density(2.0, 2.0) == 0.0
        assert semicircle_density(2.0, -2.0) == 0.0
        assert semicircle_density(2.0, 2.4) == 0.0

    def test_normalized_by_fine_trapezoid(self):
        # the trapezoid error at the square-root support edges is h^(3/2):
        # 1.06e-6 at 10k points (scale-free), reaching 1e-6 needs ~11k
        for gamma1 in (0.5, 2.0, 9.0):
            half = math.sqrt(2.0 * gamma1)
            grid = np.linspace(-half, half, 10_001)
            mass = np.trapezoid([semicircle_density(gamma1, x) for x in grid], grid)
            assert mass == pytest.approx(1.0, abs=1.1e-6)
        grid = np.linspace(-2.0, 2.0, 100_001)
        mass = np.trapezoid([semicircle_density(2.0, x) for x in grid], grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValidationError):
            semicircle_density(0.0, 0.0)


class TestArcsineMixture:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_branch_parameters_via_reference_quadrature(self):
        # recompute the mixture in the s variable with the branch parameters
        # alpha_1 = sqrt(s)(sqrt(g2)+sqrt(g1)), alpha_2 = sqrt(s)(sqrt(g2)-sqrt(g1)),
        # beta_12 = +-sqrt(s g1), as an independent transcription
        from scipy.integrate import quad

        g1, g2 = 2.0, 8.0
        for x in (-2.0, 0.5, 3.0, 6.5):
            total = 0.0
            for j, b_sign in ((1, 1.0), (2, -1.0)):
                alpha = (math.sqrt(g2) + math.sqrt(g1)) if j == 1 else (
                    math.sqrt(g2) - math.sqrt(g1)
                )

                def integrand(s):
                    a_s = alpha * math.sqrt(s)
                    b_s = b_sign * math.sqrt(s * g1)
                    rad = 4.0 * a_s * a_s - (x - b_s) ** 2
                    return 1.0 / (math.pi * math.sqrt(rad)) if rad > 0 else 0.0

                val, _ = quad(integrand, 0.0, 0.5, limit=500, epsabs=1e-11)
                total += val
            assert arcsine_mixture_density(g1, g2, x) == pytest.approx(total, abs=1e-6)

    def test_far_outside_support(self):
        assert arcsine_mixture_density(2.0, 8.0, 7.5) == 0.0
        assert arcsine_mixture_density(2.0, 8.0, -7.5) == 0.0

    def test_equal_weights_rejected(self):
        with pytest.raises(ValidationError):
            arcsine_mixture_density(4.0, 4.0, 0.0)

    # Weights (2, 3): branch 2 has alpha_2 U = k < 0, so its interval ends at
    # the root x / alpha_2 = U (1 + r) just past or just before u_max = U.
    # References: 40-digit mpmath quadrature of the two branches at these
    # very floats, between the exact roots.
    KINK = -0.5505102572168219

    @pytest.mark.parametrize(
        "r,x,reference",
        [
            (1e-12, -0.5505102572173725, 0.84873406490296199),
            (1e-12, -0.5505102572162714, 0.84873496988341852),
            (1e-10, -0.550510257271873, 0.84872592050074182),
            (1e-10, -0.5505102571617708, 0.84873496980694952),
            (1e-8, -0.5505102627219244, 0.84864448303786854),
            (1e-8, -0.5505102517117193, 0.84873496216006496),
            (1e-6, -0.550510807727079, 0.84783079619468545),
            (1e-6, -0.5505097067065646, 0.84873419747160364),
        ],
    )
    def test_root_at_the_end_of_the_range(self, r, x, reference):
        assert x in (self.KINK * (1.0 + r), self.KINK * (1.0 - r))
        tol = 1e-12 if r == 1e-6 else 1e-9
        assert arcsine_mixture_density(2.0, 3.0, x, 1e-13) == pytest.approx(reference, abs=tol)

    @pytest.mark.parametrize(
        "gamma2,references",
        [
            # 4 gamma2 = 9 gamma1: alpha_2 = 0 and one factor of Q_2 is constant
            (9.0, [0.0, 0.0, 0.0, 0.033114158541060293, 0.042970635039453224,
                   0.19725473891958692, 0.045944074618482671, 0.042502989313012128,
                   0.039782063323258731, 0.036125849088943039, 0.030874148291678444,
                   0.022790036316226266, 0.0]),
            (9.000001, [0.0, 0.0, 8.3882013552249106e-6, 0.033114157887165515,
                        0.043023685270205644, 0.19725472013461995, 389.89433400662143,
                        0.042502987941915073, 0.039782062071065201, 0.036125847966539023,
                        0.030874147339980849, 0.022790035617353511, 0.0]),
            (8.999999, [0.0, 0.0, 0.0, 0.033114159194955086, 0.042970636446273381,
                        0.1972547577045593, 0.045944076213763139, 0.042502990684109342,
                        0.039782064575452404, 0.036125850211347184, 0.030874149243376127,
                        0.022790037015099076, 0.0]),
        ],
    )
    def test_alpha2_near_zero(self, gamma2, references):
        # alpha_2 = 2 sqrt(gamma2) - 3 sqrt(gamma1) cancels here; 13 points
        # from -M* to M* through t = 0, against 40-digit mpmath references
        model = LimitModel.from_gamma(GammaWeights(2, (4.0, gamma2)))
        m = support_bound(model)
        for x, reference in zip(np.linspace(-m, m, 13), references):
            assert arcsine_mixture_density(4.0, gamma2, x, 1e-10) == pytest.approx(
                reference, abs=1e-9
            )

    @pytest.mark.parametrize(
        "gamma", [(2.0, 8.0), (1.0, 100.0), (2.0, 3.0), (4.0, 9.0), (0.3, 7.1), (1e-300, 3e-300)]
    )
    def test_branch_edges_are_exact_at_the_support_bound(self, gamma):
        # M* is summed as support_bound sums it, so x = +-M* lies outside
        # both branches: density exactly 0, and the CDF terms exactly 1/2 or 0
        m = support_bound(LimitModel.from_gamma(GammaWeights(2, gamma)))
        m_branches, branches = spectral._arcsine_branches(*gamma)
        assert m_branches == m and branches[0][0] == 1.0
        for x, term in ((m, 0.5), (-m, 0.0)):
            assert arcsine_mixture_density(*gamma, x, 1e-10) == 0.0
            assert [spectral._branch_cdf(a, b, x / m) for a, b in branches] == [term, term]

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(NumericalError, match=r"x = 0\.5: error estimate .* share 5\.000e-301"):
            arcsine_mixture_density(2.0, 8.0, 0.5, 1e-300)
        # a share that underflows to 0 fails the same check
        with pytest.raises(NumericalError, match="x = 0.5"):
            arcsine_mixture_density(2.0, 8.0, 0.5, 5e-324)


class TestDensityGrid:
    def test_semicircle_table(self):
        table = density_grid(M1, 400, 1e-7)
        mid = 200  # grid has 401 points, index 200 is t = 0
        assert table.grid[mid] == pytest.approx(0.0, abs=1e-12)
        assert table.cdf[mid] == pytest.approx(0.5, abs=1e-3)
        errs = [
            abs(d - semicircle_density(2.0, t))
            for t, d in zip(table.grid, table.density)
        ]
        assert max(errs) <= 1e-3

    def test_monotone_and_nonnegative(self):
        table = density_grid(M2, 150, 1e-6)
        assert np.all(table.density >= 0.0)
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert table.normalized

    def test_support_bound_p1(self):
        assert support_bound(M1) == pytest.approx(2.0)

    def test_support_bound_p2(self):
        # ||B0||_inf + 2 ||A0||_inf with rows (1) and (3)
        assert support_bound(M2) == pytest.approx(7.0)

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError):
            density_grid(M1, 99)


class TestSpectralDensity:
    @pytest.mark.parametrize("column", ["grid", "density", "cdf"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_raises(self, column, bad):
        values = {
            "grid": np.linspace(-1.0, 1.0, 5),
            "density": np.full(5, 0.5),
            "cdf": np.linspace(0.0, 1.0, 5),
        }
        values[column][3] = bad
        t = repr(bad) if column == "grid" else "0.5"
        with pytest.raises(NumericalError, match=f"non-finite {column} value {bad!r} at t = {t}$"):
            SpectralDensity(**values)


class TestOracleDensity:
    TABLES = [(1, (2.0,)), (2, (2.0, 8.0)), (2, (1.0, 100.0)), (2, (2.0, 3.0)), (2, (4.0, 9.0))]

    @pytest.mark.parametrize("p,gamma", TABLES)
    def test_density_column_is_the_closed_form(self, p, gamma):
        table = oracle_density(GammaWeights(p, gamma), 120, 1e-10)
        if p == 1:
            expected = [semicircle_density(gamma[0], t) for t in table.grid]
        else:
            expected = [arcsine_mixture_density(*gamma, t, 1e-10) for t in table.grid]
        assert table.density.tolist() == expected
        m = support_bound(LimitModel.from_gamma(GammaWeights(p, gamma)))
        assert len(table.grid) == 121 and table.support == (-m, m)

    @pytest.mark.parametrize("p,gamma", TABLES)
    def test_cdf_runs_from_zero_to_one(self, p, gamma):
        table = oracle_density(GammaWeights(p, gamma), 400, 1e-10)
        assert table.cdf[0] == 0.0 and table.cdf[-1] == 1.0
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert table.density[0] == 0.0 and table.density[-1] == 0.0

    @pytest.mark.parametrize("p,gamma", [(1, (2.0,)), (2, (2.0, 8.0)), (2, (1.0, 100.0))])
    def test_cdf_matches_the_kernel(self, p, gamma):
        # two independent closed forms: arccos of the kernel's eigenvalues,
        # and the integration-by-parts identity over the two branches
        w = GammaWeights(p, gamma)
        kernel = density_grid(LimitModel.from_gamma(w), 400, 1e-10)
        assert np.abs(oracle_density(w, 400, 1e-10).cdf - kernel.cdf).max() <= 1e-9

    def test_cdf_derivative_is_the_density(self):
        # F' = f for the identity F = sum_j arccos(z_j) / (2 pi) + x f / 2,
        # through both signs of x and the case alpha_2 < 0 of weights (2, 3)
        h = 1e-5
        for gamma, ts in (((2.0, 8.0), [-4.2, -1.7, 0.6, 2.9, 5.5]),
                          ((2.0, 3.0), [-2.1, -0.9, -0.3, 0.4, 2.2])):
            m, branches = spectral._arcsine_branches(*gamma)

            def cdf(t):
                f = arcsine_mixture_density(*gamma, t, 1e-12)
                return sum(spectral._branch_cdf(a, b, t / m) for a, b in branches) + t * f / 2

            for t in ts:
                slope = (cdf(t + h) - cdf(t - h)) / (2.0 * h)
                assert slope == pytest.approx(arcsine_mixture_density(*gamma, t, 1e-12), abs=1e-8)

    def test_semicircle_cdf(self):
        table = oracle_density(GammaWeights(1, (2.0,)), 400, 1e-10)
        y = table.grid / 2.0
        exact = 0.5 + (y * np.sqrt(1.0 - y * y) + np.arcsin(y)) / math.pi
        assert np.abs(table.cdf - exact).max() <= 1e-15

    def test_arguments_checked(self):
        with pytest.raises(ValidationError, match="grid_size"):
            oracle_density(GammaWeights(2, (2.0, 8.0)), 99, 1e-10)
        with pytest.raises(ValidationError, match="quad_tol"):
            oracle_density(GammaWeights(1, (2.0,)), 100, math.nan)
        with pytest.raises(ValidationError, match="p = 1 or p = 2"):
            oracle_density(GammaWeights(3, (1.0, 4.0, 25.0)), 100, 1e-10)

    def test_quad_tol_is_enforced(self):
        with pytest.raises(NumericalError, match="share 5.000e-301 of quad_tol 1e-300"):
            oracle_density(GammaWeights(2, (2.0, 8.0)), 100, 1e-300)


def _figure_models():
    return {
        name: LimitModel.from_gamma(GammaWeights(p, gamma))
        for name, (p, gamma, _) in sorted(FIGURES.items())
    }


class TestDensityKernel:
    """The batched kernel behind `density_grid` and `limit_density`."""

    def test_cdf_matches_exact_semicircle_cdf(self):
        table = density_grid(M1, 400, 1e-6)
        x = np.clip(table.grid / 2.0, -1.0, 1.0)
        exact = 0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / math.pi
        assert np.abs(table.cdf - exact).max() <= 1e-10

    def test_matches_arcsine_mixture_on_grid_through_the_kinks(self):
        # M* = 7 and 140 intervals put grid points on the density kinks
        # -5, -3, 0, 1 and 7 (branch support edges and the accumulation at 0)
        table = density_grid(M2, 140, 1e-9)
        for kink in (-5.0, -3.0, 0.0, 1.0, 7.0):
            assert np.abs(table.grid - kink).min() <= 1e-12
        errs = [
            abs(d - arcsine_mixture_density(2.0, 8.0, t))
            for t, d in zip(table.grid, table.density)
        ]
        assert max(errs) <= 1e-9 + 1e-10  # kernel tolerance + oracle tolerance
        assert table.quad_err_est <= 1e-9

    def test_kink_just_past_the_range(self):
        # with weights (2, 3), W0 has an eigenvalue below -2: for t < 0 one
        # curve enters (-2, 2) and leaves it again through -2 at u* =
        # t / (k sqrt(2)), k = -0.55051025721682...  For t just below k that
        # exit lies just past u_max, and the last panel's map must end there
        # to keep its inverse square root smooth.  References: 40-digit
        # quadrature of the two arcsine branches.
        model = LimitModel.from_gamma(GammaWeights(2, (2.0, 3.0)))
        for t, reference in (
            (-0.5505102577, 0.84870816077197805),
            (-0.55051031, 0.84845483138024336),
            (-0.5505157, 0.84589714841450993),
        ):
            assert limit_density(model, t, 1e-9) == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_kinks_are_level_crossings(self, name):
        # every u* = t / (k sqrt(p)), k an eigenvalue of B0 -+ 2 A0, puts an
        # eigenvalue of W(u*, t) on +-2; W built by the independent path
        model = _figure_models()[name]
        u_max = math.sqrt(1.0 / model.p)
        ts = np.linspace(-support_bound(model), support_bound(model), 41)
        kinks = spectral._kinks(model, ts)
        checked = 0
        for t, row in zip(ts, kinks):
            for u in row[(row > 0.0) & (row <= u_max)]:
                a, b = build_AB(model, u * u)
                lams = np.array([pt.value for pt in lambda_and_weights(a, b, t)])
                assert np.abs(np.abs(lams) - 2.0).min() <= 1e-12, (t, u, lams)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("name", ["fig1", "fig5"])
    def test_node_integrand_matches_trace_density(self, name):
        # in u = sqrt(s), ds = 2u du: the node integrand is 2u trace_density
        model = _figure_models()[name]
        rng = np.random.default_rng(5)
        bound = support_bound(model)
        t = rng.uniform(-bound, bound, 60)
        u = rng.uniform(0.05, math.sqrt(1.0 / model.p), 60)
        node = spectral._integrands(model, t, u)[0]
        for ti, ui, value in zip(t, u, node):
            expected = 2.0 * ui * trace_density(*build_AB(model, ui * ui), ti)
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_raw_cdf_runs_from_zero_to_one(self, name):
        table = density_grid(_figure_models()[name], 400, 1e-6)
        assert table.cdf[0] == 0.0
        assert abs(table.cdf[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert 0.0 < table.quad_err_est <= 1e-6

    def test_cdf_derivative_is_the_density(self):
        # F' = f: central differences of the closed-form CDF
        h = 1e-5
        ts = np.array([-4.2, -1.7, 0.6, 2.9, 5.5])
        density, _, _ = spectral._density_table(M2, ts, 1e-10)
        _, lo, _ = spectral._density_table(M2, ts - h, 1e-10)
        _, hi, _ = spectral._density_table(M2, ts + h, 1e-10)
        np.testing.assert_allclose((hi - lo) / (2.0 * h), density, rtol=0.0, atol=1e-7)

    def test_one_point_case_equals_the_grid(self):
        for model in _figure_models().values():
            table = density_grid(model, 120, 1e-6)
            for t, d in list(zip(table.grid, table.density))[::10]:
                assert limit_density(model, t, 1e-6) == d

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(NumericalError, match="quad_tol 1e-300"):
            limit_density(M2, 0.5, 1e-300)
        with pytest.raises(NumericalError, match="t = "):
            density_grid(M1, 100, 1e-300)

    def test_decreasing_cdf_raises(self, monkeypatch):
        def fake(model, ts, quad_tol):
            cdf = np.linspace(0.0, 1.0, len(ts))
            cdf[50] = cdf[48]
            return np.zeros(len(ts)), cdf, np.zeros(len(ts))

        monkeypatch.setattr(spectral, "_density_table", fake)
        with pytest.raises(NumericalError, match=r"decreases .* at t = 0\.0"):
            density_grid(M1, 100, 1e-6)
