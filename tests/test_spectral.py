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
    arcsine_mixture_density,
    density_grid,
    limit_density,
    semicircle_density,
    support_bound,
    tabulate_density,
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

    def test_normalization_breach_raises(self):
        # constant 0.6 over [-1, 1] integrates to 1.2
        with pytest.raises(NumericalError, match="1%"):
            tabulate_density(lambda t: 0.6, 1.0, 100)


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
        # quadrature of the two arcsine branches (the scipy oracle is off by
        # up to 1e-4 this close to its own breakpoints).
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
