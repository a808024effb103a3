"""Limit density machinery: coefficient family, eigenvalue curves and their
derivative weights, the trace density, the generic s-integral against both
closed-form oracles, and the tabulated grid.

The generic and closed-form paths are fully independent computations of the
same density, so their pointwise agreement is the central correctness check.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from blockspec import spectral
from blockspec.cli import FIGURES
from blockspec.ensemble import EmpiricalSpectrum, GammaWeights
from blockspec.errors import NumericalError, ValidationError
from blockspec.harness import ks_distance
from blockspec.matrixpoly import recurrence_coeffs, roots
from blockspec.spectral import (
    SpectralDensity,
    arcsine_mixture_density,
    density_grid,
    limit_blocks,
    oracle_density,
    semicircle_density,
)
from tests.oracles import (
    arcsine_branch_loop,
    build_AB,
    cheb_T,
    density_at,
    lambda_and_weights,
    limit_moments,
    support_bound,
    trace_density,
)

M1 = GammaWeights((2.0,))
M2 = GammaWeights((2.0, 8.0))


class TestLimitModel:
    """The limit law's blocks (A0, B0) and S0 = A0^{-1/2}, `limit_blocks(w)`."""

    def test_blocks_p2(self):
        a0, b0, s0 = limit_blocks(M2)
        np.testing.assert_allclose(a0, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(b0, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(s0 @ a0 @ s0, np.eye(2), atol=1e-15)

    def test_singular_A0_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            limit_blocks(GammaWeights((4.0, 4.0)))

    def test_indefinite_A0_rejected_at_density_time(self):
        # gamma reversed: A0 = [[1, 2], [2, 1]] is invertible but indefinite
        with pytest.raises(ValidationError, match="A0 is not positive definite: "
                           "smallest eigenvalue -1.000000e"):
            limit_blocks(GammaWeights((8.0, 2.0)))


class TestBuildAB:
    def test_p2_at_half(self):
        a, b = build_AB(M2, 0.5)
        np.testing.assert_allclose(a, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(b, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_p1_scalar(self):
        a, b = build_AB(GammaWeights((3.0,)), 0.7)
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
                lambda_and_weights(*limit_blocks(M2)[:2], t)[j].value for t in ts
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
        assert density_at(M1, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-9)
        assert density_at(M1, 2.5) == 0.0
        assert density_at(M1, -2.5) == 0.0

    def test_semicircle_grid(self):
        for x in np.linspace(-1.95, 1.95, 27):
            assert density_at(M1, x, 1e-9) == pytest.approx(
                semicircle_density(2.0, x), abs=1e-7
            )

    def test_matches_arcsine_mixture(self):
        for x in np.linspace(-6.8, 6.8, 35):
            assert density_at(M2, x, 1e-9) == pytest.approx(
                arcsine_mixture_density(2.0, 8.0, x), abs=1e-7
            )

    def test_density_is_asymmetric_for_unequal_weights(self):
        # the two arcsine branches have supports (-5, 7) and (-3, 1) at the
        # top coefficient scale, so mass extends further right than left;
        # both computation paths agree on this
        assert density_at(M2, 6.0) > 0.02
        assert density_at(M2, -6.0) == 0.0
        assert arcsine_mixture_density(2.0, 8.0, 6.0) > 0.02
        assert arcsine_mixture_density(2.0, 8.0, -6.0) == 0.0

    def test_gamma_scaling_homogeneity(self):
        # scaling every gamma by c stretches the density by sqrt(c)
        c = 2.3
        for gamma in ((2.0,), (2.0, 8.0)):
            base = GammaWeights(gamma)
            scaled = GammaWeights(tuple(c * g for g in gamma))
            for t in (0.0, 0.8, -1.3, 2.1):
                assert density_at(scaled, t * math.sqrt(c)) * math.sqrt(
                    c
                ) == pytest.approx(density_at(base, t), abs=1e-6)

    def test_quad_tol_validated(self):
        with pytest.raises(ValidationError):
            density_grid(M1, 100, quad_tol=0.0)

    @pytest.mark.parametrize("quad_tol", [math.nan, math.inf, -1e-6])
    def test_nonfinite_quad_tol_rejected(self, quad_tol):
        with pytest.raises(ValidationError, match="quad_tol"):
            density_at(M1, 0.0, quad_tol=quad_tol)
        with pytest.raises(ValidationError, match="quad_tol"):
            density_grid(M1, 100, quad_tol)

    def test_grid_aligned_curve_crossing(self):
        # regression: at t = -3 sqrt(2) with tied weights (4, 4, 100) a curve
        # meets +2 exactly at a scan point (u_max / 4); a sign-based scan that
        # drops exact hits loses the breakpoint and about 2% of this value.
        # Reference frozen from a panel integration under a sin^2 endpoint
        # substitution at tolerance 1e-12.
        value = density_at(GammaWeights((4.0, 4.0, 100.0)), -3.0 * math.sqrt(2.0), 1e-10)
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
        # and a non-finite x, which would give nan or a silent 0
        for gamma1, x in ((0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan),
                          (2.0, math.inf)):
            with pytest.raises(ValidationError):
                semicircle_density(gamma1, x)


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
        assert type(arcsine_mixture_density(2.0, 8.0, 0.5)) is float
        assert arcsine_mixture_density(2.0, 8.0, 7.5) == 0.0
        assert arcsine_mixture_density(2.0, 8.0, -7.5) == 0.0

    def test_equal_weights_rejected(self):
        # and reversed or non-finite weights and a non-finite x, which
        # would give a silent 0
        for gamma1, gamma2, x in ((4.0, 4.0, 0.0), (8.0, 2.0, 0.0), (math.nan, 1.0, 0.5),
                                  (1.0, math.inf, 0.5), (0.0, 1.0, 0.5),
                                  (1.0, 4.0, math.nan), (1.0, 4.0, -math.inf)):
            with pytest.raises(ValidationError):
                arcsine_mixture_density(gamma1, gamma2, x)

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
        m = support_bound(GammaWeights((4.0, gamma2)))
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
        m = support_bound(GammaWeights(gamma))
        m_branches, branches = spectral._arcsine_branches(*gamma)
        assert m_branches == m and branches[0][0] == 1.0
        for x, term in ((m, 0.5), (-m, 0.0)):
            assert arcsine_mixture_density(*gamma, x, 1e-10) == 0.0
            assert [spectral._branch_cdf(a, b, x / m) for a, b in branches] == [term, term]

    # 40-digit mpmath quadrature of the two branches' theta-integrands at the
    # test points with 0 < |x| < 1e-5, where the two roots of a radicand
    # nearly meet and quad can report a tolerance that its value misses
    NEAR_ZERO = {
        ((2.0, 8.0), 1e-300): 0.23758048940000682003,
        ((2.0, 8.0), -1e-300): 0.23758048940000680915,
        ((2.0, 8.0), 1e-08): 0.23758050043912910828,
        ((2.0, 8.0), -1e-08): 0.23758047836088447309,
        ((1.0, 100.0), 1e-300): 0.045530375359707257896,
        ((1.0, 100.0), -1e-300): 0.045530375359707259053,
        ((1.0, 100.0), 1e-08): 0.045530375369850275006,
        ((1.0, 100.0), -1e-08): 0.04553037534956423745,
        ((1.0, 2.25), 1e-300): 0.091888149236965344714,
        ((1.0, 2.25), -1e-300): 1.7844376148784500125e+149,
        ((1.0, 2.25), 1e-08): 0.091888148190012835385,
        ((1.0, 2.25), -1e-08): 1784.5295219555529262,
        ((1.0, 2.25), 4.2426406871192856e-15): 0.091888149236964558453,
        ((1.0, 2.25), -4.2426406871192856e-15): 2739575.3988281604931,
        ((1.0, 2.25), 4.2426406871192855e-12): 0.091888149236342781839,
        ((1.0, 2.25), -4.2426406871192855e-12): 86633.069803392006017,
        ((1.0, 2.25), 4.242640687119286e-09): 0.091888148773084797603,
        ((1.0, 2.25), -4.242640687119286e-09): 2739.6672074177885174,
        ((1.0, 2.25), 4.242640687119286e-06): 0.091887844041560227527,
        ((1.0, 2.25), -4.242640687119286e-06): 86.725256216808576833,
    }

    def test_panels_match_quad_on_the_same_integrands(self):
        """The Gauss-Legendre panels against scipy's adaptive quad on the same
        theta-integrands, with quad called as the oracle called it before.

        Points: the figure grid (400 intervals) of fig1 and fig2, and for
        those weights and for (1, 2.25), where alpha_2 = 0: x = 0, +-1e-300,
        +-1e-8 and M* (alpha_j +- eps), M* (-beta_j +- eps) for eps in 1e-15,
        1e-12, 1e-9 and 1e-6, each at quad_tol 1e-6 ... 1e-14.  Wherever
        quad meets its tolerance the panels must meet theirs and agree with
        quad within quad_tol, except near 0, where they must agree with
        the `NEAR_ZERO` value instead wherever they meet their tolerance.

        Measured with scipy 1.17: of the 8,217 cases quad met its tolerance
        in 8,184, and the panels met theirs in all of those and in 5 more; 28
        met neither, all at (1, 2.25) with x < 0 near 0, where the density
        reaches 1.8e149.  Away from 0 the two agree within 1.8e-11 at
        quad_tol 1e-6 and within 2.2e-16 from 1e-11 down.  Near 0 the panels
        are within 2.3e-9 of mpmath at quad_tol 1e-6 and within 1.1e-16 at
        1e-13, while quad, reporting success, misses by up to 5.9e-10 at
        quad_tol 1e-10 and 3.6e-11 at 1e-12.
        """
        from scipy.integrate import quad

        points = []
        for gamma in (FIGURES["fig1"][0], FIGURES["fig2"][0]):
            m, _ = spectral._arcsine_branches(*gamma)
            grid = np.linspace(-m, m, 401)
            grid[200] = 0.0
            points += [(gamma, float(x)) for x in grid]
        for gamma in (FIGURES["fig1"][0], FIGURES["fig2"][0], (1.0, 2.25)):
            m, branches = spectral._arcsine_branches(*gamma)
            points += [(gamma, x) for x in (0.0, 1e-300, -1e-300, 1e-8, -1e-8)]
            points += [
                (gamma, m * (edge + sign * eps))
                for alpha, beta in branches for edge in (alpha, -beta)
                for eps in (1e-15, 1e-12, 1e-9, 1e-6) for sign in (1.0, -1.0)
            ]
        assert spectral._arcsine_branches(1.0, 2.25)[1][1][0] == 0.0
        assert set(self.NEAR_ZERO) == {(gamma, x) for gamma, x in points if 0 < abs(x) < 1e-5}

        wrong = []
        for quad_tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14):
            share = quad_tol / 2.0
            for gamma, x in points:
                reference, met = 0.0, True
                for params, edges in spectral._branch_integrands(
                    *spectral._arcsine_branches(*gamma), x
                ):
                    value, err, _, *failure = quad(
                        partial(spectral._arcsine_integrand, *params), 0.0, edges[-1], epsabs=max(share, math.ulp(0.0)),
                        epsrel=0.0, limit=200, full_output=1,
                    )
                    met = met and not failure and err <= share
                    reference += value
                reference = self.NEAR_ZERO.get((gamma, x), reference if met else None)
                try:
                    density = arcsine_mixture_density(*gamma, x, quad_tol)
                except NumericalError as exc:
                    if met:
                        wrong.append((gamma, x, quad_tol, str(exc)))
                    continue
                if reference is not None and not abs(density - reference) <= quad_tol:
                    wrong.append((gamma, x, quad_tol, density, reference))
        assert wrong == []

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(NumericalError, match=r"x = 0\.5: error estimate .* share 5\.000e-301"):
            arcsine_mixture_density(2.0, 8.0, 0.5, 1e-300)
        # a share that underflows to 0 fails the same check
        with pytest.raises(NumericalError, match="x = 0.5"):
            arcsine_mixture_density(2.0, 8.0, 0.5, 5e-324)


class TestQuadratureRule:
    def test_rule_is_leggauss_on_the_unit_interval(self):
        # the 32-node rule, then its embedded 16-node rule, mapped to (0, 1)
        rules = [np.polynomial.legendre.leggauss(nodes) for nodes in (32, 16)]
        x = np.concatenate([(nodes + 1.0) / 2.0 for nodes, _ in rules])
        w = np.concatenate([weights / 2.0 for _, weights in rules])
        assert np.array_equal(spectral._RULE_X, x)
        assert np.array_equal(spectral._RULE_W, w)


class TestBisect:
    """The bisection driver shared by the kernel and the p = 2 oracle, on a
    toy rule: each panel's integral is its width, and its error estimate is
    its width squared, so every bisection quarters it."""

    @staticmethod
    def run(share, max_depth=8, a=(0.0, 1.0), b=(1.0, 3.0), end=(2.0, 3.0), scale=1.0,
            row=(0, 1), rows=2):
        calls = []

        def integrate(row, a, b, end):
            calls.append((row, a, b, end))
            return scale * (b - a)[None], (b - a) ** 2

        a, b, end = (np.array(x) for x in (a, b, end))
        totals, stuck = spectral._bisect(
            integrate, np.array(row), a, b, end, np.array(share), max_depth, rows
        )
        return totals, stuck, calls

    def test_accepted_estimates_meet_the_total_share(self):
        share = [0.01, 0.05]
        totals, stuck, _ = self.run(share)
        assert stuck is None
        values, err = totals
        assert np.all(err <= share)
        assert err.sum() <= sum(share)
        # the accepted panels tile each row's range exactly once
        np.testing.assert_allclose(values, [1.0, 2.0])

    def test_halves_keep_row_and_end(self):
        _, _, calls = self.run([0.5, 10.0])
        # panel 0 = [0, 1] with end 2 fails its share once
        row, a, b, end = calls[1]
        assert row.tolist() == [0, 0]
        assert a.tolist() == [0.0, 0.5] and b.tolist() == [0.5, 1.0]
        assert end.tolist() == [0.5, 2.0]

    def test_zero_share_is_stuck_at_depth_zero(self):
        totals, stuck, calls = self.run([1.0, 0.0])
        depth, (row, lo, hi, share, err) = stuck
        assert (depth, row, lo, hi, share, err) == (0, 1, 1.0, 3.0, 0.0, 4.0)
        assert len(calls) == 1
        # row 0's panel [0, 1] was accepted; row 1's was set aside, so only
        # its estimate counts
        assert totals.tolist() == [[1.0, 0.0], [1.0, 4.0]]

    def test_row_without_panels_gets_exact_zeros(self):
        # rows 0, 2 and 4 have no panel: totals still has a column for each
        totals, stuck, _ = self.run([0.5, 0.5], row=(1, 3), rows=5)
        assert stuck is None and totals.shape == (2, 5)
        assert totals[0].tolist() == [0.0, 1.0, 0.0, 2.0, 0.0]
        assert totals[1, [0, 2, 4]].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("max_depth", [0, 3, 8])
    def test_max_depth_is_honoured(self, max_depth):
        # estimates far above the rounding level, shares out of reach
        totals, stuck, calls = self.run([1e-300, 1e-300], max_depth, scale=1e-300)
        assert len(calls) == max_depth + 1
        depth, (row, lo, hi, _, _) = stuck
        assert (depth, row, lo, hi) == (max_depth, 0, 0.0, 2.0**-max_depth)
        # row 0's 2^max_depth panels, each with the estimate 4^-max_depth,
        # are set aside; row 1, above it, is dropped
        assert totals.tolist() == [[0.0, 0.0], [2.0**-max_depth, 0.0]]

    def test_lowest_stuck_row_is_reported(self):
        # row 1's share is 0, so it sticks at depth 0; row 0's estimate
        # width^2 reaches the rounding level 64 eps * scale * width at width
        # 1/4, so it sticks at depth 2 and is reported, as a loop over the
        # rows would report it
        scale = 0.3 / spectral._ROUNDING
        totals, stuck, calls = self.run([1e-3, 0.0], scale=scale)
        assert stuck == (2, (0, 0.0, 0.25, 1e-3 / 4.0, 0.0625))
        assert len(calls) == 3
        # row 0's four quarter panels are all set aside: no integral, and
        # their estimates add up to 1/4
        assert totals[:, 0].tolist() == [0.0, 0.25]

    def test_rows_below_the_stuck_row_are_whole(self):
        # row 1 sticks at depth 0; row 0 is refined to depth 7 as if nothing
        # were stuck, and row 2's live panel, above row 1, is dropped
        args = dict(a=(0.0, 1.0, 3.0), b=(1.0, 3.0, 4.0), end=(1.0, 3.0, 4.0),
                    row=(0, 1, 2), rows=3)
        totals, stuck, calls = self.run([0.01, 0.0, 0.5], **args)
        assert stuck[:2] == (0, (1, 1.0, 3.0, 0.0, 4.0))
        assert all(row.tolist() == [0] * len(row) for row, *_ in calls[1:])
        alone, nothing_stuck, _ = self.run([0.01], a=(0.0,), b=(1.0,), end=(1.0,), row=(0,),
                                           rows=1)
        assert nothing_stuck is None
        assert totals[:, 0].tolist() == alone[:, 0].tolist()
        assert totals[:, 1:].tolist() == [[0.0, 0.0], [4.0, 0.0]]


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
        assert table.cdf[0] == 0.0 and table.cdf[-1] == 1.0

    def test_support_bound_p1(self):
        assert support_bound(M1) == pytest.approx(2.0)

    def test_support_bound_p2(self):
        # ||B0||_inf + 2 ||A0||_inf with rows (1) and (3)
        assert support_bound(M2) == pytest.approx(7.0)

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError):
            density_grid(M1, 99, 1e-8)

    def test_limit_law_is_checked_once_per_table(self, monkeypatch):
        # the grid and the kernel share one (A0, B0, S0) and one quad_tol
        # check: one A0^{-1/2} per table
        calls = dict.fromkeys(("limit_blocks", "_require_quad_tol", "spd_inv_sqrt"), 0)
        for name in calls:
            def counted(*args, wrapped=getattr(spectral, name), name=name):
                calls[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(spectral, name, counted)
        density_grid(M2, 100, 1e-6)
        assert calls == {"limit_blocks": 1, "_require_quad_tol": 1, "spd_inv_sqrt": 1}
        # the p = 2 oracle checks quad_tol at every point, A0 once
        calls.update(limit_blocks=0, spd_inv_sqrt=0)
        oracle_density(M2, 100, 1e-10)
        assert calls["limit_blocks"] == 1
        assert calls["spd_inv_sqrt"] == 1


class TestLimitMoments:
    def test_p1_moments_are_catalan(self):
        # gamma = 2 gives the semicircle of radius 2: m_2j is the Catalan number C_j
        assert limit_moments(M1, 8).tolist() == [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 14.0]

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_density_table_moments(self, name):
        gamma, _ = FIGURES[name]
        assert_table_moments(GammaWeights(gamma), 8)

    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(
        lambda p: st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p), st.booleans())
    ))
    def test_density_table_moments_over_the_weight_space(self, draw):
        # each gamma in 10^[-3, 3], half of the sets sorted; a set whose A0
        # is singular or indefinite is no limit law and is rejected, but no
        # accepted set may fail the quadrature at quad_tol 1e-6
        exponents, ordered = draw
        gamma = [10.0**u for u in (sorted(exponents) if ordered else exponents)]
        w = GammaWeights(gamma)
        try:
            limit_blocks(w)
        except ValidationError:
            reject()
        assert_table_moments(w, 6)


def assert_table_moments(w: GammaWeights, k_max: int) -> None:
    """m_0..m_k_max of `_density_table` at quad_tol 1e-6 equal `limit_moments`
    within 1e-7 max(|m_k|, m_2^(k/2)).

    The moments are taken by a 40-node Gauss-Legendre rule on four
    sin^2-graded quarter panels, theta in [j pi / 8, (j + 1) pi / 8] with
    t = c + (d - c) sin^2(theta), of each gap [c, d] between consecutive
    kinks (`_levels`), 0 and +-M*: the map cancels a square-root kink at
    either end of a gap.
    """
    a0, b0, s0 = limit_blocks(w)
    bound = support_bound(w)
    kinks = np.unique(np.concatenate([[-bound, 0.0, bound], spectral._levels(a0, b0)]))
    c, d = kinks[:-1, None, None], kinks[1:, None, None]
    x, weights = np.polynomial.legendre.leggauss(40)
    quarter = np.arange(4)[:, None] * (math.pi / 8.0)
    theta = quarter + (x + 1.0) * (math.pi / 16.0)
    t = c + (d - c) * np.sin(theta) ** 2
    jac = (d - c) * np.sin(2.0 * theta) * weights * (math.pi / 16.0)
    density = spectral._density_table(a0, b0, s0, t.ravel(), 1e-6)[0]
    expected = limit_moments(w, k_max)
    for k in range(k_max + 1):
        moment = np.sum(t.ravel() ** k * density * jac.ravel())
        scale = max(abs(expected[k]), expected[2] ** (k / 2))
        assert abs(moment - expected[k]) <= 1e-7 * scale, (k, moment, expected[k])


class TestRootsAgainstTable:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_scaled_roots_follow_the_table(self, name):
        """n KS between the scaled polynomial roots and the grid-1000 table is
        deterministic and O(1): the roots' counting function stays within a
        few roots of n F(t), kinks included, at p = 2 and 3.

        Measured for fig1..fig5: 1.51, 1.41, 2.12, 2.01 and 2.27 at n = 1200;
        1.56, 1.41, 2.14, 2.05 and 3.02 at n = 2400.  Fig5's 3.02 is the
        linear interpolation of the table in `ks_distance`.
        """
        gamma, _ = FIGURES[name]
        w = GammaWeights(gamma)
        table = density_grid(w, 1000, 1e-6)
        for n in (1200, 2400):
            values = roots(recurrence_coeffs(n, w))
            spectrum = EmpiricalSpectrum(w, None, False, values).to_scaled()
            assert n * ks_distance(spectrum, table) <= 4.0, n


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
            SpectralDensity(M1, **values, quad_tol=1e-6)

    @pytest.mark.parametrize(
        "index,value,message",
        [
            (0, 5e-324, "CDF starts at 5e-324, not exactly 0.0"),
            (-1, 1.0 - 2.0**-53, "CDF ends at 0.9999999999999999, not exactly 1.0"),
        ],
        ids=["start", "end"],
    )
    def test_cdf_ends_are_exact(self, index, value, message):
        # one ulp off either end is rejected, naming the end value
        cdf = np.linspace(0.0, 1.0, 5)
        cdf[index] = value
        with pytest.raises(NumericalError, match=f"^{message}$"):
            SpectralDensity(M1, np.linspace(-1.0, 1.0, 5), np.full(5, 0.5), cdf, 1e-6)


class TestOracleDensity:
    TABLES = [(1, (2.0,)), (2, (2.0, 8.0)), (2, (1.0, 100.0)), (2, (2.0, 3.0)), (2, (4.0, 9.0))]

    @pytest.mark.parametrize("p,gamma", TABLES)
    def test_density_column_is_the_closed_form(self, p, gamma):
        table = oracle_density(GammaWeights(gamma), 120, 1e-10)
        if p == 1:
            expected = [semicircle_density(gamma[0], t) for t in table.grid]
        else:
            expected = [arcsine_mixture_density(*gamma, t, 1e-10) for t in table.grid]
        assert table.density.tolist() == expected
        m = support_bound(GammaWeights(gamma))
        assert len(table.grid) == 121 and table.support == (-m, m)

    @pytest.mark.parametrize("p,gamma", TABLES)
    def test_cdf_runs_from_zero_to_one(self, p, gamma):
        table = oracle_density(GammaWeights(gamma), 400, 1e-10)
        assert table.cdf[0] == 0.0 and table.cdf[-1] == 1.0
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert table.density[0] == 0.0 and table.density[-1] == 0.0

    @pytest.mark.parametrize("p,gamma", [(1, (2.0,)), (2, (2.0, 8.0)), (2, (1.0, 100.0))])
    def test_cdf_matches_the_kernel(self, p, gamma):
        # two independent closed forms: arccos of the kernel's eigenvalues,
        # and the integration-by-parts identity over the two branches
        w = GammaWeights(gamma)
        kernel = density_grid(w, 400, 1e-10)
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
        table = oracle_density(GammaWeights((2.0,)), 400, 1e-10)
        y = table.grid / 2.0
        exact = 0.5 + (y * np.sqrt(1.0 - y * y) + np.arcsin(y)) / math.pi
        assert np.abs(table.cdf - exact).max() <= 1e-15

    def test_arguments_checked(self):
        with pytest.raises(ValidationError, match="grid_size"):
            oracle_density(GammaWeights((2.0, 8.0)), 99, 1e-10)
        with pytest.raises(ValidationError, match="quad_tol"):
            oracle_density(GammaWeights((2.0,)), 100, math.nan)
        with pytest.raises(ValidationError, match="p = 1 or p = 2"):
            oracle_density(GammaWeights((1.0, 4.0, 25.0)), 100, 1e-10)

    def test_quad_tol_is_enforced(self):
        with pytest.raises(NumericalError, match="share 5.000e-301 of quad_tol 1e-300"):
            oracle_density(GammaWeights((2.0, 8.0)), 100, 1e-300)

    @pytest.mark.parametrize("grid_size", [100, 120, 400])
    @pytest.mark.parametrize("gamma", [(2.0, 8.0), (1.0, 100.0), (1.0, 1.000001), (4.0, 9.0)])
    def test_table_equals_one_point_calls(self, gamma, grid_size):
        # the table is one pass over every (point, branch) row; each point
        # equals its one-point call bit for bit, through t = 0, +-M* and,
        # at (4, 9), alpha_2 = 0
        w = GammaWeights(gamma)
        table = oracle_density(w, grid_size, 1e-10)
        m = support_bound(w)
        assert table.grid[0] == -m and table.grid[-1] == m
        assert (0.0 in table.grid.tolist()) == (grid_size % 2 == 0)
        points = [arcsine_mixture_density(*gamma, t, 1e-10) for t in table.grid.tolist()]
        assert all(type(value) is float for value in points)
        assert table.density.tolist() == points
        assert points == [arcsine_branch_loop(*gamma, t, 1e-10) for t in table.grid.tolist()]
        assert arcsine_mixture_density(*gamma, table.grid, 1e-10).tolist() == points

    def test_failure_names_the_first_point_that_fails_alone(self):
        # at 1e-16 some points of the grid-100 table of (2, 8) get stuck and
        # others do not: the table raises the error of the first point, in
        # grid order, that raises on its own, as a loop over the points would
        w = GammaWeights((2.0, 8.0))
        grid = spectral._grid(*limit_blocks(w)[:2], 100).tolist()
        errors = []
        for t in grid:
            try:
                arcsine_mixture_density(2.0, 8.0, t, 1e-16)
            except NumericalError as exc:
                errors.append(str(exc))
        assert 0 < len(errors) < len(grid) // 2
        with pytest.raises(NumericalError) as table:
            oracle_density(w, 100, 1e-16)
        assert str(table.value) == errors[0]

    def test_array_argument(self):
        assert type(arcsine_mixture_density(2.0, 8.0, np.float64(0.5))) is float
        values = arcsine_mixture_density(2.0, 8.0, np.array([0.5, 7.5, -0.5]))
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert values.dtype == np.float64
        assert values.tolist() == [arcsine_mixture_density(2.0, 8.0, x) for x in (0.5, 7.5, -0.5)]
        # no point on a non-empty branch: nothing is integrated, still float64
        for points, shape in ((np.array([7.5, -7.5]), (2,)), (np.array([]), (0,))):
            empty = arcsine_mixture_density(2.0, 8.0, points)
            assert empty.shape == shape and empty.dtype == np.float64
            assert not empty.any()
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValidationError, match=f"x must be finite, got {bad}"):
                arcsine_mixture_density(2.0, 8.0, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValidationError, match=r"1-d array, got shape \(2, 2\)"):
            arcsine_mixture_density(2.0, 8.0, np.zeros((2, 2)))


def _figure_weights():
    return {name: GammaWeights(gamma) for name, (gamma, _) in sorted(FIGURES.items())}


class TestDensityKernel:
    """The batched kernel behind `density_grid`."""

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
        w = GammaWeights((2.0, 3.0))
        for t, reference in (
            (-0.5505102577, 0.84870816077197805),
            (-0.55051031, 0.84845483138024336),
            (-0.5505157, 0.84589714841450993),
        ):
            assert density_at(w, t, 1e-9) == pytest.approx(reference, abs=1e-9)

    def test_narrow_panel_is_integrated(self):
        # at t = -4.999999999999995, just inside the support edge -5, a kink
        # lies 7.8e-16 below u_max, and the density integrand is nonzero
        # only on the panel between them
        t = -4.999999999999995
        assert density_at(M2, t, 1e-6) == pytest.approx(
            arcsine_mixture_density(2.0, 8.0, t), abs=1.5e-9
        )

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_kinks_are_level_crossings(self, name):
        # at every level k, W0 - k A0^{-1} has an eigenvalue +-2; it is W of
        # the independent path build_AB(w, s) at t = k sqrt(s p), for any s
        w = _figure_weights()[name]
        levels = spectral._levels(*limit_blocks(w)[:2])
        checked = 0
        for k in levels:
            for s in np.linspace(0.01, 1.0 / w.p, 10):
                a, b = build_AB(w, s)
                t = k * math.sqrt(s * w.p)
                lams = np.array([pt.value for pt in lambda_and_weights(a, b, t)])
                assert np.abs(np.abs(lams) - 2.0).min() <= 1e-12, (k, s, lams)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("name", ["fig1", "fig5"])
    def test_node_integrand_matches_trace_density(self, name):
        # W(k) is the pencil of build_AB(w, s) at t = k c, c = sqrt(s p),
        # whose weights carry 1 / c: the density row 2 D(k) / (pi p) is
        # (2 c / p) trace_density
        w = _figure_weights()[name]
        rng = np.random.default_rng(5)
        bound = support_bound(w)
        k = rng.uniform(-1.5 * bound, 1.5 * bound, 60)
        s = rng.uniform(0.0025, 1.0 / w.p, 60)
        a0, b0, s0 = limit_blocks(w)
        node = spectral._integrands(s0 @ s0, s0 @ b0 @ s0, k)[0]
        for ki, si, value in zip(k, s, node):
            c = math.sqrt(si * w.p)
            expected = (2.0 * c / w.p) * trace_density(*build_AB(w, si), ki * c)
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("name", ["fig1", "fig4"])
    def test_chebyshev_T_is_orthonormal_under_the_kernel_measure(self, name):
        # the kernel's integrand is the trace of the matrix measure M(x) dx of
        # the Chebyshev polynomials of the first kind with blocks (A0, B0): for
        # S = A0^{-1/2} and the eigenpairs (lambda_j, v_j) of S (B0 - x) S,
        # M(x) = (1/pi) S V diag((4 - lambda_j^2)^{-1/2} if |lambda_j| < 2,
        # else 0) V^T S, and T_0..T_3 are orthonormal under it.  Each gap
        # between the levels is integrated under x = a + (b - a) sin^2(theta),
        # which removes the inverse square roots at both ends
        w = _figure_weights()[name]
        a0, b0, s0 = limit_blocks(w)

        def measure(x):
            lam, vec = np.linalg.eigh(s0 @ (b0 - x * np.eye(w.p)) @ s0)
            scale = np.where(np.abs(lam) < 2.0, 4.0 - lam**2, np.inf) ** -0.5
            return s0 @ (vec * scale) @ vec.T @ s0 / math.pi

        levels = spectral._levels(a0, b0)
        for x in np.concatenate([levels[:-1] + np.diff(levels) * f for f in (0.25, 0.5, 0.75)]):
            kernel = spectral._integrands(s0 @ s0, s0 @ b0 @ s0, np.array(x))[0]
            assert np.trace(measure(x)) == pytest.approx(w.p / 2.0 * kernel, rel=1e-13)
        theta, weight = np.polynomial.legendre.leggauss(200)
        theta, weight = (theta + 1.0) * math.pi / 4.0, weight * math.pi / 4.0
        gram = np.zeros((4, 4, w.p, w.p))
        for a, b in zip(levels[:-1], levels[1:]):
            for th, wt in zip(theta, weight):
                x = a + (b - a) * math.sin(th) ** 2
                mx = measure(x) * (b - a) * math.sin(2.0 * th) * wt
                t = [cheb_T(a0, b0, m, x) for m in range(4)]
                gram += [[tm @ mx @ tn.T for tn in t] for tm in t]
        assert np.abs(gram - np.eye(4)[:, :, None, None] * np.eye(w.p)).max() <= 1e-9

    def test_figure_tables_take_few_integrand_evaluations(self, monkeypatch):
        # one 48-node panel per grid point, plus the shared panels and the
        # few bisections; the per-point kernel this replaced took 100-131
        sizes = []
        integrands = spectral._integrands

        def counting(a0inv, w0, k):
            sizes.append(np.size(k))
            return integrands(a0inv, w0, k)

        monkeypatch.setattr(spectral, "_integrands", counting)
        for name, w in _figure_weights().items():
            sizes.clear()
            density_grid(w, 400, 1e-6)
            assert sum(sizes) <= 60 * 401, name

    @pytest.mark.parametrize(
        "gamma, grid", [((2.0, 8.0), 400), ((1.0, 100.0), 400), ((2.0, 8.0), 100), ((2.0, 8.0), 120)]
    )
    def test_table_matches_the_oracle_far_below_quad_tol(self, gamma, grid):
        # fig1, fig2 and the p = 2 density tables of the benchmark and the
        # golden files, at their quad_tol 1e-6
        table = density_grid(GammaWeights(gamma), grid, 1e-6)
        reference = [arcsine_mixture_density(*gamma, t, 1e-12) for t in table.grid]
        assert np.abs(table.density - reference).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [(2.0, 8.0), (1.0, 100.0)])
    def test_small_t_matches_the_graded_oracle(self, gamma):
        # as t -> 0 t's own range [t, anchor] in k spans ever more decades;
        # 3.2e-8 at (2, 8) and 5.6e-6 at (1, 100) once exited 3
        w = GammaWeights(gamma)
        for e in range(-12, 0):
            for t in (10.0**e, 3.2 * 10.0**e, 5.6 * 10.0**e):
                for x in (t, -t):
                    if abs(x) <= 0.1:
                        reference = arcsine_mixture_density(*gamma, x, 1e-13)
                        assert density_at(w, x, 1e-8) == pytest.approx(reference, abs=1e-13), x

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_raw_cdf_runs_from_zero_to_one(self, name):
        table = density_grid(_figure_weights()[name], 400, 1e-6)
        assert table.cdf[0] == 0.0
        assert abs(table.cdf[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert 0.0 < table.quad_err_est <= 1e-6

    def test_cdf_derivative_is_the_density(self):
        # F' = f: central differences of the closed-form CDF
        h = 1e-5
        ts = np.array([-4.2, -1.7, 0.6, 2.9, 5.5])
        blocks = limit_blocks(M2)
        density, _, _ = spectral._density_table(*blocks, ts, 1e-10)
        _, lo, _ = spectral._density_table(*blocks, ts - h, 1e-10)
        _, hi, _ = spectral._density_table(*blocks, ts + h, 1e-10)
        np.testing.assert_allclose((hi - lo) / (2.0 * h), density, rtol=0.0, atol=1e-7)

    def test_one_point_case_equals_the_grid(self):
        for w in _figure_weights().values():
            table = density_grid(w, 120, 1e-6)
            for t, d in list(zip(table.grid, table.density))[::10]:
                assert density_at(w, t, 1e-6) == d

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(NumericalError, match="quad_tol 1e-300"):
            density_at(M2, 0.5, 1e-300)
        with pytest.raises(NumericalError, match="t = "):
            density_grid(M1, 100, 1e-300)

    def test_decreasing_cdf_raises(self, monkeypatch):
        def fake(a0, b0, s0, ts, quad_tol):
            cdf = np.linspace(0.0, 1.0, len(ts))
            cdf[50] = cdf[48]
            return np.zeros(len(ts)), cdf, np.zeros(len(ts))

        monkeypatch.setattr(spectral, "_density_table", fake)
        with pytest.raises(NumericalError, match=r"decreases .* at t = 0\.0"):
            density_grid(M1, 100, 1e-6)
