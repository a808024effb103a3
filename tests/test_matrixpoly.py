"""Recurrence coefficients and roots via the block Jacobi spectrum, and the
test references in `tests.oracles` that evaluate the recurrence itself:
R_m, the Chebyshev closed forms and the resolvent-type bound.

Scalar closed forms (block size 1, A = 1, B = 0; on a grid in criterion 9):
    T_n(t) = sqrt(2) cos(n arccos(t/2))          n >= 1
    U_n(t) = sin((n+1) arccos(t/2)) / sin(arccos(t/2))
"""

import math
import re

import numpy as np
import pytest

import blockspec.linalg
from blockspec.cli import FIGURES
from blockspec.ensemble import GammaWeights
from blockspec.errors import NumericalError, ValidationError
from blockspec.matrixpoly import (
    ROOTS_MEMO_SIZE,
    RecurrenceCoeffs,
    coefficient_blocks,
    recurrence_coeffs,
    roots,
    roots_of,
)
from blockspec.spectral import limit_blocks
from tests.oracles import (
    block_band,
    build_F,
    cheb_T,
    cheb_U,
    eval_R,
    lu_log_abs_det,
    f_tilde_blocks,
    limit_moments,
    markov_bound_check,
    to_dense,
    truncated,
)

W2 = GammaWeights((2.0, 8.0))
W3 = GammaWeights((1.0, 4.0, 25.0))
A1 = np.array([[1.0]])
B0 = np.array([[0.0]])


def constant_coeffs(m):
    return RecurrenceCoeffs([A1.copy() for _ in range(m)], [B0.copy() for _ in range(m)])


def log_det_relative_to_grid(coeffs, m, x, grid):
    ref = max(np.linalg.slogdet(eval_R(coeffs, m, g))[1] for g in grid)
    sign, val = np.linalg.slogdet(eval_R(coeffs, m, x))
    if sign == 0:
        return -np.inf
    return val - ref


class TestRecurrenceCoeffs:
    def test_p1_raw(self):
        c = recurrence_coeffs(6, GammaWeights((2.0,)))
        for i, a in enumerate(c.A, start=1):
            assert a[0, 0] == pytest.approx(math.sqrt(i * 2.0 / 2.0))
        for b in c.B:
            assert b[0, 0] == 0.0

    def test_p2_stage_one_entry(self):
        c = recurrence_coeffs(8, W2)
        # stage 1 coupling block, second diagonal entry
        assert c.A[0][1, 1] == pytest.approx(math.sqrt(8.0))

    def test_blocks_are_symmetric(self):
        c = recurrence_coeffs(12, W3)
        for blk in (*c.A, *c.B):
            np.testing.assert_allclose(blk, blk.T, atol=0)

    def test_scaled_limit(self):
        n = 10_000
        c = recurrence_coeffs(n, W2)
        a, b = c.A / math.sqrt(n), c.B / math.sqrt(n)
        a0, b0, _ = limit_blocks(W2)
        m = n // 2
        # next-to-last and last stages both approach the limit blocks
        assert np.abs(a[m - 2] - a0).max() <= 5.0 / math.sqrt(n)
        assert np.abs(a[m - 1] - a0).max() <= 1e-2
        assert np.abs(b[m - 1] - b0).max() <= 1e-2

    def test_rejects_singular_A(self):
        with pytest.raises(ValidationError, match="singular"):
            RecurrenceCoeffs([np.array([[0.0]])], [B0.copy()])

    def test_stacks(self):
        c = recurrence_coeffs(12, W3)
        assert c.A.shape == c.B.shape == (4, 3, 3)

    def test_stages_do_not_depend_on_n(self):
        # the set for n = m p is the first m stages of any larger one, bit for bit
        for w in (GammaWeights((1.5,)), W2, W3):
            full = recurrence_coeffs(10 * w.p, w)
            for m in range(2, 11):
                c = recurrence_coeffs(m * w.p, w)
                assert np.array_equal(c.A, full.A[:m]) and np.array_equal(c.B, full.B[:m])

    def test_limit_blocks_are_count_one(self):
        # the limit law's A0, B0 are the same pattern at count 1
        w = GammaWeights((0.1, 2.9, 7.3))
        a0, b0 = coefficient_blocks(w, 1, 1)
        limit_a0, limit_b0, _ = limit_blocks(w)
        np.testing.assert_array_equal(limit_a0, a0)
        np.testing.assert_array_equal(limit_b0, b0)
        i, j = np.indices((3, 3))
        gamma = np.asarray(w.gamma)
        np.testing.assert_array_equal(a0, np.sqrt(gamma[3 - np.abs(i - j) - 1] / 2.0))

    def test_rejects_bad_shapes_and_values(self):
        # a non-square stack, a 2-d A, and stacks of different shapes
        for a_shape, b_shape in [((2, 2, 3), (2, 2, 3)), ((2, 2), (2, 2)),
                                 ((1, 2, 2), (2, 2, 2)), ((2, 2, 2), (2, 3, 3))]:
            with pytest.raises(ValidationError, match=re.escape(f"got {a_shape}, {b_shape}")):
                RecurrenceCoeffs(np.ones(a_shape), np.zeros(b_shape))
        with pytest.raises(ValidationError, match="finite"):
            RecurrenceCoeffs([np.array([[np.nan]])], [B0])
        with pytest.raises(ValidationError, match="B block 1 is not symmetric"):
            B = [np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]]
            RecurrenceCoeffs(np.stack([np.eye(2)] * 2), B)

    def test_sizes_are_read_from_the_stacks(self):
        c = RecurrenceCoeffs(np.stack([np.eye(3)] * 5), np.zeros((5, 3, 3)))
        assert (c.m, c.p) == (5, 3)
        c = recurrence_coeffs(12, W3)
        assert (c.m, c.p) == (4, 3)

    def test_names_first_singular_stage(self):
        a = np.stack([np.eye(2), np.eye(2), np.ones((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValidationError, match="A_3 is numerically singular"):
            RecurrenceCoeffs(a, np.zeros((4, 2, 2)))


def lu_gate_rejects(a):
    """The per-block singularity gate `singular_blocks` must cover: LU
    pivots and |det| against ||A||_inf."""
    p = a.shape[0]
    row_norm = float(np.abs(a).sum(axis=1).max())
    sign, logabs = lu_log_abs_det(a)
    return sign == 0 or logabs <= p * math.log(max(row_norm, 1e-300)) + math.log(1e-12)


def batched_gate_rejects(a):
    try:
        RecurrenceCoeffs(a[None], np.zeros((1,) + a.shape))
    except ValidationError as exc:
        assert "singular" in str(exc)
        return True
    return False


class TestSingularityGate:
    """The batched gate rejects every block the per-block LU gate rejects,
    for the recurrence blocks and for A0 alike."""

    @staticmethod
    def blocks(p, rng):
        # symmetric blocks with eigenvalues spread over many decades, so that
        # both |det| / ||A||^p and sigma_min / ||A|| cross 1e-12 often,
        # at scales from 1e-200 to 1e200
        for k in range(1500):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            if k % 3 == 0:
                lam = rng.standard_normal(p)  # plain random
            elif k % 3 == 1:
                lam = rng.choice([-1.0, 1.0], p) * 10.0 ** rng.uniform(-14.0, 0.0, p)
            else:  # one eigenvalue near 1e-12 relative
                lam = rng.choice([-1.0, 1.0], p) * 10.0 ** rng.uniform(-1.0, 0.0, p)
                lam[0] *= 10.0 ** rng.uniform(-12.6, -11.4)
            a = (q * lam) @ q.T
            yield 10.0 ** rng.uniform(-200.0, 200.0) * (a + a.T) / 2.0
        # exactly singular: zero, rank one, repeated row
        yield np.zeros((p, p))
        v = rng.standard_normal(p)
        yield np.outer(v, v)
        if p > 1:
            a = rng.standard_normal((p, p))
            a = a + a.T
            a[1], a[:, 1] = a[0], a[:, 0]
            yield a

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_rejects_what_lu_gate_rejects(self, p):
        rng = np.random.default_rng(100 + p)
        rejected = 0
        for a in self.blocks(p, rng):
            old = lu_gate_rejects(a)
            assert batched_gate_rejects(a) or not old, a
            rejected += old
        # for p = 1 only the zero block is singular; otherwise the blocks
        # fall on both sides of the threshold
        assert rejected >= (1 if p == 1 else 200)

    @pytest.mark.parametrize(
        "diag,rejected",
        [
            ((1.0, 1.8e-12), False),  # |det| = 1.8e-12 N^2, sigma_min > sqrt(3) 1e-12 N
            ((1.0, 1.7e-12), True),  # sigma_min <= sqrt(3) 1e-12 N
            ((1.0, 1e-6, 1.01e-6), False),  # |det| = 1.01e-12 N^3
            ((1.0, 1e-6, 1e-6), True),  # |det| = 1e-12 N^3
            ((-1.0, 2e-6, 1e-6, 1.0), False),
            ((-1.0, 1e-6, 1e-6, 1.0), True),
        ],
    )
    def test_stated_condition(self, diag, rejected):
        # the docstring's two clauses at their thresholds, N = 1
        a = np.diag(diag)
        assert batched_gate_rejects(a) == rejected

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_accepts_well_conditioned(self, p):
        rng = np.random.default_rng(200 + p)
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            lam = rng.choice([-1.0, 1.0], p) * 10.0 ** rng.uniform(-3.0, 0.0, p)
            a = (q * lam) @ q.T
            a = (a + a.T) / 2.0
            assert not lu_gate_rejects(a)
            assert not batched_gate_rejects(a)


class TestEvalR:
    def test_degree_zero_is_identity(self):
        c = recurrence_coeffs(8, W2)
        np.testing.assert_array_equal(eval_R(c, 0, 1.7), np.eye(2))

    def test_degree_one(self):
        c = recurrence_coeffs(8, W2)
        x = 0.9
        expected = np.linalg.solve(c.A[0], x * np.eye(2) - c.B[0])
        np.testing.assert_allclose(eval_R(c, 1, x), expected, atol=1e-14)

    def test_det_residual_at_roots_p1(self):
        c = recurrence_coeffs(4, GammaWeights((2.0,)))
        rts = roots(c)
        grid = np.linspace(rts[0] - 1.0, rts[-1] + 1.0, 21)
        for x in rts:
            assert log_det_relative_to_grid(c, 4, float(x), grid) <= -8.0

    def test_complex_argument(self):
        c = constant_coeffs(3)
        val = eval_R(c, 2, 1.0 + 1.0j)
        # R_2(z) = z^2 - 1 for the constant scalar recurrence
        assert val[0, 0] == pytest.approx((1.0 + 1.0j) ** 2 - 1.0)


class TestChebyshev:
    def test_T_first_steps(self):
        t = 0.63
        assert cheb_T(A1, B0, 1, t)[0, 0] == pytest.approx(t / math.sqrt(2.0))
        assert cheb_T(A1, B0, 2, 0.0)[0, 0] == pytest.approx(-math.sqrt(2.0))

    def test_T_degree_zero(self):
        np.testing.assert_array_equal(cheb_T(A1, B0, 0, 0.3), np.eye(1))
        np.testing.assert_array_equal(
            cheb_T(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2), 0, -1.2), np.eye(2)
        )

    def test_T_at_edge(self):
        for n in range(1, 8):
            assert cheb_T(A1, B0, n, 2.0)[0, 0] == pytest.approx(math.sqrt(2.0))

    def test_U_first_steps(self):
        t = -0.41
        assert cheb_U(A1, B0, 1, t)[0, 0] == pytest.approx(t)
        assert cheb_U(A1, B0, 2, 1.0)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_U_degree_zero(self):
        np.testing.assert_array_equal(cheb_U(A1, B0, 0, 0.4), np.eye(1))


class TestRoots:
    def test_single_stage_is_B0_spectrum(self):
        c = recurrence_coeffs(8, W2)
        np.testing.assert_allclose(
            roots(truncated(c, 1)), np.linalg.eigvalsh(c.B[0]), atol=1e-12
        )

    def test_constant_scalar_coeffs_path_graph(self):
        c = constant_coeffs(3)
        np.testing.assert_allclose(
            roots(c), [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-12
        )

    @pytest.mark.parametrize(
        "w,n", [(GammaWeights((1.5,)), 10), (W2, 20), (W3, 30)]
    )
    def test_det_residual_consistency(self, w, n):
        c = recurrence_coeffs(n, w)
        for m in (2, 5, 10):
            rts = roots(recurrence_coeffs(m * w.p, w))
            grid = np.linspace(rts[0] - 1.0, rts[-1] + 1.0, 21)
            worst = max(
                log_det_relative_to_grid(c, m, float(x), grid) for x in rts
            )
            assert worst <= -8.0

    def test_jacobi_matrix_layout(self):
        # roots solves B_0..B_2 on the block diagonal with A_1 and A_2 beside
        # it, which the band of its blocks holds as they are
        c = recurrence_coeffs(6, W2)
        dense = np.zeros((6, 6))
        for i in range(3):
            dense[2 * i:2 * i + 2, 2 * i:2 * i + 2] = c.B[i]
        for i in range(2):
            dense[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = c.A[i]
            dense[2 * i + 2:2 * i + 4, 2 * i:2 * i + 2] = c.A[i].T
        np.testing.assert_array_equal(to_dense(block_band(f_tilde_blocks(c))), dense)
        np.testing.assert_allclose(roots(c), np.linalg.eigvalsh(dense), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "gamma",
        [(2.0,), *(gamma for gamma, _ in FIGURES.values())],
        ids=["p1", *FIGURES],
    )
    def test_power_sums_equal_traces(self, gamma):
        # (1/n) sum (lambda / sqrt(n))^k over the roots equals (1/n) tr (F /
        # sqrt(n))^k, an exact sum over the entries of the cospectral build_F:
        # a check of the banded solve that needs no dense eigensolver
        n = 300
        w = GammaWeights(gamma)
        scaled_roots = roots(recurrence_coeffs(n, w)) / math.sqrt(n)
        f = to_dense(build_F(n, w)) / math.sqrt(n)
        power = np.eye(n)
        for k in range(1, 7):
            power = power @ f
            trace = np.trace(power) / n
            power_sum = np.sum(scaled_roots**k) / n
            scale = np.sum(np.abs(scaled_roots) ** k) / n
            assert abs(power_sum - trace) <= 1e-12 * scale, (k, power_sum, trace)

    @pytest.mark.parametrize(
        "gamma", [(2.0, 8.0), (1.0, 4.0, 25.0), (1.0, 2.0, 3.0, 40.0)], ids=["p2", "p3", "p4"]
    )
    def test_moment_bias_is_of_order_one_over_n(self, gamma):
        # b_j(n) = n (m_j(roots / sqrt n) - m_j) / max(|m_j|, m_2^(j/2)), from
        # -2.2 to -20.4 here, moves by at most 0.9% from n = 600 to 2400: the
        # roots' moments approach the limit law's with a deterministic 1/n
        # bias.  Roots of weights 1% off would move b_2 by about n / 100.
        w = GammaWeights(gamma)
        m = limit_moments(w, 6)
        scale = np.array([max(abs(m[j]), m[2] ** (j / 2)) for j in range(2, 7)])

        def bias(n):
            x = roots_of(n, w) / math.sqrt(n)
            return n * (np.array([np.mean(x**j) for j in range(2, 7)]) - m[2:]) / scale

        base = bias(600)
        for n in (1200, 2400):
            assert np.all(np.abs(bias(n) - base) <= 0.02 * np.abs(base)), (n, bias(n), base)


class TestRootsOf:
    def test_solved_once_per_size_and_weights(self):
        first = roots_of(12, W3)
        np.testing.assert_array_equal(first, roots(recurrence_coeffs(12, W3)))
        assert roots_of(12, W3) is first
        assert roots_of(12, GammaWeights([1, 4, 25])) is first
        assert roots_of(24, W3) is not first and roots_of(12, W2) is not first
        assert roots_of.cache_info().currsize == 3

    def test_kept_spectrum_is_read_only(self):
        values = roots_of(12, W2)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            values /= 2.0
        np.testing.assert_array_equal(roots_of(12, W2), roots(recurrence_coeffs(12, W2)))

    def test_failed_solve_is_not_kept(self, monkeypatch):
        rotations = blockspec.linalg._narrowing_rotations

        def perturbed(coupling):
            cos, sin = rotations(coupling)
            cos[0, 0] += 1e-6
            return cos, sin

        monkeypatch.setattr(blockspec.linalg, "_narrowing_rotations", perturbed)
        with pytest.raises(NumericalError, match="band narrowing"):
            roots_of(12, W3)
        assert roots_of.cache_info().currsize == 0
        monkeypatch.undo()
        np.testing.assert_array_equal(roots_of(12, W3), roots(recurrence_coeffs(12, W3)))

    def test_keeps_the_most_recent_spectra(self):
        sizes = [6 * (k + 1) for k in range(ROOTS_MEMO_SIZE + 1)]
        kept = {n: roots_of(n, W3) for n in sizes}
        assert roots_of.cache_info().currsize == ROOTS_MEMO_SIZE
        assert roots_of(sizes[-1], W3) is kept[sizes[-1]]
        assert roots_of(sizes[0], W3) is not kept[sizes[0]]


class TestMarkovBound:
    def test_scalar_hand_example(self):
        c = constant_coeffs(3)
        res = markov_bound_check(c, 1, 3.0, np.array([1.0]), math.sqrt(2.0))
        assert res.lhs == pytest.approx(3.0 / 8.0)
        assert res.upper == pytest.approx(1.0 / (3.0 - math.sqrt(2.0)))
        assert res.lower == pytest.approx(1.0 / 6.0)
        assert res.lower < res.lhs <= res.upper
