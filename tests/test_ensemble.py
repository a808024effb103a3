"""Ensemble construction: entry layout, chi sampling, determinism, and the
agreement between the sampled matrix, its deterministic counterpart, and the
block Jacobi form built through the recurrence coefficients.

The library builds the dof layout once, as arrays (`chi_layout`).  The two
oracles below transcribe it independently: `block_dof_table` blockwise from
the diagonal/coupling block patterns, `scalar_entry_dof` from the unified
positional rule.  The layout is checked four ways: the oracles against each
other and against hand-read literal values for small (n, p), `chi_layout`
against the blockwise oracle, structurally through the spectral equality of
the two deterministic matrices (acceptance criterion 7), and in distribution
through E tr(G^2) = tr(F^2) + n, which needs no eigensolver.  G and the
block Jacobi matrix of `recurrence_coeffs(n, w)` are built as p x p blocks
and compared in band storage, written out entry by entry by
`tests.oracles.block_band`: F-tilde band for band against the
entry-by-entry loop `tests.oracles.build_F_tilde`.
"""

import math

import numpy as np
import pytest

from blockspec.ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_G,
    chi_layout,
    rng_from_seed,
)
from blockspec.errors import ValidationError
from blockspec.linalg import eigh_banded
from blockspec.matrixpoly import recurrence_coeffs, roots
from tests.oracles import (
    block_band,
    blocks_of,
    build_F,
    build_F_tilde,
    chi_sample,
    entry,
    f_tilde_blocks,
    g_band,
    to_dense,
)

W2 = GammaWeights((2.0, 8.0))
W3 = GammaWeights((1.0, 4.0, 25.0))
W4 = GammaWeights((0.3, 1.7, 2.25, 9.1))


def scalar_entry_dof(r, c, n, w):
    """Chi dof at 1-based position (r, c) of G, or None where no entry exists.

    The unified positional rule of the `blockspec.ensemble` docstring.
    """
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


def block_dof_table(n, w):
    """Chi dofs of the strict upper triangle of G, assembled blockwise.

    Keys are 1-based (r, c) with r < c.  Diagonal blocks i = 0..n/p-1 have
    zero diagonal (normals live there) and dof gamma_{|q-l|} * (n - ip - max(q,l) + 1)
    at local position (q, l); coupling blocks i = 1..n/p-1 sit on rows of
    block i-1 and columns of block i with dof
    gamma_{p-|q-l|} * (n - ip - min(q,l) + 1).
    """
    p, gamma = w.p, w.gamma
    m = n // p
    table = {}
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


# chi mean is sqrt(2) Gamma((k+1)/2) / Gamma(k/2)
def exact_chi_mean(dof):
    return math.sqrt(2.0) * math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0))


class TestChiSample:
    def test_zero_dof_is_exactly_zero(self):
        rng = rng_from_seed(RngSeed(1, 0))
        assert chi_sample(rng, 0.0) == 0.0

    def test_negative_dof_rejected(self):
        rng = rng_from_seed(RngSeed(1, 0))
        with pytest.raises(ValidationError):
            chi_sample(rng, -1.0)

    def test_mean_dof_100(self):
        rng = rng_from_seed(RngSeed(424242, 0))
        mean = np.mean([chi_sample(rng, 100.0) for _ in range(100_000)])
        assert mean == pytest.approx(exact_chi_mean(100.0), abs=0.02)
        assert abs(mean - 10.0) <= 0.05

    def test_mean_dof_2(self):
        rng = rng_from_seed(RngSeed(424242, 1))
        mean = np.mean([chi_sample(rng, 2.0) for _ in range(100_000)])
        assert exact_chi_mean(2.0) == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-12)
        assert abs(mean - math.sqrt(math.pi / 2.0)) <= 0.02

    def test_fractional_dof_mean(self):
        rng = rng_from_seed(RngSeed(424242, 2))
        mean = np.mean([chi_sample(rng, 2.5) for _ in range(50_000)])
        assert mean == pytest.approx(exact_chi_mean(2.5), abs=0.02)


class TestGammaWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            GammaWeights((1.0, 0.0))

    def test_p_is_the_number_of_weights(self):
        for gamma in ((2.0,), (2.0, 8.0), (0.3, 1.7, 2.25, 9.1)):
            assert GammaWeights(gamma).p == len(gamma)
        # p is read from gamma, so gamma alone gives equality and repr
        assert repr(W2) == "GammaWeights(gamma=(2.0, 8.0))"

    def test_rejects_p_zero(self):
        with pytest.raises(ValidationError):
            GammaWeights(())

    def test_values_are_equal_hashable_and_immutable(self):
        w = GammaWeights([2, 8])
        assert w == GammaWeights((2.0, 8.0)) and w.gamma == (2.0, 8.0)
        assert {RngSeed(3): 1}[RngSeed(3, 0)] == 1 and RngSeed(3, 1) != RngSeed(3, 0)
        assert w != (2, (2.0, 8.0)) and repr(RngSeed(3)) == "RngSeed(master=3, stream=0)"
        for value, name in ((w, "gamma"), (RngSeed(3), "stream")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)


class TestRngSeed:
    @pytest.mark.parametrize(
        "master, stream, name",
        [(1.5, 0, "master"), ("1", 0, "master"), (1, 2.0, "stream"),
         (-1, 0, "master"), (0, 2**64, "stream")],
    )
    def test_rejects_what_is_no_64_bit_unsigned_integer(self, master, stream, name):
        # 1.5 would otherwise draw the matrix of master 1 through the uint64 key
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            RngSeed(master, stream)

    def test_numpy_integers_are_stored_as_python_ints(self):
        seed = RngSeed(np.uint64(2**64 - 1), np.int32(3))
        assert seed == RngSeed(2**64 - 1, 3)
        assert type(seed.master) is int and type(seed.stream) is int
        draws = [rng_from_seed(s).random(4).tobytes() for s in (seed, RngSeed(2**64 - 1, 3))]
        assert draws[0] == draws[1]


class TestDofLayout:
    @pytest.mark.parametrize("w", [GammaWeights((2.0,)), W2, W3])
    @pytest.mark.parametrize("mult", [2, 4, 10])
    def test_block_table_matches_scalar_rule(self, w, mult):
        n = mult * w.p
        table = block_dof_table(n, w)
        for r in range(1, n + 1):
            for c in range(r + 1, n + 1):
                expected = scalar_entry_dof(r, c, n, w)
                assert table.get((r, c)) == pytest.approx(expected), (r, c)

    def test_p2_n4_literal_values(self):
        # read directly off the diagonal/coupling block displays for i = 0, 1
        g1, g2 = 3.0, 5.0
        w = GammaWeights((g1, g2))
        assert scalar_entry_dof(1, 2, 4, w) == pytest.approx(3 * g1)
        assert scalar_entry_dof(1, 3, 4, w) == pytest.approx(2 * g2)
        assert scalar_entry_dof(2, 3, 4, w) == pytest.approx(2 * g1)
        assert scalar_entry_dof(1, 4, 4, w) == pytest.approx(2 * g1)
        assert scalar_entry_dof(2, 4, 4, w) == pytest.approx(1 * g2)
        assert scalar_entry_dof(3, 4, 4, w) == pytest.approx(1 * g1)

    def test_equal_dof_positions_are_distinct_draws(self):
        # (1,4) and (2,3) both carry dof 2*g1 yet are independent draws;
        # only (r,c)/(c,r) symmetry ties values
        assert scalar_entry_dof(1, 4, 4, W2) == scalar_entry_dof(2, 3, 4, W2)
        g = block_band(build_G(4, W2, RngSeed(7, 0)))
        assert entry(g, 0, 3) != entry(g, 1, 2)

    def test_p3_n12_literal_values(self):
        g1, g2, g3 = 1.0, 4.0, 25.0
        w = GammaWeights((g1, g2, g3))
        n = 12
        # diagonal block i = 0, first rows
        assert scalar_entry_dof(1, 2, n, w) == pytest.approx(11 * g1)
        assert scalar_entry_dof(1, 3, n, w) == pytest.approx(10 * g2)
        assert scalar_entry_dof(2, 3, n, w) == pytest.approx(10 * g1)
        # coupling block i = 1 (rows 1..3, cols 4..6)
        assert scalar_entry_dof(1, 4, n, w) == pytest.approx(9 * g3)
        assert scalar_entry_dof(1, 6, n, w) == pytest.approx(9 * g1)
        assert scalar_entry_dof(2, 4, n, w) == pytest.approx(9 * g2)
        assert scalar_entry_dof(2, 5, n, w) == pytest.approx(8 * g3)
        assert scalar_entry_dof(2, 6, n, w) == pytest.approx(8 * g2)
        assert scalar_entry_dof(3, 4, n, w) == pytest.approx(9 * g1)
        assert scalar_entry_dof(3, 5, n, w) == pytest.approx(8 * g2)
        assert scalar_entry_dof(3, 6, n, w) == pytest.approx(7 * g3)

    def test_absent_positions(self):
        assert scalar_entry_dof(1, 5, 6, W2) is None  # offset 4 > 2p-1 = 3
        assert scalar_entry_dof(2, 5, 6, W2) is None  # offset 3 across non-adjacent blocks

    @pytest.mark.parametrize("w", [GammaWeights((2.0,)), W2, W3, W4])
    @pytest.mark.parametrize("mult", [2, 3, 7, 25])
    def test_chi_layout_matches_block_table(self, w, mult):
        # same positions, in row-major (draw) order, with bit-equal dofs
        n = mult * w.p
        rows, cols, dof = chi_layout(n, w)
        table = block_dof_table(n, w)
        keys = sorted(table)
        assert list(zip(rows.tolist(), cols.tolist())) == keys
        np.testing.assert_array_equal(dof, [table[k] for k in keys])
        assert np.all(dof > 0)

    def test_bandwidth_is_exact(self):
        for w, n in ((W2, 8), (W3, 12)):
            table = block_dof_table(n, w)
            assert all(c - r <= 2 * w.p - 1 for r, c in table)
            dense = to_dense(build_F(n, w))
            outside = np.abs(np.subtract.outer(range(n), range(n))) > 2 * w.p - 1
            assert np.all(dense[outside] == 0.0)


class TestBuildG:
    def test_determinism(self):
        a = block_band(build_G(12, W2, RngSeed(42, 3)))
        b = block_band(build_G(12, W2, RngSeed(42, 3)))
        assert np.array_equal(a, b)
        c = block_band(build_G(12, W2, RngSeed(42, 4)))
        assert not np.array_equal(a, c)

    def test_seeds_above_two_to_the_63_stay_distinct(self):
        # a key list of Python ints goes through float64 in Philox
        seeds = [(0, 0), (0, 2**64 - 1), (0, 2**64 - 1024), (2**64 - 1, 0),
                 (5, 2**63), (5, 2**63 + 5)]
        draws = [rng_from_seed(RngSeed(*s)).random(4).tobytes() for s in seeds]
        assert len(set(draws)) == len(seeds)
        key = rng_from_seed(RngSeed(5, 2**63 + 5)).bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [5, 2**63 + 5]

    def test_golden_6x6(self):
        # pinned draws for p=2, gamma=(2,8), seed (123456789, 7); guards both
        # the draw-order contract and cross-platform stream stability
        g = block_band(build_G(6, W2, RngSeed(123456789, 7)))
        # LAPACK upper band storage: row 3 - d holds band d in columns d..5
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 1.5199462837048232, 0.0, 1.3776410763476197],
                [0.0, 0.0, 3.759492545699537, 4.30708152281388, 3.0071580829971944,
                 2.1932391151313415],
                [0.0, 3.275302382723484, 1.8054439920246312, 1.2793301685450087,
                 1.2571353875620264, 0.9447427921302473],
                [0.08587118829966121, -1.1139618238026523, 0.13295895001901578,
                 -1.4522326395967347, -0.222410254742506, 3.4525461440978553],
            ]
        )
        np.testing.assert_array_equal(g, expected)

    def test_p1_reduction_is_entrywise(self):
        # p = 1 must reproduce the scalar tridiagonal model built directly
        # from the same draw sequence: n normals, then chi((n-i) * beta)
        beta = 2.5
        n, seed = 8, RngSeed(99, 5)
        g = block_band(build_G(n, GammaWeights((beta,)), seed))
        rng = rng_from_seed(seed)
        diag = rng.standard_normal(n)
        off = np.array([chi_sample(rng, (n - i) * beta) for i in range(1, n)])
        np.testing.assert_array_equal(g[1], diag)
        np.testing.assert_array_equal(g[0, 1:], off / math.sqrt(2.0))

    @pytest.mark.parametrize(
        "n,w", [(12, W2), (15, W3), (24, W4), (8, GammaWeights((0.7, 1.3)))]
    )
    def test_matches_scalar_draw_loop(self, n, w):
        # the per-entry loop over the blockwise oracle, one chi_sample per
        # position in row-major order, gives the same bits as the one
        # vectorized draw
        seed = RngSeed(2718, 1)
        rng = rng_from_seed(seed)
        kd = 2 * w.p - 1
        expected = np.zeros((kd + 1, n))
        expected[kd] = rng.standard_normal(n)
        table = block_dof_table(n, w)
        for r, c in sorted(table):
            expected[kd + r - c, c - 1] = chi_sample(rng, table[(r, c)]) / math.sqrt(2.0)
        np.testing.assert_array_equal(block_band(build_G(n, w, seed)), expected)

    @pytest.mark.parametrize("n,w", [(8, GammaWeights((2.5,))), (6, W2), (12, W3), (16, W4)])
    def test_blocks_are_those_of_the_band_of_its_draws(self, n, w):
        # each D_b is symmetric, and every block holds the entries of G's
        # band drawn one entry at a time
        seed = RngSeed(5, 5)
        g = build_G(n, w, seed)
        expected = blocks_of(to_dense(g_band(n, w, seed)), w.p)
        np.testing.assert_array_equal(g.diag, expected.diag)
        np.testing.assert_array_equal(g.coupling, expected.coupling)

    @pytest.mark.parametrize("n,w", [(40, GammaWeights((2.5,))), (40, W2), (42, W3)])
    def test_mean_square_trace(self, n, w):
        # E tr(G^2) = tr(F^2) + n: each chi_k^2 has mean k and each N(0,1)^2
        # mean 1; tr(M^2) is the sum of squared entries, so no solve is needed
        def trace_sq(m):
            return float((m[-1] ** 2).sum() + 2.0 * (m[:-1] ** 2).sum())

        samples = np.array(
            [trace_sq(block_band(build_G(n, w, RngSeed(2024, s)))) for s in range(200)]
        )
        expected = trace_sq(build_F(n, w)) + n
        std_err = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - expected) <= 4.0 * std_err

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            build_G(13, W2, RngSeed(0, 0))
        with pytest.raises(ValidationError):
            build_G(2, W2, RngSeed(0, 0))


class TestBuildF:
    def test_p2_n4_entry(self):
        f = build_F(4, W2)
        assert entry(f, 0, 1) == pytest.approx(math.sqrt(3 * 2.0 / 2.0))
        assert np.all(f[-1] == 0.0)

    def test_p1_small(self):
        f = build_F(3, GammaWeights((2.0,)))
        np.testing.assert_allclose(f[1], 0.0)
        np.testing.assert_allclose(f[0, 1:], [math.sqrt(2.0), 1.0], atol=1e-15)


def f_tilde(n, w):
    """The band of F-tilde through the recurrence, of the blocks that
    `roots` solves."""
    return block_band(f_tilde_blocks(recurrence_coeffs(n, w)))


class TestBuildFTilde:
    def test_p2_first_coupling_entry(self):
        ft = f_tilde(8, W2)
        # coupling block i=1 sits at rows 1..2, cols 3..4 (1-based)
        assert entry(ft, 0, 2) == pytest.approx(math.sqrt(8.0 / 2.0))

    def test_p1_classic_pattern(self):
        gamma1 = 3.0
        ft = f_tilde(5, GammaWeights((gamma1,)))
        np.testing.assert_allclose(ft[1], 0.0)
        expected = [math.sqrt(i * gamma1 / 2.0) for i in range(1, 5)]
        np.testing.assert_allclose(ft[0, 1:], expected, atol=1e-15)

    def test_spectrum_matches_roots(self):
        # the entry-by-entry loop against the roots of the recurrence
        for n, w in ((12, W3), (10, W2)):
            e_ft = eigh_banded(blocks_of(to_dense(build_F_tilde(n, w)), w.p))
            r = roots(recurrence_coeffs(n, w))
            np.testing.assert_allclose(e_ft, r, atol=1e-9)

    @pytest.mark.parametrize(
        "w",
        [
            GammaWeights((2.0,)),
            GammaWeights((0.37,)),
            W2,
            GammaWeights((0.7, 1.3)),
            W3,
            GammaWeights((0.1, 2.9, 7.3)),
            W4,
            GammaWeights((1.0, 2.0, 3.0, 5.0)),
        ],
    )
    @pytest.mark.parametrize("mult", [2, 10, 1000])
    def test_bands_equal_loop_oracle(self, w, mult):
        # bit for bit, band for band, including fractional weights
        n = mult * w.p
        ft = f_tilde(n, w)
        ref = build_F_tilde(n, w)
        assert ft.shape == ref.shape
        np.testing.assert_array_equal(ft, ref)


class TestEmpiricalSpectrumType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            EmpiricalSpectrum(GammaWeights((1.0,)), None, False, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, value):
        # NaN compares False both ways, so the sortedness check alone passes it
        with pytest.raises(ValidationError, match="finite"):
            EmpiricalSpectrum(W2, None, False, [1.0, value, 2.0, 3.0])

    @pytest.mark.parametrize("n", [2, 6])
    def test_n_is_the_number_of_values(self, n):
        spectrum = EmpiricalSpectrum(W2, RngSeed(3), False, np.arange(n, dtype=float))
        assert spectrum.n == n
        assert spectrum.to_scaled().n == n

    def test_rejects_a_length_indivisible_by_p(self):
        with pytest.raises(ValidationError, match="n=5 is not divisible by p=2"):
            EmpiricalSpectrum(W2, None, False, np.arange(5.0))
