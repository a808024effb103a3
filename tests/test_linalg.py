"""The block tridiagonal eigensolver and tridiagonal reduction, Sturm counts
and bisection on the reduced tridiagonal, the SPD inverse square root, and
the LU log-determinant reference the singularity gate is tested against.

The narrowing of a p-block tridiagonal matrix to a band of bandwidth p
(`linalg._narrowed_band`, the first step of `tridiagonal_form`) is checked
against scipy on the matrix's band of bandwidth 2p - 1, written out by
`tests.oracles.block_band`: the eigenvalues agree within NARROWING_C n eps
||M||_2, and the trace and the Frobenius norm within the gate's tolerance.
Bands in these tests are plain arrays in LAPACK's upper band storage (see
`tests.oracles`), handed to the library as their blocks (`blocks_of`).

Known values:
- constant-row-sum 2x2: eigenvalues are (diag - off, diag + off)
- path-graph tridiagonal (0 diagonal, 1 off): eigenvalues 2 cos(k pi / (n+1))
- rank-1 matrix has a numerically zero determinant

The solve narrows, then calls LAPACK dsbtrd and dsterf from numpy's LAPACK
directly: the two steps of dsbevd, so scipy.linalg.eigvals_banded, which
runs dsbevd, is its bit-exact oracle on the narrowed band wherever dsbevd
does not rescale the band.  A band of bandwidth exactly p needs no
rotation to narrow, so there scipy is bit-exact on the band itself.
"""

import ctypes
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from blockspec.cli import FIGURES
from blockspec.ensemble import GammaWeights, RngSeed, build_G
from blockspec.errors import ConvergenceError, ValidationError
from blockspec import linalg
from blockspec.linalg import (
    BlockTridiagonal,
    SturmCounter,
    Tridiagonal,
    eigh_banded,
    require_symmetric,
    spd_inv_sqrt,
    tridiagonal_form,
)
from blockspec.matrixpoly import RecurrenceCoeffs, recurrence_coeffs, roots
from tests.oracles import (
    banded_from_dense,
    block_band,
    blocks_of,
    entry,
    f_tilde_blocks,
    g_band,
    lu_log_abs_det,
    sturm_counts,
    to_dense,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def zero_blocks():
    """The 6 x 6 zero matrix as three 2 x 2 blocks."""
    return BlockTridiagonal(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))


def narrowed(m):
    """The narrowed band of the blocks m, from copies of them."""
    return linalg._narrowed_band(m.diag.copy(), m.coupling.copy())


@st.composite
def bands_of_bandwidth_p(draw):
    """(p, ab): a random band of bandwidth exactly p and dim k p, k >= 2."""
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, rng.standard_normal((p + 1, p * draw(st.integers(2, 8))))


class TestEighBanded:
    def test_path_graph(self):
        m = blocks_of(to_dense(np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])), 1)
        np.testing.assert_allclose(
            eigh_banded(m), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12
        )

    def test_diagonal_matrix(self):
        m = blocks_of(np.diag([3.0, 1.0, 2.0]), 1)
        np.testing.assert_allclose(eigh_banded(m), [1.0, 2.0, 3.0], atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        dense = random_symmetric(rng, 5)
        dense[np.abs(np.subtract.outer(range(5), range(5))) > 3] = 0.0
        expected = np.linalg.eigvalsh(dense)
        np.testing.assert_allclose(eigh_banded(blocks_of(dense, 5)), expected, atol=1e-10)

    def test_dense_encoding_agreement(self):
        # bandwidth w written as blocks of p >= w that divide n
        rng = np.random.default_rng(3)
        for n, w, p in ((4, 1, 1), (7, 3, 7), (10, 5, 5), (5, 4, 5)):
            dense = random_symmetric(rng, n)
            dense[np.abs(np.subtract.outer(range(n), range(n))) > w] = 0.0
            np.testing.assert_allclose(
                eigh_banded(blocks_of(dense, p)), np.linalg.eigvalsh(dense), atol=1e-10
            )

    def test_trace_preservation(self):
        rng = np.random.default_rng(4)
        for n, w in ((6, 2), (12, 4)):
            dense = random_symmetric(rng, n, scale=2.0)
            dense[np.abs(np.subtract.outer(range(n), range(n))) > w] = 0.0
            values = eigh_banded(blocks_of(dense, w))
            norm = max(1.0, np.abs(values).max())
            assert abs(values.sum() - np.trace(dense)) <= 1e-9 * norm * n

    @pytest.mark.parametrize(
        "n,w,construction",
        [
            pytest.param(1000, GammaWeights((2.0,)), "sample", id="1000-w0"),
            pytest.param(1200, GammaWeights((2.0, 8.0)), "sample", id="1200-w1"),
            pytest.param(1002, GammaWeights((1.0, 4.0, 25.0)), "sample", id="1002-w2"),
            # narrowed to bandwidth 4
            pytest.param(
                1000, GammaWeights((1.0, 4.0, 25.0, 100.0)), "sample", id="1000-p4"
            ),
            pytest.param(1200, GammaWeights((2.0, 8.0)), "jacobi", id="1200-jacobi-p2"),
            pytest.param(
                1002, GammaWeights((1.0, 4.0, 25.0)), "jacobi", id="1002-jacobi-p3"
            ),
            # the size of the p = 3 figures
            pytest.param(5001, GammaWeights((1.0, 4.0, 25.0)), "sample", id="5001-w2"),
        ],
    )
    def test_bit_identical_to_scipy(self, n, w, construction):
        # on the narrowed band, which the solve reduces as it is
        if construction == "sample":
            m = build_G(n, w, RngSeed(31, 2))
        else:
            m = f_tilde_blocks(recurrence_coeffs(n, w))
        expected = np.sort(scipy.linalg.eigvals_banded(narrowed(m), lower=False))
        np.testing.assert_array_equal(eigh_banded(m), expected)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(case=bands_of_bandwidth_p())
    def test_bit_identical_to_scipy_at_bandwidth_p(self, case):
        # a band of bandwidth exactly p has lower triangular coupling
        # blocks, so its narrowing makes no rotation and dsbtrd reduces the
        # band itself, as dsbevd does
        p, ab = case
        blocks = blocks_of(to_dense(ab), p)
        assert not np.triu(blocks.coupling, 1).any()
        expected = np.sort(scipy.linalg.eigvals_banded(ab, lower=False))
        np.testing.assert_array_equal(eigh_banded(blocks), expected)

    def test_library_without_the_routine_is_an_import_error(self):
        # numpy's LAPACK is there, but it exports no routine of this name
        tried = f"scipy_no_such_dsbevd{linalg._SUFFIX}, no_such_dsbevd{linalg._SUFFIX}"
        with pytest.raises(ImportError, match=tried) as exc:
            linalg._routine("no_such_dsbevd")
        assert linalg._umath_linalg.__file__ in str(exc.value)

    @pytest.mark.parametrize("dim,bandwidth", [(1, 0), (2, 0), (2, 1), (50, 0)])
    def test_small_and_diagonal_bit_identical_to_scipy(self, dim, bandwidth):
        rng = np.random.default_rng(dim + bandwidth)
        ab = rng.standard_normal((bandwidth + 1, dim))
        expected = np.sort(scipy.linalg.eigvals_banded(ab, lower=False))
        np.testing.assert_array_equal(eigh_banded(blocks_of(to_dense(ab), 1)), expected)

    def test_rejected_argument(self, monkeypatch):
        def rejects(*args):
            args[3].value = -2

        monkeypatch.setattr(linalg, "_DSTERF", rejects)
        with pytest.raises(ValidationError, match="dsterf rejected argument 2"):
            eigh_banded(zero_blocks())

    def test_failure_code_is_convergence_error(self, monkeypatch):
        def fails(*args):
            args[3].value = 1

        monkeypatch.setattr(linalg, "_DSTERF", fails)
        with pytest.raises(ConvergenceError, match="dsterf"):
            eigh_banded(zero_blocks())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 1)])
    def test_non_finite_input_rejected(self, bad, where):
        # a diagonal block, or a coupling block
        ab = np.array([[0.0, 0.5, 0.5], [1.0, 2.0, 3.0]])
        ab[where] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            eigh_banded(blocks_of(to_dense(ab), 1))

    def test_solve_releases_the_gil(self):
        # The main thread counts loop iterations while a worker thread runs a
        # task.  Against a sleeping worker it runs at full speed; against a
        # solve that held the GIL it would get only the Python-level gaps
        # around the LAPACK call (0.02-0.12 of full speed on a 2-core x86
        # machine, against 0.90-1.02 for the GIL-free call).  The narrowing
        # before the LAPACK call holds the GIL, for a few ms.
        m = build_G(3000, GammaWeights((1.0, 4.0, 25.0)), RngSeed(11, 0))

        def iterations_per_second(task):
            started, done = threading.Event(), threading.Event()

            def work():
                started.set()
                try:
                    task()
                finally:
                    done.set()

            worker = threading.Thread(target=work)
            worker.start()
            started.wait(timeout=60)
            count, start = 0, time.perf_counter()
            while not done.is_set():
                count += 1
            elapsed = time.perf_counter() - start
            worker.join(timeout=60)
            assert not worker.is_alive()
            return count / elapsed

        idle = iterations_per_second(lambda: time.sleep(0.2))
        during_solve = iterations_per_second(lambda: eigh_banded(m))
        assert during_solve >= 0.3 * idle


def accepted(argtype):
    """An argument that a LAPACK binding converts for `argtype`."""
    if hasattr(argtype, "_dtype_"):  # an ndpointer; shape (1, 1) is C and F contiguous
        return np.zeros((1, 1), dtype=argtype._dtype_)
    if argtype in (ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p):
        return {ctypes.c_char_p: b"N", ctypes.c_size_t: 1, ctypes.c_void_p: None}[argtype]
    return argtype._type_()  # an instance, which a POINTER type passes by reference


ARRAY_ARGUMENTS = [
    pytest.param(name, index, id=f"{name[1:].lower()}-{index + 1}")
    for name in ("_DSBTRD", "_DSTERF", "_DSTEBZ", "_DLAEBZ")
    for index, argtype in enumerate(getattr(linalg, name).argtypes)
    if hasattr(argtype, "_dtype_")
]


@pytest.mark.parametrize("kind", ["float32", "other-kind", "strided"])
@pytest.mark.parametrize("name,index", ARRAY_ARGUMENTS)
def test_bindings_check_their_arrays(name, index, kind):
    # ctypes converts every argument before the call, so LAPACK never runs
    routine = getattr(linalg, name)
    args = [accepted(argtype) for argtype in routine.argtypes]
    dtype = routine.argtypes[index]._dtype_
    args[index] = {
        "float32": np.zeros(2, dtype=np.float32),
        "other-kind": np.zeros(2, dtype=linalg._INT if dtype == np.float64 else np.float64),
        "strided": np.zeros(4, dtype=dtype)[::2],
    }[kind]
    with pytest.raises(ctypes.ArgumentError, match=f"argument {index + 1}:"):
        routine(*args)


def perturb_reduction(monkeypatch, index, delta):
    """Make dsbtrd add delta to element 0 of its output argument `index`
    (6 is the diagonal d, 7 the off-diagonal e)."""
    reduce = linalg._DSBTRD

    def perturbed(*args):
        reduce(*args)
        args[index][0] += delta

    monkeypatch.setattr(linalg, "_DSBTRD", perturbed)




class TestTridiagonalForm:
    @pytest.mark.parametrize(
        "n,w",
        [
            (12, GammaWeights((2.0, 8.0))),
            (60, GammaWeights((1.0,))),
            (300, GammaWeights((1.0, 4.0, 25.0))),
        ],
    )
    def test_same_spectrum_as_the_banded_solve(self, n, w):
        m = build_G(n, w, RngSeed(3, 1))
        t = tridiagonal_form(m)
        assert t.d.shape == (n,) and t.e.shape == (n - 1,)
        expected = eigh_banded(m)
        got = scipy.linalg.eigvalsh_tridiagonal(t.d, t.e)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("dim,bandwidth", [(1, 0), (2, 1), (5, 0), (7, 4)])
    def test_small_and_diagonal(self, dim, bandwidth):
        # 1 x 1 blocks, or one block for the wider band
        rng = np.random.default_rng(dim)
        dense = to_dense(rng.standard_normal((bandwidth + 1, dim)))
        m = blocks_of(dense, 1 if bandwidth <= 1 else dim)
        t = tridiagonal_form(m)
        reduced = np.diag(t.d) + np.diag(t.e, 1) + np.diag(t.e, -1)
        np.testing.assert_allclose(np.linalg.eigvalsh(reduced), eigh_banded(m), atol=1e-13)
        np.testing.assert_allclose(eigh_banded(m), np.linalg.eigvalsh(dense), atol=1e-13)

    @pytest.mark.parametrize("n", [12, 60])
    @pytest.mark.parametrize(
        "index,invariant,solve",
        [
            pytest.param(index, invariant, solve, id=f"{index}-{invariant}{suffix}")
            for solve, suffix in ((tridiagonal_form, ""), (eigh_banded, "-eigh_banded"))
            for index, invariant in ((7, "||T||_F^2 - ||M||_F^2"), (6, "tr T - tr M"))
        ],
    )
    def test_gate_trips_on_a_perturbed_reduction(self, monkeypatch, n, index, invariant, solve):
        m = build_G(n, GammaWeights((2.0, 8.0)), RngSeed(5))
        solve(m)  # passes unperturbed
        perturb_reduction(monkeypatch, index, 1e-9)
        with pytest.raises(ConvergenceError, match="band reduction") as exc:
            solve(m)
        assert invariant in str(exc.value)

    @pytest.mark.parametrize("k", [490, -490, 1000, -1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # blocks outside [1e-146, 1e146] are narrowed and reduced as 2^-j M
        # and T is scaled back, which loses no bit while T stays in the
        # normal range
        m = build_G(60, GammaWeights((1.0, 4.0, 25.0)), RngSeed(3, 1))
        t = tridiagonal_form(m)
        scaled = tridiagonal_form(BlockTridiagonal(*(np.ldexp(x, k) for x in m)))
        np.testing.assert_array_equal(scaled.d, np.ldexp(t.d, k))
        np.testing.assert_array_equal(scaled.e, np.ldexp(t.e, k))

    @pytest.mark.parametrize("size", [1e147, 1e-147, 1e300, 1e-300])
    def test_scale_outside_the_unscaled_range_matches_scipy(self, size):
        # dsbevd rescales such a band by another factor, so the last bits
        # may differ
        g = build_G(60, GammaWeights((1.0, 4.0, 25.0)), RngSeed(3, 1))
        m = BlockTridiagonal(g.diag * size, g.coupling * size)
        expected = np.sort(scipy.linalg.eigvals_banded(narrowed(m), lower=False))
        np.testing.assert_allclose(
            eigh_banded(m), expected, rtol=0, atol=1e-14 * np.abs(expected).max()
        )

    def test_beyond_the_float_range_raises(self):
        # ||M||_2 = 6e308: the reduced T overflows when scaled back
        m = blocks_of(np.full((6, 6), 1e308), 3)
        with pytest.raises(ConvergenceError, match="overflows"):
            tridiagonal_form(m)
        with pytest.raises(ConvergenceError, match="overflows"):
            eigh_banded(m)

    @pytest.mark.parametrize("size", [1e145, 1e-145])
    def test_scale_inside_the_range_accepted(self, size):
        m = blocks_of(to_dense(np.array([[0.0, 1.0, 1.0, 1.0], [2.0, 0.0, 1.0, 3.0]]) * size), 1)
        t = tridiagonal_form(m)
        np.testing.assert_allclose(
            scipy.linalg.eigvalsh_tridiagonal(t.d, t.e), eigh_banded(m), rtol=1e-14
        )

    def test_zero_matrix(self):
        t = tridiagonal_form(zero_blocks())
        assert not t.d.any() and not t.e.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        m = blocks_of(to_dense(np.array([[0.0, 0.5, 0.5], [1.0, 2.0, bad]])), 1)
        with pytest.raises(ValidationError, match="non-finite"):
            tridiagonal_form(m)

    def test_rejected_argument(self, monkeypatch):
        def rejects(*args):
            args[11].value = -4

        monkeypatch.setattr(linalg, "_DSBTRD", rejects)
        with pytest.raises(ValidationError, match="dsbtrd rejected argument 4"):
            tridiagonal_form(zero_blocks())


# |eigh_banded(m) - eigvals_banded(block_band(m))| <= NARROWING_C n eps
# ||M||_2: over 2e4 random bands of p = 2..5 and 2..8 blocks the largest
# ratio was 1.26, and on the figure matrices at n = 5000 it stays below 0.05
NARROWING_C = 4


def block_tridiagonal(rng, p, blocks, zero_share=0.0):
    """A random symmetric p-block tridiagonal dense matrix; each coupling
    entry is 0 with probability zero_share."""
    n = p * blocks
    dense = random_symmetric(rng, n)
    block = np.arange(n) // p
    apart = np.abs(np.subtract.outer(block, block))
    zero = rng.random((n, n)) < zero_share
    dense[(apart > 1) | ((apart == 1) & (zero | zero.T))] = 0.0
    return dense


def assert_invariants_kept(m, band):
    """tr and ||.||_F^2 of the band storage `band` within the gate's
    tolerance of those of the band storage m, compared at m scaled into
    [1/2, 1) by a power of two."""
    k = np.frexp(np.abs(m).max())[1]

    def invariants(x):
        ab = np.ldexp(x, -k)
        # the diagonal once, each band above it twice
        weights = np.full(len(ab), 2.0)
        weights[-1] = 1.0
        return ab[-1].sum(), weights @ np.sum(ab**2, axis=1)

    (trace, frob_sq), (new_trace, new_frob_sq) = invariants(m), invariants(band)
    tol = 4 * m.shape[1] * np.finfo(float).eps * np.sqrt(frob_sq)
    assert abs(new_trace - trace) <= tol
    assert abs(new_frob_sq - frob_sq) <= tol * np.sqrt(frob_sq)


def assert_same_spectrum(m, blocks):
    """eigh_banded of `blocks` within NARROWING_C n eps ||M||_2 of scipy's
    spectrum of the same matrix in the band storage m."""
    expected = np.sort(scipy.linalg.eigvals_banded(m, lower=False))
    bound = NARROWING_C * m.shape[1] * np.finfo(float).eps * np.abs(expected).max()
    np.testing.assert_allclose(eigh_banded(blocks), expected, rtol=0, atol=bound)


@st.composite
def block_matrices(draw):
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # exact zeros in the coupling blocks take the walk's rotation-skip branch
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    dense = block_tridiagonal(rng, p, draw(st.integers(2, 8)), zero_share)
    return p, dense * 10.0 ** draw(st.integers(-150, 150))


class TestNarrowBand:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(case=block_matrices())
    def test_property(self, case):
        p, dense = case
        m = banded_from_dense(dense, 2 * p - 1)
        band = narrowed(blocks_of(dense, p))
        assert band.shape == (p + 1, len(dense)) and band.flags.f_contiguous
        narrowed_dense = to_dense(band)
        assert not np.triu(narrowed_dense, p + 1).any()
        assert not np.tril(narrowed_dense, -p - 1).any()
        assert_invariants_kept(m, band)
        assert_same_spectrum(m, blocks_of(dense, p))

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_p1_is_returned_unchanged(self, n):
        # p = 1 runs the same code as every p, and gives back the band
        m = np.random.default_rng(n).standard_normal((2, n))
        m[0, 0] = 0.0  # the corner no entry maps to
        blocks = blocks_of(to_dense(m), 1)
        np.testing.assert_array_equal(narrowed(blocks), m)
        expected = np.sort(scipy.linalg.eigvals_banded(m, lower=False))
        np.testing.assert_array_equal(eigh_banded(blocks), expected)

    @pytest.mark.parametrize("n", [2, 41])
    def test_p1_sample_is_its_band(self, n):
        w, seed = GammaWeights((2.5,)), RngSeed(8, n)
        np.testing.assert_array_equal(narrowed(build_G(n, w, seed)), g_band(n, w, seed))

    @pytest.mark.parametrize("gamma", [(2.0,), (2.0, 8.0), (1.0, 4.0, 25.0), (0.3, 1.7, 2.25, 9.1)])
    def test_one_block(self, gamma):
        # F-tilde of one stage is B_0: its band has bandwidth dim - 1 and
        # holds B_0 as it is, in a Fortran-ordered array as dsbtrd takes it
        c = recurrence_coeffs(4 * len(gamma), GammaWeights(gamma))
        one = RecurrenceCoeffs(c.A[:1], c.B[:1])
        p = len(gamma)
        band = narrowed(f_tilde_blocks(one))
        assert band.shape == (p, p) and band.flags.f_contiguous
        np.testing.assert_array_equal(band, banded_from_dense(c.B[0], p - 1))
        expected = np.linalg.eigvalsh(c.B[0])
        np.testing.assert_allclose(
            roots(one), expected, rtol=0, atol=1e-14 * max(1.0, np.abs(expected).max())
        )

    @pytest.mark.parametrize("n", [8, 400])
    def test_p4_sample_matches_the_band_of_its_draws(self, n):
        # G drawn into its band of bandwidth 2p - 1, entry by entry, and
        # read back into blocks: the spectrum of the blocks build_G samples
        # is the same to the bit
        w, seed = GammaWeights((0.3, 1.7, 2.25, 9.1)), RngSeed(4, n)
        from_band = blocks_of(to_dense(g_band(n, w, seed)), w.p)
        np.testing.assert_array_equal(eigh_banded(build_G(n, w, seed)), eigh_banded(from_band))

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_matrices(self, name):
        # every eigenvalue of the narrowed G within the bound of one of G:
        # at each point the Sturm count of the narrowed band lies between
        # the numbers of G's eigenvalues (scipy, on its band of bandwidth
        # 2p - 1) a bound below and above it
        gamma, n = FIGURES[name]
        w = GammaWeights(gamma)
        g = build_G(n, w, RngSeed(1, 0))
        m = block_band(g)
        band = narrowed(g)
        assert len(band) == w.p + 1
        assert_invariants_kept(m, band)
        values = np.sort(scipy.linalg.eigvals_banded(m, lower=False))
        norm = np.abs(values[0]) + np.abs(values[-1])
        bound = NARROWING_C * n * np.finfo(float).eps * norm
        x = np.linspace(-norm, norm, 401)
        count = SturmCounter(tridiagonal_form(g))(x)
        assert (np.searchsorted(values, x - bound, side="right") <= count).all()
        assert (count <= np.searchsorted(values, x + bound, side="right")).all()

    @pytest.mark.parametrize(
        "n,gamma", [(600, (2.0, 8.0)), (600, (1.0, 4.0, 25.0)), (600, (1.0, 4.0, 25.0, 100.0))]
    )
    def test_jacobi_matrices(self, n, gamma):
        blocks = f_tilde_blocks(recurrence_coeffs(n, GammaWeights(gamma)))
        m = block_band(blocks)
        band = narrowed(blocks)
        assert len(band) == len(gamma) + 1
        assert_invariants_kept(m, band)
        assert_same_spectrum(m, blocks)

    def test_gate_trips_on_a_perturbed_result(self, monkeypatch):
        m = build_G(60, GammaWeights((2.0, 8.0)), RngSeed(5))
        rotations = linalg._narrowing_rotations

        def perturbed(coupling):
            cos, sin = rotations(coupling)
            cos[0, 0] += 1e-6  # no longer a rotation
            return cos, sin

        monkeypatch.setattr(linalg, "_narrowing_rotations", perturbed)
        with pytest.raises(ConvergenceError, match=r"^band narrowing: \|tr T - tr M\| = "):
            tridiagonal_form(m)

    @pytest.mark.parametrize(
        "diag,coupling",
        [
            (np.ones((2, 2)), np.ones((1, 2))),  # not a stack of blocks
            (np.ones((0, 2, 2)), np.ones((0, 2, 2))),  # no block
            (np.ones((2, 2, 3)), np.ones((1, 2, 3))),  # blocks not square
            (np.ones((2, 2, 2)), np.ones((2, 2, 2))),  # one coupling block too many
            (np.ones((3, 2, 2)), np.ones((1, 2, 2))),  # one too few
            (np.ones((2, 2, 2)), np.ones((1, 3, 3))),  # another block size
        ],
    )
    def test_rejects_blocks_of_mismatched_shapes(self, diag, coupling):
        for solve in (tridiagonal_form, eigh_banded):
            with pytest.raises(ValidationError, match="p-block tridiagonal needs"):
                solve(BlockTridiagonal(diag, coupling))

    def test_safe_range_scaling(self):
        # blocks outside the safe range are narrowed and reduced as 2^-k M
        m = blocks_of(block_tridiagonal(np.random.default_rng(7), 3, 4), 3)
        t = tridiagonal_form(m)
        for k in (-600, 600):
            scaled = tridiagonal_form(BlockTridiagonal(*(np.ldexp(x, k) for x in m)))
            np.testing.assert_array_equal(scaled.d, np.ldexp(t.d, k))
            np.testing.assert_array_equal(scaled.e, np.ldexp(t.e, k))


class TestBisectionAndSturmCounts:
    @pytest.fixture
    def tridiagonal(self):
        m = build_G(300, GammaWeights((1.0, 4.0, 25.0)), RngSeed(9))
        return tridiagonal_form(m), eigh_banded(m)

    def test_order_statistics_match_the_banded_solve(self, tridiagonal):
        t, values = tridiagonal
        counter = SturmCounter(t)
        np.testing.assert_allclose(
            [counter.eigenvalue(k) for k in range(len(values))], values,
            rtol=0, atol=1e-13 * np.abs(values).max(),
        )

    def test_counts_match_the_banded_solve(self, tridiagonal):
        t, values = tridiagonal
        # midpoints between neighbours, and points beyond both ends
        x = np.concatenate(([values[0] - 1.0], (values[:-1] + values[1:]) / 2, [values[-1] + 1.0]))
        np.testing.assert_array_equal(
            sturm_counts(t, x), np.searchsorted(values, x, side="right")
        )
        assert sturm_counts(t, np.array([])).shape == (0,)

    def test_known_spectrum(self):
        # path graph: eigenvalues 2 cos(k pi / (n + 1))
        n = 9
        t = Tridiagonal(np.zeros(n), np.ones(n - 1))
        exact = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        counter = SturmCounter(t)
        np.testing.assert_allclose([counter.eigenvalue(k) for k in range(n)], exact, atol=1e-15)
        # x = -1 and x = 1 are eigenvalues 2 cos(j pi / (k + 1)) of leading
        # submatrices, so a pivot of T - x I is exactly 0 there
        x = np.array([-3.0, -1.1, -1.0, 0.3, 1.0, 3.0])
        assert counter(x).tolist() == [0, 3, 3, 5, 6, 9]

    def test_off_diagonal_beyond_the_square_root_of_the_float_range(self):
        # e_i^2 overflows here; T is bisected and counted as 2^-k T
        big = 1e200
        counter = SturmCounter(Tridiagonal(np.zeros(3), np.array([big, big])))
        x = np.array([-2 * big, -big, big, 2 * big])
        assert counter(x).tolist() == [0, 1, 2, 3]
        expected = np.array([-np.sqrt(2.0) * big, 0.0, np.sqrt(2.0) * big])
        np.testing.assert_allclose(
            [counter.eigenvalue(k) for k in range(3)], expected,
            rtol=0, atol=4 * np.spacing(np.sqrt(2.0) * big),
        )

    def test_tiny_tridiagonal_is_scaled_up(self):
        # the same matrix at 1e-200: the counts and values scale with it, and
        # a point that overflows when scaled up counts as +-inf
        counter = SturmCounter(Tridiagonal(np.zeros(3), np.array([1e-200, 1e-200])))
        x = np.array([-1e300, -2e-200, -1e-200, 1e-200, 2e-200, 1e300])
        assert counter(x).tolist() == [0, 0, 1, 2, 3, 3]
        np.testing.assert_allclose(
            counter.eigenvalue(2), np.sqrt(2.0) * 1e-200, rtol=4 * np.finfo(float).eps
        )

    def test_eigenvalue_beyond_the_float_range_is_convergence_error(self):
        counter = SturmCounter(Tridiagonal(np.array([1e308, 1e308]), np.array([1e308])))
        assert counter(np.array([0.5e308, np.inf])).tolist() == [1, 2]
        with pytest.raises(ConvergenceError, match="overflow when scaled by 2\\^1024"):
            counter.eigenvalue(1)

    def test_one_by_one(self):
        counter = SturmCounter(Tridiagonal(np.array([2.5]), np.array([])))
        assert counter.eigenvalue(0) == 2.5
        assert counter(np.array([2.0, 3.0])).tolist() == [0, 1]

    @pytest.mark.parametrize("k", [-1, 9])
    def test_index_out_of_range_rejected(self, k):
        counter = SturmCounter(Tridiagonal(np.zeros(9), np.ones(8)))
        with pytest.raises(ValidationError, match=f"need 0 <= k < dim = 9, got k = {k}"):
            counter.eigenvalue(k)

    @pytest.mark.parametrize(
        "d,e", [(np.zeros(3), np.ones(3)), (np.zeros(0), np.zeros(0)), (np.zeros((2, 2)), np.ones(1))]
    )
    def test_malformed_tridiagonal_rejected(self, d, e):
        # on construction, before any count or bisection
        with pytest.raises(ValidationError, match="off-diagonal"):
            SturmCounter(Tridiagonal(d, e))

    @pytest.mark.parametrize(
        "d,e",
        [
            ([np.nan, 1.0], [1.0]),
            ([-np.inf, 0.0], [1.0]),
            ([0.0, 0.0], [np.inf]),
            ([0.0, 0.0], [np.nan]),
        ],
    )
    def test_non_finite_tridiagonal_rejected(self, d, e):
        with pytest.raises(ValidationError, match="non-finite"):
            SturmCounter(Tridiagonal(np.array(d), np.array(e)))

    @pytest.mark.parametrize("x", [[np.nan, 0.0, np.nan], [0.0, np.nan]])
    def test_nan_point_rejected(self, x):
        t = Tridiagonal(np.zeros(2), np.ones(1))
        assert sturm_counts(t, np.array([-np.inf, np.inf])).tolist() == [0, 2]
        with pytest.raises(ValidationError, match="NaN"):
            sturm_counts(t, np.array(x))

    @pytest.mark.parametrize("x", [1.0, np.zeros((2, 2))], ids=["0-d", "2-d"])
    def test_non_vector_points_rejected(self, x):
        # a (2, 2) array must not be read as its first two flattened points
        t = Tridiagonal(np.zeros(2), np.ones(1))
        with pytest.raises(ValidationError, match="1-d"):
            sturm_counts(t, x)

    def test_failure_code_is_convergence_error(self, monkeypatch):
        def fails(*args):
            args[17].value = 1

        monkeypatch.setattr(linalg, "_DSTEBZ", fails)
        with pytest.raises(ConvergenceError, match="dstebz"):
            SturmCounter(Tridiagonal(np.zeros(3), np.ones(2))).eigenvalue(0)

    def test_count_rejected_argument(self, monkeypatch):
        def rejects(*args):
            args[19].value = -3

        monkeypatch.setattr(linalg, "_DLAEBZ", rejects)
        with pytest.raises(ValidationError, match="dlaebz rejected argument 3"):
            sturm_counts(Tridiagonal(np.zeros(3), np.ones(2)), np.zeros(3))

    def test_short_count_is_convergence_error(self, monkeypatch):
        solve = linalg._DSTEBZ

        def short(*args):
            solve(*args)
            args[10].value -= 1

        monkeypatch.setattr(linalg, "_DSTEBZ", short)
        with pytest.raises(ConvergenceError, match="returned 0 eigenvalues for index 2"):
            SturmCounter(Tridiagonal(np.zeros(4), np.ones(3))).eigenvalue(2)

    def test_threads_share_one_counter(self):
        # eigenvalue and the counts only read the prepared form, so threads
        # that bisect and count on one counter at once get the values and
        # counts of one thread alone
        t = tridiagonal_form(build_G(600, GammaWeights((2.0, 8.0)), RngSeed(3, 3)))
        counter = SturmCounter(t)
        ranks = list(range(0, len(t.d), 37))
        x = np.linspace(-60.0, 60.0, 25)
        expected = ([counter.eigenvalue(k) for k in ranks], counter(x).tolist())
        workers = 8
        results = [None] * workers

        def work(i):
            results[i] = ([counter.eigenvalue(k) for k in ranks], counter(x).tolist())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * workers


class TestBandStorage:
    def test_entry_and_round_trip(self):
        # the oracles' band storage: entry, to_dense and banded_from_dense
        rng = np.random.default_rng(5)
        dense = random_symmetric(rng, 6)
        dense[np.abs(np.subtract.outer(range(6), range(6))) > 2] = 0.0
        banded = banded_from_dense(dense, 2)
        np.testing.assert_allclose(to_dense(banded), dense, atol=0)
        assert entry(banded, 0, 3) == 0.0
        assert entry(banded, 1, 3) == dense[1, 3]
        assert entry(banded, 3, 1) == dense[1, 3]


class TestSpdInvSqrt:
    def test_diagonal(self):
        s = spd_inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(s, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(spd_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_via_eigh_oracle(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = spd_inv_sqrt(m)
        np.testing.assert_allclose(s @ m @ s, np.eye(2), atol=1e-10)
        values, vectors = np.linalg.eigh(m)
        expected = (vectors / np.sqrt(values)) @ vectors.T
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            spd_inv_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("size", [1e-3, 1.0, 1e6])
    def test_asymmetry_is_relative_to_max_1_and_the_block(self, size):
        # the rule that require_symmetric and asymmetric_blocks share
        tol = linalg.SYMMETRY_RTOL * max(1.0, size)
        inside = np.array([[size, size], [size - 0.5 * tol, 0.0]])
        outside = np.array([[size, size], [size - 2.0 * tol, 0.0]])
        assert linalg.asymmetric_blocks(np.stack([inside, outside, inside])).tolist() == [1]
        require_symmetric(inside)
        with pytest.raises(ValidationError, match="not symmetric"):
            require_symmetric(outside)

    def test_residual_check(self, monkeypatch):
        # numpy's decomposition passes the 1e-12 * max(1, ||M||_2) backward
        # error check; one whose vectors are off by 1e-10 fails it
        rng = np.random.default_rng(1)
        m = random_symmetric(rng, 5, scale=3.0) + 20.0 * np.eye(5)
        spd_inv_sqrt(m)
        eigh = np.linalg.eigh

        def perturbed(a):
            values, vectors = eigh(a)
            return values, vectors * (1.0 + 1e-10)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError, match=r"residual .* exceeds 1e-12 \* "):
            spd_inv_sqrt(m)

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            spd_inv_sqrt(np.eye(2))

    def test_rejects_indefinite_with_eigenvalue(self):
        with pytest.raises(ValidationError) as err:
            spd_inv_sqrt(np.diag([1.0, -2.0]))
        assert "smallest eigenvalue -2.000000e+00" in str(err.value)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_test_is_relative_to_the_norm(self, scale):
        # positive definiteness does not depend on the unit: a scaled SPD
        # matrix is accepted, a scaled one with eigenvalue ratio 1e-13 is not
        m = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        s = spd_inv_sqrt(m)
        np.testing.assert_allclose(s @ m @ s, np.eye(2), atol=1e-10)
        with pytest.raises(ValidationError, match="1e-12"):
            spd_inv_sqrt(scale * np.diag([1.0, 1e-13]))

    def test_random_spd_within_condition_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.integers(2, 7)
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            # condition number up to 1e6
            eigs = 10.0 ** rng.uniform(-3, 3, p)
            m = (q * eigs) @ q.T
            m = (m + m.T) / 2.0
            s = spd_inv_sqrt(m)
            assert np.abs(s @ m @ s - np.eye(p)).max() <= 1e-8


class TestLogAbsDet:
    """The LU reference `lu_log_abs_det` that TestSingularityGate holds
    `linalg.singular_blocks` against."""

    def test_identity(self):
        assert lu_log_abs_det(np.eye(4)) == (1, 0.0)

    def test_diagonal_with_sign(self):
        sign, logabs = lu_log_abs_det(np.diag([-2.0, 3.0]))
        assert sign == -1
        assert logabs == pytest.approx(np.log(6.0), abs=1e-12)

    def test_rank_one_is_singular(self):
        sign, logabs = lu_log_abs_det(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sign == 0
        assert logabs == -np.inf

    def test_zero_matrix(self):
        assert lu_log_abs_det(np.zeros((3, 3))) == (0, -np.inf)

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 6)
            a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            b = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            sa, la = lu_log_abs_det(a)
            sb, lb = lu_log_abs_det(b)
            sp, lp = lu_log_abs_det(a @ b)
            assert sp == sa * sb
            assert lp == pytest.approx(la + lb, abs=1e-9)

    def test_matches_slogdet(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            sign, logabs = lu_log_abs_det(m)
            s_ref, l_ref = np.linalg.slogdet(m)
            assert sign == int(s_ref)
            assert logabs == pytest.approx(l_ref, abs=1e-10)
