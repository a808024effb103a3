"""Dense/banded eigensolvers, SPD inverse square root, log-determinants.

Known values:
- constant-row-sum 2x2: eigenvalues are (diag - off, diag + off)
- path-graph tridiagonal (0 diagonal, 1 off): eigenvalues 2 cos(k pi / (n+1))
- rank-1 matrix has a numerically zero determinant

The banded solve calls LAPACK dsbevd directly; scipy.linalg.eigvals_banded,
which runs the same routine, is its bit-exact oracle here.
"""

import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from blockspec.ensemble import GammaWeights, RngSeed, build_G
from blockspec.errors import NotPositiveDefiniteError, ValidationError
from blockspec.linalg import (
    SINGULAR_PIVOT_RTOL,
    SymmetricBanded,
    eigh_banded,
    eigh_dense,
    log_abs_det,
    spd_inv_sqrt,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


class TestEighDense:
    def test_constant_row_sums(self):
        values, vectors = eigh_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [1.0, 3.0], atol=1e-12)
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        for j in range(2):
            v = vectors[:, j] * np.sign(vectors[0, j])
            np.testing.assert_allclose(v, expected[:, j] * np.sign(expected[0, j]), atol=1e-12)

    def test_identity(self):
        values, _ = eigh_dense(np.eye(3))
        np.testing.assert_allclose(values, np.ones(3), atol=1e-14)

    def test_swap_matrix(self):
        values, _ = eigh_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            eigh_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 8):
            m = random_symmetric(rng, n, scale=3.0)
            values, vectors = eigh_dense(m, tol=1e-10)
            scale = max(1.0, np.abs(values).max())
            assert np.abs(m @ vectors - vectors * values).max() <= 1e-10 * scale


class TestEighBanded:
    def test_path_graph(self):
        m = SymmetricBanded(3, 1, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        np.testing.assert_allclose(
            eigh_banded(m), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12
        )

    def test_diagonal_matrix(self):
        m = SymmetricBanded(3, 0, np.array([[3.0, 1.0, 2.0]]))
        np.testing.assert_allclose(eigh_banded(m), [1.0, 2.0, 3.0], atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        dense = random_symmetric(rng, 5)
        dense[np.abs(np.subtract.outer(range(5), range(5))) > 3] = 0.0
        banded = SymmetricBanded.from_dense(dense, 3)
        expected = eigh_dense(dense).values
        np.testing.assert_allclose(eigh_banded(banded), expected, atol=1e-10)

    def test_dense_encoding_agreement(self):
        rng = np.random.default_rng(3)
        for n, w in ((4, 1), (7, 3), (10, 5), (5, 4)):
            dense = random_symmetric(rng, n)
            dense[np.abs(np.subtract.outer(range(n), range(n))) > w] = 0.0
            banded = SymmetricBanded.from_dense(dense, w)
            np.testing.assert_allclose(
                eigh_banded(banded), eigh_dense(dense).values, atol=1e-10
            )

    def test_trace_preservation(self):
        rng = np.random.default_rng(4)
        for n, w in ((6, 2), (12, 4)):
            dense = random_symmetric(rng, n, scale=2.0)
            dense[np.abs(np.subtract.outer(range(n), range(n))) > w] = 0.0
            banded = SymmetricBanded.from_dense(dense, w)
            values = eigh_banded(banded)
            norm = max(1.0, np.abs(values).max())
            assert abs(values.sum() - np.trace(dense)) <= 1e-9 * norm * n

    def test_bandwidth_must_be_below_dim(self):
        with pytest.raises(ValidationError, match="densify"):
            eigh_banded(SymmetricBanded.zeros(2, 3))

    @pytest.mark.parametrize(
        "n,w",
        [
            (1000, GammaWeights(1, (2.0,))),
            (1200, GammaWeights(2, (2.0, 8.0))),
            (1002, GammaWeights(3, (1.0, 4.0, 25.0))),
        ],
    )
    def test_bit_identical_to_scipy(self, n, w):
        m = build_G(n, w, RngSeed(31, 2))
        expected = np.sort(scipy.linalg.eigvals_banded(m.scipy_band_upper(), lower=False))
        np.testing.assert_array_equal(eigh_banded(m), expected)

    @pytest.mark.parametrize("dim,bandwidth", [(1, 0), (2, 0), (2, 1), (50, 0)])
    def test_small_and_diagonal_bit_identical_to_scipy(self, dim, bandwidth):
        rng = np.random.default_rng(dim + bandwidth)
        m = SymmetricBanded(dim, bandwidth, rng.standard_normal((bandwidth + 1, dim)))
        m.bands[1:, dim - bandwidth:] = 0.0
        expected = np.sort(scipy.linalg.eigvals_banded(m.scipy_band_upper(), lower=False))
        np.testing.assert_array_equal(eigh_banded(m), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0)])
    def test_non_finite_input_rejected(self, bad, where):
        m = SymmetricBanded(3, 1, np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.0]]))
        m.bands[where] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            eigh_banded(m)

    def test_solve_releases_the_gil(self):
        # The main thread counts loop iterations while a worker thread runs a
        # task.  Against a sleeping worker it runs at full speed; against a
        # solve that held the GIL it would get only the Python-level gaps
        # around the LAPACK call (0.02-0.12 of full speed on a 2-core x86
        # machine, against 0.90-1.02 for the GIL-free call).
        m = build_G(3000, GammaWeights(3, (1.0, 4.0, 25.0)), RngSeed(11, 0))

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


class TestSymmetricBanded:
    def test_entry_and_round_trip(self):
        rng = np.random.default_rng(5)
        dense = random_symmetric(rng, 6)
        dense[np.abs(np.subtract.outer(range(6), range(6))) > 2] = 0.0
        banded = SymmetricBanded.from_dense(dense, 2)
        np.testing.assert_allclose(banded.to_dense(), dense, atol=0)
        assert banded.entry(0, 3) == 0.0
        assert banded.entry(1, 3) == dense[1, 3]
        assert banded.entry(3, 1) == dense[1, 3]

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            SymmetricBanded(3, 1, np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            SymmetricBanded(0, 0, np.zeros((1, 0)))


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
        values, vectors = eigh_dense(m)
        expected = (vectors / np.sqrt(values)) @ vectors.T
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_rejects_indefinite_with_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_inv_sqrt(np.diag([1.0, -2.0]))
        assert err.value.min_eigenvalue == pytest.approx(-2.0)
        assert "-2" in str(err.value)

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
    def test_identity(self):
        assert log_abs_det(np.eye(4)) == (1, 0.0)

    def test_diagonal_with_sign(self):
        sign, logabs = log_abs_det(np.diag([-2.0, 3.0]))
        assert sign == -1
        assert logabs == pytest.approx(np.log(6.0), abs=1e-12)

    def test_rank_one_is_singular(self):
        sign, logabs = log_abs_det(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sign == 0
        assert logabs == -np.inf

    def test_zero_matrix(self):
        assert log_abs_det(np.zeros((3, 3))) == (0, -np.inf)

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 6)
            a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            b = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            sa, la = log_abs_det(a)
            sb, lb = log_abs_det(b)
            sp, lp = log_abs_det(a @ b)
            assert sp == sa * sb
            assert lp == pytest.approx(la + lb, abs=1e-9)

    @staticmethod
    def lu_factor_reference(m):
        """The scipy.linalg.lu_factor route log_abs_det used to take."""
        m = np.asarray(m, dtype=float)
        row_norm = float(np.abs(m).sum(axis=1).max())
        if row_norm == 0.0:
            return 0, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
        pivots = np.diagonal(lu)
        if np.abs(pivots).min() <= SINGULAR_PIVOT_RTOL * row_norm:
            return 0, -np.inf
        sign = 1 if (piv != np.arange(len(piv))).sum() % 2 == 0 else -1
        sign *= 1 if (pivots < 0).sum() % 2 == 0 else -1
        return sign, float(np.log(np.abs(pivots)).sum())

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bit_identical_to_lu_factor(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(25):
            m = rng.standard_normal((k, k))
            before = m.copy()
            assert log_abs_det(m) == self.lu_factor_reference(m)
            # a Fortran-ordered input is copied too, never factored in place
            assert log_abs_det(m.T) == self.lu_factor_reference(m.T)
            np.testing.assert_array_equal(m, before)

    @pytest.mark.parametrize(
        "m",
        [np.eye(4), np.diag([-2.0, 3.0]), np.array([[1.0, 2.0], [2.0, 4.0]]),
         np.zeros((3, 3))],
        ids=["identity", "diagonal", "rank-deficient", "zero"],
    )
    def test_known_cases_bit_identical_to_lu_factor(self, m):
        assert log_abs_det(m) == self.lu_factor_reference(m)

    def test_matches_slogdet(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            sign, logabs = log_abs_det(m)
            s_ref, l_ref = np.linalg.slogdet(m)
            assert sign == int(s_ref)
            assert logabs == pytest.approx(l_ref, abs=1e-10)
