import signal

import numpy as np
import pytest

from eigenkit.core import (
    as_matrix,
    balance,
    frobenius_norm,
    remove_row_col,
    require_square,
    subdiagonal_norm,
)
from eigenkit.oracle import eigenvalues_oracle, match_eigenvalues


def test_as_matrix_promotes_to_complex128():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_require_square():
    with pytest.raises(ValueError):
        require_square(np.zeros((2, 3)))


def test_frobenius_norm():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3))
    assert frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)
    # Unscaled, these squares overflow to inf and underflow to 0.
    assert frobenius_norm([[1e300, 1e300], [1e300, 1e300j]]) == pytest.approx(2e300, abs=0)
    assert frobenius_norm([[1e-300, 1e-300], [1e-300j, 1e-300]]) == pytest.approx(2e-300, abs=0)


def test_subdiagonal_norm():
    assert subdiagonal_norm(np.triu(np.ones((4, 4)))) == 0.0
    assert subdiagonal_norm([[1.0, 0.0], [3.0, 1.0]]) == pytest.approx(3.0)
    assert subdiagonal_norm(np.ones((3, 3))) == pytest.approx(np.sqrt(3))


def test_subdiagonal_bounded_by_frobenius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert subdiagonal_norm(a) <= frobenius_norm(a)


def test_remove_row_col():
    assert np.array_equal(remove_row_col(np.eye(3), 2), np.eye(2))
    assert np.array_equal(remove_row_col([[1.0, 2.0], [3.0, 4.0]], 0), [[4.0]])
    a = [[1.0, 2, 3], [4, 5.0, 6], [7, 8, 9.0]]
    assert np.array_equal(remove_row_col(a, 1), [[1.0, 3.0], [7.0, 9.0]])
    with pytest.raises(ValueError):
        remove_row_col([[1.0]], 0)
    with pytest.raises(IndexError):
        remove_row_col(np.eye(2), 5)


def test_remove_row_col_keeps_triangularity():
    r = np.triu(np.arange(16, dtype=float).reshape(4, 4) + 1)
    for j in range(4):
        assert subdiagonal_norm(remove_row_col(r, j)) == 0.0


class TestBalance:
    def test_diagonal_unchanged(self):
        d = np.diag([1.0, -3.0, 2.5])
        rec = balance(d)
        assert np.array_equal(rec.matrix, d)
        assert np.array_equal(rec.scale_factors, np.ones(3))

    def test_triangular_complex_needs_no_scaling(self):
        # Column 0 and row 2 have no off-diagonal entries. Their off-diagonal
        # mass must come out as exactly 0; a last-bit difference between the
        # summed and the subtracted |w| once gave factors of 5e30 and 6e14.
        w = -0.5442589828573099 - 0.31630015636915454j
        a = np.array([[w, 1, 2], [0, 2, 1], [0, 0, 3]])
        rec = balance(a)
        assert np.array_equal(rec.scale_factors, np.ones(3))
        assert np.array_equal(rec.matrix, a)

    def test_zero_matrix(self):
        rec = balance(np.zeros((3, 3)))
        assert np.array_equal(rec.matrix, np.zeros((3, 3)))
        assert np.array_equal(rec.scale_factors, np.ones(3))

    def test_graded_2x2(self):
        # D = diag(1, 2^-10) maps [[1, 2^10], [2^-10, 1]] to all-ones; the
        # scale vector is determined only up to a global factor.
        a = np.array([[1.0, 2.0**10], [2.0**-10, 1.0]])
        rec = balance(a)
        assert np.allclose(rec.matrix, np.ones((2, 2)))
        assert rec.scale_factors[1] / rec.scale_factors[0] == 2.0**-10

    def test_scales_are_powers_of_two(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6)) * np.logspace(-6, 6, 6)
        rec = balance(a)
        for s in rec.scale_factors:
            assert np.log2(s) == int(np.log2(s))

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a *= np.logspace(-4, 4, 8)[:, None]
        rec = balance(a)
        assert abs(np.trace(rec.matrix) - np.trace(a)) <= 1e-13 * abs(np.trace(a)) + 1e-300

    def test_is_similarity(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 5)) * np.logspace(-3, 3, 5)[None, :]
        rec = balance(a)
        d = np.diag(rec.scale_factors)
        assert np.allclose(np.linalg.inv(d) @ a @ d, rec.matrix, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((6, 6)) * np.logspace(-5, 5, 6)[:, None]
        once = balance(a).matrix
        again = balance(once)
        assert np.array_equal(again.matrix, once)
        assert np.array_equal(again.scale_factors, np.ones(6))

    def test_eigenvalues_preserved(self):
        # Similarity check through the independent polynomial route. The
        # scaling stays moderate: the root finder's absolute update
        # tolerance needs |lambda| well under ~1e3.
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 6)) * np.logspace(-2, 2, 6)[None, :]
        before = eigenvalues_oracle(a)
        after = eigenvalues_oracle(balance(a).matrix)
        assert match_eigenvalues(after, before) <= 1e-8

    def test_never_grows_offdiagonal_mass(self):
        # Every applied rescale shrinks its row+column 1-norm by >= 5% and
        # leaves other entries' contributions scaled the same way, so the
        # total off-diagonal absolute sum only goes down.
        rng = np.random.default_rng(29)
        a = rng.standard_normal((7, 7)) * np.logspace(-6, 6, 7)[:, None]
        m = balance(a).matrix

        def offdiag_abs_sum(x):
            return np.sum(np.abs(x)) - np.sum(np.abs(np.diag(x)))

        assert offdiag_abs_sum(m) <= offdiag_abs_sum(a) * (1 + 1e-12)

    @pytest.mark.parametrize(
        "a",
        [
            # A factor of 2^-1026 would balance this one; its reciprocal is inf.
            [[1e-310, 1e-310], [1e308, 1e-310]],
            # Scaling the diagonal by 1/f, then by f, overflows (0,0) to inf+nanj.
            [[1e300, 1e286], [1e305, 0.0]],
        ],
        ids=["reciprocal-overflow", "diagonal-overflow"],
    )
    def test_extreme_input_stays_finite(self, a):
        a = np.array(a, dtype=np.complex128)
        rec = balance(a)
        assert np.isfinite(rec.matrix).all()
        mantissas, _ = np.frexp(rec.scale_factors)
        assert np.all(mantissas == 0.5)
        assert np.isfinite(1.0 / rec.scale_factors).all()
        assert np.diagonal(rec.matrix).tobytes() == np.diagonal(a).tobytes()

    def test_extreme_sweep_terminates_finite(self):
        # Real matrices whose entries span the whole exponent range, with
        # exact zeros. A timer turns a hang into a failure, and the suite's
        # warning filter turns any RuntimeWarning into one too.
        def hang(signum, frame):
            raise TimeoutError("balance did not return")

        rng = np.random.default_rng(19)
        previous = signal.signal(signal.SIGALRM, hang)
        try:
            for _ in range(3000):
                n = int(rng.integers(2, 6))
                sign = rng.choice([-1.0, 1.0], (n, n))
                exponent = rng.integers(-330, 309, (n, n))
                a = sign * rng.uniform(1.0, 1.7, (n, n)) * np.power(10.0, exponent)
                a[rng.random((n, n)) < 0.3] = 0.0
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                rec = balance(a)
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                assert np.isfinite(rec.matrix).all(), a.tolist()
                assert np.isfinite(1.0 / rec.scale_factors).all(), a.tolist()
                assert np.diagonal(rec.matrix).tobytes() == np.diagonal(a.astype(np.complex128)).tobytes()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
