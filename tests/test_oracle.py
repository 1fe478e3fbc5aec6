import itertools

import numpy as np
import pytest

from eigenkit.core import frobenius_norm
from eigenkit.oracle import (
    ORACLE_MAX_DIM,
    PolySpec,
    RootConvergenceError,
    char_poly,
    eigenvalues_oracle,
    match_eigenvalues,
    poly_roots,
)


class TestCharPoly:
    def test_identity_2x2(self):
        # lambda^2 - 2 lambda + 1
        p = char_poly(np.eye(2))
        assert p.coefficients == (1.0 + 0j, -2.0 + 0j)

    def test_exchange_2x2(self):
        # lambda^2 - 1
        p = char_poly(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert p.coefficients == (-1.0 + 0j, 0.0 + 0j)

    def test_companion_matrix_roundtrip(self):
        # Companion of lambda^3 - 6 lambda^2 + 11 lambda - 6.
        c = np.array([[0.0, 0.0, 6.0], [1.0, 0.0, -11.0], [0.0, 1.0, 6.0]])
        p = char_poly(c)
        assert np.allclose(p.coefficients, (-6.0, 11.0, -6.0), atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            char_poly(np.eye(ORACLE_MAX_DIM + 1))

    def test_degree_matches_dimension(self):
        for n in (2, 5, 12):
            assert char_poly(np.eye(n)).degree == n

    def test_constant_term_is_signed_determinant(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        p = char_poly(a)
        det = np.linalg.det(a)
        assert (-1) ** 4 * p.coefficients[0] == pytest.approx(det, rel=1e-10)


class TestPolySpec:
    def test_horner_evaluation(self):
        p = PolySpec((-6.0 + 0j, 11.0 + 0j, -6.0 + 0j))
        for root in (1.0, 2.0, 3.0):
            assert abs(p(root)) <= 1e-12
        assert p(0.0) == -6.0 + 0j


class TestPolyRoots:
    def test_linear(self):
        assert poly_roots(PolySpec((-5.0 + 0j,))) == [5.0 + 0j]

    def test_quadratic_real(self):
        roots = poly_roots(PolySpec((-1.0 + 0j, 0j)))
        assert match_eigenvalues(roots, [1.0, -1.0]) <= 1e-12

    def test_quadratic_complex(self):
        roots = poly_roots(PolySpec((1.0 + 0j, 0j)))
        assert match_eigenvalues(roots, [1j, -1j]) <= 1e-12

    def test_cubic(self):
        roots = poly_roots(PolySpec((-6.0 + 0j, 11.0 + 0j, -6.0 + 0j)))
        assert match_eigenvalues(roots, [1.0, 2.0, 3.0]) <= 1e-10

    def test_repeated_roots_report_nonconvergence(self):
        # (lambda - 1)^3: near a triple root the update sizes stall at the
        # cluster's noise radius (~1e-5), far above the absolute update
        # tolerance, so the honest outcome is the documented error.
        from eigenkit.oracle import RootConvergenceError

        with pytest.raises(RootConvergenceError):
            poly_roots(PolySpec((-1.0 + 0j, 3.0 + 0j, -3.0 + 0j)))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(PolySpec(()))


class TestOracle:
    def test_triangular_matches_diagonal(self):
        # Random strict upper part, diagonal spread over the complex plane.
        # (Many real roots crowded on a line stall the update criterion at
        # the evaluation-noise floor -- e.g. 8 equispaced reals bottom out
        # near 2e-11 -- so the diagonal here is complex, where pairwise
        # distance products stay comfortable.)
        rng = np.random.default_rng(2)
        for n in (2, 4, 8):
            diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = np.triu(rng.standard_normal((n, n)), 1) + np.diag(diag)
            vals = eigenvalues_oracle(a)
            assert match_eigenvalues(vals, diag) <= 1e-9

    def test_root_sum_is_trace(self):
        rng = np.random.default_rng(3)
        for n in (3, 6, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            vals = eigenvalues_oracle(a)
            assert abs(sum(vals) - np.trace(a)) <= 1e-9 * (1 + frobenius_norm(a)) * n

    def test_root_product_is_constant_term(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        p = char_poly(a)
        vals = poly_roots(p)
        prod = np.prod(vals)
        assert abs(prod - (-1) ** 5 * p.coefficients[0]) <= 1e-9 * (1 + abs(prod))


class TestMatchEigenvalues:
    def test_identical(self):
        assert match_eigenvalues([1.0, 2.0, 3j], [1.0, 2.0, 3j]) == 0.0

    def test_forced_pairing(self):
        assert match_eigenvalues([1.0, 2.0], [2.0000001, 1.0]) == pytest.approx(1e-7)

    def test_order_independent(self):
        assert match_eigenvalues([1j, -1j, 1.0], [1.0, -1j, 1j]) == 0.0

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            match_eigenvalues([1.0], [1.0, 2.0])

    def test_empty_sets(self):
        assert match_eigenvalues([], []) == 0.0

    def test_twelve_values_reversed(self):
        vals = [complex(k, -k) for k in range(12)]
        shuffled = list(reversed(vals))
        assert match_eigenvalues(vals, shuffled) <= 1e-12

    def test_exact_beats_naive_pairing(self):
        # Sorting by real part alone would mispair these; the assignment
        # search must find the zero-distance matching.
        left = [0.0 + 1j, 0.0 - 1j]
        right = [0.0 - 1j, 0.0 + 1j]
        assert match_eigenvalues(left, right) == 0.0

    def test_exact_above_eight_values(self):
        # Pairing 0 with 0.6 and 1 with -1 costs 2; the optimum pairs 0 with
        # -1 and 1 with 0.6, so the bottleneck is 1.
        far = [10 + 10j * k for k in range(7)]
        assert match_eigenvalues([0, 1] + far, [0.6, -1] + far) == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_brute_force(self, n):
        rng = np.random.default_rng(n)
        for trial in range(20):
            left = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 2:
                right = left[rng.permutation(n)] + 0.3 * rng.standard_normal(n)
            else:
                right = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dist = np.abs(np.subtract.outer(left, right))
            best = min(
                max(dist[i, j] for i, j in enumerate(perm))
                for perm in itertools.permutations(range(n))
            )
            assert match_eigenvalues(left, right) == best


# Each has representable eigenvalues that `eig` finds, but the unscaled powers
# of A in the trace recurrence overflow.
OVERFLOWING = [
    [[0.0, 1e308], [1.0, 0.0]],
    [[-1.0, -1.7e308], [3 + 4j, 0.0]],
    [[1e300, 1e286], [1e305, 0.0]],
]


@pytest.mark.parametrize("a", OVERFLOWING, ids=["huge-ratio", "huge-complex", "huge-graded"])
def test_char_poly_overflow_is_loud(a):
    # pytest turns a RuntimeWarning into an error, so this also shows the
    # recurrence no longer warns on the way.
    with pytest.raises(RootConvergenceError, match="not finite"):
        char_poly(np.array(a))


def test_poly_roots_with_non_finite_roots_is_loud():
    # Finite coefficients whose iteration overflows: every step is nan, which
    # a plain "step < tol" test would take for convergence.
    with pytest.raises(RootConvergenceError, match="not finite"):
        poly_roots(PolySpec((5e199 + 0j, -1e200 + 0j)))
