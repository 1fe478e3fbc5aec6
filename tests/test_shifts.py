import cmath

import numpy as np
import pytest

from eigenkit.core import _exponent, frobenius_norm
from eigenkit.shifts import eigenvalues_2x2, rayleigh_shift, wilkinson_shift


def test_eigenvalues_2x2_diagonal():
    lam = eigenvalues_2x2(np.diag([2.0, 5.0]))
    assert sorted((z.real for z in lam)) == [2.0, 5.0]


def test_eigenvalues_2x2_complex_pair():
    lam = eigenvalues_2x2(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert sorted(lam, key=lambda z: z.imag) == [-1j, 1j]


def test_eigenvalues_2x2_satisfy_char_poly():
    rng = np.random.default_rng(4)
    for _ in range(50):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tr = complex(np.trace(b))
        det = complex(np.linalg.det(b))
        for lam in eigenvalues_2x2(b):
            assert abs(lam * lam - tr * lam + det) <= 1e-12 * (1 + frobenius_norm(b) ** 2)


def test_eigenvalues_2x2_nilpotent():
    assert eigenvalues_2x2(np.array([[0.0, 1.0], [0.0, 0.0]])) == (0j, 0j)


def test_eigenvalues_2x2_requires_2x2():
    with pytest.raises(ValueError):
        eigenvalues_2x2(np.eye(3))


class TestWilkinsonShift:
    def test_diagonal_picks_closer(self):
        assert wilkinson_shift(np.diag([2.0, 5.0])) == 5.0 + 0j

    def test_symmetric_tie_break(self):
        # Eigenvalues {1, 3}, both at distance 1 from a_m = 2; the closed
        # form with sign(0) := +1 gives 2 - 1/(0 + 1) = 1.
        assert wilkinson_shift(np.array([[2.0, 1.0], [1.0, 2.0]])) == 1.0 + 0j

    def test_asymmetric_real(self):
        # Roots of lambda^2 - 3 lambda - 2; the one closer to a_m = 0.
        mu = wilkinson_shift(np.array([[3.0, 1.0], [2.0, 0.0]]))
        assert mu == pytest.approx((3.0 - np.sqrt(17.0)) / 2.0)

    def test_rotation_tie_break(self):
        # Eigenvalues +-i, equidistant from a_m = 0; equal real parts, so
        # the smaller imaginary part wins.
        assert wilkinson_shift(np.array([[0.0, -1.0], [1.0, 0.0]])) == -1j

    def test_shift_is_exact_eigenvalue(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mu = wilkinson_shift(b)
            tr = complex(np.trace(b))
            det = complex(np.linalg.det(b))
            assert abs(mu * mu - tr * mu + det) <= 1e-12 * (1 + frobenius_norm(b) ** 2)

    def test_huge_distance_is_inf_not_overflow_error(self):
        # Both roots are finite, but 1.5e308j is 2.1e308 from the corner
        # entry; abs() of that finite complex raises OverflowError.
        assert wilkinson_shift(np.array([[1.5e308j, 0.0], [1.0, -1.5e308]])) == -1.5e308

    def test_closer_than_other_root(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lam1, lam2 = eigenvalues_2x2(b)
            mu = wilkinson_shift(b)
            a_m = complex(b[1, 1])
            other = lam2 if mu == lam1 else lam1
            assert abs(mu - a_m) <= abs(other - a_m)

    def test_matches_closed_form_on_symmetric_blocks(self):
        # For Hermitian-looking real blocks [[a, b], [b, c]] the selected
        # root equals a_m - sign(d) b^2 / (|d| + sqrt(d^2 + b^2)) with
        # d = (a - c)/2 and sign(0) := +1.
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = rng.standard_normal(3)
            block = np.array([[a, b], [b, c]])
            d = (a - c) / 2.0
            sign = 1.0 if d == 0.0 else np.sign(d)
            closed = c - sign * b * b / (abs(d) + cmath.sqrt(d * d + b * b))
            assert wilkinson_shift(block) == pytest.approx(closed)


def test_rayleigh_shift():
    assert rayleigh_shift(np.eye(3)) == 1.0 + 0j
    assert rayleigh_shift(np.array([[1.0, 2.0], [3.0, 4.0]])) == 4.0 + 0j
    assert rayleigh_shift(np.diag([7.0, -2j])) == -2j


def _eigenvalues_2x2_by_arrays(b):
    # The earlier array form of the 2x2 solve: e by core._exponent and the
    # scaled parts by np.ldexp.
    m = np.asarray(b, dtype=np.complex128)
    e = _exponent(m)
    parts = np.ldexp(np.ravel(m).view(np.float64), -e)
    a_prev, b_super, b_sub, a_last = parts.view(np.complex128).tolist()
    half_tr = (a_prev + a_last) / 2.0
    det = a_prev * a_last - b_super * b_sub
    disc = cmath.sqrt(half_tr * half_tr - det)
    big = half_tr + disc if abs(half_tr + disc) >= abs(half_tr - disc) else half_tr - disc
    if big == 0.0:
        return 0.0j, 0.0j
    up, rest = 2.0 ** (e // 2), 2.0 ** (e - e // 2)
    return big * up * rest, det / big * up * rest


def _blocks_for_bitwise_check():
    rng = np.random.default_rng(21)
    for _ in range(200):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        yield b * np.ldexp(1.0, rng.integers(-1000, 1000, (2, 2)))  # mixed exponents
        yield b
    yield np.array([[3e-320, 1e-310j], [-5e-324, 2e-318 - 4e-321j]])  # subnormal
    yield np.array([[1.7e308, -1.7e308], [-1.7e308j, 1.7e308]])
    yield np.array([[-1.7e308, 1.7e308j], [1.0, -1.7e308]])
    yield np.zeros((2, 2))
    yield np.array([[1e300, 1e-300], [1e-300j, -1e300]])
    yield np.array([[0.0, 1e308], [1e-308, 0.0]])


def test_eigenvalues_2x2_matches_the_array_form_bit_for_bit():
    # The scalar math.frexp / math.ldexp path takes the same e and the same
    # scaled parts as np.ldexp on the array, so the roots agree in every bit.
    for b in _blocks_for_bitwise_check():
        got = np.array(eigenvalues_2x2(b), dtype=np.complex128)
        want = np.array(_eigenvalues_2x2_by_arrays(b), dtype=np.complex128)
        assert got.tobytes() == want.tobytes(), b
