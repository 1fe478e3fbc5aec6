import numpy as np
import pytest

from eigenkit.core import frobenius_norm, subdiagonal_norm
from eigenkit.oracle import char_poly
from eigenkit.qr import (
    QRMethod,
    RankDeficiencyError,
    factorize,
    givens_qr,
    gram_schmidt_qr,
    householder_qr,
)

ALL_METHODS = list(QRMethod)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def check_factors(a, f, ortho_tol=None):
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    ortho_tol = ortho_tol if ortho_tol is not None else 1e-12 * n
    assert frobenius_norm(f.q @ f.r - a) <= 1e-12 * max(1.0, frobenius_norm(a))
    assert frobenius_norm(f.q.conj().T @ f.q - np.eye(n)) <= ortho_tol
    assert subdiagonal_norm(f.r) == 0.0
    d = np.diag(f.r)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real >= 0.0)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_identity(method):
    f = factorize(np.eye(4), method)
    assert np.allclose(f.q, np.eye(4), atol=1e-15)
    assert np.allclose(f.r, np.eye(4), atol=1e-15)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_exchange_matrix(method):
    # Unitary input with R = I under the nonnegative-diagonal convention.
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = factorize(x, method)
    assert np.allclose(f.q, x, atol=1e-15)
    assert np.allclose(f.r, np.eye(2), atol=1e-15)


def test_givens_upper_triangular_is_noop():
    a = np.array([[2.0, 5.0, 1.0], [0.0, 3.0, -1.0], [0.0, 0.0, 4.0]])
    f = givens_qr(a)
    assert np.allclose(f.q, np.eye(3), atol=1e-15)
    assert np.allclose(f.r, a, atol=1e-15)


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_random_complex_factorization(method, seed, n):
    a = random_complex(n, seed * 100 + n)
    tol = 1e-6 if method is QRMethod.GRAM_SCHMIDT_CLASSICAL else None
    check_factors(a, factorize(a, method), ortho_tol=tol)


@pytest.mark.parametrize(
    "kernel,a",
    [
        (householder_qr, [[-3e-320 + 2e-320j, 1], [1e-320, 2]]),
        (givens_qr, [[-1.5e301 + 1e301j, 1], [1, 2]]),
        (givens_qr, [[3e-320, 1], [2e-320, 1]]),
    ],
    ids=["denormal-phase", "huge-phase", "denormal-pair"],
)
def test_extreme_exponents(kernel, a):
    # Each input reaches one power-of-two rescale: a denormal or a huge
    # pivot phase in _unit_phase, or givens_qr's denormal-pair upscale. The
    # Frobenius norm would overflow at 1e301, so residuals are max-abs.
    a = np.array(a, dtype=np.complex128)
    f = kernel(a)
    assert np.abs(f.q @ f.r - a).max() <= 1e-15 * np.abs(a).max()
    assert np.abs(f.q.conj().T @ f.q - np.eye(2)).max() <= 1e-15
    d = np.diag(f.r)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real >= 0.0)


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(
            householder_qr,
            marks=pytest.mark.xfail(
                strict=True,
                reason="householder_qr squares entries unscaled, so a 2e-320 "
                "subdiagonal reads as zero and gets no reflector",
            ),
        ),
        givens_qr,
    ],
)
def test_denormal_column_keeps_its_norm(kernel):
    # Q is unitary, so |R[0, 0]| is the norm of A's first column; denormals
    # carry only a few digits, hence the loose tolerance.
    f = kernel([[3e-320, 1], [2e-320, 1]])
    assert abs(f.r[0, 0]) == pytest.approx(np.hypot(3e-320, 2e-320), rel=1e-3, abs=0.0)


def test_real_input_stays_valid():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    for method in ALL_METHODS:
        check_factors(a, factorize(a, method))


def test_householder_zero_subcolumn_no_reflector():
    # First column already reduced: no reflector should touch it.
    a = np.array([[3.0, 1.0], [0.0, 2.0]])
    f = householder_qr(a)
    assert np.allclose(f.q, np.eye(2), atol=1e-15)
    assert np.allclose(f.r, a, atol=1e-15)


def test_householder_zero_column_is_fine():
    a = np.array([[0.0, 1.0], [0.0, 2.0]])
    f = householder_qr(a)
    assert frobenius_norm(f.q @ f.r - a) <= 1e-14
    assert subdiagonal_norm(f.r) == 0.0


def test_methods_agree_on_r():
    # QR with real-nonnegative diag(R) is unique for nonsingular input.
    a = random_complex(5, 42)
    base = householder_qr(a)
    for method in ALL_METHODS:
        f = factorize(a, method)
        assert frobenius_norm(f.r - base.r) <= 1e-8 * frobenius_norm(a)
        assert frobenius_norm(f.q - base.q) <= 1e-8 * frobenius_norm(a)


def test_givens_matches_householder_tightly():
    a = random_complex(5, 7)
    fh = householder_qr(a)
    fg = givens_qr(a)
    assert frobenius_norm(fg.r - fh.r) <= 1e-10 * frobenius_norm(a)


def test_classical_loses_more_orthogonality_than_modified():
    # Hilbert matrix: ill-conditioned enough that the classical variant's
    # orthogonality residual dominates the modified one's.
    n = 6
    i = np.arange(n)
    hilbert = 1.0 / (i[:, None] + i[None, :] + 1.0)
    cgs = gram_schmidt_qr(hilbert, "classical")
    mgs = gram_schmidt_qr(hilbert, "modified")

    def ortho(f):
        return frobenius_norm(f.q.conj().T @ f.q - np.eye(n))

    assert ortho(cgs) > ortho(mgs)


@pytest.mark.parametrize("variant", ["classical", "modified"])
def test_gram_schmidt_rank_deficiency(variant):
    singular = np.ones((3, 3))
    with pytest.raises(RankDeficiencyError):
        gram_schmidt_qr(singular, variant)


def test_gram_schmidt_rejects_unknown_variant():
    with pytest.raises(ValueError):
        gram_schmidt_qr(np.eye(2), "bogus")


def test_householder_handles_singular_input():
    f = householder_qr(np.ones((3, 3)))
    assert frobenius_norm(f.q @ f.r - np.ones((3, 3))) <= 1e-14
    assert subdiagonal_norm(f.r) == 0.0


def test_determinant_consistency():
    # |det A| equals the product of diag(R) moduli; det from the
    # characteristic polynomial constant term, det(A) = (-1)^n c_0.
    for n in (2, 3, 4, 6):
        a = random_complex(n, n + 50)
        det = (-1) ** n * char_poly(a).coefficients[0]
        for method in ALL_METHODS:
            prod = float(np.prod(np.diag(factorize(a, method).r).real))
            assert abs(prod - abs(det)) <= 1e-8 * max(1.0, abs(det))


def test_factorize_rejects_unknown_method():
    with pytest.raises(ValueError):
        factorize(np.eye(2), "householder")
