import numpy as np
import pytest

from eigenkit.core import frobenius_norm, subdiagonal_norm
from eigenkit.oracle import char_poly, match_eigenvalues
from eigenkit.qr import (
    QRMethod,
    RankDeficiencyError,
    _normalize_phases,
    factorize,
    givens_qr,
    gram_schmidt_qr,
    hessenberg,
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
    # No subdiagonal nonzero and a positive diagonal: no rotation, no phase.
    a = np.array([[2.0, 5.0, 1.0], [0.0, 3.0, -1.0], [0.0, 0.0, 4.0]])
    f = givens_qr(a)
    assert np.array_equal(f.q, np.eye(3))
    assert np.array_equal(f.r, a)


def test_givens_phase_fold_at_the_extremes():
    # One diagonal takes every branch of the vectorized phase guard: a
    # negative real, a denormal, a huge entry, an exact zero and a positive
    # real. The input is triangular, so Q is the phase matrix alone.
    d = np.array([-2.0, 3e-320j, -1.5e301 + 1e301j, 0.0, 5.0])
    a = np.triu(np.ones((5, 5), dtype=np.complex128), 1) + np.diag(d)
    f = givens_qr(a)
    r_diag = np.diag(f.r)
    assert np.all(r_diag.imag == 0.0)
    assert np.all(r_diag.real >= 0.0)
    assert np.array_equal(f.q, np.diag(np.diag(f.q)))
    assert np.abs(f.q.conj().T @ f.q - np.eye(5)).max() <= 1e-15
    assert np.abs(f.q @ f.r - a).max() <= 1e-15 * np.abs(a).max()


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
        (lambda a: gram_schmidt_qr(a, "classical"), [[1.5e301, 1e301], [1e301, -1.5e301]]),
        (lambda a: gram_schmidt_qr(a, "modified"), [[1.5e301, 1e301], [1e301, -1.5e301]]),
    ],
    ids=["denormal-phase", "huge-phase", "denormal-pair", "huge-column-cgs", "huge-column-mgs"],
)
def test_extreme_exponents(kernel, a):
    # Each input reaches one power-of-two rescale: a denormal or a huge
    # pivot phase in _unit_phase, givens_qr's denormal-pair upscale, or the
    # scaled Gram-Schmidt column norm (unscaled, it overflows to inf and
    # gives Q = 0). Residuals are max-abs.
    a = np.array(a, dtype=np.complex128)
    f = kernel(a)
    assert np.abs(f.q @ f.r - a).max() <= 1e-15 * np.abs(a).max()
    assert np.abs(f.q.conj().T @ f.q - np.eye(2)).max() <= 1e-15
    d = np.diag(f.r)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real >= 0.0)


@pytest.mark.parametrize("kernel", [householder_qr, givens_qr])
def test_denormal_column_keeps_its_norm(kernel):
    # Q is unitary, so |R[0, 0]| is the norm of A's first column; denormals
    # carry only a few digits, hence the loose tolerance. Squared unscaled,
    # the 2e-320 subdiagonal would read as zero and get no reflector.
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_hessenberg_is_a_unitary_similarity(n, seed):
    a = random_complex(n, seed + 10 * n)
    h = hessenberg(a)
    assert np.all(np.tril(h, -2) == 0.0)
    norm_a = frobenius_norm(a)
    assert abs(frobenius_norm(h) - norm_a) <= 1e-14 * norm_a
    assert match_eigenvalues(np.linalg.eigvals(h), np.linalg.eigvals(a)) <= 1e-12 * norm_a


@pytest.mark.parametrize(
    "a",
    [
        np.diag([3.0, -1.0 + 2.0j, 0.5]),
        np.triu(random_complex(5, 3)),
        np.triu(random_complex(6, 4), -1),
    ],
    ids=["diagonal", "triangular", "hessenberg"],
)
def test_hessenberg_leaves_reduced_input_alone(a):
    h = hessenberg(a)
    assert h is not a
    assert h.tobytes() == np.asarray(a, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("k", [-500, 500])
def test_hessenberg_commutes_with_power_of_two_scaling(k):
    # The reflectors are built from a rescaled column, so they do not
    # depend on the scale, and the reduction is linear in it.
    a = random_complex(7, 5)
    assert np.array_equal(hessenberg(2.0**k * a), 2.0**k * hessenberg(a))


def test_phase_fold_matches_scalar_loop():
    # The vectorized fold does the scalar loop's arithmetic entry by entry,
    # so the results are equal, not merely close.
    rng = np.random.default_rng(11)
    n = 8
    r = np.triu(random_complex(n, 12))
    r[np.diag_indices(n)] = [-2.0, 3.0, 0.0, 1e-320 - 2e-320j, -4e305j, 2.0 + 1e-17j, -0.5, 7.0]
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q_ref, r_ref = q.copy(), r.copy()
    for j in range(n):
        z = complex(r_ref[j, j])
        if z.imag == 0.0 and z.real >= 0.0:
            continue
        big = max(abs(z.real), abs(z.imag))
        if big < np.finfo(np.float64).tiny:
            z *= 2.0 ** 600
        elif big > 2.0 ** 1000:
            z *= 2.0 ** -600
        phase = z / abs(z)
        r_ref[j, j] = abs(r_ref[j, j])
        r_ref[j, j + 1:] *= phase.conjugate()
        q_ref[:, j] *= phase
    _normalize_phases(q, r)
    assert np.array_equal(q, q_ref)
    assert np.array_equal(r, r_ref)


@pytest.mark.parametrize("n", [6, 9])
def test_givens_fold_matches_normalize_phases(n):
    # Triangular input takes no rotation, so givens_qr folds every pivot off
    # the nonnegative real axis as it goes; that fold is _normalize_phases's.
    a = np.triu(random_complex(n, 40 + n))
    a[np.diag_indices(n)] = np.resize([-2.0, 1e-320 - 2e-320j, -4e305j, 0.0, 2.0 + 1e-17j, 7.0], n)
    q, r = np.eye(n, dtype=np.complex128), a.copy()
    _normalize_phases(q, r)
    f = givens_qr(a)
    assert np.array_equal(f.r, r)
    assert np.array_equal(f.q, q)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_givens_pivots_come_out_real_and_positive(n):
    # Every pivot of an unreduced Hessenberg input but the last is made by a
    # rotation, which stores it real; the last is folded. None may keep an
    # imaginary part from rounding.
    a = np.triu(random_complex(n, 60 + n), -1)
    assert np.all(np.diagonal(a, -1) != 0.0)
    f = givens_qr(a)
    check_factors(a, f)
    d = np.diagonal(f.r)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real > 0.0)


def _structured(kind, n, seed):
    a = random_complex(n, seed)
    if kind == "split-hessenberg":
        a = np.triu(a, -1)
        a[n // 2, n // 2 - 1] = 0.0
    elif kind == "far-entry":
        # The rotation of rows 0 and n-1 fills row n-1 in every later
        # column, which input column 1 onwards does not show.
        a = np.triu(a)
        a[n - 1, 0] = 1.0 - 2.0j
    elif kind == "arrow":
        a = np.diag(np.diag(a))
        a[0, :] = a[:, 0] = random_complex(n, seed + 1)[0]
    elif kind == "lower-band-2":
        a = np.tril(np.triu(a, -2))
    else:
        pattern = np.random.default_rng(seed).random((n, n)) < 0.3
        a = np.where(pattern | np.eye(n, dtype=bool), a, 0.0)
    return a


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 5, 9])
@pytest.mark.parametrize("kind", ["split-hessenberg", "far-entry", "arrow", "lower-band-2", "sparse"])
def test_givens_structured_input(kind, n, seed):
    # givens_qr rotates only inside its fill envelope; every structure must
    # still come out exactly triangular and agree with Householder.
    a = _structured(kind, n, 30 * seed + n)
    f = givens_qr(a)
    norm_a = frobenius_norm(a)
    assert frobenius_norm(f.q @ f.r - a) <= 1e-14 * norm_a
    assert frobenius_norm(f.q.conj().T @ f.q - np.eye(n)) <= 1e-14 * n
    assert np.all(np.tril(f.r, -1) == 0.0)
    d = np.diag(f.r)
    assert np.all(d.imag == 0.0)
    assert np.all(d.real >= 0.0)
    h = householder_qr(a)
    assert frobenius_norm(f.r - h.r) <= 1e-10 * norm_a
    assert frobenius_norm(f.q - h.q) <= 1e-10


def test_givens_on_hessenberg_gives_hessenberg_q():
    a = hessenberg(random_complex(9, 8))
    f = givens_qr(a)
    check_factors(a, f)
    assert np.all(np.tril(f.q, -2) == 0.0)
