"""Property tests: the enhanced solver's spectrum is invariant under
permutation and unitary similarity, and scales with the input; the norms and
the 2x2 shift solve scale exactly by powers of two; both drivers' report
counters agree with their trace.

Matrices are drawn from ``numpy.random.default_rng(seed)``; Hypothesis picks
the seed, the dimension (2..8; 1..8 for the counters) and whether the matrix
is complex. Each invariance check requires both solves to converge and the
two spectra to agree within 1e-9 * ||A||_F under the best pairing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenkit import (
    SolverConfig,
    baseline_qr,
    eigenvalues_2x2,
    enhanced_shifted_qr,
    frobenius_norm,
    match_eigenvalues,
    subdiagonal_norm,
)

TOL = 1e-9

_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_dims = st.integers(min_value=2, max_value=8)


def _matrix(rng, n, complex_):
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a


def _spectrum(a):
    report = enhanced_shifted_qr(a)
    assert report.converged
    return np.array(report.eigenvalues)


@_settings
@given(seed=_seeds, n=_dims, complex_=st.booleans())
def test_permutation_similarity(seed, n, complex_):
    rng = np.random.default_rng(seed)
    a = _matrix(rng, n, complex_)
    p = rng.permutation(n)
    permuted = a[p][:, p]  # P A P^T
    assert match_eigenvalues(_spectrum(permuted), _spectrum(a)) <= TOL * frobenius_norm(a)


@_settings
@given(seed=_seeds, n=_dims, complex_=st.booleans())
def test_unitary_similarity(seed, n, complex_):
    rng = np.random.default_rng(seed)
    a = _matrix(rng, n, complex_)
    q, _ = np.linalg.qr(_matrix(rng, n, True))
    rotated = q.conj().T @ a @ q
    assert match_eigenvalues(_spectrum(rotated), _spectrum(a)) <= TOL * frobenius_norm(a)


@_settings
@given(seed=_seeds, n=_dims, complex_=st.booleans(), k=st.integers(min_value=-8, max_value=8))
def test_power_of_two_scaling(seed, n, complex_, k):
    a = _matrix(np.random.default_rng(seed), n, complex_)
    scaled_back = _spectrum(2.0**k * a) / 2.0**k
    assert match_eigenvalues(scaled_back, _spectrum(a)) <= TOL * frobenius_norm(a)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_magnitudes_scale_exactly_by_powers_of_two(k):
    # Every norm and the 2x2 shift solve are taken on scaled parts, so a
    # power-of-two scale far outside the squares' range passes through them
    # exactly, with no over- or underflow on the way.
    rng = np.random.default_rng(7)
    s = 2.0**k
    for _ in range(300):
        a = _matrix(rng, 5, True)
        assert frobenius_norm(s * a) == s * frobenius_norm(a)
        assert subdiagonal_norm(s * a) == s * subdiagonal_norm(a)
        assert eigenvalues_2x2(s * a[-2:, -2:]) == tuple(s * z for z in eigenvalues_2x2(a[-2:, -2:]))


@_settings
@given(
    seed=_seeds,
    n=st.integers(min_value=1, max_value=8),
    complex_=st.booleans(),
    driver=st.sampled_from([enhanced_shifted_qr, baseline_qr]),
    k_max=st.sampled_from([2, 1000]),
)
def test_report_counters_follow_the_trace(seed, n, complex_, driver, k_max):
    a = _matrix(np.random.default_rng(seed), n, complex_)
    report = driver(a, SolverConfig(k_max=k_max))
    trace = report.trace
    assert report.iterations == len(trace)
    assert report.deflations == sum(r.deflated for r in trace)
    assert report.qr_steps == sum(not r.deflated and r.dimension > 1 for r in trace)
    assert len(report.eigenvalues) == n


@pytest.mark.xfail(
    strict=True,
    reason="eps and deflation_tol are absolute, so a tiny matrix is reported "
    "converged before any eigenvalue is accurate",
)
def test_tiny_scale_converged_means_accurate():
    rng = np.random.default_rng(0)
    for _ in range(3):
        a = 1e-12 * rng.standard_normal((20, 20))
        reference = np.linalg.eigvals(a)
        report = enhanced_shifted_qr(a)
        if report.converged:
            error = match_eigenvalues(report.eigenvalues, reference)
            assert error <= 1e-8 * np.abs(reference).max()
