import dataclasses

import numpy as np
import pytest

from eigenkit.core import frobenius_norm, subdiagonal_norm
from eigenkit.engine import (
    DeflationMode,
    NumericalBreakdownError,
    SolverConfig,
    baseline_qr,
    deflation_sweep,
    enhanced_shifted_qr,
    qr_step,
)
from eigenkit.oracle import eigenvalues_oracle, match_eigenvalues
from eigenkit.qr import hessenberg
from eigenkit.shifts import ShiftStrategy


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.k_max == 1000
        assert cfg.eps == 1e-10
        assert cfg.deflation_tol == 1e-12
        assert cfg.shift is ShiftStrategy.WILKINSON
        assert cfg.deflation_mode is DeflationMode.TRAILING_ONLY
        assert cfg.do_balance is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_max": 0},
            {"eps": 0.0},
            {"eps": -1e-3},
            {"deflation_tol": 0.0},
            {"deflation_tol": 1e-8, "eps": 1e-10},
            {"eps": np.inf},
            {"eps": np.inf, "deflation_tol": np.inf},
            {"shift": "wilkinson"},
            {"deflation_mode": "paper"},
            {"do_balance": False, "deflation_mode": "paper"},
            {"do_balance": "no"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestQrStep:
    def test_positive_diagonal_fixed_point(self):
        a = np.diag([3.0, 1.0, 2.0])
        assert np.allclose(qr_step(a, 0.0), a, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        out = qr_step(a, 0.0)
        assert abs(np.trace(out) - np.trace(a)) <= 1e-12 * frobenius_norm(a)

    def test_is_similarity(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((4, 4))
        before = eigenvalues_oracle(a)
        after = eigenvalues_oracle(qr_step(a, 0.7 + 0.2j))
        assert match_eigenvalues(after, before) <= 1e-9

    def test_wilkinson_step_makes_progress(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = qr_step(a, 1.0)
        assert abs(out[1, 0]) < 1.0

    def test_hessenberg_input_stays_hessenberg(self):
        rng = np.random.default_rng(26)
        out = hessenberg(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        for mu in (0.0, 0.3 - 1.1j, out[-1, -1]):
            out = qr_step(out, mu)
            assert np.all(np.tril(out, -2) == 0.0)


class TestDeflationSweep:
    def test_near_triangular_extracts_trailing(self):
        # Near-triangular matrix with row-2 left entries ~1.2e-12: the
        # trailing diagonal entry pops out and the leading 2x2 remains.
        a = np.array(
            [
                [4.0, 0.5, 0.25],
                [0.0, 5.0, 0.125],
                [1.2e-12, 1.2e-12, 6.0],
            ]
        )
        reduced, extracted = deflation_sweep(a, 1e-10, DeflationMode.PAPER)
        assert extracted == [6.0 + 0j]
        assert reduced.shape == (2, 2)
        assert np.array_equal(reduced, a[:2, :2])

    def test_dense_matrix_untouched(self):
        a = np.ones((3, 3)) + np.eye(3)
        reduced, extracted = deflation_sweep(a, 1e-12, DeflationMode.PAPER)
        assert extracted == []
        assert np.array_equal(reduced, a)

    def test_diagonal_extracts_last_first(self):
        reduced, extracted = deflation_sweep(np.diag([1.0, 2.0, 3.0]), 1e-12, DeflationMode.PAPER)
        assert extracted == [3.0 + 0j]
        assert np.array_equal(reduced, np.diag([1.0, 2.0]))

    def test_one_extraction_per_sweep(self):
        _, extracted = deflation_sweep(np.eye(5), 1e-12, DeflationMode.PAPER)
        assert len(extracted) == 1

    def test_trailing_only_skips_interior(self):
        # Row 1 is deflatable but row 2 is not: TrailingOnly must not fire.
        a = np.array(
            [
                [1.0, 2.0, 3.0],
                [1e-15, 4.0, 5.0],
                [6.0, 7.0, 8.0],
            ]
        )
        reduced, extracted = deflation_sweep(a, 1e-12, DeflationMode.TRAILING_ONLY)
        assert extracted == []
        assert reduced.shape == (3, 3)
        _, extracted = deflation_sweep(a, 1e-12, DeflationMode.PAPER)
        assert extracted == [4.0 + 0j]

    def test_1x1_passthrough(self):
        reduced, extracted = deflation_sweep(np.array([[7.0]]), 1e-12, DeflationMode.PAPER)
        assert extracted == []
        assert reduced.shape == (1, 1)


class TestEnhancedShiftedQr:
    def test_diagonal_is_pure_deflation(self):
        report = enhanced_shifted_qr(np.diag([1.0, 2.0, 3.0]))
        assert sorted(z.real for z in report.eigenvalues) == [1.0, 2.0, 3.0]
        assert report.qr_steps == 0
        assert report.deflations == 2
        assert report.iterations == 3
        assert report.converged

    def test_symmetric_2x2(self):
        report = enhanced_shifted_qr(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert report.converged
        got = sorted(z.real for z in report.eigenvalues)
        assert got == pytest.approx([1.0, 3.0], abs=1e-10)

    def test_complex_pair_from_real_matrix(self):
        a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = enhanced_shifted_qr(a)
        assert report.converged
        assert match_eigenvalues(report.eigenvalues, [1j, -1j, 1.0]) <= 1e-8

    def test_seeded_7x7_matches_oracle(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((7, 7))
        report = enhanced_shifted_qr(a)
        assert report.converged
        assert report.iterations <= 50
        assert match_eigenvalues(report.eigenvalues, eigenvalues_oracle(a)) <= 1e-6

    def test_eigenvalue_count_on_convergence(self):
        rng = np.random.default_rng(21)
        for n in (2, 4, 6):
            a = rng.standard_normal((n, n))
            report = enhanced_shifted_qr(a)
            assert report.converged
            assert len(report.eigenvalues) == n
            assert report.deflations <= n - 1

    def test_trace_records_are_wellformed(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((6, 6))
        report = enhanced_shifted_qr(a)
        iters = [rec.iteration for rec in report.trace]
        dims = [rec.dimension for rec in report.trace]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)
        for prev, cur, rec in zip(dims, dims[1:], report.trace[1:]):
            assert cur <= prev
            if rec.deflated:
                assert cur == prev - 1

    def test_unconverged_still_reports_n_values(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((5, 5))
        report = enhanced_shifted_qr(a, SolverConfig(k_max=2))
        assert not report.converged
        assert len(report.eigenvalues) == 5
        assert report.iterations == 2

    def test_deterministic(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((6, 6))
        r1 = enhanced_shifted_qr(a)
        r2 = enhanced_shifted_qr(a)
        assert r1 == r2

    @pytest.mark.parametrize(
        "a,message",
        [
            ([[1e200, 1e200], [1e200, -1e200]], "non-finite shift at iteration 1"),
            ([[1e308, 1e308], [1e308, 1e308]], "non-finite shift at iteration 1"),
            (
                [[1, 1e308, 0], [1e308, 1, 0], [1e308, 0, 1]],
                "non-finite iterate at iteration 1",
            ),
            # The reduced iterate is finite; the step's first rotation overflows.
            (
                [[1e308, 1.7e308, 0], [1e308, 1.7e308, 0], [0, 1, 1]],
                "non-finite iterate at iteration 1",
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_breakdown_names_iteration(self, a, message):
        # Overflow the iterate quickly: enormous entries square up each step.
        with pytest.raises(NumericalBreakdownError, match=message):
            enhanced_shifted_qr(np.array(a), SolverConfig(do_balance=False))

    def test_balance_flag_off_matches_manual(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal((5, 5)) * np.logspace(-2, 2, 5)[:, None]
        default = enhanced_shifted_qr(a)
        unbalanced = enhanced_shifted_qr(a, SolverConfig(do_balance=False))
        # Same spectrum either way; the runs themselves may differ.
        assert match_eigenvalues(default.eigenvalues, unbalanced.eigenvalues) <= 1e-7


class TestBaselineQr:
    def test_1x1_zero_iterations(self):
        report = baseline_qr(np.array([[5.0]]))
        assert report.eigenvalues == [5.0 + 0j]
        assert report.iterations == 0
        assert report.converged

    def test_upper_triangular_zero_iterations(self):
        report = baseline_qr(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert report.iterations == 0
        assert report.converged

    def test_noshift_on_symmetric_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        plain = baseline_qr(a, SolverConfig(shift=ShiftStrategy.NO_SHIFT))
        enhanced = enhanced_shifted_qr(a)
        assert plain.converged
        assert sorted(z.real for z in plain.eigenvalues) == pytest.approx([1.0, 3.0], abs=1e-8)
        assert plain.iterations > enhanced.iterations

    def test_noshift_cannot_split_complex_pair(self):
        # Real unshifted iteration keeps the iterate real; a complex
        # conjugate pair never converges, the cap is hit.
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        report = baseline_qr(a, SolverConfig(shift=ShiftStrategy.NO_SHIFT, k_max=200))
        assert not report.converged
        assert report.iterations == 200

    def test_no_deflations_ever(self):
        rng = np.random.default_rng(81)
        a = rng.standard_normal((4, 4))
        report = baseline_qr(a, SolverConfig(shift=ShiftStrategy.WILKINSON))
        assert report.deflations == 0

    def test_balance_honored_when_forced(self):
        a = np.array([[1.0, 2.0**12], [2.0**-12, 1.0]])
        forced = baseline_qr(a, SolverConfig(do_balance=True))
        assert forced.converged
        assert match_eigenvalues(forced.eigenvalues, eigenvalues_oracle(a)) <= 1e-8

    @pytest.mark.parametrize("shift", list(ShiftStrategy))
    def test_deflation_mode_is_ignored(self, shift):
        # A baseline never deflates, so the mode must not change its iterate.
        a = np.random.default_rng(82).standard_normal((6, 6))
        reports = [
            baseline_qr(a, SolverConfig(shift=shift, deflation_mode=mode, k_max=50))
            for mode in DeflationMode
        ]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("n", [2, 6, 20])
    @pytest.mark.parametrize("shift", list(ShiftStrategy))
    def test_trace_norm_is_that_of_the_iterate(self, shift, n):
        # The driver reads its norm off the Hessenberg iterate's subdiagonal.
        # Replaying the recorded steps, the whole strictly lower triangle
        # must give the same norm, up to the order of summation.
        rng = np.random.default_rng(90 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = baseline_qr(a, SolverConfig(shift=shift, k_max=5))
        assert report.trace
        work = hessenberg(a)
        for record in report.trace:
            work = qr_step(work, record.shift)
            expected = subdiagonal_norm(work)
            assert abs(record.subdiag_norm - expected) <= 4 * np.spacing(expected)


def test_default_mode_does_not_extract_an_interior_row():
    # PAPER mode extracts 5 here (row 1 has a zero left part), which is not
    # an eigenvalue; the default must not.
    a = np.array([[1.0, 2.0, 3.0], [0.0, 5.0, 1.0], [4.0, 7.0, 2.0]])
    report = enhanced_shifted_qr(a, SolverConfig(do_balance=False))
    assert report.converged
    assert match_eigenvalues(report.eigenvalues, eigenvalues_oracle(a)) <= 1e-8


@pytest.mark.parametrize("solve", [enhanced_shifted_qr, baseline_qr])
def test_k_max_boundary(solve):
    a = np.random.default_rng(111).standard_normal((5, 5))
    steps = solve(a).iterations
    assert steps >= 2
    at_cap = solve(a, SolverConfig(k_max=steps))
    assert at_cap.converged
    assert at_cap.iterations == steps
    short = solve(a, SolverConfig(k_max=steps - 1))
    assert not short.converged
    assert short.iterations == steps - 1


def test_modes_share_result_on_generic_input():
    rng = np.random.default_rng(91)
    a = rng.standard_normal((5, 5))
    paper = enhanced_shifted_qr(a, SolverConfig(deflation_mode=DeflationMode.PAPER))
    trailing = enhanced_shifted_qr(a, SolverConfig(deflation_mode=DeflationMode.TRAILING_ONLY))
    ref = eigenvalues_oracle(a)
    assert match_eigenvalues(paper.eigenvalues, ref) <= 1e-6
    assert match_eigenvalues(trailing.eigenvalues, ref) <= 1e-6


def test_sum_of_eigenvalues_matches_trace():
    rng = np.random.default_rng(101)
    for n in (3, 5, 8):
        a = rng.standard_normal((n, n))
        report = enhanced_shifted_qr(a)
        assert report.converged
        assert abs(sum(report.eigenvalues) - np.trace(a)) <= 1e-8 * (1 + frobenius_norm(a)) * n


def test_second_moment_matches_trace_of_square():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((6, 6))
    report = enhanced_shifted_qr(a)
    assert report.converged
    lhs = sum(z * z for z in report.eigenvalues)
    rhs = np.trace(a @ a)
    assert abs(lhs - rhs) <= 1e-6 * (1 + frobenius_norm(a) ** 2) * 6
