import numpy as np
import pytest

from eigenkit.bench import (
    SOLVER_NAMES,
    ComparisonReport,
    emit_trace_csv,
    run_comparison,
)
from eigenkit.engine import SolverConfig, TraceRecord, baseline_qr, enhanced_shifted_qr
from eigenkit.ensemble import EnsembleSpec, generate_matrix
from eigenkit.shifts import ShiftStrategy


def test_solver_registry():
    assert set(SOLVER_NAMES) == {"enhanced", "wilkinson-nodeflate", "rayleigh", "plain"}


def test_row_count_and_sorting():
    spec = EnsembleSpec(dimension=3, count=3, seed=5)
    report = run_comparison(spec, ["plain", "enhanced"])
    assert len(report.rows) == 6
    keys = [(r.matrix_index, r.solver) for r in report.rows]
    assert keys == sorted(keys)


def test_enhanced_beats_plain_on_seeded_3x3():
    spec = EnsembleSpec(dimension=3, count=1, seed=42)
    report = run_comparison(spec, ["enhanced", "plain"])
    by_solver = {r.solver: r for r in report.rows}
    assert by_solver["enhanced"].iterations <= by_solver["plain"].iterations


def test_triangular_ensemble_deflation_only():
    rng = np.random.default_rng(0)
    mats = [
        np.triu(rng.standard_normal((4, 4))) + np.diag([5.0, 6.0, 7.0, 8.0])
        for _ in range(3)
    ]
    report = run_comparison(mats, ["enhanced"])
    for row in report.rows:
        assert row.converged
        assert row.iterations <= 4


def test_empty_solver_list_rejected():
    with pytest.raises(ValueError):
        run_comparison(EnsembleSpec(dimension=2, count=1), [])


def test_unknown_solver_rejected():
    with pytest.raises(ValueError):
        run_comparison(EnsembleSpec(dimension=2, count=1), ["newton"])


def test_empty_matrix_list_rejected():
    with pytest.raises(ValueError):
        run_comparison([], ["enhanced"])


def test_aggregates():
    spec = EnsembleSpec(dimension=3, count=4, seed=1)
    report = run_comparison(spec, ["enhanced"])
    (agg,) = report.aggregates
    assert agg.solver == "enhanced"
    assert agg.runs == 4
    assert agg.converged_runs == 4
    assert agg.convergence_rate == 1.0
    iters = sorted(r.iterations for r in report.rows)
    assert agg.min_iterations == iters[0]
    assert agg.max_iterations == iters[-1]
    assert agg.median_iterations == np.median(iters)


def test_shared_config_applies():
    spec = EnsembleSpec(dimension=3, count=1, seed=2)
    capped = run_comparison(spec, ["plain"], SolverConfig(k_max=3))
    assert capped.rows[0].iterations <= 3


def test_solver_error_recorded_not_fatal():
    # Second matrix overflows the plain iteration into non-finite territory;
    # its row records the failure while the first matrix solves fine.
    ok = np.array([[2.0, 1.0], [1.0, 2.0]])
    blowup = np.array([[1e200, 1e200], [1e200, -1e200]])
    report = run_comparison([ok, blowup], ["enhanced"])
    assert report.rows[0].error is None
    assert report.rows[0].converged
    assert report.rows[1].error is not None
    assert not report.rows[1].converged
    (agg,) = report.aggregates
    assert agg.runs == 2
    assert agg.converged_runs == 1


def test_trace_csv_single_record(tmp_path):
    rec = TraceRecord(
        iteration=1, dimension=3, subdiag_norm=0.5, offdiag_norm=0.7,
        shift=1.5 - 0.5j, deflated=False,
    )
    path = tmp_path / "one.csv"
    emit_trace_csv([rec], path, solver="eig")
    lines = path.read_text().splitlines()
    assert lines[0] == "matrix_index,solver,iteration,dimension,subdiag_norm,shift_re,shift_im,deflated"
    assert len(lines) == 2
    assert lines[1] == "0,eig,1,3,0.5,1.5,-0.5,0"


def test_trace_csv_row_count_matches_traces(tmp_path):
    spec = EnsembleSpec(dimension=3, count=2, seed=3)
    report = run_comparison(spec, ["enhanced", "plain"])
    path = tmp_path / "trace.csv"
    emit_trace_csv(report, path)
    data_lines = path.read_text().splitlines()[1:]
    expected = sum(len(r.trace) for r in report.rows)
    assert len(data_lines) == expected


def test_trace_csv_deterministic_bytes(tmp_path):
    spec = EnsembleSpec(dimension=4, count=2, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace_csv(run_comparison(spec, list(SOLVER_NAMES)), p1)
    emit_trace_csv(run_comparison(spec, list(SOLVER_NAMES)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# What each solver name means, spelled out independently of bench's table.
DIRECT_CALLS = {
    "enhanced": (enhanced_shifted_qr, ShiftStrategy.WILKINSON, True),
    "wilkinson-nodeflate": (baseline_qr, ShiftStrategy.WILKINSON, False),
    "rayleigh": (baseline_qr, ShiftStrategy.RAYLEIGH, False),
    "plain": (baseline_qr, ShiftStrategy.NO_SHIFT, False),
}


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_report_rows_match_solver_output(name):
    spec = EnsembleSpec(dimension=4, count=1, seed=13)
    cfg = SolverConfig(k_max=200)
    row = run_comparison(spec, [name], cfg).rows[0]
    solve, shift, balance = DIRECT_CALLS[name]
    direct = solve(
        generate_matrix(spec, 0), SolverConfig(k_max=200, shift=shift, do_balance=balance)
    )
    assert row.iterations == direct.iterations
    assert row.converged == direct.converged
    assert row.eigenvalues == tuple(direct.eigenvalues)
    assert row.trace == tuple(direct.trace)
