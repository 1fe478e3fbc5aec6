"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest perfbench

The checks must fail on known-bad outputs and pass LAPACK's own eigenvalues.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import eigenkit as ek  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spectrum_matrices():
    rng = np.random.default_rng(7)
    g = rng.uniform(-1, 1, (100, 100)) + 1j * rng.uniform(-1, 1, (100, 100))
    return [rng.standard_normal((7, 7)), rng.standard_normal((50, 50)), g]


@pytest.mark.parametrize("a", _spectrum_matrices(), ids=["n7", "n50", "n100-complex"])
def test_lapack_eigenvalues_pass(a):
    ref = checks.reference(a)
    verdict = checks.check_spectrum(np.linalg.eigvals(a)[::-1], ref, "lapack")
    assert verdict.failed == [] and verdict.wrong == []


@pytest.mark.parametrize("a", _spectrum_matrices(), ids=["n7", "n50", "n100-complex"])
def test_one_value_moved_fails(a):
    ref = checks.reference(a)
    values = np.linalg.eigvals(a)
    values[0] += 1e-6 * np.linalg.norm(a)
    verdict = checks.check_spectrum(values, ref, "moved")
    assert any("LAPACK" in m for m in verdict.failed)


def test_wrong_count_is_a_wrong_output():
    a = np.random.default_rng(1).standard_normal((7, 7))
    verdict = checks.check_spectrum(np.linalg.eigvals(a)[:-1], checks.reference(a), "short")
    assert verdict.wrong


def test_paper_mode_interior_deflation_fails():
    a = np.array([[1, 2, 3], [0, 5, 1], [4, 7, 2]], dtype=float)
    cfg = ek.SolverConfig(do_balance=False, deflation_mode=ek.DeflationMode.PAPER)
    report = ek.enhanced_shifted_qr(a, cfg)
    verdict = workloads.check_enhanced(report, checks.reference(a))
    assert report.converged
    assert any("LAPACK" in m for m in verdict.failed)
    assert verdict.wrong == []


def test_trailing_mode_passes_same_matrix():
    a = np.array([[1, 2, 3], [0, 5, 1], [4, 7, 2]], dtype=float)
    cfg = ek.SolverConfig(do_balance=False, deflation_mode=ek.DeflationMode.TRAILING_ONLY)
    verdict = workloads.check_enhanced(ek.enhanced_shifted_qr(a, cfg), checks.reference(a))
    assert verdict.failed == [] and verdict.wrong == []


def test_csv_with_a_row_dropped_fails(tmp_path):
    a = np.random.default_rng(3).standard_normal((5, 5))
    report = ek.run_comparison([a], ["enhanced", "plain"])
    path = tmp_path / "trace.csv"
    ek.emit_trace_csv(report, path)
    expected = sum(row.iterations for row in report.rows)
    assert checks.check_csv_rows(path, expected, "csv").wrong == []
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[4:]))
    assert checks.check_csv_rows(path, expected, "csv").wrong


def test_capped_run_must_use_its_budget():
    a = np.random.default_rng(4).standard_normal((7, 7))
    ref = checks.reference(a)
    assert checks.check_capped(np.diag(a), workloads.K_MAX, workloads.K_MAX, ref, "cap").failed == []
    assert checks.check_capped(np.diag(a), 10, workloads.K_MAX, ref, "cap").failed


def test_graded_pool_spectrum_is_that_of_g():
    item = workloads.GradedN100().make_pool(workloads.POOL_SEED)[0]
    assert np.abs(item.matrix).max() > 2.0**10
    verdict = checks.check_spectrum(np.linalg.eigvals(item.reference_of), checks.reference(item.reference_of), "g")
    assert verdict.failed == [] and verdict.wrong == []


def test_tracer_counts_and_restores():
    tracer = tracing.Tracer()
    original = ek.engine.subdiagonal_norm
    a = np.random.default_rng(5).standard_normal((6, 6))
    tracer.install()
    try:
        report = ek.enhanced_shifted_qr(a)
    finally:
        tracer.uninstall()
    assert ek.engine.subdiagonal_norm is original
    metrics = tracer.metrics(1, 0.0, 0.0)
    assert metrics["engine.step.calls"] == report.qr_steps
    assert metrics["qr.factor.calls"] == report.qr_steps
    assert metrics["engine.deflate.hits"] == report.deflations
    assert metrics["engine.enhanced.qr_steps_p50"] == report.qr_steps
    assert metrics["core.balance.calls"] == 1
    assert len(tracer.span_start) == len(tracer.span_end) > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
