"""Side-by-side solver comparison harness.

Four named solver setups (``SOLVER_SETUPS``) share one ``SolverConfig``
(so every solver sees identical ``eps``/``k_max``) and differ only in shift
strategy, deflation, and balancing:

==================== =============================================
enhanced             Wilkinson shift + deflation sweep + balancing
wilkinson-nodeflate  Wilkinson shift, bare iteration
rayleigh             Rayleigh (corner) shift, bare iteration
plain                unshifted iteration
==================== =============================================

``run_comparison`` runs every requested solver on every ensemble matrix and
returns per-run rows plus per-solver aggregates. Solver failures are
recorded on the row instead of aborting the run. Rows are sorted by
(matrix index, solver name), so the report — and the trace CSV derived from
it — is deterministic for a fixed ensemble spec and config.

Wall-clock times live only in the in-memory report (and stdout summaries);
they never reach the CSV, which must be byte-identical across repeat runs.
"""

import csv
import dataclasses
import statistics
import time

from .core import as_matrix, require_square, subdiagonal_norm
from .engine import SolverConfig, TraceRecord, baseline_qr, enhanced_shifted_qr
from .ensemble import EnsembleSpec, generate_ensemble
from .shifts import ShiftStrategy

__all__ = [
    "SOLVER_SETUPS",
    "SOLVER_NAMES",
    "ComparisonRow",
    "SolverAggregate",
    "ComparisonReport",
    "run_comparison",
    "emit_trace_csv",
]

TRACE_CSV_HEADER = "matrix_index,solver,iteration,dimension,subdiag_norm,shift_re,shift_im,deflated"


# Solver name -> (deflate, shift); balancing follows deflation. The table
# holds flags, not functions: ``_solve_cell`` reads the two drivers from
# this module's globals at call time, so a rebinding of them (a profiler's,
# say) takes effect.
SOLVER_SETUPS = {
    "enhanced": (True, ShiftStrategy.WILKINSON),
    "wilkinson-nodeflate": (False, ShiftStrategy.WILKINSON),
    "rayleigh": (False, ShiftStrategy.RAYLEIGH),
    "plain": (False, ShiftStrategy.NO_SHIFT),
}

SOLVER_NAMES = tuple(SOLVER_SETUPS)


@dataclasses.dataclass(frozen=True)
class ComparisonRow:
    """Outcome of one (matrix, solver) cell.

    ``error`` is None for a completed solve; when the solver raised, it
    holds the message and the numeric fields are zeroed with an empty trace.
    """

    matrix_index: int
    solver: str
    iterations: int
    converged: bool
    deflations: int
    final_subdiag_norm: float
    wall_time: float
    eigenvalues: tuple[complex, ...]
    trace: tuple[TraceRecord, ...]
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class SolverAggregate:
    """Per-solver roll-up over the ensemble (failed rows count as unconverged
    and are excluded from the iteration statistics)."""

    solver: str
    runs: int
    converged_runs: int
    convergence_rate: float
    median_iterations: float
    min_iterations: int
    max_iterations: int


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    aggregates: tuple[SolverAggregate, ...]


def _solve_cell(index: int, m, name: str, cfg: SolverConfig) -> ComparisonRow:
    deflate, shift = SOLVER_SETUPS[name]
    solve = enhanced_shifted_qr if deflate else baseline_qr
    start = time.perf_counter()
    try:
        report = solve(m, dataclasses.replace(cfg, shift=shift, do_balance=deflate))
    except (ArithmeticError, ValueError) as exc:
        return ComparisonRow(
            matrix_index=index,
            solver=name,
            iterations=0,
            converged=False,
            deflations=0,
            final_subdiag_norm=float("nan"),
            wall_time=time.perf_counter() - start,
            eigenvalues=(),
            trace=(),
            error=str(exc),
        )
    elapsed = time.perf_counter() - start
    # A zero-iteration converged run has an empty trace; the input itself is
    # the final iterate then.
    final_norm = report.trace[-1].subdiag_norm if report.trace else subdiagonal_norm(m)
    return ComparisonRow(
        matrix_index=index,
        solver=name,
        iterations=report.iterations,
        converged=report.converged,
        deflations=report.deflations,
        final_subdiag_norm=final_norm,
        wall_time=elapsed,
        eigenvalues=tuple(report.eigenvalues),
        trace=tuple(report.trace),
        error=None,
    )


def _aggregate(rows: list[ComparisonRow], name: str) -> SolverAggregate:
    mine = [r for r in rows if r.solver == name]
    ok = [r for r in mine if r.error is None]
    iters = [r.iterations for r in ok]
    return SolverAggregate(
        solver=name,
        runs=len(mine),
        converged_runs=sum(1 for r in mine if r.converged),
        convergence_rate=sum(1 for r in mine if r.converged) / len(mine),
        median_iterations=statistics.median(iters) if iters else float("nan"),
        min_iterations=min(iters) if iters else 0,
        max_iterations=max(iters) if iters else 0,
    )


def run_comparison(ensemble, solvers, cfg: SolverConfig | None = None) -> ComparisonReport:
    """Run every named solver on every matrix of the ensemble.

    Parameters
    ----------
    ensemble : EnsembleSpec or sequence of matrices
        A spec is expanded via :func:`eigenkit.ensemble.generate_ensemble`.
    solvers : sequence of str
        Non-empty subset of :data:`SOLVER_NAMES`; duplicates are dropped,
        first occurrence wins the order (rows are re-sorted anyway).
    cfg : SolverConfig, optional
        Shared accuracy/budget knobs. Shift/deflation/balance fields are
        overridden per solver; eps and k_max apply to all of them.
    """
    cfg = cfg or SolverConfig()
    names = list(dict.fromkeys(solvers))
    if not names:
        raise ValueError("at least one solver name is required")
    unknown = [s for s in names if s not in SOLVER_SETUPS]
    if unknown:
        raise ValueError(
            f"unknown solver name(s) {unknown}; choose from {list(SOLVER_NAMES)}"
        )
    if isinstance(ensemble, EnsembleSpec):
        matrices = generate_ensemble(ensemble)
    else:
        matrices = [require_square(as_matrix(m)) for m in ensemble]
        if not matrices:
            raise ValueError("ensemble must contain at least one matrix")

    rows = [
        _solve_cell(index, m, name, cfg)
        for index, m in enumerate(matrices)
        for name in names
    ]
    rows.sort(key=lambda r: (r.matrix_index, r.solver))
    aggregates = tuple(_aggregate(rows, name) for name in sorted(names))
    return ComparisonReport(rows=tuple(rows), aggregates=aggregates)


def _trace_csv_rows(source, solver: str):
    if isinstance(source, ComparisonReport):
        for row in source.rows:
            for rec in row.trace:
                yield row.matrix_index, row.solver, rec
    else:
        for rec in source:
            yield 0, solver, rec


def emit_trace_csv(source, path, solver: str = "eig") -> None:
    """Write per-iteration trace records as CSV.

    ``source`` is a ComparisonReport (all rows, tagged with their matrix
    index and solver name) or a plain iterable of TraceRecord (tagged with
    matrix index 0 and the ``solver`` label). Floats are serialized with 17
    significant digits and the line terminator is pinned to "\\n", so equal
    inputs produce byte-identical files.
    """
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_CSV_HEADER.split(","))
        for matrix_index, name, rec in _trace_csv_rows(source, solver):
            writer.writerow([
                matrix_index,
                name,
                rec.iteration,
                rec.dimension,
                f"{rec.subdiag_norm:.17g}",
                f"{rec.shift.real:.17g}",
                f"{rec.shift.imag:.17g}",
                int(rec.deflated),
            ])
