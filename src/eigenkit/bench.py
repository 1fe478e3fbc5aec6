"""Side-by-side solver comparison harness.

Four named solver setups (``SOLVER_SETUPS``) each run one driver with one
shift strategy and the driver's defaults for every other ``SolverConfig``
field (so all see the same ``eps``/``k_max``; balancing is the driver's):

==================== =============================================
enhanced             Wilkinson shift + deflation sweep + balancing
wilkinson-nodeflate  Wilkinson shift, bare iteration
rayleigh             Rayleigh (corner) shift, bare iteration
plain                unshifted iteration
==================== =============================================

``run_comparison`` runs every requested solver on every given matrix and
returns per-run rows plus per-solver aggregates. Solver failures are
recorded on the row instead of aborting the run. Rows are sorted by
(matrix index, solver name), so the report — and the trace CSV derived from
it — is deterministic for fixed matrices.

Wall-clock times live only in the in-memory report (and stdout summaries);
they never reach the CSV, which must be byte-identical across repeat runs.
"""

import csv
import dataclasses
import statistics
import time

from .core import require_square
from .engine import EigenReport, SolverConfig, TraceRecord, baseline_qr, enhanced_shifted_qr
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


# Solver name -> (deflate, shift); the driver picks balancing. The table
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


def _solve_cell(index: int, m, name: str) -> ComparisonRow:
    deflate, shift = SOLVER_SETUPS[name]
    solve = enhanced_shifted_qr if deflate else baseline_qr
    start = time.perf_counter()
    error = None
    try:
        # The config goes positionally: a profiler wrapping the drivers reads args[1].
        report = solve(m, SolverConfig(shift=shift))
    except (ArithmeticError, ValueError) as exc:
        report, error = EigenReport([], 0, 0, False), str(exc)
    return ComparisonRow(
        matrix_index=index,
        solver=name,
        iterations=report.iterations,
        converged=report.converged,
        wall_time=time.perf_counter() - start,
        eigenvalues=tuple(report.eigenvalues),
        trace=tuple(report.trace),
        error=error,
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


def run_comparison(matrices, solvers) -> ComparisonReport:
    """Run every named solver on every matrix.

    Parameters
    ----------
    matrices : sequence of matrices
        Non-empty, each square and finite; an ``EnsembleSpec`` is expanded by
        the caller with :func:`eigenkit.ensemble.generate_ensemble`.
    solvers : sequence of str
        Non-empty subset of :data:`SOLVER_NAMES`; duplicates are dropped,
        first occurrence wins the order (rows are re-sorted anyway). Each
        solver runs its driver with ``SolverConfig(shift=...)``: the defaults
        for everything but the shift.
    """
    names = list(dict.fromkeys(solvers))
    if not names:
        raise ValueError("at least one solver name is required")
    unknown = [s for s in names if s not in SOLVER_SETUPS]
    if unknown:
        raise ValueError(
            f"unknown solver name(s) {unknown}; choose from {list(SOLVER_NAMES)}"
        )
    matrices = [require_square(m) for m in matrices]
    if not matrices:
        raise ValueError("ensemble must contain at least one matrix")

    rows = [
        _solve_cell(index, m, name)
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
