"""eigenkit: dense complex-matrix eigenvalues by shifted QR iteration.

The enhanced driver combines a Wilkinson shift, a per-iteration deflation
sweep, and a powers-of-two balancing pre-pass; baseline drivers (plain,
Rayleigh-shifted, Wilkinson-without-deflation) exist for comparison. An
independent characteristic-polynomial oracle cross-checks results for
n <= 12, and a benchmark harness turns seeded random ensembles into trace
CSVs and SVG convergence plots.
"""

from .core import (
    BalanceRecord,
    as_matrix,
    balance,
    frobenius_norm,
    remove_row_col,
    require_square,
    row_left_norm,
    subdiagonal_norm,
    trailing_2x2,
)
from .qr import (
    QRFactors,
    QRMethod,
    RankDeficiencyError,
    factorize,
    givens_qr,
    gram_schmidt_qr,
    householder_qr,
)
from .shifts import ShiftStrategy, eigenvalues_2x2, rayleigh_shift, wilkinson_shift
from .engine import (
    DeflationMode,
    EigenReport,
    NumericalBreakdownError,
    SolverConfig,
    TraceRecord,
    baseline_qr,
    deflation_sweep,
    enhanced_shifted_qr,
    qr_step,
)
from .oracle import (
    ORACLE_MAX_DIM,
    PolySpec,
    RootConvergenceError,
    char_poly,
    eigenvalues_oracle,
    match_eigenvalues,
    poly_roots,
)
from .ensemble import Distribution, EnsembleSpec, generate_ensemble, generate_matrix
from .matio import MatrixFormatError, format_complex, read_matrix, write_matrix
from .bench import (
    SOLVER_NAMES,
    SOLVER_SETUPS,
    ComparisonReport,
    ComparisonRow,
    SolverAggregate,
    emit_trace_csv,
    run_comparison,
)
from .svgplot import LOG_FLOOR, emit_convergence_svg

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "BalanceRecord", "as_matrix", "balance", "frobenius_norm",
    "remove_row_col", "require_square", "row_left_norm", "subdiagonal_norm",
    "trailing_2x2",
    # qr
    "QRFactors", "QRMethod", "RankDeficiencyError", "factorize", "givens_qr",
    "gram_schmidt_qr", "householder_qr",
    # shifts
    "ShiftStrategy", "eigenvalues_2x2", "rayleigh_shift", "wilkinson_shift",
    # engine
    "DeflationMode", "EigenReport", "NumericalBreakdownError", "SolverConfig",
    "TraceRecord", "baseline_qr", "deflation_sweep", "enhanced_shifted_qr",
    "qr_step",
    # oracle
    "ORACLE_MAX_DIM", "PolySpec", "RootConvergenceError", "char_poly",
    "eigenvalues_oracle", "match_eigenvalues", "poly_roots",
    # ensemble
    "Distribution", "EnsembleSpec", "generate_ensemble", "generate_matrix",
    # matio
    "MatrixFormatError", "format_complex", "read_matrix", "write_matrix",
    # bench
    "SOLVER_NAMES", "SOLVER_SETUPS", "ComparisonReport", "ComparisonRow", "SolverAggregate",
    "emit_trace_csv", "run_comparison",
    # svgplot
    "LOG_FLOOR", "emit_convergence_svg",
]
