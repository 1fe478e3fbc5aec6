"""Command-line entry points.

Subcommands
-----------
factor   QR-factorize a matrix file, print factorization residuals.
eig      Run the shifted-QR eigenvalue solver on a matrix file.
bench    Compare solvers on a seeded random ensemble; write trace CSV / SVG.
oracle   Cross-check the solver against the characteristic-polynomial route.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 numerical
breakdown, 4 non-convergence (``eig --strict`` only).

``bench`` takes its default seed from $EIGENKIT_BENCH_SEED when ``--seed``
is absent; with neither, the seed is 0.
"""

import argparse
import os
import sys

import numpy as np

from .bench import SOLVER_NAMES, SOLVER_SETUPS, emit_trace_csv, run_comparison
from .core import frobenius_norm, subdiagonal_norm
from .engine import (
    DeflationMode,
    NumericalBreakdownError,
    SolverConfig,
    baseline_qr,
    enhanced_shifted_qr,
)
from .ensemble import Distribution, EnsembleSpec
from .matio import MatrixFormatError, format_complex, read_matrix
from .oracle import RootConvergenceError, eigenvalues_oracle, match_eigenvalues
from .qr import QRMethod, RankDeficiencyError, factorize
from .shifts import ShiftStrategy
from .svgplot import emit_convergence_svg

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4

ENV_BENCH_SEED = "EIGENKIT_BENCH_SEED"


class _CliError(Exception):
    """Carries an exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_matrix(path, square: bool = True) -> np.ndarray:
    try:
        m = read_matrix(path)
    except MatrixFormatError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, f"{path}: {exc}") from exc
    if square and m.shape[0] != m.shape[1]:
        raise _CliError(EXIT_INPUT, f"{path}: expected a square matrix, got {m.shape}")
    return m


def _print_values(label: str, values) -> None:
    print(f"{label}:")
    for z in values:
        print(f"  {format_complex(complex(z))}")


def _cmd_factor(args) -> int:
    m = _load_matrix(args.file)
    factors = factorize(m, QRMethod(args.method))
    n = m.shape[0]
    resid_a = frobenius_norm(factors.q @ factors.r - m)
    resid_q = frobenius_norm(factors.q.conj().T @ factors.q - np.eye(n))
    print(f"method: {args.method}")
    print(f"n: {n}")
    print(f"||QR - A||_F  = {resid_a:.6e}")
    print(f"||Q^H Q - I||_F = {resid_q:.6e}")
    return EXIT_OK


def _eig_config(args) -> SolverConfig:
    try:
        return SolverConfig(
            k_max=args.kmax,
            eps=args.eps,
            deflation_tol=args.dtol,
            shift=ShiftStrategy(args.shift),
            deflation_mode=DeflationMode(args.mode),
            do_balance=False if args.no_balance else None,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc


def _solver_label(args) -> str:
    # Every deflating solve is "enhanced", whatever its shift.
    deflate, shift = not args.no_deflate, ShiftStrategy(args.shift)
    return next(
        name for name, (d, s) in SOLVER_SETUPS.items()
        if d == deflate and (deflate or s is shift)
    )


def _cmd_eig(args) -> int:
    m = _load_matrix(args.file)
    cfg = _eig_config(args)
    solve = baseline_qr if args.no_deflate else enhanced_shifted_qr
    report = solve(m, cfg)
    label = _solver_label(args)
    final_norm = report.trace[-1].subdiag_norm if report.trace else subdiagonal_norm(m)
    print(f"n: {m.shape[0]}")
    print(f"solver: {label}")
    _print_values("eigenvalues", report.eigenvalues)
    print(f"iterations: {report.iterations}")
    print(f"qr steps: {report.qr_steps}")
    print(f"deflations: {report.deflations}")
    print(f"converged: {'yes' if report.converged else 'no'}")
    print(f"final subdiag norm: {final_norm:.6e}")
    print(f"max trace drift: {report.max_trace_drift:.6e}")
    if args.trace:
        try:
            emit_trace_csv(report.trace, args.trace, solver=label)
        except OSError as exc:
            raise _CliError(EXIT_INPUT, f"{args.trace}: {exc}") from exc
        print(f"wrote trace: {args.trace}")
    if args.strict and not report.converged:
        print(
            f"eigenkit: no convergence within {cfg.k_max} iterations", file=sys.stderr
        )
        return EXIT_NOCONV
    return EXIT_OK


def _cmd_oracle(args) -> int:
    m = _load_matrix(args.file)
    try:
        reference = eigenvalues_oracle(m)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    report = enhanced_shifted_qr(m)
    distance = match_eigenvalues(report.eigenvalues, reference)
    _print_values("oracle eigenvalues", reference)
    _print_values(f"solver eigenvalues ({report.iterations} iterations)", report.eigenvalues)
    print(f"max match distance: {distance:.6e}")
    return EXIT_OK


def _bench_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_BENCH_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _CliError(
            EXIT_USAGE, f"{ENV_BENCH_SEED} must be an integer, got {raw!r}"
        ) from None


def _cmd_bench(args) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    try:
        spec = EnsembleSpec(
            dimension=args.dim,
            count=args.count,
            seed=_bench_seed(args),
            distribution=Distribution(args.dist),
        )
        report = run_comparison(spec, solvers)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    try:
        emit_trace_csv(report, args.out)
        if args.svg:
            emit_convergence_svg(report, args.svg)
    except OSError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc

    print(
        f"ensemble: dim={spec.dimension} count={spec.count} "
        f"seed={spec.seed} dist={spec.distribution.value}"
    )
    print(f"{'solver':<20} {'converged':>9} {'median':>7} {'min':>5} {'max':>5} {'time':>9}")
    times = {agg.solver: 0.0 for agg in report.aggregates}
    for row in report.rows:
        times[row.solver] += row.wall_time
    for agg in report.aggregates:
        print(
            f"{agg.solver:<20} {agg.converged_runs:>4}/{agg.runs:<4} "
            f"{agg.median_iterations:>7.1f} {agg.min_iterations:>5} "
            f"{agg.max_iterations:>5} {times[agg.solver]:>8.3f}s"
        )
    failed = [row for row in report.rows if row.error is not None]
    for row in failed:
        print(f"note: matrix {row.matrix_index} / {row.solver} failed: {row.error}")
    print(f"wrote trace CSV: {args.out}")
    if args.svg:
        print(f"wrote SVG: {args.svg}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="eigenkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("factor", help="QR-factorize a matrix file, print residuals")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=[m.value for m in QRMethod],
        default=QRMethod.HOUSEHOLDER.value,
    )
    p.set_defaults(func=_cmd_factor)

    defaults = SolverConfig()
    p = sub.add_parser("eig", help="compute eigenvalues of a matrix file")
    p.add_argument("file")
    p.add_argument(
        "--shift", choices=[s.value for s in ShiftStrategy], default=defaults.shift.value
    )
    p.add_argument("--no-deflate", action="store_true", help="bare iteration, no deflation sweep")
    p.add_argument("--no-balance", action="store_true", help="skip the balancing pre-pass")
    p.add_argument("--eps", type=float, default=defaults.eps, help="convergence tolerance")
    p.add_argument("--dtol", type=float, default=defaults.deflation_tol, help="deflation tolerance")
    p.add_argument("--kmax", type=int, default=defaults.k_max, help="iteration cap")
    p.add_argument(
        "--mode", choices=[m.value for m in DeflationMode], default=defaults.deflation_mode.value
    )
    p.add_argument("--trace", metavar="OUT.CSV", help="write per-iteration trace CSV")
    p.add_argument("--strict", action="store_true", help="exit 4 if the solve did not converge")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("bench", help="compare solvers on a random ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dist", choices=[d.value for d in Distribution], default="normal")
    p.add_argument("--solvers", required=True, help=f"comma list from {','.join(SOLVER_NAMES)}")
    p.add_argument("--out", required=True, metavar="REPORT.CSV")
    p.add_argument("--svg", metavar="OUT.SVG")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="cross-check eigenvalues via the polynomial route")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"eigenkit: {err}", file=sys.stderr)
        return err.code
    except (NumericalBreakdownError, RankDeficiencyError, RootConvergenceError) as err:
        print(f"eigenkit: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
