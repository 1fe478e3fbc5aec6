"""The three workloads: their inputs, one operation, and its checks.

Inputs are made with numpy alone (``eigenkit.ensemble`` is not used), so the
program receives only the generated matrices. Each workload draws a fixed
pool of matrices from its pool seed; a run visits the whole pool in rounds.
The pool does not depend on the run's ``--seed``, which only sets the order
of visits: every run then attempts the same operations, and the operations
that the interior-deflation fault breaks fail in the same share in every run.

One operation is one matrix. ``operate`` is the timed part; ``check`` runs
after the timer stops.
"""

import os
from dataclasses import dataclass

import numpy as np

import checks

POOL_SEED = 2510
CONFIRM_SEED = 13409


@dataclass
class Item:
    matrix: np.ndarray
    reference_of: np.ndarray
    path: str = ""


class Workload:
    name = ""
    n = 0
    pool_size = 0

    def make_pool(self, pool_seed: int) -> list[Item]:
        """Real standard-normal matrices."""
        rng = np.random.default_rng([pool_seed, self.n])
        pool = []
        for _ in range(self.pool_size):
            a = rng.standard_normal((self.n, self.n))
            pool.append(Item(matrix=a, reference_of=a))
        return pool

    def prepare(self, ek, pool: list[Item], workdir: str) -> None:
        """The program's own preparation of the inputs, timed in set-up."""


class SolveN50(Workload):
    """Read a Matrix Market file and solve it, as ``eigenkit eig FILE`` does."""

    name = "solve-n50"
    n = 50
    pool_size = 16

    def prepare(self, ek, pool: list[Item], workdir: str) -> None:
        for k, item in enumerate(pool):
            item.path = os.path.join(workdir, f"m{k:02d}.mtx")
            ek.write_matrix(item.matrix, item.path)

    def operate(self, ek, item: Item, workdir: str):
        a = ek.read_matrix(item.path)
        return a, ek.enhanced_shifted_qr(a)

    def check(self, item: Item, ref: checks.Reference, out, workdir: str) -> checks.Verdict:
        read, report = out
        verdict = checks.Verdict()
        if not np.array_equal(read, item.matrix):
            verdict.failed.append("read_matrix does not return the written matrix")
        verdict.extend(check_enhanced(report, ref))
        return verdict


class CompareN7(Workload):
    """All four solvers, their trace CSV and the oracle, as ``eigenkit bench``
    and ``eigenkit oracle`` do."""

    name = "compare-n7"
    n = 7
    pool_size = 6
    csv_name = "trace.csv"

    def operate(self, ek, item: Item, workdir: str):
        report = ek.run_comparison([item.matrix], ek.SOLVER_NAMES)
        ek.emit_trace_csv(report, os.path.join(workdir, self.csv_name))
        return report, ek.eigenvalues_oracle(item.matrix)

    def check(self, item: Item, ref: checks.Reference, out, workdir: str) -> checks.Verdict:
        report, roots = out
        verdict = checks.Verdict()
        for row in report.rows:
            label = row.solver
            if row.error is not None:
                verdict.failed.append(f"{label}: raised {row.error}")
            elif row.solver == "enhanced":
                verdict.extend(check_converged(row.converged, row.eigenvalues, ref, label))
            elif row.converged:
                verdict.extend(checks.check_spectrum(row.eigenvalues, ref, label))
            else:
                verdict.extend(checks.check_capped(row.eigenvalues, row.iterations, K_MAX, ref, label))
        verdict.extend(checks.check_csv_rows(
            os.path.join(workdir, self.csv_name),
            sum(row.iterations for row in report.rows),
            "trace CSV",
        ))
        verdict.extend(checks.check_spectrum(roots, ref, "oracle"))
        return verdict


class GradedN100(Workload):
    """A = D G D^-1 with D a diagonal of powers of two, solved directly.

    Scaling by powers of two is exact, so G's spectrum is A's."""

    name = "graded-n100"
    n = 100
    pool_size = 6
    max_exponent = 16

    def make_pool(self, pool_seed: int) -> list[Item]:
        rng = np.random.default_rng([pool_seed, self.n])
        pool = []
        for _ in range(self.pool_size):
            g = rng.uniform(-1.0, 1.0, (self.n, self.n)) + 1j * rng.uniform(-1.0, 1.0, (self.n, self.n))
            d = np.ldexp(1.0, rng.integers(-self.max_exponent, self.max_exponent + 1, size=self.n))
            a = d[:, None] * g / d[None, :]
            if not np.array_equal(a * d[None, :] / d[:, None], g):
                raise RuntimeError("un-grading A does not give back G bit for bit")
            pool.append(Item(matrix=a, reference_of=g))
        return pool

    def operate(self, ek, item: Item, workdir: str):
        return ek.enhanced_shifted_qr(item.matrix)

    def check(self, item: Item, ref: checks.Reference, out, workdir: str) -> checks.Verdict:
        return check_enhanced(out, ref)


# SolverConfig().k_max, the budget of the capped baselines; fixed here so the
# check does not read it from the program under test.
K_MAX = 1000


def check_converged(converged: bool, values, ref: checks.Reference, label: str) -> checks.Verdict:
    verdict = checks.check_spectrum(values, ref, label)
    if not converged:
        verdict.failed.append(f"{label}: did not converge")
    return verdict


def check_enhanced(report, ref: checks.Reference) -> checks.Verdict:
    return check_converged(report.converged, report.eigenvalues, ref, "enhanced")


WORKLOADS = {w.name: w for w in (SolveN50(), CompareN7(), GradedN100())}
