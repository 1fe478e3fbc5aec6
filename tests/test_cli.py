import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import eigenkit
from eigenkit.cli import (
    EXIT_INPUT,
    EXIT_NOCONV,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from eigenkit.engine import NumericalBreakdownError
from eigenkit.matio import write_matrix


@pytest.fixture
def symmetric_file(tmp_path):
    path = tmp_path / "sym.mtx"
    write_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]), path)
    return str(path)


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rot.csv"
    write_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]), path)
    return str(path)


def test_no_arguments_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_factor_runs(symmetric_file, capsys):
    assert main(["factor", symmetric_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "||QR - A||_F" in out
    assert "householder" in out


def test_factor_method_choices(symmetric_file):
    for method in ("householder", "givens", "cgs", "mgs"):
        assert main(["factor", symmetric_file, "--method", method]) == EXIT_OK
    assert main(["factor", symmetric_file, "--method", "qr"]) == EXIT_USAGE


def test_factor_rank_deficient_cgs_is_numeric_error(tmp_path, capsys):
    path = tmp_path / "sing.csv"
    write_matrix(np.ones((3, 3)), path)
    assert main(["factor", str(path), "--method", "cgs"]) == EXIT_NUMERIC
    assert "pivot" in capsys.readouterr().err


def test_factor_near_overflow(tmp_path, capsys):
    # Unscaled column norms would overflow on this matrix; both kernels scale
    # them, so both factor it.
    path = tmp_path / "big.csv"
    path.write_text("-1.5e301+1e301i,1\n1,2\n")
    for method in ("householder", "givens"):
        assert main(["factor", str(path), "--method", method]) == EXIT_OK
        resid = float(capsys.readouterr().out.split("||QR - A||_F  =")[1].split()[0])
        assert resid <= 1e-15 * 1.8e301


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_overflowing_rotation_is_loud(tmp_path, capsys):
    # The column norm 2.1e308 is not representable. The Givens rotation is
    # taken on a rescaled pair, so R overflows loudly; an unscaled hypot
    # overflowed instead and gave Q = R = 0 with exit 0.
    path = tmp_path / "top.csv"
    path.write_text("1.5e308,0\n1.5e308,1\n")
    assert main(["factor", str(path), "--method", "givens"]) == EXIT_NUMERIC
    assert "givens" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["1.5e308+1.5e308i\n", "1,2\n0,1.5e308+1.5e308i\n"],
    ids=["1x1", "triangular-2x2"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_overflowing_phase_fold_is_loud(tmp_path, capsys, text):
    # No rotation touches this pivot, so its phase is folded and R gets its
    # modulus, 2.1e308, which is not representable. That must be the CLI's
    # non-finite factor, not an OverflowError from abs of a finite complex.
    path = tmp_path / "fold.csv"
    path.write_text(text)
    assert main(["factor", str(path), "--method", "givens"]) == EXIT_NUMERIC
    assert "non-finite factor" in capsys.readouterr().err


def test_eig_summary(symmetric_file, capsys):
    assert main(["eig", symmetric_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eigenvalues:" in out
    assert "converged: yes" in out
    assert "solver: enhanced" in out


def test_eig_missing_file_is_input_error(capsys):
    assert main(["eig", "/no/such/file.mtx"]) == EXIT_INPUT
    assert "file" in capsys.readouterr().err


def test_eig_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text("not a header\n")
    assert main(["eig", str(path)]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err


def test_eig_unknown_extension_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[1]]\n")
    assert main(["eig", str(path)]) == EXIT_INPUT
    assert "extension" in capsys.readouterr().err


def test_eig_nonsquare_is_input_error(tmp_path):
    path = tmp_path / "rect.csv"
    path.write_text("1,2,3\n4,5,6\n")
    assert main(["eig", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["eig", "factor", "oracle"])
@pytest.mark.parametrize(
    "name,content",
    [
        ("nan.csv", "1,2\nnan,4\n"),
        ("inf.mtx", "%%MatrixMarket matrix array real general\n1 1\ninf\n"),
    ],
)
def test_non_finite_entry_is_input_error(tmp_path, capsys, command, name, content):
    path = tmp_path / name
    path.write_text(content)
    assert main([command, str(path)]) == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err


W_HANG = "0.9034701816518086+0.09401229776087457i"


@pytest.mark.parametrize(
    "content,code,expect",
    [
        (f"{W_HANG}\n", EXIT_OK, "converged: yes"),
        (f"{W_HANG},1,2\n0,2,1\n0,0,3\n", EXIT_OK, "converged: yes"),
        ("1e308,1e308\n1e308,1e308\n", EXIT_NUMERIC, "non-finite"),
        ("1,1e308,0\n1e308,1,0\n1e308,0,1\n", EXIT_NUMERIC, "non-finite iterate"),
        ("0,1e308\n1,0\n", EXIT_OK, "eigenvalues:\n  1e+154\n  -1e+154\n"),
        ("-1,-1.7e308\n3+4i,0\n", EXIT_OK, "converged: yes"),
    ],
    ids=["1x1", "triangular-3x3", "overflow-2x2", "overflow-3x3", "huge-ratio-2x2", "huge-complex-2x2"],
)
def test_eig_complex_diagonal_entry_terminates(tmp_path, content, code, expect):
    # Balancing once looped forever on these: a last-bit difference made an
    # empty off-diagonal mass slightly negative, an off-diagonal mass
    # overflowed to inf, or a tracked scaled mass overflowed. A subprocess
    # with a timeout turns a hang into a failure. A solve that succeeds must
    # also be clean under the warning filter that pyproject.toml sets for pytest.
    path = tmp_path / "w.csv"
    path.write_text(content)
    src = os.path.dirname(os.path.dirname(eigenkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    clean = ["-W", "error::RuntimeWarning"] if code == EXIT_OK else []
    done = subprocess.run(
        [sys.executable, *clean, "-m", "eigenkit.cli", "eig", str(path), "--strict"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert expect in done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    if clean:
        assert done.stderr == ""


def test_eig_converged_before_a_step_prints_the_iterate_norm(tmp_path, capsys):
    # A baseline that converges on its reduced input takes no step; the norm
    # printed is that of the iterate, hessenberg(A), not of A itself.
    u = np.array([[1.0, 2.0, 3.0], [1e-13, 2.0, 5.0], [0.0, 0.0, 3.0]])
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    p = np.eye(3) - 2.0 * np.outer(v, v)
    path = tmp_path / "pup.csv"
    write_matrix(p @ u @ p, path)
    assert main(["eig", str(path), "--no-deflate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert "qr steps: 0" in out
    assert "final subdiag norm: 1.000355e-13" in out


def test_eig_strict_nonconvergence(rotation_file):
    args = ["eig", rotation_file, "--no-deflate", "--shift", "none", "--kmax", "50"]
    assert main(args) == EXIT_OK  # partial results are not an error
    assert main(args + ["--strict"]) == EXIT_NOCONV


def test_eig_flag_plumbing(symmetric_file, capsys):
    assert (
        main(
            [
                "eig", symmetric_file,
                "--shift", "rayleigh",
                "--no-deflate", "--no-balance",
                "--eps", "1e-8", "--dtol", "1e-9",
                "--kmax", "17",
            ]
        )
        == EXIT_OK
    )
    assert "solver: rayleigh" in capsys.readouterr().out


def test_eig_bad_tolerances_are_usage_errors(symmetric_file):
    assert main(["eig", symmetric_file, "--eps", "-1"]) == EXIT_USAGE
    assert main(["eig", symmetric_file, "--eps", "inf"]) == EXIT_USAGE
    assert main(["eig", symmetric_file, "--kmax", "0"]) == EXIT_USAGE
    # dtol must not exceed eps
    assert main(["eig", symmetric_file, "--eps", "1e-12", "--dtol", "1e-8"]) == EXIT_USAGE


def test_eig_trace_output(symmetric_file, tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["eig", symmetric_file, "--trace", str(trace)]) == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("matrix_index,solver,iteration")
    assert len(lines) >= 2
    assert ",enhanced," in lines[1]


def test_eig_unwritable_trace_is_input_error(symmetric_file, tmp_path):
    trace = tmp_path / "no-such-dir" / "trace.csv"
    assert main(["eig", symmetric_file, "--trace", str(trace)]) == EXIT_INPUT


def test_oracle_command(symmetric_file, capsys):
    assert main(["oracle", symmetric_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle eigenvalues" in out
    assert "max match distance" in out


@pytest.mark.parametrize(
    "content",
    ["0,1e308\n1,0\n", "-1,-1.7e308\n3+4i,0\n", "1e300,1e286\n1e305,0\n"],
    ids=["huge-ratio", "huge-complex", "huge-graded"],
)
def test_oracle_overflow_is_numeric_error(tmp_path, capsys, content):
    # `eig` solves all three; the oracle's characteristic polynomial
    # overflows, which must be exit 3, not "nan" with exit 0.
    path = tmp_path / "huge.csv"
    path.write_text(content)
    assert main(["oracle", str(path)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert "nan" not in captured.out


def test_oracle_dimension_cap_is_input_error(tmp_path, capsys):
    path = tmp_path / "big.mtx"
    write_matrix(np.eye(13), path)
    assert main(["oracle", str(path)]) == EXIT_INPUT
    assert "12" in capsys.readouterr().err


def test_bench_writes_outputs(tmp_path, capsys):
    out = tmp_path / "report.csv"
    svg = tmp_path / "plot.svg"
    rc = main(
        [
            "bench", "--dim", "3", "--count", "2", "--seed", "11",
            "--solvers", "enhanced,plain", "--out", str(out), "--svg", str(svg),
        ]
    )
    assert rc == EXIT_OK
    assert out.exists() and svg.exists()
    stdout = capsys.readouterr().out
    assert "enhanced" in stdout and "plain" in stdout


def test_bench_svg_uses_first_matrix(tmp_path):
    svg = tmp_path / "r.svg"
    args = [
        "bench", "--dim", "3", "--count", "2", "--seed", "6",
        "--solvers", "enhanced,plain", "--out", str(tmp_path / "r.csv"), "--svg", str(svg),
    ]
    assert main(args) == EXIT_OK
    polylines = ET.parse(svg).getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
    assert sorted(p.get("data-solver") for p in polylines) == ["enhanced", "plain"]


def test_bench_failed_solve_is_a_note(tmp_path, monkeypatch, capsys):
    def breaks(a, cfg=None):
        raise NumericalBreakdownError("non-finite shift at iteration 1")

    monkeypatch.setattr(eigenkit.bench, "baseline_qr", breaks)
    args = ["bench", "--dim", "2", "--count", "1", "--solvers", "enhanced,plain"]
    assert main(args + ["--out", str(tmp_path / "r.csv")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "note: matrix 0 / plain failed: non-finite shift at iteration 1" in out
    assert "enhanced" in out and "note: matrix 0 / enhanced" not in out


def test_bench_svg_without_completed_solve_is_a_note(tmp_path, monkeypatch, capsys):
    def breaks(a, cfg=None):
        raise NumericalBreakdownError("non-finite shift at iteration 1")

    monkeypatch.setattr(eigenkit.bench, "baseline_qr", breaks)
    csv, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    args = ["bench", "--dim", "2", "--count", "1", "--solvers", "plain"]
    assert main(args + ["--out", str(csv), "--svg", str(svg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "note: no completed solve of matrix 0; SVG not written" in out
    assert "wrote SVG" not in out
    assert csv.exists() and not svg.exists()


def test_bench_unwritable_out_is_input_error(tmp_path):
    out = tmp_path / "no-such-dir" / "r.csv"
    args = ["bench", "--dim", "2", "--count", "1", "--solvers", "enhanced", "--out", str(out)]
    assert main(args) == EXIT_INPUT


def test_bench_requires_solvers(tmp_path):
    rc = main(["bench", "--dim", "3", "--count", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_bench_rejects_unknown_solver(tmp_path):
    rc = main(
        [
            "bench", "--dim", "3", "--count", "1",
            "--solvers", "quantum", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == EXIT_USAGE


def test_bench_rejects_bad_dimension(tmp_path):
    rc = main(
        [
            "bench", "--dim", "1", "--count", "1",
            "--solvers", "enhanced", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == EXIT_USAGE


def test_bench_seed_comes_from_flag_only(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.csv"
    args = ["bench", "--dim", "2", "--count", "1", "--solvers", "enhanced", "--out", str(out)]
    # The environment is not a seed source.
    monkeypatch.setenv("EIGENKIT_BENCH_SEED", "99")
    assert main(args) == EXIT_OK
    assert "seed=0" in capsys.readouterr().out

    assert main(args + ["--seed", "5"]) == EXIT_OK
    assert "seed=5" in capsys.readouterr().out


def test_bench_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--dim", "3", "--count", "2", "--seed", "4", "--solvers", "enhanced,rayleigh"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_bench_dist_choices(tmp_path):
    out = tmp_path / "c.csv"
    base = ["bench", "--dim", "2", "--count", "1", "--solvers", "enhanced", "--out", str(out)]
    assert main(base + ["--dist", "complex"]) == EXIT_OK
    assert main(base + ["--dist", "cauchy"]) == EXIT_USAGE


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["eig", "--help"]) == 0
