import numpy as np
import pytest

from eigenkit.matio import MatrixFormatError, read_matrix, write_matrix


def test_matrix_market_identity_layout(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix(np.eye(2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array complex general"
    assert lines[1] == "2 2"
    # Column-major value order.
    assert lines[2:] == ["1 0", "0 0", "0 0", "1 0"]


def test_matrix_market_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a *= np.pi  # full-width mantissas
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_matrix_market_mm_extension(tmp_path):
    path = tmp_path / "b.mm"
    write_matrix(np.eye(3), path)
    assert np.array_equal(read_matrix(path), np.eye(3))


def test_matrix_market_reads_real_field(tmp_path):
    path = tmp_path / "real.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )
    assert np.array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


def test_matrix_market_rectangular(tmp_path):
    path = tmp_path / "rect.mtx"
    a = np.arange(6.0).reshape(2, 3) + 0j
    write_matrix(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_matrix_market_skips_comments(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n"
        "% a comment\n"
        "1 1\n"
        "2.5 -1\n"
    )
    assert np.array_equal(read_matrix(path), [[2.5 - 1j]])


@pytest.mark.parametrize(
    "content,line",
    [
        ("garbage\n1 1\n1 0\n", 1),
        ("%%MatrixMarket matrix coordinate complex general\n1 1\n1 0\n", 1),
        ("%%MatrixMarket matrix array complex symmetric\n1 1\n1 0\n", 1),
        ("%%MatrixMarket matrix array complex general\n1\n1 0\n", 2),
        ("%%MatrixMarket matrix array complex general\n1 1\nnope\n", 3),
        ("%%MatrixMarket matrix array complex general\n2 2\n1 0\n", 3),
        ("%%MatrixMarket matrix array complex general\n1 1\n1 0\n2 0\n", 4),
        ("", 1),
        ("%%MatrixMarket matrix array pattern general\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix array complex general\n1 x\n1 0\n", 2),
        ("%%MatrixMarket matrix array complex general\n0 1\n", 2),
        ("%%MatrixMarket matrix array real general\n1 1\n1 2\n", 3),
        ("%%MatrixMarket matrix array complex general\n% only a comment\n", 2),
    ],
)
def test_matrix_market_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line_no == line
    assert f"line {line}" in str(err.value)


def test_csv_roundtrip(tmp_path):
    a = np.array([[1.5 + 2.0j, 3.0], [0.0, -0.25j]])
    path = tmp_path / "m.csv"
    write_matrix(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_csv_format_shape(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]]), path)
    assert path.read_text() == "1+2i,3\n0,-1i\n"


def test_csv_hand_parse(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text("1+2i,3\n0,−1i\n")  # unicode minus in source
    m = read_matrix(path)
    assert np.array_equal(m, [[1.0 + 2.0j, 3.0], [0.0, -1.0j]])


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line_no == 2


def test_csv_bad_entry_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,four\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line_no == 2


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(np.eye(2), tmp_path / "a.json")
    with pytest.raises(ValueError):
        read_matrix(tmp_path / "a.json")


def test_missing_file():
    with pytest.raises((MatrixFormatError, OSError)):
        read_matrix("/nonexistent/nowhere.mtx")


@pytest.mark.parametrize(
    "content,line",
    [
        ("1,2\nnan,4\n", 2),
        ("\n1,2\n\n3,-inf\n", 4),
        ("1,infi\n2,3\n", 1),
    ],
)
def test_csv_non_finite_entry_names_its_line(tmp_path, content, line):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line_no == line
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize(
    "content,line",
    [
        ("%%MatrixMarket matrix array real general\n2 1\n1\ninf\n", 4),
        ("%%MatrixMarket matrix array real general\n% c\n1 2\n\n5\n% c\n-inf\n", 7),
        ("%%MatrixMarket matrix array complex general\n1 1\n1 nan\n", 3),
    ],
)
def test_matrix_market_non_finite_entry_names_its_line(tmp_path, content, line):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line_no == line
    assert "non-finite" in str(err.value)
