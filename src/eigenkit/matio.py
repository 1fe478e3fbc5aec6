"""Matrix file I/O in two flat UTF-8 formats, selected by file extension.

``.mtx`` / ``.mm``
    Matrix Market array format, ``%%MatrixMarket matrix array complex
    general`` header, values in column-major order, one "real imag" pair
    per line. Values are written with 17 significant decimal digits, which
    round-trips IEEE doubles exactly.

``.csv``
    One matrix row per line, entries like ``1.5+2i`` / ``3`` / ``-0.25i``
    (imaginary part omitted when zero, real part omitted when the entry is
    purely imaginary and nonzero).
"""

import cmath
from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = ["MatrixFormatError", "format_complex", "read_matrix", "write_matrix"]


class MatrixFormatError(ValueError):
    """A matrix file could not be read or parsed. ``line_no`` is the offending
    line, or None when no line is at fault."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}" if line_no is None else f"{path}, line {line_no}"
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    """Format ``z`` as a CSV matrix entry: ``1.5+2i``, ``3`` or ``-0.25i``.

    Parts are written with 17 significant digits; the imaginary part is
    omitted when zero, the real part when the entry is purely imaginary.
    """
    if z.imag == 0.0:
        return _fmt(z.real)
    if z.real == 0.0:
        return f"{_fmt(z.imag)}i"
    return f"{_fmt(z.real)}{z.imag:+.17g}i"


def _mm_lines(m: np.ndarray) -> list[str]:
    # m.T.flat walks m in column-major order.
    values = [f"{_fmt(z.real)} {_fmt(z.imag)}" for z in m.T.flat]
    return ["%%MatrixMarket matrix array complex general", "{} {}".format(*m.shape), *values]


def _parse_mm(raw: list[str], path) -> np.ndarray:
    if not raw:
        raise MatrixFormatError(path, 1, "empty file")
    header = raw[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixFormatError(path, 1, "malformed Matrix Market header")
    _, obj, fmt, fld, sym = (t.lower() for t in header)
    if obj != "matrix" or fmt != "array":
        raise MatrixFormatError(path, 1, f"unsupported Matrix Market type {obj!r}/{fmt!r}")
    if fld not in ("complex", "real"):
        raise MatrixFormatError(path, 1, f"unsupported field {fld!r}")
    if sym != "general":
        raise MatrixFormatError(path, 1, f"unsupported symmetry {sym!r}")
    width = 2 if fld == "complex" else 1
    values = None  # until the size line is read
    for line_no, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if values is None:
            try:
                rows, cols = map(int, parts)
            except ValueError:
                raise MatrixFormatError(path, line_no, "size line must be 'rows cols'") from None
            if rows < 1 or cols < 1:
                raise MatrixFormatError(path, line_no, "matrix dimensions must be >= 1")
            values = []
            continue
        try:
            if len(parts) != width:
                raise ValueError
            z = complex(float(parts[0]), float(parts[1]) if width == 2 else 0.0)
        except ValueError:
            raise MatrixFormatError(path, line_no, f"unparsable value line {text!r}") from None
        if not cmath.isfinite(z):
            raise MatrixFormatError(path, line_no, "non-finite matrix entry (NaN or Inf)")
        values.append(z)
        if len(values) > rows * cols:
            raise MatrixFormatError(path, line_no, "more values than rows*cols")
    if values is None:
        raise MatrixFormatError(path, len(raw), "missing size line")
    if len(values) != rows * cols:
        raise MatrixFormatError(path, len(raw), f"found {len(values)} of {rows * cols} values")
    return np.array(values, dtype=np.complex128).reshape((cols, rows)).T.copy()


def _csv_lines(m: np.ndarray) -> list[str]:
    return [",".join(format_complex(z) for z in row) for row in m]


def _parse_csv_entry(token: str, path, line_no: int) -> complex:
    text = token.strip().replace("−", "-")
    if not text:
        raise MatrixFormatError(path, line_no, "empty matrix entry")
    try:
        z = complex(text[:-1].replace(" ", "") + "j") if text[-1] in "iI" else complex(float(text))
    except ValueError:
        raise MatrixFormatError(path, line_no, f"unparsable entry {token!r}") from None
    if not cmath.isfinite(z):
        raise MatrixFormatError(path, line_no, "non-finite matrix entry (NaN or Inf)")
    return z


def _parse_csv(raw: list[str], path) -> np.ndarray:
    rows = []
    for line_no, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        entries = [_parse_csv_entry(tok, path, line_no) for tok in line.split(",")]
        if rows and len(entries) != len(rows[0]):
            raise MatrixFormatError(
                path, line_no, f"row has {len(entries)} entries, expected {len(rows[0])}"
            )
        rows.append(entries)
    if not rows:
        raise MatrixFormatError(path, 1, "no matrix rows found")
    return np.array(rows, dtype=np.complex128)


_FORMATS = {
    ".mtx": (_mm_lines, _parse_mm),
    ".mm": (_mm_lines, _parse_mm),
    ".csv": (_csv_lines, _parse_csv),
}


def _format_of(path: Path):
    """The line writer and the parser of ``path``'s format."""
    if path.suffix.lower() not in _FORMATS:
        raise MatrixFormatError(path, None, f"unsupported matrix file extension: {path.name!r}")
    return _FORMATS[path.suffix.lower()]


def write_matrix(a, path) -> None:
    """Write ``a`` to ``path`` in the format implied by its extension."""
    m = as_matrix(a)
    path = Path(path)
    lines, _ = _format_of(path)
    path.write_text("\n".join(lines(m)) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    """Read a matrix from ``path`` in the format implied by its extension.

    Raises MatrixFormatError, naming the line where one is at fault, for an
    unreadable or malformed file, an unsupported extension and a NaN or
    infinite entry.
    """
    path = Path(path)
    _, parse = _format_of(path)
    try:
        raw = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixFormatError(path, None, str(exc)) from exc
    return parse(raw, path)
