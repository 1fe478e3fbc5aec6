"""Matrix file I/O in two flat formats, selected by file extension.

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

from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = ["MatrixFormatError", "format_complex", "read_matrix", "write_matrix"]

_MM_EXTENSIONS = {".mtx", ".mm"}
_CSV_EXTENSIONS = {".csv"}


class MatrixFormatError(ValueError):
    """A matrix file could not be parsed; carries the offending line number."""

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


def _parse_entry_csv(token: str, path, line_no: int) -> complex:
    text = token.strip().replace("−", "-")
    if not text:
        raise MatrixFormatError(path, line_no, "empty matrix entry")
    try:
        if text.endswith("i") or text.endswith("I"):
            return complex(text[:-1].replace(" ", "") + "j")
        return complex(float(text))
    except ValueError:
        raise MatrixFormatError(path, line_no, f"unparsable entry {token!r}") from None


def write_matrix(a, path) -> None:
    """Write ``a`` to ``path`` in the format implied by its extension."""
    m = as_matrix(a)
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in _MM_EXTENSIONS:
        _write_matrix_market(m, path)
    elif suffix in _CSV_EXTENSIONS:
        _write_csv(m, path)
    else:
        raise ValueError(f"unsupported matrix file extension: {path.name!r}")


def read_matrix(path) -> np.ndarray:
    """Read a matrix from ``path`` in the format implied by its extension.

    Raises MatrixFormatError, naming the line, for an unparsable file and for
    a NaN or infinite entry.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in _MM_EXTENSIONS:
        return _read_matrix_market(path)
    if suffix in _CSV_EXTENSIONS:
        return _read_csv(path)
    raise ValueError(f"unsupported matrix file extension: {path.name!r}")


def _write_matrix_market(m: np.ndarray, path: Path) -> None:
    rows, cols = m.shape
    lines = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
    for j in range(cols):
        for i in range(rows):
            z = m[i, j]
            lines.append(f"{_fmt(z.real)} {_fmt(z.imag)}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_matrix_market(path: Path) -> np.ndarray:
    try:
        raw = path.read_text(encoding="ascii").splitlines()
    except OSError as exc:
        raise MatrixFormatError(path, None, str(exc)) from exc
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

    size = None
    values = []
    expected = None
    for line_no, text in _mm_content(raw):
        if size is None:
            parts = text.split()
            if len(parts) != 2:
                raise MatrixFormatError(path, line_no, "size line must be 'rows cols'")
            try:
                size = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise MatrixFormatError(path, line_no, "size line must hold integers") from None
            if size[0] < 1 or size[1] < 1:
                raise MatrixFormatError(path, line_no, "matrix dimensions must be >= 1")
            expected = size[0] * size[1]
            continue
        parts = text.split()
        try:
            if fld == "complex":
                if len(parts) != 2:
                    raise ValueError
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                if len(parts) != 1:
                    raise ValueError
                values.append(complex(float(parts[0])))
        except ValueError:
            raise MatrixFormatError(path, line_no, f"unparsable value line {text!r}") from None
        if len(values) > expected:
            raise MatrixFormatError(path, line_no, "more values than rows*cols")
    if size is None:
        raise MatrixFormatError(path, len(raw), "missing size line")
    if len(values) != expected:
        raise MatrixFormatError(
            path, len(raw), f"expected {expected} values, found {len(values)}"
        )
    flat = np.array(values, dtype=np.complex128)
    # Value k sits on the content line after the size line and k others.
    _require_finite(flat, path, lambda k: list(_mm_content(raw))[k + 1][0])
    rows, cols = size
    return flat.reshape((cols, rows)).T.copy()


def _mm_content(raw):
    """(line number, text) of each line after the header that is neither
    blank nor a comment."""
    for line_no, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if text and not text.startswith("%"):
            yield line_no, text


def _require_finite(values: np.ndarray, path, line_of) -> None:
    """Raise MatrixFormatError unless every entry of ``values`` is finite.

    One vectorized test covers the whole array; ``line_of`` maps the flat
    index of the first bad entry to its line and runs only on failure.
    """
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite.ravel()))
        raise MatrixFormatError(path, line_of(index), "non-finite matrix entry (NaN or Inf)")


def _write_csv(m: np.ndarray, path: Path) -> None:
    lines = [",".join(format_complex(z) for z in row) for row in m]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_csv(path: Path) -> np.ndarray:
    try:
        raw = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise MatrixFormatError(path, None, str(exc)) from exc
    rows = []
    width = None
    for line_no, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        entries = [_parse_entry_csv(tok, path, line_no) for tok in line.split(",")]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise MatrixFormatError(
                path, line_no, f"row has {len(entries)} entries, expected {width}"
            )
        rows.append(entries)
    if not rows:
        raise MatrixFormatError(path, 1, "no matrix rows found")
    m = np.array(rows, dtype=np.complex128)
    # Matrix row r is the r-th non-blank line.
    _require_finite(
        m, path, lambda k: [i for i, line in enumerate(raw, start=1) if line.strip()][k // width]
    )
    return m
