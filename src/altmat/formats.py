"""Bit-exact matrix serialization: alist, MatrixMarket pattern, dense text.

alist layout: line 1 "N M" (N = columns, M = rows); line 2 "cmax rmax";
line 3 the N column weights; line 4 the M row weights; then N lines of
1-based row indices per column padded with 0 to cmax; then M lines of
1-based column indices per row padded to rmax. MatrixMarket uses the
coordinate-pattern header with row-major sorted entries. Dense text is
one line of 0/1 characters per row. Import is the exact inverse of export
for all three.
"""

from __future__ import annotations

from .bitmatrix import BitMatrix

FORMATS = ("alist", "matrixmarket", "dense")

MM_HEADER = "%%MatrixMarket matrix coordinate pattern general"


class MatrixParseError(ValueError):
    """Malformed payload; the message carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def export_matrix(m: BitMatrix, fmt: str) -> str:
    if fmt == "dense":
        numeral = f"0{m.cols}b"
        return "".join(format(w, numeral)[::-1] + "\n" for w in m.bits)
    if fmt == "matrixmarket":
        entries = [(i + 1, j + 1) for i in range(m.rows) for j in m.row_ones(i)]
        lines = [MM_HEADER, f"{m.rows} {m.cols} {len(entries)}"]
        lines.extend(f"{i} {j}" for i, j in entries)
        return "\n".join(lines) + "\n"
    if fmt == "alist":
        col_idx = [[] for _ in range(m.cols)]
        row_idx = []
        for i in range(m.rows):
            ones = m.row_ones(i)
            row_idx.append([j + 1 for j in ones])
            for j in ones:
                col_idx[j].append(i + 1)
        cmax = max((len(c) for c in col_idx), default=0)
        rmax = max((len(r) for r in row_idx), default=0)
        lines = [
            f"{m.cols} {m.rows}",
            f"{cmax} {rmax}",
            " ".join(str(len(c)) for c in col_idx),
            " ".join(str(len(r)) for r in row_idx),
        ]
        for c in col_idx:
            lines.append(" ".join(str(v) for v in c + [0] * (cmax - len(c))))
        for r in row_idx:
            lines.append(" ".join(str(v) for v in r + [0] * (rmax - len(r))))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def import_matrix(text: str, fmt: str) -> BitMatrix:
    if fmt == "dense":
        return _parse_dense(text)
    if fmt == "matrixmarket":
        return _parse_matrixmarket(text)
    if fmt == "alist":
        return _parse_alist(text)
    raise ValueError(f"unknown format {fmt!r}")


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _ints(line: str, lineno: int) -> list[int]:
    out = []
    for tok in line.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise MatrixParseError(lineno, f"expected integer, got {tok!r}") from None
    return out


def _parse_dense(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise MatrixParseError(1, "empty payload")
    width = len(lines[0])
    words = []
    for t, line in enumerate(lines):
        if len(line) != width or width == 0:
            raise MatrixParseError(t + 1, "rows must be equal-length and nonempty")
        if line.count("0") + line.count("1") != width:
            j, ch = next((j, ch) for j, ch in enumerate(line) if ch not in "01")
            raise MatrixParseError(t + 1, f"column {j + 1}: invalid character {ch!r}")
        words.append(int(line[::-1], 2))
    return BitMatrix(len(lines), width, tuple(words))


def _parse_matrixmarket(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise MatrixParseError(1, "empty payload")
    header = lines[0].split()
    expected = MM_HEADER.split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or [
        h.lower() for h in header[1:]
    ] != expected[1:]:
        raise MatrixParseError(1, "expected coordinate-pattern-general header")
    t = 1
    while t < len(lines) and lines[t].startswith("%"):
        t += 1
    if t >= len(lines):
        raise MatrixParseError(t + 1, "missing size line")
    size = _ints(lines[t], t + 1)
    if len(size) != 3 or size[0] < 1 or size[1] < 1 or size[2] < 0:
        raise MatrixParseError(t + 1, "size line must be 'rows cols nnz'")
    rows, cols, nnz = size
    entry_lines = lines[t + 1 :]
    if len(entry_lines) != nnz:
        raise MatrixParseError(t + 2, f"expected {nnz} entry lines, got {len(entry_lines)}")
    words = [0] * rows
    for offset, line in enumerate(entry_lines):
        lineno = t + 2 + offset
        pair = _ints(line, lineno)
        if len(pair) != 2:
            raise MatrixParseError(lineno, "entries must be 'row col' pairs")
        i, j = pair
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(lineno, f"entry ({i}, {j}) out of bounds")
        if (words[i - 1] >> (j - 1)) & 1:
            raise MatrixParseError(lineno, f"duplicate entry ({i}, {j})")
        words[i - 1] |= 1 << (j - 1)
    return BitMatrix(rows, cols, tuple(words))


def _parse_alist(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise MatrixParseError(1, "empty payload")
    head = _ints(lines[0], 1)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise MatrixParseError(1, "header must be 'ncols nrows'")
    cols, rows = head
    if len(lines) != 4 + cols + rows:
        raise MatrixParseError(
            len(lines), f"expected {4 + cols + rows} lines for {cols} columns, {rows} rows"
        )
    maxima = _ints(lines[1], 2)
    if len(maxima) != 2:
        raise MatrixParseError(2, "second line must be 'cmax rmax'")
    cmax, rmax = maxima
    col_weights = _ints(lines[2], 3)
    row_weights = _ints(lines[3], 4)
    if len(col_weights) != cols:
        raise MatrixParseError(3, f"expected {cols} column weights, got {len(col_weights)}")
    if len(row_weights) != rows:
        raise MatrixParseError(4, f"expected {rows} row weights, got {len(row_weights)}")
    if col_weights and max(col_weights) != cmax:
        raise MatrixParseError(2, "cmax does not match the column weights")
    if row_weights and max(row_weights) != rmax:
        raise MatrixParseError(2, "rmax does not match the row weights")
    if sum(col_weights) != sum(row_weights):
        raise MatrixParseError(4, "row and column weights disagree on the number of ones")
    words = [0] * rows
    for j in range(cols):
        lineno = 5 + j
        entries = _ints(lines[lineno - 1], lineno)
        idx = [v for v in entries if v != 0]
        if len(idx) != col_weights[j]:
            raise MatrixParseError(
                lineno, f"column {j + 1} lists {len(idx)} entries, header says {col_weights[j]}"
            )
        for i in idx:
            if not (1 <= i <= rows):
                raise MatrixParseError(lineno, f"row index {i} out of bounds")
            if (words[i - 1] >> j) & 1:
                raise MatrixParseError(lineno, f"duplicate entry in column {j + 1}")
            words[i - 1] |= 1 << j
    m = BitMatrix(rows, cols, tuple(words))
    for i in range(rows):
        lineno = 5 + cols + i
        entries = _ints(lines[lineno - 1], lineno)
        idx = sorted(v for v in entries if v != 0)
        if len(idx) != row_weights[i]:
            raise MatrixParseError(
                lineno, f"row {i + 1} lists {len(idx)} entries, header says {row_weights[i]}"
            )
        if idx != [j + 1 for j in m.row_ones(i)]:
            raise MatrixParseError(lineno, f"row {i + 1} disagrees with the column section")
    return m
