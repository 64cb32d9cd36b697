"""Bit-exact matrix serialization: alist, MatrixMarket pattern, dense text.

alist layout: line 1 "N M" (N = columns, M = rows); line 2 "cmax rmax";
line 3 the N column weights; line 4 the M row weights; then N lines of
1-based row indices per column padded with 0 to cmax; then M lines of
1-based column indices per row padded to rmax. MatrixMarket uses the
coordinate-pattern header with row-major sorted entries. Dense text is
one line of 0/1 characters per row. Import is the exact inverse of export
for all three.

Export works on whole rows: the ones of every row come from
``BitMatrix.supports()`` (for the alist column section,
``column_supports()``), and every index is written through one
list of index strings.

Import converts tokens through a table ``{str(v): v}`` sized from the
already-checked header and capped at twice the number of ones it declares
(for MatrixMarket, its entry lines; for each alist section, also the
tokens its lines can hold), so one lookup both converts a token and bounds
it, and a payload with few ones, or a header that overstates them, builds
no large table whatever shape it declares. Only a token the table misses
("05", "+3", an index out of range or past the cap, a word) goes through
``int()``, which keeps the language a plain ``int()`` parse accepts. Row
words are summed from shifted bits, never set one entry at a time, so a
repeated index shows as a popcount short of the entry count. The
MatrixMarket entry section is split and converted in one pass; a section
that pass does not take as it stands goes line by line. alist lines are
converted one line at a time; the column section's indices are gathered
per row (only rows that get a one have a list), each row line must list
exactly its row's gathered columns, and the words are summed from those
lists. Errors name the first bad line in file order, as a line-by-line
parse would. A header whose shape is past ``bitmatrix.within_limit`` is
refused on its size line before anything is allocated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import lshift, ne

from . import bitmatrix
from .bitmatrix import BitMatrix, column_supports

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
    # names[v] is str(v) for every index, weight and padding zero written
    names = list(map(str, range(max(m.rows, m.cols) + 1)))
    one_based = names[1:]
    if fmt == "matrixmarket":
        lines = [MM_HEADER, f"{m.rows} {m.cols} {sum(m.row_sums())}"]
        for name, support in zip(one_based, m.supports()):
            lines.extend(map(f"{name} ".__add__, map(one_based.__getitem__, support)))
        return "\n".join(lines) + "\n"
    if fmt == "alist":
        row_idx = m.supports()
        col_idx = column_supports(row_idx, m.cols)
        cmax = max(map(len, col_idx))
        rmax = max(map(len, row_idx))
        lines = [
            f"{m.cols} {m.rows}",
            f"{cmax} {rmax}",
            " ".join(map(names.__getitem__, map(len, col_idx))),
            " ".join(map(names.__getitem__, map(len, row_idx))),
        ]
        for section, width in ((col_idx, cmax), (row_idx, rmax)):
            lines.extend(
                " ".join(chain(map(one_based.__getitem__, s), repeat("0", width - len(s))))
                for s in section
            )
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


def _check_size(rows: int, cols: int, lineno: int) -> None:
    if not bitmatrix.within_limit(rows, cols):
        raise MatrixParseError(
            lineno, f"{rows} x {cols} exceeds the limit of {bitmatrix.MAX_CELLS} cells"
        )


def _index_table(n: int) -> dict[str, int]:
    """{"0": 0, "1": 1, ..., str(n): n}."""
    return dict(zip(map(str, range(n + 1)), range(n + 1)))


def _token_bound(lines: Iterable[str], nlines: int) -> int:
    """At most this many blank-separated tokens are on the nlines lines given.

    A token is at least one character, and a blank or a line end follows it.
    """
    return (sum(map(len, lines)) + nlines) // 2


def _ints(line: str, lineno: int, table: dict[str, int] | None = None) -> list[int]:
    """The line's tokens as integers: through table if it has them all, else int()."""
    tokens = line.split()
    if table is not None:
        values = list(map(table.get, tokens))
        if None not in values:
            return values
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise MatrixParseError(lineno, f"expected integer, got {tok!r}") from None
    return out


def _word(indices: Sequence[int]) -> int:
    """Word with bit v-1 set for each 1-based index v.

    A repeated index carries into the next bit, so the popcount comes out
    short of the number of indices.
    """
    return sum(map(lshift, repeat(1), indices)) >> 1


def _first_bad(indices: list[int], n: int) -> int | None:
    """The first index outside 1..n or repeated, or None."""
    if not indices or (
        len(set(indices)) == len(indices) and min(indices) >= 1 and max(indices) <= n
    ):
        return None
    seen = set()
    for v in indices:
        if not (1 <= v <= n) or v in seen:
            return v
        seen.add(v)
    return None


def _parse_dense(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise MatrixParseError(1, "empty payload")
    width = len(lines[0])
    _check_size(len(lines), width, 1)
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
    _check_size(rows, cols, t + 1)
    entry_lines = lines[t + 1 :]
    if len(entry_lines) != nnz:
        raise MatrixParseError(t + 2, f"expected {nnz} entry lines, got {len(entry_lines)}")
    words = _entry_words(entry_lines, rows, cols)
    if words is None:
        words = _entry_words_by_line(entry_lines, t + 2, rows, cols)
    return BitMatrix(rows, cols, tuple(words))


def _entry_words(entry_lines: list[str], rows: int, cols: int) -> list[int] | None:
    """Row words of a MatrixMarket entry section, in one pass over its tokens.

    Each line is cut once at its first blank, so a line with more than two
    tokens leaves a second part the index table misses and a line with
    fewer leaves the token count short. None when that happens, or an index
    is out of range or an entry repeats; the section then goes line by line,
    which finds the line to blame or, for tokens spelled another way (such
    as "05" or trailing blanks), the same words.
    """
    # no larger than the section's token count, so a short section declaring
    # a huge shape builds no huge table (its larger indices then miss)
    table = _index_table(min(max(rows, cols), 2 * len(entry_lines)))
    parts = chain.from_iterable(map(str.split, entry_lines, repeat(None), repeat(1)))
    values = list(map(table.get, parts))
    if len(values) != 2 * len(entry_lines) or None in values:
        return None
    ii, jj = values[0::2], values[1::2]
    del values
    if not ii:
        return [0] * rows
    if min(ii) < 1 or max(ii) > rows or min(jj) < 1 or max(jj) > cols:
        return None
    # runs of entries on one row; export order has one run per row, and a
    # row split over several runs is OR-ed together
    cuts = [0, *compress(count(1), map(ne, ii, islice(ii, 1, None))), len(ii)]
    words = [0] * rows
    for start, end in pairwise(cuts):
        words[ii[start] - 1] |= _word(jj[start:end])
    # a repeated entry carries within a run, or is OR-ed once across two
    if sum(map(int.bit_count, words)) != len(ii):
        return None
    return words


def _entry_words_by_line(
    entry_lines: list[str], first_lineno: int, rows: int, cols: int
) -> list[int]:
    words = [0] * rows
    for lineno, line in enumerate(entry_lines, first_lineno):
        pair = _ints(line, lineno)
        if len(pair) != 2:
            raise MatrixParseError(lineno, "entries must be 'row col' pairs")
        i, j = pair
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(lineno, f"entry ({i}, {j}) out of bounds")
        if (words[i - 1] >> (j - 1)) & 1:
            raise MatrixParseError(lineno, f"duplicate entry ({i}, {j})")
        words[i - 1] |= 1 << (j - 1)
    return words


def _parse_alist(text: str) -> BitMatrix:
    lines = _lines(text)
    if not lines:
        raise MatrixParseError(1, "empty payload")
    head = _ints(lines[0], 1)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise MatrixParseError(1, "header must be 'ncols nrows'")
    cols, rows = head
    _check_size(rows, cols, 1)
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
    # each section's table covers the indices it may hold, but no more than
    # the declared index count nor the tokens its lines can hold, so a
    # header with few ones or a short section builds no huge table (indices
    # past it miss and go through int())
    declared = 2 * sum(col_weights) + 1
    col_tokens = _token_bound(islice(lines, 4, 4 + cols), cols)
    row_tokens = _token_bound(islice(lines, 4 + cols, None), rows)
    col_table = _index_table(min(rows, declared, col_tokens))
    row_table = _index_table(min(cols, declared, row_tokens))
    # the columns of each row, gathered from the column section in order;
    # only rows that get a one have a list
    row_idx: defaultdict[int, list[int]] = defaultdict(list)
    for j, weight in enumerate(col_weights, 1):
        lineno = 4 + j
        idx = list(filter(None, _ints(lines[lineno - 1], lineno, col_table)))
        if len(idx) != weight:
            raise MatrixParseError(
                lineno, f"column {j} lists {len(idx)} entries, header says {weight}"
            )
        bad = _first_bad(idx, rows)
        if bad is not None:
            if not (1 <= bad <= rows):
                raise MatrixParseError(lineno, f"row index {bad} out of bounds")
            raise MatrixParseError(lineno, f"duplicate entry in column {j}")
        for i in idx:
            row_idx[i].append(j)
    for i, weight in enumerate(row_weights, 1):
        lineno = 4 + cols + i
        idx = list(filter(None, _ints(lines[lineno - 1], lineno, row_table)))
        if len(idx) != weight:
            raise MatrixParseError(
                lineno, f"row {i} lists {len(idx)} entries, header says {weight}"
            )
        if sorted(idx) != row_idx.get(i, []):
            raise MatrixParseError(lineno, f"row {i} disagrees with the column section")
    return BitMatrix(rows, cols, tuple(_word(row_idx.get(i, ())) for i in range(1, rows + 1)))
