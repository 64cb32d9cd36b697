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
``column_supports()``), and every index is written through one list of
index strings. A MatrixMarket row is one string, "\\ni j" for each of its
ones; an alist section's lines are rendered by ``_weight_line`` and
``_index_lines``.

alist and MatrixMarket import read their index sections a window of whole
lines at a time (``_windows``). A window laid out as export writes it is
read as written: its text with the digits deleted must be export's blanks
and newlines, it is split once, and its index tokens go through a table
``{str(v): v}`` (``int()`` as a whole if the table misses one).
MatrixMarket import is one pass in file order. Its rows are runs of equal
row tokens (``int()`` reads one per run), each summed from shifted bits
into its row word, and a window is kept only if its rows gained one bit
per entry. Any other window (spellings such as "+3", tabs or "\\r", a last
line without its newline, and every error) is read line by line in place,
with its own line numbers, and the pass goes on. An alist is read as
written from its row section: row i's first row_weights[i] tokens must be
distinct indices (its popcount says so), the rest zeros, each column must
hold as many of those rows as line 3 says, and the column section must
equal, byte for byte, what ``_index_lines`` renders for them. Any other
alist body is read line by line from its first column line, a window of
lines at a time.

The line-by-line reading defines the accepted language and every error:
tokens are read as a plain ``int()`` parse reads them, entries are set one
at a time, so a repeated index is the bit already set, and errors name the
first bad line in file order. Besides the matrix it returns, import holds
one window (its text, bytes, tokens and ints, or its lines), its tables
and, for an alist read as written, the written row names of each column's
ones; it never splits a whole section. A header whose shape is past
``bitmatrix.within_limit`` is refused on its size line before anything is
allocated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, count, groupby, islice, repeat
from operator import add, lshift, ne

from . import bitmatrix
from .bitmatrix import BitMatrix, bit_support, column_supports

FORMATS = ("alist", "matrixmarket", "dense")

MM_HEADER = "%%MatrixMarket matrix coordinate pattern general"

_DIGITS = b"0123456789"

# Import reads a section this many characters at a time, cut back to the
# last newline (a longer line is a window of its own). Measured on a 2-vCPU
# Xeon VM, CPython 3.11, importing build_b(6, 6) (1.5 MiB payloads): a whole
# section as one window peaked at 28.9 MiB traced in MatrixMarket and 18.6
# MiB in alist. Windows of 2, 8, 32 and 64 KiB peaked at 0.12, 0.23, 0.71
# and 1.38 MiB in MatrixMarket (1.85, 2.03, 2.88 and 3.97 MiB in alist,
# most of it the column lists); from 4 KiB up they imported within the
# spread of repeated runs, and 2 KiB windows were 4-10 % slower.
_WINDOW = 1 << 13


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
        parts = [MM_HEADER, f"\n{m.rows} {m.cols} {sum(m.row_sums())}"]
        for name, support in zip(one_based, m.supports()):
            if support:
                p = f"\n{name} "
                parts.append(p + p.join(map(one_based.__getitem__, support)))
        parts.append("\n")
        return "".join(parts)
    if fmt == "alist":
        row_idx = m.supports()
        col_idx = column_supports(row_idx, m.cols)
        cmax = max(map(len, col_idx))
        rmax = max(map(len, row_idx))
        lines = [
            f"{m.cols} {m.rows}",
            f"{cmax} {rmax}",
            _weight_line(col_idx, names),
            _weight_line(row_idx, names),
        ]
        # the names of one line's indices are looked up as that line is rendered
        for idx, width in ((col_idx, cmax), (row_idx, rmax)):
            lines.extend(_index_lines((list(map(one_based.__getitem__, s)) for s in idx), width))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _weight_line(index_lists: Iterable[Sequence], names: Sequence[str]) -> str:
    """An alist weight line: names[len(s)] for each list s of indices."""
    return " ".join(map(names.__getitem__, map(len, index_lists)))


def _index_lines(index_lists: Iterable[list[str]], width: int) -> Iterable[str]:
    """alist index lines, one at a time: each list of written indices, then "0" up to width."""
    return (" ".join(s + ["0"] * (width - len(s))) for s in index_lists)


def import_matrix(text: str, fmt: str) -> BitMatrix:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if not text:
        raise MatrixParseError(1, "empty payload")
    if fmt == "dense":
        return _parse_dense(text)
    if fmt == "matrixmarket":
        return _parse_matrixmarket(text)
    return _parse_alist(text)


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _line_at(text: str, start: int) -> tuple[str, int]:
    """The line of text that begins at start, and where the next one begins.

    As ``_lines`` cuts text, a next line exists only if it begins before
    len(text).
    """
    end = text.find("\n", start)
    if end < 0:
        return text[start:], len(text)
    return text[start:end], end + 1


def _line_count(text: str, start: int) -> int:
    """How many lines ``_lines`` cuts text[start:] into."""
    if start >= len(text):
        return 0
    return text.count("\n", start) + (not text.endswith("\n"))


def _windows(text: str, start: int, lines: int) -> Iterator[tuple[int, int, int]]:
    """The next ``lines`` lines of text from start, cut into windows of whole lines.

    A window is as many whole lines as fit in _WINDOW characters, or one
    line that alone is longer. text must hold ``lines`` lines from start on,
    as ``_lines`` cuts it; the last line of text may lack its newline, and
    is then a window of its own. Yields each window as (start, stop, line
    count): its text is text[start:stop], and nothing is copied here.
    """
    while lines:
        stop = text.rfind("\n", start, start + _WINDOW) + 1
        stop = stop or text.find("\n", start) + 1 or len(text)
        n = text.count("\n", start, stop) or 1
        if n > lines:
            # the window holds the section's last line and more
            stop = start
            for _ in range(lines):
                stop = text.index("\n", stop) + 1
            n = lines
        yield start, stop, n
        start, lines = stop, lines - n


def _check_size(rows: int, cols: int, lineno: int) -> None:
    if not bitmatrix.within_limit(rows, cols):
        raise MatrixParseError(
            lineno, f"{rows} x {cols} exceeds the limit of {bitmatrix.MAX_CELLS} cells"
        )


def _ints(line: str, lineno: int) -> list[int]:
    """The line's blank-separated tokens, each read by int()."""
    out = []
    for tok in line.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise MatrixParseError(lineno, f"expected integer, got {tok!r}") from None
    return out


def _laid_out(section: str, line: bytes, lines: int) -> bool:
    """Whether section, with its digits deleted, is line repeated lines times.

    Text that is not ASCII never is. line * lines is built only once the
    section is known to be that long.
    """
    if not section.isascii():
        return False
    rest = section.encode().translate(None, _DIGITS)
    return len(rest) == len(line) * lines and rest == line * lines


def _table(first: int, last: int, tokens: int) -> dict[str, int]:
    """{str(v): v} for v from first up to last, at most tokens + 1 entries for that many tokens."""
    top = min(last, first + tokens)
    return dict(zip(map(str, range(first, top + 1)), count(first)))


def _indices(
    tokens: list[str], table: dict[str, int], first: int, last: int
) -> list[int] | None:
    """The digit tokens as ints, or None unless every one is in first..last.

    ``table`` (from ``_table(first, last, ·)``, or empty) converts them; if
    it misses one, int() converts them all, as the line-by-line route would.
    """
    try:
        return list(map(table.__getitem__, tokens))
    except KeyError:
        pass
    try:
        values = list(map(int, tokens))
    except ValueError:  # more digits than int() reads, so out of range
        return None
    return values if first <= min(values) and max(values) <= last else None


def _word(indices: Sequence[int]) -> int:
    """Word with bit v-1 set for each 1-based index v.

    A repeated index carries into the next bit, so the popcount comes out
    short of the number of indices; an index 0 drops out the same way.
    """
    return sum(map(lshift, repeat(1), indices)) >> 1


def _parse_dense(text: str) -> BitMatrix:
    lines = _lines(text)
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
    # the lines up to the size line are cut off one at a time; the entry
    # section stays in text and is read a window at a time
    line, start = _line_at(text, 0)
    header = line.split()
    expected = MM_HEADER.split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or [
        h.lower() for h in header[1:]
    ] != expected[1:]:
        raise MatrixParseError(1, "expected coordinate-pattern-general header")
    t = 1
    while start < len(text):
        line, after = _line_at(text, start)
        if not line.startswith("%"):
            break
        t, start = t + 1, after
    else:
        raise MatrixParseError(t + 1, "missing size line")
    size = _ints(line, t + 1)
    if len(size) != 3 or size[0] < 1 or size[1] < 1 or size[2] < 0:
        raise MatrixParseError(t + 1, "size line must be 'rows cols nnz'")
    rows, cols, nnz = size
    _check_size(rows, cols, t + 1)
    got = _line_count(text, after)
    if got != nnz:
        raise MatrixParseError(t + 2, f"expected {nnz} entry lines, got {got}")
    # the column table is built at the first window laid out as written, so
    # a header's nnz over lines that are not entries allocates none
    col_table: dict[str, int] = {}
    words = [0] * rows
    lineno = t + 2
    for begin, stop, n in _windows(text, after, nnz):
        window = text[begin:stop]
        laid_out = _laid_out(window, b" \n", n)
        if laid_out and not col_table:
            col_table = _table(1, cols, nnz)
        if not (laid_out and _entries_as_written(window, n, words, cols, col_table)):
            _entries_by_line(window, lineno, words, cols)
        lineno += n
    return BitMatrix(rows, cols, tuple(words))


def _entries_as_written(
    window: str, n: int, words: list[int], cols: int, col_table: dict[str, int]
) -> bool:
    """OR n MatrixMarket entry lines laid out as export writes them into the row words.

    The caller has checked that the window is n lines "i j", each ending in
    a newline, once its digits are deleted (``_laid_out``). Each run of
    equal row tokens is one row piece: the column tokens go through
    col_table, and int() reads the first row token of the run.
    False, with the words as they were, for a line missing a token, an
    index out of range or an entry that sets no new bit.
    """
    tokens = window.split()
    if len(tokens) != 2 * n:
        return False
    # runs of equal row tokens: as written, one run per row and window
    runs = [(token, len(list(run))) for token, run in groupby(tokens[0::2])]
    jj = _indices(tokens[1::2], col_table, 1, cols)
    ii = _indices([token for token, _ in runs], {}, 1, len(words))
    if ii is None or jj is None:
        return False
    rows = [i - 1 for i in ii]
    if len(set(rows)) != len(rows):
        return False
    old = list(map(words.__getitem__, rows))
    ends = list(accumulate(length for _, length in runs))
    for i, first, end in zip(rows, [0, *ends], ends):
        words[i] |= _word(jj[first:end])
    # every entry set a new bit if the window's rows gained n ones
    if sum(map(int.bit_count, map(words.__getitem__, rows))) - sum(map(int.bit_count, old)) == n:
        return True
    for i, word in zip(rows, old):
        words[i] = word
    return False


def _entries_by_line(window: str, lineno: int, words: list[int], cols: int) -> None:
    """Set the MatrixMarket entries of window, whose first line is line lineno, one at a time."""
    rows = len(words)
    for lineno, line in enumerate(_lines(window), lineno):
        pair = _ints(line, lineno)
        if len(pair) != 2:
            raise MatrixParseError(lineno, "entries must be 'row col' pairs")
        i, j = pair
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(lineno, f"entry ({i}, {j}) out of bounds")
        if (words[i - 1] >> (j - 1)) & 1:
            raise MatrixParseError(lineno, f"duplicate entry ({i}, {j})")
        words[i - 1] |= 1 << (j - 1)


def _parse_alist(text: str) -> BitMatrix:
    # the four header lines are cut off one at a time; the index sections
    # stay in text, split into lines only to go line by line
    line, start = _line_at(text, 0)
    head = _ints(line, 1)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise MatrixParseError(1, "header must be 'ncols nrows'")
    cols, rows = head
    _check_size(rows, cols, 1)
    got = _line_count(text, 0)
    if got != 4 + cols + rows:
        raise MatrixParseError(
            got, f"expected {4 + cols + rows} lines for {cols} columns, {rows} rows"
        )
    # the count leaves at least six lines, so the next three are all there
    header = []
    for _ in range(3):
        line, start = _line_at(text, start)
        header.append(line)
    maxima = _ints(header[0], 2)
    if len(maxima) != 2:
        raise MatrixParseError(2, "second line must be 'cmax rmax'")
    cmax, rmax = maxima
    col_weights = _ints(header[1], 3)
    row_weights = _ints(header[2], 4)
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
    words = _alist_as_written(text, start, cmax, rmax, col_weights, row_weights)
    if words is None:
        words = _alist_words_by_line(text, start, col_weights, row_weights)
    return BitMatrix(rows, cols, tuple(words))


def _alist_as_written(
    text: str, start: int, cmax: int, rmax: int, col_weights: list[int], row_weights: list[int]
) -> list[int] | None:
    """Row words of the alist body text[start:], laid out as export writes it, or None.

    Both index sections must be lines of exactly cmax (rmax) digit tokens
    separated by single blanks, the last line ending in a newline. The words
    are read from the row section alone, a window at a time
    (``_windows``): row i's first row_weights[i] tokens must be distinct
    indices (its popcount says so) and all its other tokens zeros (the zero
    count says so). Each column must then hold as many of those rows as
    ``col_weights`` (line 3, already read as ints) says, and the column
    section must be what ``_index_lines`` writes for them, compared a
    window at a time. None (the payload then goes line by line) otherwise.
    """
    cols, rows = len(col_weights), len(row_weights)
    # true of every payload as written, and it bounds the lines the layout
    # checks build by the payload's line count
    if not (0 <= cmax <= rows and 0 <= rmax <= cols and text.endswith("\n")):
        return None
    col_line = b" " * (cmax - 1) + b"\n"
    row_start = start
    for begin, row_start, n in _windows(text, start, cols):
        if not _laid_out(text[begin:row_start], col_line, n):
            return None
    row_line = b" " * (rmax - 1) + b"\n"
    table = _table(0, cols, rows * rmax)
    words: list[int] = []
    # the rows holding each column, written and in order; only a column
    # that holds a one gets a list, as a list for every column would cost a
    # wide payload with few ones more than going line by line
    holders: defaultdict[int, list[str]] = defaultdict(list)
    for begin, stop, n in _windows(text, row_start, rows):
        window = text[begin:stop]
        if not _laid_out(window, row_line, n):
            return None
        tokens = window.split()
        if len(tokens) != n * rmax:
            return None
        values = _indices(tokens, table, 0, cols)
        if values is None:
            return None
        first = len(words)
        weights = row_weights[first : first + n]
        if values.count(0) != len(values) - sum(weights):
            return None
        # with rmax = 0 every row is empty and any start will do
        starts = range(0, n * rmax, rmax) if rmax else range(n)
        segments = map(slice, starts, map(add, starts, weights))
        for name, row in zip(map(str, count(first + 1)), map(values.__getitem__, segments)):
            words.append(_word(row))
            for j in row:
                holders[j].append(name)
    if any(map(ne, map(int.bit_count, words), row_weights)):
        return None
    if any(map(ne, map(len, map(holders.get, range(1, cols + 1), repeat([]))), col_weights)):
        return None
    # each column line of the payload holds cmax tokens (checked first), so
    # no rendered line pads past the payload's
    col_lines = _index_lines(map(holders.get, range(1, cols + 1), repeat([])), cmax)
    for begin, stop, n in _windows(text, start, cols):
        if text[begin:stop] != "\n".join(islice(col_lines, n)) + "\n":
            return None
    return words


def _alist_words_by_line(
    text: str, start: int, col_weights: list[int], row_weights: list[int]
) -> list[int]:
    """Row words of the alist body text[start:], set from its column lines one entry at a time."""
    cols, rows = len(col_weights), len(row_weights)
    # the body's lines, split a window at a time
    windows = _windows(text, start, cols + rows)
    lines = chain.from_iterable(_lines(text[begin:stop]) for begin, stop, _ in windows)
    words = [0] * rows
    for j, (weight, line) in enumerate(zip(col_weights, lines)):
        lineno = 5 + j
        idx = list(filter(None, _ints(line, lineno)))
        if len(idx) != weight:
            raise MatrixParseError(
                lineno, f"column {j + 1} lists {len(idx)} entries, header says {weight}"
            )
        for i in idx:
            if not (1 <= i <= rows):
                raise MatrixParseError(lineno, f"row index {i} out of bounds")
            if words[i - 1] >> j & 1:
                raise MatrixParseError(lineno, f"duplicate entry in column {j + 1}")
            words[i - 1] |= 1 << j
    for i, (weight, line) in enumerate(zip(row_weights, lines), 1):
        lineno = 4 + cols + i
        idx = list(filter(None, _ints(line, lineno)))
        if len(idx) != weight:
            raise MatrixParseError(
                lineno, f"row {i} lists {len(idx)} entries, header says {weight}"
            )
        if sorted(idx) != [j + 1 for j in bit_support(words[i - 1], cols)]:
            raise MatrixParseError(lineno, f"row {i} disagrees with the column section")
    return words
