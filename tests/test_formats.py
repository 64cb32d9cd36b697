import tracemalloc

import pytest
from hypothesis import given, settings

from altmat import (
    BitMatrix,
    MatrixParseError,
    bitmatrix,
    build_a,
    build_b,
    build_m,
    dims_of,
    export_matrix,
    formats,
    import_matrix,
)
import reference
from conftest import bit_matrices

A22 = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def test_dense_text_hand_value():
    assert export_matrix(A22, "dense") == "110\n101\n011\n"


def test_matrixmarket_hand_value():
    assert export_matrix(A22, "matrixmarket") == (
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 6\n"
        "1 1\n1 2\n2 1\n2 3\n3 2\n3 3\n"
    )


def test_alist_hand_value():
    assert export_matrix(A22, "alist") == (
        "3 3\n2 2\n2 2 2\n2 2 2\n1 2\n1 3\n2 3\n1 2\n1 3\n2 3\n"
    )


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export_matrix(A22, "csv")
    with pytest.raises(ValueError):
        import_matrix("", "csv")


@settings(max_examples=60)
@given(bit_matrices(max_rows=6, max_cols=9))
def test_round_trip_on_random_matrices(m):
    for fmt in ("dense", "matrixmarket", "alist"):
        assert import_matrix(export_matrix(m, fmt), fmt) == m


@pytest.mark.parametrize("fmt", ["dense", "matrixmarket", "alist"])
def test_round_trip_on_family_members(fmt):
    for mat in (build_a(4, 3), build_b(1, 4), build_b(6, 2), build_m(4)):
        assert import_matrix(export_matrix(mat, fmt), fmt) == mat


@pytest.mark.parametrize("fmt", ["dense", "matrixmarket", "alist"])
def test_empty_payload_is_a_parse_error(fmt):
    with pytest.raises(MatrixParseError, match="line 1"):
        import_matrix("", fmt)


def test_an_unknown_format_is_refused_before_the_payload_is_read():
    # the format name is checked first, so an empty payload still names it
    with pytest.raises(ValueError, match="unknown format 'bogus'") as exc:
        import_matrix("", "bogus")
    assert not isinstance(exc.value, MatrixParseError)


def test_dense_rejects_ragged_and_foreign_characters():
    with pytest.raises(MatrixParseError, match="line 2"):
        import_matrix("10\n1\n", "dense")
    with pytest.raises(MatrixParseError, match="invalid character"):
        import_matrix("1x\n", "dense")


def test_matrixmarket_rejects_malformed_payloads():
    with pytest.raises(MatrixParseError, match="header"):
        import_matrix("%%MatrixMarket matrix coordinate real general\n1 1 0\n", "matrixmarket")
    good = "%%MatrixMarket matrix coordinate pattern general\n"
    with pytest.raises(MatrixParseError, match="entry lines"):
        import_matrix(good + "2 2 2\n1 1\n", "matrixmarket")
    with pytest.raises(MatrixParseError, match="out of bounds"):
        import_matrix(good + "2 2 1\n3 1\n", "matrixmarket")
    with pytest.raises(MatrixParseError, match="duplicate"):
        import_matrix(good + "2 2 2\n1 1\n1 1\n", "matrixmarket")


def test_alist_rejects_inconsistent_headers():
    text = export_matrix(A22, "alist")
    lines = text.splitlines()
    # corrupt one column weight: the declared weights no longer match
    lines[2] = "2 1 2"
    with pytest.raises(MatrixParseError):
        import_matrix("\n".join(lines) + "\n", "alist")
    # corrupt a row line so the two sections disagree
    lines = text.splitlines()
    lines[7] = "1 3"
    with pytest.raises(MatrixParseError, match="disagrees"):
        import_matrix("\n".join(lines) + "\n", "alist")
    # wrong number of lines
    with pytest.raises(MatrixParseError, match="expected"):
        import_matrix("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n", "alist")


def test_alist_zero_matrix_round_trip():
    z = BitMatrix.zeros(2, 3)
    text = export_matrix(z, "alist")
    assert import_matrix(text, "alist") == z


def test_parse_error_carries_line_number():
    err = MatrixParseError(7, "boom")
    assert err.line == 7
    assert "line 7" in str(err)


# Every MatrixParseError branch, with the exact line it must name. A22 as
# alist is lines 1-4 header, 5-7 columns, 8-10 rows; as MatrixMarket it is
# the header, the size line and entry lines 3-8.
ALIST = export_matrix(A22, "alist").splitlines()
MM = export_matrix(A22, "matrixmarket").splitlines()


def _with(lines, **changes):
    """Payload from ``lines`` with line n (1-based) replaced by changes[f"l{n}"]."""
    out = list(lines)
    for key, text in changes.items():
        out[int(key[1:]) - 1] = text
    return "\n".join(out) + "\n"


PARSE_ERRORS = [
    # dense
    ("dense", "", 1, "empty payload"),
    ("dense", "\n1\n", 1, "equal-length and nonempty"),
    ("dense", "10\n1\n", 2, "equal-length and nonempty"),
    ("dense", "10\n01\n110\n", 3, "equal-length and nonempty"),
    ("dense", "10\n1x\n", 2, "column 2: invalid character 'x'"),
    # MatrixMarket
    ("matrixmarket", "", 1, "empty payload"),
    ("matrixmarket", _with(MM, l1="%%MatrixMarket matrix coordinate real general"), 1,
     "header"),
    ("matrixmarket", MM[0] + "\n", 2, "missing size line"),
    ("matrixmarket", MM[0] + "\n% note\n", 3, "missing size line"),
    ("matrixmarket", _with(MM, l2="3 x 6"), 2, "expected integer, got 'x'"),
    ("matrixmarket", _with(MM, l2="3 3"), 2, "size line"),
    ("matrixmarket", _with(MM, l2="0 3 6"), 2, "size line"),
    ("matrixmarket", _with(MM, l2="3 3 -1"), 2, "size line"),
    ("matrixmarket", _with(MM, l2="3 3 7"), 3, "expected 7 entry lines, got 6"),
    ("matrixmarket", _with(MM, l2="3 3 5"), 3, "expected 5 entry lines, got 6"),
    ("matrixmarket", _with(MM[:1] + ["% c"] + MM[1:], l3="3 3 7"), 4,
     "expected 7 entry lines"),
    ("matrixmarket", _with(MM, l5="2 y"), 5, "expected integer, got 'y'"),
    ("matrixmarket", _with(MM, l5="2 1 1"), 5, "'row col' pairs"),
    ("matrixmarket", _with(MM, l5="2"), 5, "'row col' pairs"),
    ("matrixmarket", f"{MM[0]}\n3 3 2\n1\n2\n", 3, "'row col' pairs"),
    ("matrixmarket", _with(MM, l6="4 1"), 6, "entry (4, 1) out of bounds"),
    ("matrixmarket", _with(MM, l6="2 0"), 6, "entry (2, 0) out of bounds"),
    ("matrixmarket", _with(MM, l6="-1 2"), 6, "entry (-1, 2) out of bounds"),
    ("matrixmarket", _with(MM, l4="1 1"), 4, "duplicate entry (1, 1)"),
    ("matrixmarket", _with(MM, l8="2 3"), 8, "duplicate entry (2, 3)"),
    ("matrixmarket", _with(MM, l8="02 3"), 8, "duplicate entry (2, 3)"),
    # the first bad line wins, whatever its kind
    ("matrixmarket", _with(MM, l5="1 1", l7="x 1"), 5, "duplicate"),
    ("matrixmarket", _with(MM, l5="1 2 3", l7="9 1"), 5, "pairs"),
    ("matrixmarket", _with(MM, l6="9 1", l7="1 1"), 6, "out of bounds"),
    ("matrixmarket", _with(MM, l4="x 1 2"), 4, "expected integer"),
    # alist
    ("alist", "", 1, "empty payload"),
    ("alist", _with(ALIST, l1="x 3"), 1, "expected integer, got 'x'"),
    ("alist", _with(ALIST, l1="3"), 1, "header must be"),
    ("alist", _with(ALIST, l1="0 3"), 1, "header must be"),
    ("alist", "\n".join(ALIST[:-1]) + "\n", 9, "expected 10 lines"),
    ("alist", "\n".join(ALIST + ["1 2"]) + "\n", 11, "expected 10 lines"),
    ("alist", _with(ALIST, l2="2 x"), 2, "expected integer"),
    ("alist", _with(ALIST, l2="2"), 2, "'cmax rmax'"),
    ("alist", _with(ALIST, l3="2 2 z"), 3, "expected integer"),
    ("alist", _with(ALIST, l4="2 z 2"), 4, "expected integer"),
    ("alist", _with(ALIST, l3="2 2"), 3, "expected 3 column weights, got 2"),
    ("alist", _with(ALIST, l4="2 2 2 2"), 4, "expected 3 row weights, got 4"),
    ("alist", _with(ALIST, l2="3 2"), 2, "cmax does not match"),
    ("alist", _with(ALIST, l2="2 1"), 2, "rmax does not match"),
    ("alist", _with(ALIST, l3="2 2 1"), 4, "disagree on the number of ones"),
    ("alist", _with(ALIST, l6="1 x"), 6, "expected integer, got 'x'"),
    ("alist", _with(ALIST, l6="1 0"), 6, "column 2 lists 1 entries, header says 2"),
    ("alist", _with(ALIST, l6="1 3 2"), 6, "column 2 lists 3 entries, header says 2"),
    ("alist", _with(ALIST, l7="2 4"), 7, "row index 4 out of bounds"),
    ("alist", _with(ALIST, l7="-1 3"), 7, "row index -1 out of bounds"),
    ("alist", _with(ALIST, l5="1 1"), 5, "duplicate entry in column 1"),
    ("alist", _with(ALIST, l5="2 2", l6="9 9"), 5, "duplicate"),
    ("alist", _with(ALIST, l5="2 9", l6="9 9"), 5, "out of bounds"),
    ("alist", _with(ALIST, l9="1 x"), 9, "expected integer, got 'x'"),
    ("alist", _with(ALIST, l9="1 0"), 9, "row 2 lists 1 entries, header says 2"),
    ("alist", _with(ALIST, l9="1 2"), 9, "row 2 disagrees with the column section"),
    ("alist", _with(ALIST, l9="1 1"), 9, "row 2 disagrees"),
    ("alist", _with(ALIST, l9="1 4"), 9, "row 2 disagrees"),
    ("alist", _with(ALIST, l9="-1 3"), 9, "row 2 disagrees"),
    ("alist", _with(ALIST, l9="1 2", l10="x"), 9, "disagrees"),
    ("alist", _with(ALIST, l7="2 4", l8="x"), 7, "out of bounds"),
]


@pytest.mark.parametrize("fmt,text,line,message", PARSE_ERRORS)
def test_parse_errors_name_their_line(fmt, text, line, message):
    with pytest.raises(MatrixParseError) as exc:
        import_matrix(text, fmt)
    assert exc.value.line == line
    assert message in str(exc.value)


@pytest.mark.parametrize("fmt,text", [
    ("matrixmarket", _with(MM, l3="01 1", l4="+1 2", l8="3 0003")),
    ("matrixmarket", _with(MM, l5=" 2\t1 ", l6="2 3\r")),
    ("alist", _with(ALIST, l5="01 +2", l10="0 2 0 3 0")),
    ("alist", _with(ALIST, l3=" 2  2\t2", l8="2 1", l9="3 1 0 0")),
])
def test_odd_spellings_are_accepted(fmt, text):
    assert import_matrix(text, fmt) == A22


def test_size_limit_admits_the_largest_member_built_and_refuses_k12():
    assert dims_of(8, 8) == (6435, 6435)
    assert bitmatrix.within_limit(*dims_of(8, 8))
    assert not bitmatrix.within_limit(*dims_of(12, 12))


# With the limit cut to 1000 cells, a parser that allocated from these
# headers before checking them would still allocate little.
OVERSIZED = [
    pytest.param("matrixmarket", f"{MM[0]}\n% c\n100000 11 0\n", 3, id="mm-tall"),
    pytest.param("matrixmarket", f"{MM[0]}\n11 100000 1\n1 1\n", 2, id="mm-wide"),
    pytest.param("matrixmarket", f"{MM[0]}\n100000 1 0\n", 2, id="mm-one-column"),
    pytest.param("alist", "11 100000\n1 1\n", 1, id="alist-tall"),
    pytest.param("alist", "100000 11\n" + "0 0\n" * 100014, 1, id="alist-wide"),
    pytest.param("dense", "0000000000\n" * 101, 1, id="dense"),
]


@pytest.mark.parametrize("fmt,text,line", OVERSIZED)
def test_oversized_headers_are_refused_on_their_size_line(monkeypatch, fmt, text, line):
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 1000)
    with pytest.raises(MatrixParseError, match="limit of 1000 cells") as exc:
        import_matrix(text, fmt)
    assert exc.value.line == line


def traced_peak(parse, text, fmt):
    """Peak traced memory of parse(text, fmt), with its result or the error it raised."""
    tracemalloc.start()
    try:
        try:
            result = parse(text, fmt)
        except MatrixParseError as exc:
            result = str(exc)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _corner_payload(fmt, rows, cols, corner):
    bits = (0,) * (rows - 1) + (corner << (cols - 1),)
    return export_matrix(BitMatrix(rows, cols, bits), fmt)


# 20000 x 1 whose one column line is empty but whose header says it holds
# 20000 ones (the row weights agree): refused on that line, line 5.
OVERSTATED_ALIST = "1 20000\n20000 1\n20000\n" + " ".join(["1"] * 20000) + "\n0\n" + "1\n" * 20000


# Shapes within the limit with no ones, or one in the far corner: every
# index line is blank or nearly so. A table or per-row list sized from the
# header alone would cost far more than the payload.
SPARSE_PAYLOADS = [
    pytest.param(fmt, _corner_payload(fmt, rows, cols, corner), id=f"{cid}-{sid}-{fmt}")
    for cid, corner in (("zero", 0), ("corner", 1))
    for sid, rows, cols in (("tall", 5000, 1), ("wide", 1, 5000))
    for fmt in ("alist", "matrixmarket")
] + [
    pytest.param("alist", OVERSTATED_ALIST, id="overstated-weight-alist"),
    # headers that state 10^8 ones, or lines 10^8 tokens long, over a tiny payload
    pytest.param("matrixmarket", f"{MM[0]}\n2 2 100000000\n1 1\n2 2\n", id="overstated-nnz-mm"),
    # a header's nnz matched by as many empty lines, refused on line 3
    pytest.param(
        "matrixmarket", f"{MM[0]}\n1 60000 60000\n" + "\n" * 60000, id="empty-entries-mm"
    ),
    pytest.param(
        "alist", "1 1\n100000000 100000000\n100000000\n100000000\n1\n1\n",
        id="overstated-width-alist",
    ),
]


@pytest.mark.parametrize("fmt,text", SPARSE_PAYLOADS)
def test_empty_shapes_allocate_no_more_than_the_reference(fmt, text):
    peak, got = traced_peak(import_matrix, text, fmt)
    ref_peak, want = traced_peak(reference.import_matrix, text, fmt)
    assert got == want
    assert peak <= 1.1 * ref_peak + 4096


@pytest.mark.parametrize("fmt", ["alist", "matrixmarket"])
def test_a_dense_import_peaks_at_a_window_not_a_section(fmt):
    # build_b(6, 6) is 462 x 462 with 456 ones per row: 1.5 MiB in either
    # format, which token lists of whole sections turn into 15-29 MiB
    m = build_b(6, 6)
    text = export_matrix(m, fmt)
    peak, got = traced_peak(import_matrix, text, fmt)
    assert got == m
    # one window, its tables and the rows returned; an alist adds each
    # column's list of row names
    assert peak < (3 * len(text) if fmt == "alist" else 1 << 20)


def _plus_in_line(text, t):
    """text with a "+" before the first token of line t (0-based; -2 is the last line)."""
    lines = text.split("\n")
    lines[t] = "+" + lines[t]
    return "\n".join(lines)


def test_a_respelled_matrixmarket_import_peaks_at_a_window_not_a_section():
    # one window goes line by line; the rest are read as written
    m = build_b(6, 6)
    text = _plus_in_line(export_matrix(m, "matrixmarket"), -2)
    peak, got = traced_peak(import_matrix, text, "matrixmarket")
    assert got == m
    assert peak < 1 << 20


@pytest.mark.parametrize("window", [formats._WINDOW, 64])
@pytest.mark.parametrize("departure", ["no final newline", "plus"])
def test_one_departure_from_export_sends_one_window_line_by_line(monkeypatch, window, departure):
    m = build_b(5, 5)
    text = export_matrix(m, "matrixmarket")
    if departure == "no final newline":
        text = text[:-1]
    else:
        text = _plus_in_line(text, text.count("\n") // 2)
    calls = []
    reader = formats._entries_by_line
    monkeypatch.setattr(formats, "_WINDOW", window)
    monkeypatch.setattr(
        formats, "_entries_by_line", lambda *args: calls.append(args) or reader(*args)
    )
    assert import_matrix(text, "matrixmarket") == m
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["alist", "matrixmarket", "dense"])
def test_size_limit_is_inclusive_and_counts_rows_64_wide(monkeypatch, fmt):
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 1000)
    # 10 x 100 and 15 x 64 (15 x 10 counted 64 wide) fit; one more row does not
    for rows, cols in ((10, 100), (15, 10)):
        mat = BitMatrix(rows, cols, tuple(1 << (i % cols) for i in range(rows)))
        assert import_matrix(export_matrix(mat, fmt), fmt) == mat
        taller = BitMatrix(rows + 1, cols, mat.bits + (1,))
        with pytest.raises(MatrixParseError, match="limit of 1000 cells"):
            import_matrix(export_matrix(taller, fmt), fmt)
