"""alist and MatrixMarket codecs against the entry-at-a-time codecs in reference.py.

Exports must be byte-identical. Every payload, well formed or mutated, must
give the same matrix or raise MatrixParseError with the same line and
message. Shapes cover 1 x n and n x 1, all-zero and all-ones rows and
columns, widths 63, 64, 65 and 130, rows on both sides of the density at
which ``supports()`` switches method, and lines of several hundred
indices. Every payload export writes must be read by the canonical route
alone, without the line-by-line route; payloads a step from that layout
must still read as the reference reads them. The same checks run again with
windows of 1, 2, 7 and 64 characters, so that alist rows and MatrixMarket
runs of a row are cut by window boundaries.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import (
    BitMatrix,
    MatrixParseError,
    build_a,
    build_b,
    export_matrix,
    formats,
    import_matrix,
)
from altmat.bitmatrix import column_supports
from conftest import bit_matrices, random_matrix

SPARSE_FORMATS = ("alist", "matrixmarket")


@st.composite
def threshold_matrices(draw):
    """Rows whose weight is just below, at or just above one in eight."""
    width = draw(st.sampled_from((8, 63, 64, 65, 130)))
    rows = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    words = []
    for _ in range(rows):
        weight = max(0, width // 8 + rng.randint(-1, 2))
        words.append(sum(1 << j for j in rng.sample(range(width), weight)))
    return BitMatrix(rows, width, tuple(words))


CODEC_SHAPES = st.one_of(
    bit_matrices(),
    bit_matrices(max_rows=1, max_cols=140),
    bit_matrices(max_rows=140, max_cols=1),
    st.sampled_from((63, 64, 65, 130)).flatmap(
        lambda w: bit_matrices(max_rows=6, min_cols=w, max_cols=w)
    ),
    threshold_matrices(),
)
# transposing turns the all-zero and all-ones rows into columns
MATRICES = st.tuples(CODEC_SHAPES, st.booleans()).map(
    lambda mt: mt[0].transpose() if mt[1] else mt[0]
)

LONG_LINES = [
    BitMatrix.ones(2, 300),
    BitMatrix.ones(300, 2),
    random_matrix(4, 600, 5),
    random_matrix(600, 3, 6),
    build_b(5, 5),
    build_a(7, 5),
]


def outcome(parse, text, fmt):
    try:
        return "ok", parse(text, fmt)
    except MatrixParseError as exc:
        return "error", exc.line, str(exc)


def read_as_written(text, fmt):
    """import_matrix(text, fmt) with the line-by-line routes made to raise."""

    def refuse(*args):
        raise AssertionError("a payload as export writes it went line by line")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_entry_words_by_line", refuse)
        mp.setattr(formats, "_alist_words_by_line", refuse)
        return import_matrix(text, fmt)


def check_codecs(m):
    for fmt in SPARSE_FORMATS:
        text = export_matrix(m, fmt)
        assert text == reference.export_matrix(m, fmt)
        assert read_as_written(text, fmt) == m == reference.import_matrix(text, fmt)
        # the same payload without its final newline
        cut = text[:-1]
        assert outcome(import_matrix, cut, fmt) == outcome(reference.import_matrix, cut, fmt)


def check_supports(m):
    rows = m.supports()
    assert rows == [reference.row_ones(m, i) for i in range(m.rows)]
    t = reference.transpose(m)
    assert column_supports(rows, m.cols) == [reference.row_ones(t, j) for j in range(m.cols)]


@settings(max_examples=60)
@given(MATRICES)
def test_exports_and_round_trips_match_reference(m):
    check_codecs(m)


@settings(max_examples=60)
@given(MATRICES)
def test_supports_match_reference(m):
    check_supports(m)


@pytest.mark.parametrize("m", LONG_LINES, ids=lambda m: f"{m.rows}x{m.cols}")
def test_long_lines_match_reference(m):
    check_codecs(m)
    check_supports(m)


# all-zero matrices, and a matrix with an all-zero row and column
ZEROS = [
    BitMatrix.zeros(1, 1),
    BitMatrix.zeros(3, 5),
    BitMatrix.zeros(140, 1),
    BitMatrix.zeros(1, 140),
    BitMatrix.from_rows([[1, 0, 1], [0, 0, 0], [1, 0, 0]]),
]


@pytest.mark.parametrize("m", ZEROS, ids=lambda m: f"{m.rows}x{m.cols}-{sum(m.row_sums())}")
def test_zero_lines_match_reference(m):
    check_codecs(m)


def moved_token(text, first):
    """text with the first token of a line after line first (0-based) moved
    to the end of the line before it: the same tokens in the same order,
    over other lines."""
    lines = text.split("\n")[:-1]
    t = next(t for t in range(first + 1, len(lines)) if lines[t][:1] not in ("", "0"))
    token, _, tail = lines[t].partition(" ")
    lines[t - 1], lines[t] = " ".join(filter(None, (lines[t - 1], token))), tail
    return "\n".join(lines) + "\n"


def index_in_padding(text, first):
    """text with the first zero that pads a line from line first on (0-based)
    written over by that line's first index."""
    lines = text.split("\n")[:-1]
    t = next(t for t in range(first, len(lines)) if lines[t].endswith(" 0") and lines[t][0] != "0")
    lines[t] = lines[t][:-1] + lines[t].split(" ")[0]
    return "\n".join(lines) + "\n"


# rows of unequal weight, so that alist row lines are padded
NEAR_MISS = [random_matrix(5, 9, seed) for seed in range(4)] + [
    BitMatrix.from_rows([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 1]])
]


def check_steps_from_export(m):
    """Payloads a step from m's exports read as the reference reads them."""
    # each reads like export's payload to a check that looks at too little:
    # the same tokens over other lines, or an index where a zero pads a line
    mm, alist = export_matrix(m, "matrixmarket"), export_matrix(m, "alist")
    payloads = [
        ("matrixmarket", moved_token(mm, 2)),
        ("alist", moved_token(alist, 4 + m.cols)),
        ("alist", index_in_padding(alist, 4 + m.cols)),
    ]
    for fmt, text in payloads:
        assert text != export_matrix(m, fmt)
        assert outcome(import_matrix, text, fmt) == outcome(reference.import_matrix, text, fmt)


@pytest.mark.parametrize("m", NEAR_MISS, ids=lambda m: f"{m.rows}x{m.cols}-{m.bits[0]}")
def test_payloads_a_step_from_export_match_reference(m):
    check_steps_from_export(m)


@pytest.mark.parametrize("m", [build_b(5, 5), build_a(7, 5)], ids=lambda m: f"{m.rows}x{m.cols}")
def test_a_respelled_column_weight_line_is_read_as_written(m):
    # line 3 is compared as integers: a leading zero and a double blank
    # leave the payload on the canonical route
    lines = export_matrix(m, "alist").split("\n")
    weights = lines[2].split()
    weights[0] = "0" + weights[0]
    lines[2] = " ".join(weights[:2]) + "  " + " ".join(weights[2:])
    text = "\n".join(lines)
    assert read_as_written(text, "alist") == m == reference.import_matrix(text, "alist")


def test_a_repeat_in_both_alist_sections_matches_reference():
    # row 1 lists column 1 twice and column 1 lists row 1 twice: the two
    # sections agree with each other, and only the repeat is wrong
    text = "2 2\n2 2\n2 1\n2 1\n1 1\n2 0\n1 1\n2 0\n"
    assert outcome(import_matrix, text, "alist") == outcome(reference.import_matrix, text, "alist")
    assert outcome(import_matrix, text, "alist")[0] == "error"


def mutate_token(lines, rng, bound, body):
    """Replace one token of one line, most often an index line from ``body``
    on, with a bad, odd or repeated spelling."""
    t = rng.randrange(body if body < len(lines) and rng.random() < 0.8 else 0, len(lines))
    tokens = lines[t].split()
    if not tokens:
        lines[t] = rng.choice(["1", "x", "0"])
        return
    k = rng.randrange(len(tokens))
    tok = tokens[k]
    tokens[k] = rng.choice([
        "x", "", "0" + tok, "+" + tok, tok + "_0", "-1", "0", str(bound + 1), str(bound),
        "1", str(int(tok) + 1) if tok.isdigit() else tok,
    ] + [tokens[rng.randrange(len(tokens))]] * 4)
    lines[t] = " ".join(tokens)


MUTATIONS = ("token", "repeat", "swap", "drop", "copy", "blank", "extra", "entries")


def mutate(text, fmt, kind, rng, bound):
    lines = text.split("\n")[:-1]
    body = 4 if fmt == "alist" else 2
    if kind == "token":
        mutate_token(lines, rng, bound, body)
    elif kind == "repeat":
        # one index of a line written over another; MatrixMarket lines hold
        # one entry each, so there a whole entry line is written over another
        if fmt == "matrixmarket":
            if len(lines) > 3:
                a, b = rng.sample(range(2, len(lines)), 2)
                lines[b] = lines[a]
        else:
            t = rng.randrange(body, len(lines))
            tokens = lines[t].split()
            nonzero = [k for k, tok in enumerate(tokens) if tok != "0"]
            if len(nonzero) > 1:
                a, b = rng.sample(nonzero, 2)
                tokens[b] = tokens[a]
                lines[t] = " ".join(tokens)
    elif kind == "swap":
        # alist: two weights trade places; MatrixMarket: two lines do
        if fmt == "alist":
            t = rng.choice([2, 3])
            tokens = lines[t].split()
            a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[t] = " ".join(tokens)
        else:
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
    elif kind == "drop":
        del lines[rng.randrange(len(lines))]
    elif kind == "copy":
        lines.insert(rng.randrange(len(lines) + 1), lines[rng.randrange(len(lines))])
    elif kind == "blank":
        t = rng.randrange(len(lines))
        lines[t] = rng.choice([" ", "\t", "  ", "\r"]).join(
            [""] * rng.randint(0, 1) + lines[t].split(" ") + [""] * rng.randint(0, 1)
        )
    elif kind == "extra":
        t = rng.randrange(len(lines))
        lines[t] += rng.choice([" 1", " 0", " x", " " + str(bound)])
    elif fmt == "matrixmarket":
        # entries: shuffled, or one repeated with nnz raised to match
        body = lines[2:]
        if body and rng.random() < 0.5:
            body.append(rng.choice(body))
            rows, cols, nnz = lines[1].split()
            lines[1] = f"{rows} {cols} {int(nnz) + 1}"
        rng.shuffle(body)
        lines[2:] = body
    else:
        # entries: one index line of the alist body reversed
        t = rng.randrange(4, len(lines))
        lines[t] = " ".join(reversed(lines[t].split()))
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(
    MATRICES,
    st.sampled_from(SPARSE_FORMATS),
    st.sampled_from(MUTATIONS),
    st.randoms(use_true_random=False),
)
def test_mutated_payloads_match_reference(m, fmt, kind, rng):
    text = mutate(export_matrix(m, fmt), fmt, kind, rng, max(m.rows, m.cols))
    assert outcome(import_matrix, text, fmt) == outcome(reference.import_matrix, text, fmt)


@pytest.mark.parametrize("m", LONG_LINES, ids=lambda m: f"{m.rows}x{m.cols}")
@pytest.mark.parametrize("fmt", SPARSE_FORMATS)
def test_mutated_long_lines_match_reference(m, fmt):
    rng = random.Random(f"{m.rows}x{m.cols}{fmt}")
    text = export_matrix(m, fmt)
    for kind in MUTATIONS * 3:
        bad = mutate(text, fmt, kind, rng, max(m.rows, m.cols))
        assert outcome(import_matrix, bad, fmt) == outcome(reference.import_matrix, bad, fmt)


# Windows narrower than a line (each line then is one), a line or two, and
# several lines: row runs and rows are cut by window boundaries.
WINDOWS = (1, 2, 7, 64)


@contextmanager
def window_of(size):
    """The canonical import routes read ``size`` characters at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_WINDOW", size)
        yield


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=30)
@given(MATRICES)
def test_round_trips_match_reference_at_every_window(window, m):
    with window_of(window):
        check_codecs(m)


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=75)
@given(
    MATRICES,
    st.sampled_from(SPARSE_FORMATS),
    st.sampled_from(MUTATIONS),
    st.randoms(use_true_random=False),
)
def test_mutated_payloads_match_reference_at_every_window(window, m, fmt, kind, rng):
    text = mutate(export_matrix(m, fmt), fmt, kind, rng, max(m.rows, m.cols))
    with window_of(window):
        assert outcome(import_matrix, text, fmt) == outcome(reference.import_matrix, text, fmt)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("m", LONG_LINES + ZEROS, ids=lambda m: f"{m.rows}x{m.cols}")
def test_long_and_zero_lines_match_reference_at_every_window(window, m):
    with window_of(window):
        check_codecs(m)


@pytest.mark.parametrize("window", WINDOWS)
def test_payloads_a_step_from_export_match_reference_at_every_window(window):
    with window_of(window):
        for m in NEAR_MISS:
            check_steps_from_export(m)
