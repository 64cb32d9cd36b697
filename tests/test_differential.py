"""Whole-int kernels against the bit-at-a-time reference kernels in reference.py.

Shapes cover small matrices, 1 x n and n x 1, all-zero and all-ones rows,
rows wider than 64 and 128 bits, and pivots past bit 64.
"""

import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import (
    BitMatrix,
    CodePair,
    Fragmentation,
    GleasonFit,
    WeightEnumerator,
    build_a,
    build_b,
    compose,
    export_matrix,
    flip_transpose,
    gleason_fit,
    gf2_matvec,
    gf2_mul,
    gf2_rank,
    gf2_solve,
    import_matrix,
    isodual_witness,
    make_encoder,
    verify_codeword,
)
from altmat.bitmatrix import gf2_basis, gf2_rref, unpack_bits
from altmat.codes import G1, G2, _poly_mul, _poly_pow
from altmat.encoder import GapSystemInconsistent, encode, encoder_from_partition
from altmat.reports import ENCODER_GRID
from conftest import bit_matrices, random_matrix

SHAPES = st.one_of(
    bit_matrices(),
    bit_matrices(max_rows=1, max_cols=160),
    bit_matrices(max_rows=160, max_cols=1),
    bit_matrices(max_rows=8, min_cols=60, max_cols=140),
    bit_matrices(min_rows=60, max_rows=140, max_cols=8),
    bit_matrices(min_rows=66, max_rows=100, min_cols=66, max_cols=100),
)


EDGE_CASES = [
    BitMatrix.zeros(1, 1),
    BitMatrix.ones(1, 1),
    BitMatrix.ones(1, 200),
    BitMatrix.zeros(200, 1),
    BitMatrix.ones(130, 3),
    BitMatrix.zeros(3, 129),
    BitMatrix.ones(3, 129),
    BitMatrix.identity(65),
    reference.anti_identity(129),
    BitMatrix.hollow_ones(70),
    # wide dense random matrices, of full or near-full rank
    random_matrix(70, 150, 1),
    random_matrix(150, 70, 2),
    random_matrix(131, 131, 3),
]


def check_kernel(m):
    assert m.transpose() == reference.transpose(m)
    assert flip_transpose(m) == reference.flip_transpose(m)
    assert m.col_sums() == reference.col_sums(m)


def check_transforms(m):
    check_kernel(m)
    assert m.supports() == [reference.row_ones(m, i) for i in range(m.rows)]
    assert m.to_lists() == [[(w >> j) & 1 for j in range(m.cols)] for w in m.bits]
    assert BitMatrix.from_rows(m.to_lists()) == m


def check_elimination(m):
    words, pivots = reference.gf2_eliminate(m.bits, m.cols)
    rows = gf2_rref(gf2_basis(m.bits))
    assert rows == words[: len(pivots)]
    assert [(w & -w).bit_length() - 1 for w in rows] == pivots
    assert gf2_rank(m) == len(pivots)


def check_dense_format(m):
    text = export_matrix(m, "dense")
    assert text == reference.export_dense(m)
    assert import_matrix(text, "dense") == reference.parse_dense(text) == m


@pytest.mark.parametrize("m", EDGE_CASES, ids=lambda m: f"{m.rows}x{m.cols}")
def test_edge_shapes_match_reference(m):
    check_transforms(m)
    check_elimination(m)
    check_dense_format(m)
    for rhs in ((0,) * m.rows, (1,) * m.rows, tuple(row[0] for row in m.to_lists())):
        assert gf2_solve(m, rhs) == reference.gf2_solve(m, rhs)


# The smaller side at and around the tile sides 8 and 64 and past the 64-bit
# tile cap, the other side much longer: one band of tiles when wide, a stack
# of bands when tall.
LONG_SHAPES = [
    shape for d in (1, 7, 8, 9, 63, 64, 65, 129) for shape in ((d, 8 * d + 300), (8 * d + 300, d))
]


@pytest.mark.parametrize("rows,cols", LONG_SHAPES)
def test_long_shapes_transform_like_the_reference(rows, cols):
    check_kernel(random_matrix(rows, cols, rows * 1000 + cols))


@pytest.mark.parametrize("n", [3, 5, 12, 33, 100, 200])
def test_non_power_of_two_squares_transform_like_the_reference(n):
    check_kernel(random_matrix(n, n, n))


# all-ones columns count every row: 300 rows take 9 counter planes, 513 a
# carry into a tenth, 1024 a carry through all eleven
@pytest.mark.parametrize("rows,cols", [(300, 7), (513, 70), (1024, 3), (300, 130)])
def test_full_columns_carry_through_every_counter_plane(rows, cols):
    check_kernel(BitMatrix.ones(rows, cols))
    check_kernel(BitMatrix.zeros(rows, cols))


@pytest.mark.parametrize("k", range(1, 7))
def test_family_grid_transforms_like_the_reference(k):
    for ell in range(1, 7):
        check_kernel(build_a(k, ell))
        check_kernel(build_b(k, ell))


@pytest.mark.parametrize("rows,cols", [(1, 1 << 16), (1 << 16, 1)], ids=["wide", "tall"])
def test_transpose_peaks_near_the_packed_size(rows, cols):
    # besides its bits, the input holds one reference per row and the output
    # one per column; padding either shape to a square would take 2^32 bits
    m = random_matrix(rows, cols, 16)
    tracemalloc.start()
    try:
        t = m.transpose()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (8 * (rows + cols) + rows * cols // 8)
    assert (t.rows, t.cols) == (cols, rows) and t.transpose() == m


@settings(max_examples=50)
@given(SHAPES)
def test_bit_transforms_match_reference(m):
    check_transforms(m)


@settings(max_examples=50)
@given(SHAPES)
def test_elimination_matches_reference(m):
    check_elimination(m)


@settings(max_examples=50)
@given(SHAPES)
def test_dense_format_matches_reference(m):
    check_dense_format(m)


@settings(max_examples=50)
@given(SHAPES, st.data())
def test_gf2_mul_matches_reference(a, data):
    b = data.draw(bit_matrices(min_rows=a.cols, max_rows=a.cols, max_cols=140))
    assert gf2_mul(a, b) == reference.gf2_mul(a, b)


# odd widths and widths around the 64-bit words of a row
PRODUCT_WIDTHS = (1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 130)


@st.composite
def balanced_rows(draw, rows, cols):
    """rows words of cols bits, each of weight cols/2 or one either side of it.

    At those weights gf2_mul switches between a row's ones and its zeros.
    Some rows and some columns are then cleared.
    """
    half = cols // 2
    words = []
    for _ in range(rows):
        weight = draw(st.sampled_from(sorted({max(half - 1, 0), half, min(half + 1, cols)})))
        ones = draw(st.permutations(range(cols)))[:weight]
        words.append(sum(1 << j for j in ones))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        words[i] = 0
    cleared = sum(1 << j for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)))
    return BitMatrix(rows, cols, tuple(w & ~cleared for w in words))


@settings(max_examples=100)
@given(st.sampled_from(PRODUCT_WIDTHS), st.data())
def test_gf2_mul_of_balanced_rows_matches_reference(cols, data):
    a = data.draw(balanced_rows(data.draw(st.integers(1, 12)), cols))
    b = data.draw(bit_matrices(min_rows=cols, max_rows=cols, max_cols=140))
    assert gf2_mul(a, b) == reference.gf2_mul(a, b)
    # with b all zero columns, the XOR of all of b's rows is zero too
    assert gf2_mul(a, BitMatrix.zeros(cols, 5)) == BitMatrix.zeros(a.rows, 5)


@settings(max_examples=100)
@given(st.sampled_from(PRODUCT_WIDTHS), st.data())
def test_gf2_matvec_matches_per_row_parity(cols, data):
    m = data.draw(bit_matrices(max_rows=140, min_cols=cols, max_cols=cols))
    x = data.draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols))
    assert gf2_matvec(m, x) == reference.gf2_matvec(m, reference_pack(x))


def reference_pack(bits):
    return sum(b << i for i, b in enumerate(bits))


@pytest.mark.parametrize("bad", [2, -1, None])
def test_gf2_matvec_and_verify_codeword_refuse_a_non_bit_entry(bad):
    h = build_a(3, 2)
    x = [1, 0, 1, 0, 1, bad]
    for check in (lambda: gf2_matvec(h, x), lambda: verify_codeword(3, 2, x)):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == f"entry {bad!r} is not a bit"


@pytest.mark.parametrize("n", [0, 5, 7])
def test_gf2_matvec_and_verify_codeword_refuse_a_wrong_length(n):
    h = build_a(3, 2)
    with pytest.raises(ValueError, match=f"vector must have length 6, got {n}"):
        gf2_matvec(h, [0] * n)
    with pytest.raises(ValueError, match=f"word must have length 6, got {n}"):
        verify_codeword(3, 2, [0] * n)


def test_verify_codeword_matches_per_row_parity():
    k, ell = 7, 5
    h = build_a(k, ell)
    enc = make_encoder(k, ell)
    s = enc.partition.message_len
    rng = random.Random(85)
    codewords = [encode(enc, unpack_bits(rng.getrandbits(s), s)) for _ in range(20)]
    words = [unpack_bits(rng.getrandbits(h.cols), h.cols) for _ in range(100)]
    # codewords with 1-3 errors lie next to the code
    for word in codewords:
        errors = set(rng.sample(range(h.cols), rng.randint(1, 3)))
        words.append(tuple(b ^ (i in errors) for i, b in enumerate(word)))
    for word in codewords + words:
        expected = reference.gf2_matvec(h, reference_pack(word)) == 0
        assert verify_codeword(k, ell, word) == expected
    assert sum(verify_codeword(k, ell, w) for w in words) < len(words) // 10
    # no column of build_a is zero, so every single-bit error shows
    word = codewords[0]
    for i in range(h.cols):
        flipped = word[:i] + (1 - word[i],) + word[i + 1 :]
        assert reference.gf2_matvec(h, reference_pack(flipped)) != 0
        assert not verify_codeword(k, ell, flipped)


def test_columns_die_with_the_cached_matrix():
    # the columns are held on the matrix, so clearing build_a's cache frees them
    build_a.cache_clear()
    h = build_a(7, 5)
    gf2_matvec(h, [1] + [0] * (h.cols - 1))
    assert "columns" in vars(h)
    alive = weakref.ref(h)
    del h
    build_a.cache_clear()
    assert alive() is None


def test_columns_of_a75_stay_small():
    # 462 columns of 330 bits; the packed rows are 18.6 KiB
    h = build_a(7, 5)
    fresh = BitMatrix(h.rows, h.cols, h.bits)
    tracemalloc.start()
    try:
        columns = fresh.columns
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert columns == h.transpose().bits
    assert held <= 40 * 1024


@settings(max_examples=50)
@given(SHAPES, st.data())
def test_gf2_solve_matches_reference(m, data):
    rhs = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m.rows, max_size=m.rows)))
    assert gf2_solve(m, rhs) == reference.gf2_solve(m, rhs)


@pytest.mark.parametrize("k,ell", ENCODER_GRID + ((7, 5),))
def test_encoder_matches_reference(k, ell):
    enc = make_encoder(k, ell)
    assert (enc.particular, enc.generator) == reference.encoder_fields(enc.partition)


@st.composite
def gap_partitions(draw):
    """Random blocks [[top, 0, 0], [glue, b, a]]; most gap systems are inconsistent.

    b has top.rows columns, so every gap system is square.
    """
    r = draw(st.integers(1, 8))
    top = draw(bit_matrices(max_rows=8, min_cols=r, max_cols=r))
    b = draw(bit_matrices(min_rows=r, max_rows=r, min_cols=top.rows, max_cols=top.rows))
    a = draw(bit_matrices(min_rows=r, max_rows=r, max_cols=8))
    return Fragmentation(top, compose([b, a]))


@settings(max_examples=50)
@given(gap_partitions())
def test_gap_solver_matches_reference(part):
    expected = reference.encoder_fields(part)
    if isinstance(expected, GapSystemInconsistent):
        with pytest.raises(GapSystemInconsistent) as exc:
            encoder_from_partition(part)
        assert exc.value.basis_index == expected.basis_index
    else:
        enc = encoder_from_partition(part)
        assert (enc.particular, enc.generator) == expected


@settings(max_examples=50)
@given(st.sampled_from(ENCODER_GRID + ((7, 5),)), st.data())
def test_encode_matches_reference(grid_point, data):
    enc = make_encoder(*grid_point)
    s = enc.partition.message_len
    msg = tuple(data.draw(st.lists(st.integers(0, 1), min_size=s, max_size=s)))
    word = encode(enc, msg)
    assert word == reference.encode(enc, msg) == reference.encode_by_parts(enc, msg)
    assert verify_codeword(*grid_point, word)


@pytest.mark.parametrize("k,ell", ENCODER_GRID + ((7, 5),))
def test_generator_rows_are_the_unit_codewords(k, ell):
    enc = make_encoder(k, ell)
    s = enc.partition.message_len
    h = build_a(k, ell)
    assert len(enc.generator) == s
    for j, row in enumerate(enc.generator):
        unit = tuple(int(t == j) for t in range(s))
        assert gf2_matvec(h, unpack_bits(row, h.cols)) == 0
        assert row >> (h.cols - s) == 1 << j
        word = encode(enc, unit)
        assert word == unpack_bits(row, h.cols)
        assert word == reference.encode_by_parts(enc, unit) == reference.encode(enc, unit)


@st.composite
def sparse_code_pairs(draw):
    n0 = draw(st.integers(1, 40))
    gen = draw(bit_matrices(min_rows=n0, max_rows=n0, min_cols=2 * n0, max_cols=2 * n0))
    par = draw(bit_matrices(min_rows=n0, max_rows=n0, min_cols=2 * n0, max_cols=2 * n0))
    return CodePair(gen, par, "sparse")


def check_isodual(code):
    wit = isodual_witness(code)
    permuted = reference.submatrix(code.parity, range(code.n0), wit.permutation)
    stacked = BitMatrix(2 * code.n0, 2 * code.n0, code.generator.bits + permuted.bits)
    ranks = {
        len(reference.gf2_eliminate(m.bits, m.cols)[1])
        for m in (code.generator, permuted, stacked)
    }
    assert wit.ok == (ranks == {code.n0})
    expected = None if wit.ok else reference.isodual_counterexample(code.generator, permuted)
    assert wit.counterexample == expected
    return wit


@settings(max_examples=50)
@given(sparse_code_pairs())
def test_isodual_witness_matches_reference(code):
    check_isodual(code)


@pytest.mark.parametrize("n0", [32, 33, 64, 65])
def test_isodual_witness_across_word_boundaries(n0):
    # parity (I | T) where every third row of T is zero: those rows end in
    # n0 zero coordinates, so their reversal must pad them to 2 * n0 digits
    rng = random.Random(n0)
    t = [0 if i % 3 == 0 else rng.getrandbits(n0) for i in range(n0)]
    parity = BitMatrix(n0, 2 * n0, tuple(1 << i | w << n0 for i, w in enumerate(t)))
    generator = reference.submatrix(parity, range(n0), range(2 * n0 - 1, -1, -1))
    assert check_isodual(CodePair(generator, parity, "sparse")).ok
    # flipping coordinate 0 of one generator row puts a reversed parity row
    # outside the code: (I | T) holds no word with its first half zero
    doctored = BitMatrix(n0, 2 * n0, generator.bits[:-1] + (generator.bits[-1] ^ 1,))
    wit = check_isodual(CodePair(doctored, parity, "sparse"))
    assert not wit.ok and wit.counterexample is not None


def gleason_combination(n0, a):
    """Coefficients by x-degree of sum a_i g1^(n0-4i) g2^i."""
    counts = [0] * (2 * n0 + 1)
    for i, ai in enumerate(a):
        for wt, c in _poly_mul(_poly_pow(G1, n0 - 4 * i), _poly_pow(G2, i)).items():
            counts[wt] += ai * c
    return counts


@pytest.mark.parametrize("n0", range(1, 17))
def test_gleason_fit_matches_rational_rref(n0):
    rng = random.Random(n0)
    for _ in range(20):
        a = [rng.randint(-50, 50) for _ in range(n0 // 4 + 1)]
        exact = gleason_combination(n0, a)
        off = list(exact)
        off[rng.randrange(2 * n0 + 1)] += rng.choice((-1, 1))
        histogram = [rng.randrange(100) for _ in range(2 * n0 + 1)]
        for counts in (exact, off, histogram):
            w = WeightEnumerator(2 * n0, tuple((wt, c) for wt, c in enumerate(counts) if c))
            assert gleason_fit(w, n0) == reference.gleason_fit(w, n0)
        w = WeightEnumerator(2 * n0, tuple((wt, c) for wt, c in enumerate(exact) if c))
        assert gleason_fit(w, n0) == GleasonFit(tuple(a), True, None)
