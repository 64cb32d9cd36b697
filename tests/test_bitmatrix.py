from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altmat import (
    BitMatrix,
    compose,
    exact_rank,
    flip_transpose,
    gf2_mul,
    gf2_rank,
    gf2_solve,
    stack,
)
from altmat.bitmatrix import pack_bits, unpack_bits
from conftest import bit_matrices, square_bit_matrices
from reference import anti_identity, col_sums, join_blocks, rank_by_fractions

A22 = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


# -- independent oracles -------------------------------------------------------


def rank_by_span(m: BitMatrix) -> int:
    """|row span| = 2^rank, by enumerating all row subsets (small only)."""
    span = {0}
    for w in m.bits:
        span |= {v ^ w for v in span}
    return len(span).bit_length() - 1


# -- construction and access ----------------------------------------------------


def test_from_rows_rejects_bad_entries():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 2]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([])


def test_dimensions_are_part_of_identity():
    a = BitMatrix.from_rows([[0, 1]])
    b = BitMatrix.from_rows([[0], [1]])
    assert a != b
    assert a == BitMatrix(1, 2, (2,))


def test_row_and_col_sums():
    assert A22.row_sums() == (2, 2, 2)
    assert A22.col_sums() == (2, 2, 2)
    assert A22.supports()[1] == [0, 2]


# -- bit packing ------------------------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_pack_bits_sets_bit_i_from_entry_i(bits):
    word = pack_bits(bits)
    assert word == sum(b << i for i, b in enumerate(bits))
    assert unpack_bits(word, len(bits)) == tuple(bits)


@pytest.mark.parametrize("bad", [2, -1, 256, "1", None])
def test_pack_bits_names_the_first_bad_entry(bad):
    with pytest.raises(ValueError) as exc:
        pack_bits([1, 0, bad, 1, 3])
    assert str(exc.value) == f"entry {bad!r} is not a bit"


def test_pack_bits_reads_a_string_entry_by_entry():
    with pytest.raises(ValueError) as exc:
        pack_bits("01")
    assert str(exc.value) == "entry '0' is not a bit"


def test_pack_bits_rejects_a_bare_int():
    # bytes(5) is five zero bytes, which would pass for a word of zeros, and
    # bytes(1 << 62) cannot be allocated
    for word in (5, 1 << 62):
        with pytest.raises(TypeError):
            pack_bits(word)


def test_pack_bits_edge_values():
    assert pack_bits([]) == 0
    assert pack_bits((True, False, True)) == 5
    assert pack_bits(b"\x01\x00\x01") == 5
    # a buffer of 8-byte items: its bytes are not its entries
    assert pack_bits(array("Q", [1, 0, 1])) == 5
    with pytest.raises(TypeError):
        pack_bits([1.0])


# -- flip transpose -------------------------------------------------------------


def test_flip_transpose_hand_values():
    assert flip_transpose(BitMatrix.from_rows([[1, 1], [0, 0]])) == BitMatrix.from_rows(
        [[0, 1], [0, 1]]
    )
    assert flip_transpose(BitMatrix.identity(3)) == BitMatrix.identity(3)
    assert flip_transpose(A22) == A22


@given(bit_matrices())
def test_flip_transpose_is_an_involution(m):
    assert flip_transpose(flip_transpose(m)) == m


@given(square_bit_matrices())
def test_flip_transpose_is_conjugated_transpose(m):
    ia = anti_identity(m.rows)
    assert flip_transpose(m) == gf2_mul(gf2_mul(ia, m.transpose()), ia)


@given(bit_matrices())
def test_flip_transpose_index_formula(m):
    f = flip_transpose(m)
    assert (f.rows, f.cols) == (m.cols, m.rows)
    for i in range(f.rows):
        for j in range(f.cols):
            assert (f.bits[i] >> j) & 1 == (m.bits[m.rows - 1 - j] >> (m.cols - 1 - i)) & 1


@st.composite
def wide_bit_matrices(draw):
    """Up to 130 x 130, with the widths around one 64-bit tile and more than 64 rows."""
    rows = draw(st.one_of(st.integers(1, 130), st.integers(65, 130)))
    cols = draw(st.one_of(st.integers(1, 130), st.sampled_from((63, 64, 65))))
    return draw(bit_matrices(min_rows=rows, max_rows=rows, min_cols=cols, max_cols=cols))


@settings(max_examples=60)
@given(wide_bit_matrices())
def test_flip_transpose_answers_for_complement_and_column_sums(m):
    # construction_report reads b's flip and a's column sums off a's flip
    f = flip_transpose(m)
    assert flip_transpose(m.complement()) == f.complement()
    assert f.row_sums()[::-1] == m.col_sums() == col_sums(m)


# -- ranks ----------------------------------------------------------------------


def test_gf2_rank_hand_values():
    assert gf2_rank(BitMatrix.identity(3)) == 3
    assert gf2_rank(BitMatrix.ones(2, 2)) == 1
    # the three rows sum to zero mod 2
    assert gf2_rank(A22) == 2


def test_exact_rank_hand_values():
    assert exact_rank(BitMatrix.identity(3)) == 3
    # det = -2 by cofactor expansion, so full rank over the rationals
    assert exact_rank(A22) == 3


@given(bit_matrices())
def test_gf2_rank_matches_span_enumeration(m):
    assert gf2_rank(m) == rank_by_span(m)


@settings(max_examples=60)
@given(bit_matrices())
def test_exact_rank_matches_fraction_elimination(m):
    assert exact_rank(m) == rank_by_fractions(m)


@given(bit_matrices())
def test_gf2_rank_never_exceeds_exact_rank(m):
    assert gf2_rank(m) <= exact_rank(m) <= min(m.rows, m.cols)


# -- solving --------------------------------------------------------------------


def test_gf2_solve_hand_values():
    assert gf2_solve(BitMatrix.identity(2), (1, 0)) == (1, 0)
    assert gf2_solve(BitMatrix.zeros(1, 1), (0,)) == (0,)
    assert gf2_solve(BitMatrix.zeros(1, 1), (1,)) is None


def test_gf2_solve_rejects_bad_rhs_length():
    with pytest.raises(ValueError):
        gf2_solve(BitMatrix.identity(2), (1, 0, 0))


@pytest.mark.parametrize("rhs,bad", [((2, 3), "2"), (("1", True), "'1'"), ((0.5, 1), "0.5")])
def test_gf2_solve_refuses_an_entry_that_is_not_a_bit(rhs, bad):
    with pytest.raises(ValueError, match=f"entry {bad} is not a bit"):
        gf2_solve(BitMatrix.identity(2), rhs)


@given(bit_matrices(), st.data())
def test_gf2_solve_solutions_verify(m, data):
    rhs = tuple(data.draw(st.integers(0, 1)) for _ in range(m.rows))
    x = gf2_solve(m, rhs)
    if x is None:
        # independent consistency check: the rhs enlarges the column span
        aug = BitMatrix(
            m.rows, m.cols + 1,
            tuple(w | (b << m.cols) for w, b in zip(m.bits, rhs)),
        )
        assert gf2_rank(aug) == gf2_rank(m) + 1
    else:
        for i in range(m.rows):
            acc = sum((m.bits[i] >> j) & 1 & x[j] for j in range(m.cols)) % 2
            assert acc == rhs[i]


# -- products -------------------------------------------------------------------


@settings(max_examples=60)
@given(square_bit_matrices(), square_bit_matrices())
def test_gf2_mul_matches_naive_product(a, b):
    if a.cols != b.rows:
        a, b = a, BitMatrix.identity(a.cols)
    p = gf2_mul(a, b)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = sum((a.bits[i] >> t) & (b.bits[t] >> j) & 1 for t in range(a.cols)) % 2
            assert (p.bits[i] >> j) & 1 == acc


# -- block composition ----------------------------------------------------------


def test_stack_hand_value():
    assert stack(BitMatrix.ones(1, 2), BitMatrix.identity(2)) == BitMatrix.from_rows(
        [[1, 1], [1, 0], [0, 1]]
    )


def test_compose_zero_fill_hand_value():
    o2 = stack(BitMatrix.ones(1, 2), BitMatrix.identity(2))
    o1 = stack(BitMatrix.ones(1, 1), BitMatrix.identity(1))
    assert compose([o2, o1]) == A22


def test_compose_one_fill_hand_value():
    o2 = stack(BitMatrix.zeros(1, 2), BitMatrix.hollow_ones(2))
    o1 = stack(BitMatrix.zeros(1, 1), BitMatrix.hollow_ones(1))
    assert join_blocks([o2, o1], fill=1) == BitMatrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )


def test_compose_rejects_increasing_heights():
    with pytest.raises(ValueError):
        compose([BitMatrix.ones(1, 1), BitMatrix.ones(2, 1)])


@settings(max_examples=60)
@given(st.lists(bit_matrices(max_rows=5, max_cols=4), min_size=1, max_size=4))
def test_compose_fill_complementarity(blocks):
    blocks.sort(key=lambda b: -b.rows)
    joined = compose(blocks)
    assert joined == join_blocks(blocks, fill=0)
    complemented = join_blocks([b.complement() for b in blocks], fill=1)
    assert complemented == joined.complement()
