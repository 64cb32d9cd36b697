from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import (
    BitMatrix,
    Fragmentation,
    bitmatrix,
    build_a,
    build_b,
    dims_of,
    exact_rank,
    flip_transpose,
    fragment_a,
)
from conftest import bit_matrices

GRID = [(k, ell) for k in range(1, 7) for ell in range(1, 7)]


def test_dims_hand_values():
    assert dims_of(2, 2) == (3, 3)
    assert dims_of(4, 3) == (15, 20)
    assert dims_of(1, 5) == (5, 1)


def test_dims_refuse_only_orders_past_the_limit():
    # the cheap bound refuses an order without computing it; every order it
    # refuses is past within_limit, and every other one is exact
    for k in range(1, 41):
        for ell in range(1, 41):
            order = comb(k + ell - 1, ell - 1), comb(k + ell - 1, ell)
            try:
                assert dims_of(k, ell) == order
            except ValueError as exc:
                assert str(exc) == f"build_a({k}, {ell}) would be past the limit of {1 << 27} cells"
                assert not bitmatrix.within_limit(*order)
    assert dims_of(28, 28) == (comb(55, 27), comb(55, 28))
    for k, ell in ((29, 29), (10**6, 10**6), (1, 2**27 + 1), (2**27 + 1, 1), (5, 10**30)):
        with pytest.raises(ValueError, match="past the limit"):
            dims_of(k, ell)


def test_dims_rejects_nonpositive():
    for bad in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            dims_of(*bad)
        with pytest.raises(ValueError):
            build_a(*bad)


def test_build_a_hand_values():
    assert build_a(2, 2) == BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert build_a(1, 4) == BitMatrix.ones(4, 1)
    assert build_a(3, 2) == BitMatrix.from_rows(
        [
            [1, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 1, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1],
        ]
    )


def test_build_b_hand_values():
    assert build_b(2, 2) == BitMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert build_b(1, 3) == BitMatrix.zeros(3, 1)
    assert build_b(3, 2) == build_a(3, 2).complement()


@pytest.mark.parametrize("k,ell", [(k, ell) for k in range(1, 12) for ell in range(1, 13 - k)])
def test_members_match_the_block_join_from_cold_caches(k, ell):
    build_a.cache_clear()
    build_b.cache_clear()
    a, b = build_a(k, ell), build_b(k, ell)
    assert a == reference.build_a_by_blocks(k, ell)
    assert b == reference.build_b_by_blocks(k, ell)
    assert b == a.complement()


@pytest.mark.parametrize("k,ell", GRID)
def test_grid_dimensions_and_sums(k, ell):
    a = build_a(k, ell)
    assert (a.rows, a.cols) == dims_of(k, ell)
    assert set(a.row_sums()) == {k}
    assert set(a.col_sums()) == {ell}


@pytest.mark.parametrize("k,ell", GRID)
def test_grid_square_iff_equal_parameters(k, ell):
    a = build_a(k, ell)
    assert (a.rows == a.cols) == (k == ell)


@pytest.mark.parametrize("k,ell", GRID)
def test_grid_complement_identity(k, ell):
    a, b = build_a(k, ell), build_b(k, ell)
    assert b == a.complement()


@pytest.mark.parametrize("k,ell", GRID)
def test_grid_flip_transpose_duality(k, ell):
    assert flip_transpose(build_a(k, ell)) == build_a(ell, k)
    assert flip_transpose(build_b(k, ell)) == build_b(ell, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_square_members_are_persymmetric(k):
    a, b = build_a(k, k), build_b(k, k)
    assert flip_transpose(a) == a
    assert flip_transpose(b) == b


@pytest.mark.parametrize("k,ell", [(k, ell) for k, ell in GRID if ell >= 2])
def test_grid_bottom_left_identity(k, ell):
    a = build_a(k, ell)
    n = comb(k + ell - 2, ell - 1)
    corner = reference.submatrix(a, range(a.rows - n, a.rows), range(n))
    assert corner == BitMatrix.identity(n)


@pytest.mark.parametrize("k,ell", [(k, ell) for k, ell in GRID if k >= 2 and ell >= 2])
def test_grid_fragment_reassembles(k, ell):
    frag = fragment_a(k, ell)
    assert frag.top == build_a(k, ell - 1)
    assert BitMatrix.identity(frag.top.cols) == BitMatrix.identity(comb(k + ell - 2, ell - 1))
    assert frag.tail == build_a(k - 1, ell)
    assert frag.reassemble() == build_a(k, ell)
    g = comb(k + ell - 2, ell - 2)
    assert (frag.gap, frag.message_len) == (g, comb(k + ell - 2, ell) - g)


@settings(max_examples=60)
@given(bit_matrices(max_rows=5, max_cols=70), st.data())
def test_reassembly_matches_the_block_join(top, data):
    tail = data.draw(bit_matrices(min_rows=top.cols, max_rows=top.cols, max_cols=70))
    frag = Fragmentation(top, tail)
    assert frag.reassemble() == reference.reassemble_by_blocks(frag)


def test_fragment_hand_values():
    frag = fragment_a(2, 2)
    assert frag.top == BitMatrix.ones(1, 2)
    assert BitMatrix.identity(frag.top.cols) == BitMatrix.identity(2)
    assert frag.tail == BitMatrix.ones(2, 1)

    frag = fragment_a(3, 3)
    assert (frag.top.rows, frag.top.cols) == (4, 6)
    assert BitMatrix.identity(frag.top.cols) == BitMatrix.identity(6)
    assert (frag.tail.rows, frag.tail.cols) == (6, 4)

    frag = fragment_a(4, 2)
    assert frag.top == BitMatrix.ones(1, 4)
    assert BitMatrix.identity(frag.top.cols) == BitMatrix.identity(4)


def test_fragmentation_refuses_a_tail_the_glue_cannot_sit_beside():
    # the glue is the identity of order top.cols, so the tail needs that many rows
    with pytest.raises(ValueError, match="tail has 2 rows, not top.cols = 3"):
        Fragmentation(BitMatrix.ones(1, 3), BitMatrix.ones(2, 2))


def test_fragment_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        fragment_a(1, 3)
    with pytest.raises(ValueError):
        fragment_a(3, 1)


@pytest.mark.parametrize("k,ell", GRID)
def test_transpose_has_the_swapped_sum_vectors(k, ell):
    # same class membership as build_a(ell, k): equal dims and sum vectors
    t = build_a(k, ell).transpose()
    other = build_a(ell, k)
    assert (t.rows, t.cols) == (other.rows, other.cols)
    assert t.row_sums() == other.row_sums()
    assert t.col_sums() == other.col_sums()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_square_members_have_full_rational_rank(k):
    assert exact_rank(build_a(k, k)) == comb(2 * k - 1, k - 1)
