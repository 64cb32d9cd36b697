from math import comb

import pytest

import reference
from altmat import (
    BitMatrix,
    Fragmentation,
    build_a,
    build_b,
    dims_of,
    exact_rank,
    flip_transpose,
    fragment_a,
)

GRID = [(k, ell) for k in range(1, 7) for ell in range(1, 7)]


def test_dims_hand_values():
    assert dims_of(2, 2) == (3, 3)
    assert dims_of(4, 3) == (15, 20)
    assert dims_of(1, 5) == (5, 1)


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
    assert frag.glue == BitMatrix.identity(comb(k + ell - 2, ell - 1))
    assert frag.tail == build_a(k - 1, ell)
    assert frag.reassemble() == build_a(k, ell)
    g = comb(k + ell - 2, ell - 2)
    assert (frag.gap, frag.message_len) == (g, comb(k + ell - 2, ell) - g)


def test_fragment_hand_values():
    frag = fragment_a(2, 2)
    assert frag.top == BitMatrix.ones(1, 2)
    assert frag.glue == BitMatrix.identity(2)
    assert frag.tail == BitMatrix.ones(2, 1)

    frag = fragment_a(3, 3)
    assert (frag.top.rows, frag.top.cols) == (4, 6)
    assert frag.glue == BitMatrix.identity(6)
    assert (frag.tail.rows, frag.tail.cols) == (6, 4)

    frag = fragment_a(4, 2)
    assert frag.top == BitMatrix.ones(1, 4)
    assert frag.glue == BitMatrix.identity(4)


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
