"""Lane-packed rank mod P = 2^31 - 1 against list elimination and rational rank.

Widths 1, 63, 64, 65 and 130 put the 64-bit lanes on both sides of the
int-digit boundaries. Dense all-ones and random rows push every lane through
every update. A repeated row, or a row that is the sum of two others, makes
a matrix rank-deficient, which ``exact_rank`` must hand to Bareiss.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import BitMatrix, bitmatrix, exact_rank
from altmat.bitmatrix import RANK_PRIME, rank_mod_p
from conftest import bit_matrices, random_matrix

WIDTHS = (1, 63, 64, 65, 130)

# At most seven rows (five drawn, two more in with_dependent_row): by
# Hadamard's bound every minor of a (0,1)-matrix that small is at most
# 8^4 / 2^7 = 32 in absolute value, far below P, so its rank mod P is its
# rational rank.
LANE_WIDTHS = st.sampled_from(WIDTHS).flatmap(
    lambda w: bit_matrices(max_rows=5, min_cols=w, max_cols=w)
)


def with_dependent_row(m, data):
    """m plus a copy of one row, or plus u and u + v for rows u, v (u & v = 0)."""
    i = data.draw(st.integers(0, m.rows - 1))
    j = data.draw(st.integers(0, m.rows - 1))
    if data.draw(st.booleans()):
        extra = (m.bits[i],)
    else:
        u = m.bits[i] & ~m.bits[j]
        extra = (u, u | m.bits[j])
    return BitMatrix(m.rows + len(extra), m.cols, m.bits + extra)


def staircase(n):
    """Upper-triangular all-ones: row i is one from column i on."""
    full = (1 << n) - 1
    return BitMatrix(n, n, tuple(full ^ ((1 << i) - 1) for i in range(n)))


def dense_deficient(rows, cols, seed):
    """Random dense rows, then pairs u, u + v that add at most one to the rank."""
    rng = random.Random(seed)
    words = [rng.getrandbits(cols) for _ in range(rows)]
    for _ in range(rows):
        v = words[rng.randrange(len(words))]
        u = rng.getrandbits(cols) & ~v
        words += [u, u | v]
    return BitMatrix(len(words), cols, tuple(words))


@settings(max_examples=60)
@given(LANE_WIDTHS)
def test_rank_mod_p_matches_rational_rank_across_lane_boundaries(m):
    for mat in (m, m.transpose()):
        rank = reference.rank_by_fractions(mat)
        assert rank_mod_p(mat) == rank
        assert exact_rank(mat) == rank


@settings(max_examples=60)
@given(LANE_WIDTHS, st.data())
def test_rank_deficient_matrices_take_the_bareiss_fallback(m, data):
    m = with_dependent_row(m, data)
    rank = reference.rank_by_fractions(m)
    assert rank_mod_p(m) == rank
    with mock.patch.object(bitmatrix, "_bareiss_rank", wraps=bitmatrix._bareiss_rank) as spy:
        assert exact_rank(m) == rank
    assert spy.call_count == (rank < min(m.rows, m.cols))


@given(bit_matrices())
def test_rank_mod_p_never_exceeds_the_rational_rank(m):
    assert rank_mod_p(m) <= reference.rank_by_fractions(m) <= min(m.rows, m.cols)


@pytest.mark.parametrize(
    "m,rank",
    [
        # det(J - I) = (-1)^(n-1) (n-1)
        pytest.param(BitMatrix.hollow_ones(64), 64, id="hollow64"),
        pytest.param(BitMatrix.hollow_ones(65), 65, id="hollow65"),
        pytest.param(BitMatrix.hollow_ones(130), 130, id="hollow130"),
        pytest.param(staircase(65), 65, id="staircase65"),
        pytest.param(staircase(130), 130, id="staircase130"),
        pytest.param(BitMatrix.ones(5, 130), 1, id="ones5x130"),
        pytest.param(BitMatrix.ones(130, 5), 1, id="ones130x5"),
    ],
)
def test_dense_all_ones_rows(m, rank):
    assert rank_mod_p(m) == rank
    assert exact_rank(m) == rank


@pytest.mark.parametrize(
    "m",
    [
        random_matrix(70, 70, 1),
        random_matrix(30, 130, 2),
        random_matrix(130, 30, 3),
        dense_deficient(20, 130, 4),
        dense_deficient(25, 64, 5),
    ],
    ids=lambda m: f"{m.rows}x{m.cols}",
)
def test_dense_random_rows_match_list_elimination(m):
    assert rank_mod_p(m) == reference.rank_mod(m, RANK_PRIME)


def test_certificate_failure_falls_back_to_bareiss(monkeypatch):
    # det = -2, so full rank over the rationals whatever rank_mod_p says
    m = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    monkeypatch.setattr(bitmatrix, "rank_mod_p", lambda a: 0)
    assert exact_rank(m) == 3
