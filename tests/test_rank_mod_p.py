"""Lane-packed rank mod a Mersenne prime against list elimination and rational rank.

The default prime is P = 2^31 - 1 (64-bit lanes); ``exact_rank`` tries 31
(q = 5, 12-bit lanes) first. Widths 1, 63, 64, 65 and 130 put the lanes on
both sides of the int-digit boundaries. Dense all-ones and random rows push
every lane through every update. A repeated row, or a row that is the sum of
two others, makes a matrix rank-deficient, which ``exact_rank`` must hand to
Bareiss. Wilson's p-rank formula gives the rank of every family member
modulo a small prime.
"""

import random
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import BitMatrix, bitmatrix, build_a, exact_rank
from altmat.bitmatrix import _MERSENNE_EXPONENTS, RANK_PRIME, _lane_masks, rank_mod_p
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
        pytest.param(reference.hollow_ones(64), 64, id="hollow64"),
        pytest.param(reference.hollow_ones(65), 65, id="hollow65"),
        pytest.param(reference.hollow_ones(130), 130, id="hollow130"),
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
    monkeypatch.setattr(bitmatrix, "rank_mod_p", lambda a, q: 0)
    assert exact_rank(m) == 3


def rank_calls(m):
    """exact_rank(m), the exponents it tried, and how often it ran Bareiss."""
    with (
        mock.patch.object(bitmatrix, "rank_mod_p", wraps=rank_mod_p) as mod_p,
        mock.patch.object(bitmatrix, "_bareiss_rank", wraps=bitmatrix._bareiss_rank) as bareiss,
    ):
        rank = exact_rank(m)
    return rank, [c.args[1] for c in mod_p.call_args_list], bareiss.call_count


def test_a_short_rank_mod_31_is_answered_mod_2_31_minus_1():
    # det(J - I) = -31 for order 32: rank 31 mod 31, full mod 2^31 - 1
    m = reference.hollow_ones(32)
    assert rank_mod_p(m, 5) == 31
    assert rank_calls(m) == (32, [5, 31], 0)


def test_a_rank_both_primes_fall_short_on_is_answered_by_bareiss():
    m = dense_deficient(12, 40, 6)
    rank = reference.rank_by_fractions(m)
    assert rank < min(m.rows, m.cols)
    assert rank_calls(m) == (rank, [5, 31], 1)


def wilson_rank(k, ell, p):
    """Rank mod p of build_a(k, ell) by Wilson's formula (Europ. J. Combin. 1990).

    build_a(k, ell) is the inclusion of the (ell-1)- in the ell-subsets of a
    v-set, v = k + ell - 1, and build_a(ell, k) is its transpose up to the
    order of rows and columns. For ell <= k the rank mod p is the sum over
    i < ell with p not dividing ell - i of C(v, i) - C(v, i-1).
    """
    if ell > k:
        k, ell = ell, k
    v = k + ell - 1
    return sum(comb(v, i) - (comb(v, i - 1) if i else 0) for i in range(ell) if (ell - i) % p)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 7))
def test_family_ranks_mod_a_small_prime_follow_wilsons_formula(q, k):
    p = (1 << q) - 1
    for ell in range(1, 7):
        assert rank_mod_p(build_a(k, ell), q) == wilson_rank(k, ell, p), (k, ell)


@settings(max_examples=100)
@given(st.one_of(LANE_WIDTHS, bit_matrices(max_rows=12, max_cols=40)), st.data())
def test_rank_mod_31_matches_list_elimination(m, data):
    if data.draw(st.booleans()):
        m = with_dependent_row(m, data)
    for mat in (m, m.transpose()):
        assert rank_mod_p(mat, 5) == reference.rank_mod(mat, 31)


@pytest.mark.parametrize("q", _MERSENNE_EXPONENTS)
def test_two_folds_keep_every_lane_at_most_p(q):
    p = (1 << q) - 1
    lanes = 64
    digits, lo, hi = _lane_masks(q, lanes)
    lane_bits = 4 * digits
    assert lane_bits % 4 == 0 and p * p < 1 << lane_bits and p * p >= 1 << (lane_bits - 4)
    # a lane at the bound p plus p - 1 times a pivot lane at p is the largest
    # update; beside it every value below p^2 that the folds treat differently
    rng = random.Random(q)
    values = [p * p, p * p - 1, (p - 1) * 2**q, (p - 2) * 2**q + p, 2**q, p, 1, 0]
    values += [rng.randrange(p * p + 1) for _ in range(lanes - len(values))]
    row = sum(v << (j * lane_bits) for j, v in enumerate(values))
    worst = sum(p << (j * lane_bits) for j in range(lanes))
    for r, expect in ((row, values), (worst + (p - 1) * worst, [p * p] * lanes)):
        r = (r & lo) + ((r >> q) & hi)
        r = (r & lo) + ((r >> q) & hi)
        folded = [r >> (j * lane_bits) & ((1 << lane_bits) - 1) for j in range(lanes)]
        assert r >> (lanes * lane_bits) == 0
        assert all(f <= p for f in folded)
        assert [f % p for f in folded] == [v % p for v in expect]


@pytest.mark.parametrize("q", [1, 4, 11, 32])
def test_rank_mod_p_refuses_an_exponent_that_gives_no_mersenne_prime(q):
    with pytest.raises(ValueError, match="not a supported Mersenne prime"):
        rank_mod_p(BitMatrix.identity(2), q)


@pytest.mark.parametrize("q", _MERSENNE_EXPONENTS)
@pytest.mark.parametrize("width", WIDTHS)
def test_lanes_match_the_replace_spelling(q, width):
    digits = _lane_masks(q, width)[0]
    rng = random.Random(f"{q}-{width}")
    full = (1 << width) - 1
    words = [0, 1, full, 1 << (width - 1), full >> 1] + [rng.getrandbits(width) for _ in range(20)]
    for word in words:
        lanes = bitmatrix._lanes(word, width, digits)
        assert lanes == reference.lanes_by_replace(word, width, digits)
