"""Bottom-up elimination against oracles that have no row order.

``gf2_basis`` and ``rank_mod_p`` take rows last to first. Ranks of the
build_a family are checked against closed forms: Wilson's GF(2) rank of the
inclusion matrix W_{ell-1,ell}(k+ell-1), which build_a(k, ell) is, and
Gottlieb's theorem that such a matrix has full rational rank. On random
matrices whose widths cross the 64-bit lanes and int digits, and on
shuffled and reversed family members, the ranks and the pivot columns match
the column-by-column reference eliminations, and the reduced row echelon
form is the same for every row order.
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import BitMatrix, build_a, build_b, exact_rank, gf2_rank
from altmat.bitmatrix import RANK_PRIME, gf2_basis, gf2_rref, rank_mod_p
from conftest import bit_matrices


def wilson_gf2_rank(k, ell):
    """Sum of C(v, i) - C(v, i-1) over 0 <= i < ell with ell - i odd, v = k+ell-1.

    Wilson (1990) for p = 2 and t = ell - 1, which needs ell <= k. Taking
    complements of subsets carries build_a(k, ell) onto the transpose of
    build_a(ell, k) with rows and columns permuted, so the smaller of the
    two plays ell.
    """
    k, ell = max(k, ell), min(k, ell)
    v = k + ell - 1
    return sum(comb(v, i) - (comb(v, i - 1) if i else 0) for i in range(ell) if (ell - i) % 2)


@pytest.mark.parametrize("k", range(1, 8))
def test_gf2_rank_of_build_a_is_wilsons_closed_form(k):
    for ell in range(1, 8):
        assert gf2_rank(build_a(k, ell)) == wilson_gf2_rank(k, ell), (k, ell)


@pytest.mark.parametrize("k", range(1, 7))
def test_exact_rank_of_build_a_is_full(k):
    for ell in range(1, 7):
        a = build_a(k, ell)
        assert exact_rank(a) == rank_mod_p(a) == min(a.rows, a.cols), (k, ell)


# widths on both sides of a 64-bit lane and of the 30-bit int digits
WIDTHS = (1, 29, 31, 63, 64, 65, 130)
RANDOM = st.sampled_from(WIDTHS).flatmap(
    lambda w: bit_matrices(max_rows=12, min_cols=w, max_cols=w)
)
# every member up to 35 x 35, both families
MEMBERS = st.sampled_from(
    [(build, k, ell) for build in (build_a, build_b) for k in range(1, 7) for ell in range(1, 8 - k)]
).map(lambda m: m[0](m[1], m[2]))


def check_every_order(m, shuffled):
    words, pivots = reference.gf2_eliminate(m.bits, m.cols)
    rank_p = reference.rank_mod(m, RANK_PRIME)
    for bits in (m.bits, shuffled, m.bits[::-1]):
        basis = gf2_basis(bits)
        assert sorted(basis) == [1 << c for c in pivots]
        assert gf2_rref(basis) == words[: len(pivots)]
        reordered = BitMatrix(m.rows, m.cols, bits)
        assert gf2_rank(reordered) == len(pivots)
        assert rank_mod_p(reordered) == rank_p


@settings(max_examples=25)
@given(RANDOM, st.randoms(use_true_random=False))
def test_random_rows_eliminate_alike_in_every_order(m, rng):
    check_every_order(m, tuple(rng.sample(m.bits, m.rows)))


@settings(max_examples=25)
@given(MEMBERS, st.randoms(use_true_random=False))
def test_family_rows_eliminate_alike_in_every_order(m, rng):
    check_every_order(m, tuple(rng.sample(m.bits, m.rows)))
