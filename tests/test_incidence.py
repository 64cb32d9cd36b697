import dataclasses
import random
import sys
from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from altmat import (
    BitMatrix,
    bipartite_isomorphism,
    build_a,
    build_b,
    build_l_oracle,
    build_m,
    decompose_blocks,
    exact_rank,
    flip_transpose,
    fragment_a,
    inclusion_matrix,
    permutation_equivalent,
    symplectic_pairs,
)
from altmat import incidence
from altmat.bitmatrix import column_supports, within_limit
from altmat.incidence import l_oracle_dims, m_dims
from conftest import bit_matrices


def test_symplectic_pairs_sum_to_the_complementary_value():
    assert symplectic_pairs(4) == [(1, 8), (2, 7), (3, 6), (4, 5)]
    assert all(i + j == 11 for i, j in symplectic_pairs(5))


# -- inclusion matrices ---------------------------------------------------------


def test_oracle_k2_is_the_all_ones_row():
    assert build_l_oracle(2) == BitMatrix.ones(1, 2)


def test_oracle_k3_matches_direct_inclusion_enumeration():
    got = build_l_oracle(3)
    cols = list(combinations(range(1, 5), 2))
    expected = []
    for s in combinations(range(1, 5), 1):
        expected.append([1 if set(s) < set(c) else 0 for c in cols])
    assert got == BitMatrix.from_rows(expected)
    assert got.to_lists()[0] == [1, 1, 1, 0, 0, 0]


def test_oracle_k4_weights():
    m = build_l_oracle(4)
    assert (m.rows, m.cols) == (15, 20)
    assert set(m.row_sums()) == {4}
    assert set(m.col_sums()) == {3}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_oracle_rows_are_distinct_and_counted(k):
    m = build_l_oracle(k)
    assert m.rows == comb(2 * k - 2, k - 2)
    assert len(set(m.bits)) == m.rows


def test_oracle_rejects_small_k():
    with pytest.raises(ValueError):
        build_l_oracle(1)


def test_inclusion_matrix_hand_values():
    # 1-subsets of {1, 2, 3} into the 2-subsets (1,2), (1,3), (2,3)
    assert inclusion_matrix(1, 3) == BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert inclusion_matrix(0, 4) == BitMatrix.ones(1, 4)
    assert inclusion_matrix(2, 3) == BitMatrix.ones(3, 1)


def test_inclusion_matrix_rejects_bad_parameters():
    for t, v in [(-1, 3), (3, 3), (0, 0)]:
        with pytest.raises(ValueError):
            inclusion_matrix(t, v)


@pytest.mark.parametrize("v", range(1, 8))
def test_inclusion_matrix_entry_rule_by_brute_force(v):
    for t in range(v):
        m = inclusion_matrix(t, v)
        rows = list(combinations(range(1, v + 1), t))
        cols = list(combinations(range(1, v + 1), t + 1))
        assert (m.rows, m.cols) == (len(rows), len(cols))
        for i, s in enumerate(rows):
            for j, c in enumerate(cols):
                assert (m.bits[i] >> j) & 1 == int(set(s) <= set(c)), (t, v, s, c)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("ell", range(1, 7))
def test_family_is_the_lexicographic_inclusion_matrix(k, ell):
    w = inclusion_matrix(ell - 1, k + ell - 1)
    assert build_a(k, ell) == w
    assert build_b(k, ell) == w.complement()


def test_m_dims_refuse_only_orders_past_the_limit():
    # C(2n, n-2) >= 2^(n-2): the bound refuses from n = 30 on, and every
    # order it refuses is past within_limit
    for n in range(4, 41):
        order = comb(2 * n, n - 2), comb(2 * n, n)
        if n < 30:
            assert m_dims(n) == order
        else:
            with pytest.raises(ValueError, match=f"build_m\\({n}\\) would be past the limit"):
                m_dims(n)
            assert not within_limit(*order)
    with pytest.raises(ValueError, match="past the limit"):
        m_dims(10**6)


@pytest.mark.parametrize("k", range(2, 8))
def test_oracle_is_the_family_member_bit_for_bit(k):
    oracle = build_l_oracle(k)
    assert (oracle.rows, oracle.cols) == l_oracle_dims(k)
    assert oracle == build_a(k, k - 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_oracle_is_equivalent_to_the_recursive_family(k):
    assert permutation_equivalent(build_l_oracle(k), build_a(k, k - 1))


@pytest.mark.parametrize("k", [3, 4])
def test_square_member_splits_into_oracle_and_its_flip(k):
    # build_a(k, k) = [L over I] joined with the flip-transpose of L
    frag = fragment_a(k, k)
    ell_k = build_a(k, k - 1)
    assert frag.top == ell_k
    assert frag.tail == flip_transpose(ell_k)


# -- the large incidence matrix --------------------------------------------------


def test_build_m_rejects_small_n():
    with pytest.raises(ValueError):
        build_m(3)


def test_build_m_n4_shape_and_hand_rows():
    m = build_m(4)
    assert (m.rows, m.cols) == (28, 70)
    rows = list(combinations(range(1, 9), 2))
    sums = m.row_sums()
    assert sums[rows.index((1, 8))] == 3
    assert sums[rows.index((1, 2))] == 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_build_m_entry_rule_by_brute_force(n):
    m = build_m(n)
    rows = list(combinations(range(1, 2 * n + 1), n - 2))
    cols = list(combinations(range(1, 2 * n + 1), n))
    pairs = [set(p) for p in symplectic_pairs(n)]
    for i, alpha in enumerate(rows):
        for j, beta in enumerate(cols):
            extends = set(alpha) < set(beta) and set(beta) - set(alpha) in pairs
            assert (m.bits[i] >> j) & 1 == int(extends), (alpha, beta)


def test_build_m_n5_row_weight_census():
    m = build_m(5)
    assert (m.rows, m.cols) == (120, 252)
    weights = m.row_sums()
    assert sum(1 for w in weights if w == 3) == 40
    assert sum(1 for w in weights if w == 2) == 80


def test_build_m_rows_are_distinct():
    m = build_m(4)
    assert len(set(m.bits)) == m.rows


def test_build_m_n4_has_full_rational_row_rank():
    assert exact_rank(build_m(4)) == 28


# -- permutation equivalence ------------------------------------------------------


def test_isomorphism_witness_on_a_shuffled_matrix():
    a = build_a(3, 2)
    row_perm = [2, 0, 3, 1]
    col_perm = [5, 3, 0, 1, 4, 2]
    shuffled = reference.submatrix(a, row_perm, col_perm)
    found = bipartite_isomorphism(shuffled, a)
    assert found is not None
    rp, cp = found
    for i in range(a.rows):
        for j in range(a.cols):
            assert (shuffled.bits[i] >> j) & 1 == (a.bits[rp[i]] >> cp[j]) & 1


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_isomorphism_search_needs_no_recursion():
    # refinement alone never splits identity(n), and each individualized row
    # splits off only itself and its column: the search goes n - 1 levels
    # deep, far past the lowered recursion limit
    n = 150
    a = BitMatrix.identity(n)
    rng = random.Random(7)
    shuffled = reference.submatrix(a, rng.sample(range(n), n), rng.sample(range(n), n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        found = bipartite_isomorphism(a, shuffled)
    finally:
        sys.setrecursionlimit(limit)
    assert found is not None
    rp, cp = found
    for i in range(n):
        assert shuffled.bits[rp[i]] == 1 << cp[i]


def test_isomorphism_detects_inequivalence():
    assert bipartite_isomorphism(build_a(2, 2), build_b(2, 2)) is None
    assert bipartite_isomorphism(build_a(2, 2), build_a(3, 2)) is None
    # same degrees everywhere, different cycle structure: one 8-cycle
    # against two 4-cycles, so only the backtracking stage can tell
    eight_cycle = BitMatrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    )
    two_four_cycles = BitMatrix.from_rows(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    )
    assert bipartite_isomorphism(eight_cycle, two_four_cycles) is None


def test_refinement_blind_inequivalence_at_scale():
    # one 120-vertex cycle against two 60-vertex cycles, as 60 x 60 I + P and
    # the block diagonal of two 30 x 30 ones: every vertex has degree 2, so
    # refinement splits nothing, and each top-level child fails
    n, h = 60, 30
    one_cycle = BitMatrix(n, n, tuple(1 << i | 1 << (i + 1) % n for i in range(n)))
    two_cycles = BitMatrix(
        n, n, tuple((1 << i % h | 1 << (i + 1) % h) << i // h * h for i in range(n))
    )
    assert sorted(one_cycle.col_sums()) == sorted(two_cycles.col_sums())
    assert library_partitions(one_cycle, two_cycles) == (
        {frozenset(range(n)), frozenset(range(n, 2 * n))},
    ) * 2
    for w in range(n):
        assert library_partitions(one_cycle, two_cycles, 0, w) is None
    assert bipartite_isomorphism(one_cycle, two_cycles) is None


# -- splitter-queue refinement against the full rebuild -----------------------------


def shuffled(m, rng):
    """m with its rows and its columns in random order."""
    rows, cols = rng.sample(range(m.rows), m.rows), rng.sample(range(m.cols), m.cols)
    return reference.submatrix(m, rows, cols)


def switched(m, rng):
    """m with one 2 x 2 switch [[1, 0], [0, 1]] -> [[0, 1], [1, 0]], if it has one.

    A switch keeps every row and column weight, so only refinement past the
    degrees, or the search, can tell the result from m.
    """
    rows = m.to_lists()
    spots = [
        (i, k, j, l)
        for i, k in combinations(range(m.rows), 2)
        for j, l in permutations(range(m.cols), 2)
        if rows[i][j] and rows[k][l] and not rows[i][l] and not rows[k][j]
    ]
    if not spots:
        return m
    i, k, j, l = rng.choice(spots)
    rows[i][j] = rows[k][l] = 0
    rows[i][l] = rows[k][j] = 1
    return BitMatrix.from_rows(rows)


def library_partitions(a, b, row_a=None, row_b=None):
    """Stable partitions of a and b, as sets of classes, or None if they part ways.

    The library refines one partition of a's vertices followed by b's; each
    class is returned as its a-members and its b-members, shifted back, in
    one set per side. Refinement starts from rows against columns; given
    row_a and row_b, the stable result is refined again with those rows
    individualized, as the search does.
    """
    n = a.rows + a.cols
    adj_b = incidence._vertex_adjacency(b)
    adj = incidence._vertex_adjacency(a) + [[n + u for u in s] for s in adj_b]
    state = incidence._root(n, a.rows)
    if row_a is not None:
        if not incidence._refine(adj, n, *state):
            return None
        state = incidence._child(state, row_a, n + row_b)
    if not incidence._refine(adj, n, *state):
        return None
    # a row that was a class of its own leaves its old class empty
    classes = [c for c in state[1] if c]
    return (
        {frozenset(u for u in c if u < n) for c in classes},
        {frozenset(u - n for u in c if u >= n) for c in classes},
    )


def reference_partitions(a, b, row_a=None, row_b=None):
    """The same partitions by the full rebuild, from rows row_a and row_b set apart."""
    ra, rb = a.supports(), b.supports()
    rc_a, rc_b = [0] * a.rows, [0] * b.rows
    if row_a is not None:
        rc_a[row_a] = rc_b[row_b] = 1
    stable = reference.colour_refine(
        ra, column_supports(ra, a.cols), rb, column_supports(rb, b.cols),
        rc_a, [0] * a.cols, rc_b, [0] * b.cols,
    )
    if stable is None:
        return None

    def classes(row_colours, col_colours):
        out = {}
        for i, c in enumerate(row_colours):
            out.setdefault(("r", c), set()).add(i)
        for j, c in enumerate(col_colours):
            out.setdefault(("c", c), set()).add(len(row_colours) + j)
        return {frozenset(c) for c in out.values()}

    return classes(*stable[:2]), classes(*stable[2:])


def test_refinement_parts_ways_on_untouched_b_vertices():
    # b is all zeros, so no splitter touches a b-vertex: a part of a-vertices
    # alone must end the refinement, whichever side has the ones
    a, zero = BitMatrix.from_rows([[0, 1, 0], [1, 0, 0]]), BitMatrix(2, 3, (0, 0))
    for pair in ((a, zero), (zero, a)):
        assert reference_partitions(*pair) is None
        assert library_partitions(*pair) is None


def brute_force_equivalent(a, b):
    """Some row order of a gives it b's columns, as a multiset."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    rows_a = a.to_lists()
    cols_b = sorted(zip(*b.to_lists()))
    return any(sorted(zip(*(rows_a[i] for i in p))) == cols_b for p in permutations(range(a.rows)))


def check_verdict(a, b):
    """The search agrees with the full rebuild, and a witness carries a onto b."""
    found = bipartite_isomorphism(a, b)
    assert (found is not None) == (reference.bipartite_isomorphism(a, b) is not None)
    if found is not None:
        rp, cp = found
        assert sorted(rp) == list(range(a.rows)) and sorted(cp) == list(range(a.cols))
        assert reference.submatrix(b, rp, cp) == a
    return found is not None


@st.composite
def partner_pairs(draw, max_side=7):
    """A matrix and a partner of its shape: a shuffle, a switched shuffle, or any."""
    a = draw(bit_matrices(max_rows=max_side, max_cols=max_side))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("shuffle", "switch", "any")))
    if kind == "any":
        b = draw(bit_matrices(min_rows=a.rows, max_rows=a.rows, min_cols=a.cols, max_cols=a.cols))
    else:
        b = shuffled(a if kind == "shuffle" else switched(a, rng), rng)
    return a, b, rng


@settings(max_examples=150)
@given(partner_pairs())
def test_refined_partitions_match_reference(pair):
    a, b, rng = pair
    assert library_partitions(a, b) == reference_partitions(a, b)
    row_a, row_b = rng.randrange(a.rows), rng.randrange(b.rows)
    assert library_partitions(a, b, row_a, row_b) == reference_partitions(a, b, row_a, row_b)


@settings(max_examples=150)
@given(partner_pairs(max_side=6))
def test_verdicts_on_small_pairs_match_reference_and_brute_force(pair):
    a, b, _ = pair
    assert check_verdict(a, b) == brute_force_equivalent(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((build_a, build_b)),
    st.integers(1, 5),
    st.integers(1, 5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_verdicts_on_shuffled_family_members_match_reference(build, k, ell, switch, rng):
    m = build(k, ell)
    # on a pair that is not equivalent the search walks its whole tree, and
    # for a switched member past 300 entries that takes seconds (switched
    # build_b(3, 5), 35 x 21: up to 1.2 s in the reference)
    assume(not switch or m.rows * m.cols <= 300)
    partner = shuffled(switched(m, rng) if switch else m, rng)
    assert check_verdict(m, partner) or switch


def component_indices(m):
    """Rows and columns of each component of m's row-column graph, in index order."""
    rows, cols = m.supports(), column_supports(m.supports(), m.cols)
    seen, out = set(), []
    for start in range(m.rows):
        if start in seen:
            continue
        comp_rows, comp_cols, todo = {start}, set(), [start]
        while todo:
            i = todo.pop()
            for j in rows[i]:
                if j not in comp_cols:
                    comp_cols.add(j)
                    todo.extend(r for r in cols[j] if r not in comp_rows)
                    comp_rows.update(cols[j])
        seen |= comp_rows
        out.append((sorted(comp_rows), sorted(comp_cols)))
    return out


def components(m):
    """The connected components of m's row-column graph, rows and columns in index order."""
    return [reference.submatrix(m, rows, cols) for rows, cols in component_indices(m)]


BUILD_M_COMPONENTS = sorted(
    {c for n in (4, 5) for c in components(build_m(n))}, key=lambda c: (c.rows, c.cols, c.bits)
)


@settings(max_examples=40)
@given(st.sampled_from(BUILD_M_COMPONENTS), st.booleans(), st.randoms(use_true_random=False))
def test_verdicts_on_shuffled_build_m_components_match_reference(comp, switch, rng):
    j = next(j for j in range(2, 6) if l_oracle_dims(j) == (comp.rows, comp.cols))
    partner = shuffled(switched(comp, rng) if switch else comp, rng)
    assert check_verdict(build_a(j, j - 1), partner) or switch


# -- block decomposition -----------------------------------------------------------


def test_decompose_the_oracle_is_a_single_block():
    rep = decompose_blocks(build_l_oracle(3))
    assert rep.blocks == {"L_3": 1}
    assert rep.zero_columns == 0
    assert rep.unidentified == 0


def test_decompose_n4():
    rep = decompose_blocks(build_m(4))
    assert rep.blocks == {"L_2": 24, "L_3": 1}
    assert rep.zero_columns == 16
    assert rep.unidentified == 0


def test_decompose_n5():
    rep = decompose_blocks(build_m(5))
    assert rep.blocks == {"L_2": 80, "L_3": 10}
    assert rep.zero_columns == 32
    assert rep.unidentified == 0


@pytest.mark.parametrize("field", ["blocks", "zero_columns", "unidentified"])
def test_a_block_report_is_frozen(field):
    rep = decompose_blocks(build_m(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rep, field, 0)


def no_pair_tuples(n: int, size: int) -> int:
    """Count index tuples avoiding every complementary pair, by enumeration."""
    pairs = [set(p) for p in symplectic_pairs(n)]
    count = 0
    for t in combinations(range(1, 2 * n + 1), size):
        s = set(t)
        if not any(p <= s for p in pairs):
            count += 1
    return count


@pytest.mark.parametrize("n", [4, 6])
def test_even_case_multiplicities_match_the_pair_free_count(n):
    r = (n + 2) // 2
    rep = decompose_blocks(build_m(n))
    assert rep.unidentified == 0
    assert rep.blocks[f"L_{r}"] == 1
    for k in range(1, r - 1):
        expected = no_pair_tuples(n, 2 * k)
        assert expected == comb(n, 2 * k) * 4**k
        assert rep.blocks[f"L_{r - k}"] == expected
    assert rep.zero_columns == no_pair_tuples(n, n)


def test_decompose_row_and_column_totals_reconcile():
    m = build_m(5)
    rep = decompose_blocks(m)
    sizes = {"L_2": (1, 2), "L_3": (4, 6), "L_4": (15, 20)}
    rows = sum(sizes[lbl][0] * cnt for lbl, cnt in rep.blocks.items())
    cols = sum(sizes[lbl][1] * cnt for lbl, cnt in rep.blocks.items())
    assert rows == m.rows
    assert cols + rep.zero_columns == m.cols


# -- the identity shortcut ----------------------------------------------------------


def count_searches(monkeypatch):
    """Record the calls to the permutation search."""
    calls = []
    real = incidence.bipartite_isomorphism

    def wrapper(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(incidence, "bipartite_isomorphism", wrapper)
    return calls


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_build_m_components_are_the_blocks_bit_for_bit(monkeypatch, n):
    calls = count_searches(monkeypatch)
    rep = decompose_blocks(build_m(n))
    assert rep.unidentified == 0
    assert calls == []


@pytest.mark.parametrize("m", [build_a(4, 3), build_m(4)], ids=["a_4_3", "m_4"])
def test_equal_matrices_need_no_search_and_still_have_a_witness(monkeypatch, m):
    copy = BitMatrix(m.rows, m.cols, tuple(m.bits))
    calls = count_searches(monkeypatch)
    assert permutation_equivalent(m, copy)
    assert calls == []
    found = incidence.bipartite_isomorphism(m, m)
    assert len(calls) == 1
    rp, cp = found
    assert sorted(rp) == list(range(m.rows)) and sorted(cp) == list(range(m.cols))
    assert reference.submatrix(m, rp, cp) == m


@pytest.mark.parametrize("n", [4, 5])
def test_permuted_build_m_is_identified_by_the_search(monkeypatch, n):
    m = build_m(n)
    rng = random.Random(n)
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    calls = count_searches(monkeypatch)
    assert decompose_blocks(reference.submatrix(m, rows, cols)) == decompose_blocks(m)
    assert calls


def reference_decomposition(m):
    """(blocks, zero_columns, unidentified) from component_indices and the reference search."""
    labels, unidentified = Counter(), 0
    for rows, cols in component_indices(m):
        dims = (len(rows), len(cols))
        j = next((j for j in range(2, 6) if l_oracle_dims(j) == dims), None)
        if j is not None and reference.bipartite_isomorphism(
            reference.submatrix(m, rows, cols), build_a(j, j - 1)
        ):
            labels[f"L_{j}"] += 1
        else:
            unidentified += 1
    zero_columns = sum(1 for s in reference.col_sums(m) if s == 0)
    return dict(sorted(labels.items())), zero_columns, unidentified


@st.composite
def scattered_blocks(draw, side=8):
    """Up to three shuffled inclusion blocks and one random row, at most side x side.

    The blocks are build_a(3, 2) and build_a(2, 1) in rows and columns of
    their own, and the random row may join some of them. Rows and columns
    left over stay zero, so zero rows, zero columns and components that
    are, or nearly are, inclusion matrices all turn up.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(side // 2, side)), draw(st.integers(side // 2, side))
    free_rows, free_cols = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
    words = [0] * rows
    blocks = st.lists(st.sampled_from((build_a(3, 2), build_a(2, 1))), min_size=1, max_size=3)
    for block in draw(blocks):
        if block.rows > len(free_rows) or block.cols > len(free_cols):
            continue
        rs, cs = free_rows[: block.rows], free_cols[: block.cols]
        del free_rows[: block.rows], free_cols[: block.cols]
        for r, support in zip(rs, block.supports()):
            words[r] = sum(1 << cs[j] for j in support)
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=1)):
        words[r] |= rng.getrandbits(cols) & rng.getrandbits(cols)
    return BitMatrix(rows, cols, tuple(words))


@settings(max_examples=300)
@given(st.one_of(bit_matrices(max_rows=8, max_cols=8), scattered_blocks()))
def test_decompose_blocks_matches_the_reference_components(m):
    rep = decompose_blocks(m)
    assert (rep.blocks, rep.zero_columns, rep.unidentified) == reference_decomposition(m)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_block_rank_sum_is_the_rank(n):
    m = build_m(n)
    rep = decompose_blocks(m)
    block_sum = 0
    for name, copies in rep.blocks.items():
        j = int(name[2:])
        block_sum += copies * exact_rank(build_a(j, j - 1))
    assert block_sum == exact_rank(m)
