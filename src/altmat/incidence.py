"""Index-tuple combinatorics, subset-inclusion matrices, and block decomposition.

``inclusion_matrix(t, v)`` maps the t-subsets of {1..v} into its
(t+1)-subsets, both in lexicographic order; ``build_a(k, ell)`` equals
``inclusion_matrix(ell-1, k+ell-1)`` bit for bit, and ``build_l_oracle(k)``
is the case ell = k-1, an independent route to that family member.
``build_m(n)`` is the larger incidence matrix over index tuples of {1..2n}
whose rows extend a tuple by one disjoint complementary pair {i, 2n-i+1}.

``decompose_blocks`` splits any matrix into the connected components of its
row-column graph and identifies each against ``build_a(j, j-1)``. For
``build_m(n)`` every component, rows and columns kept in index order, is
that matrix bit for bit (the component's tuples share their unpaired
elements, and index order is then the order of their full pairs), so bit
equality certifies it; the permutation-equivalence search runs only for a
component where that identity fails, as on a permuted input.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .bitmatrix import BitMatrix, column_supports
from .families import build_a


def index_set(ell: int, m: int) -> list[tuple[int, ...]]:
    """All strictly increasing ell-tuples from {1..m}, lexicographic."""
    if ell < 1 or ell > m:
        raise ValueError("need 1 <= ell <= m")
    return list(combinations(range(1, m + 1), ell))


def symplectic_pairs(n: int) -> list[tuple[int, int]]:
    """The n complementary pairs (i, 2n-i+1) of {1..2n}."""
    return [(i, 2 * n - i + 1) for i in range(1, n + 1)]


def l_oracle_dims(k: int) -> tuple[int, int]:
    """Order of build_l_oracle(k): (C(2k-2, k-2), C(2k-2, k-1))."""
    if k < 2:
        raise ValueError("need k >= 2")
    return comb(2 * k - 2, k - 2), comb(2 * k - 2, k - 1)


def m_dims(n: int) -> tuple[int, int]:
    """Order of build_m(n): (C(2n, n-2), C(2n, n))."""
    if n < 4:
        raise ValueError("need n >= 4")
    return comb(2 * n, n - 2), comb(2 * n, n)


def inclusion_matrix(t: int, v: int) -> BitMatrix:
    """Inclusion matrix of the t-subsets into the (t+1)-subsets of {1..v}.

    Rows and columns are in lexicographic order; entry 1 iff the row subset
    is contained in the column subset. Every row has weight v-t and every
    column weight t+1.
    """
    if t < 0 or t + 1 > v:
        raise ValueError("need 0 <= t < v")
    cols = list(combinations(range(1, v + 1), t + 1))
    col_pos = {c: i for i, c in enumerate(cols)}
    words = []
    for s in combinations(range(1, v + 1), t):
        word = 0
        in_s = set(s)
        for x in range(1, v + 1):
            if x not in in_s:
                word |= 1 << col_pos[tuple(sorted(s + (x,)))]
        words.append(word)
    return BitMatrix(len(words), len(cols), tuple(words))


def build_l_oracle(k: int) -> BitMatrix:
    """Inclusion matrix of (k-2)- into (k-1)-subsets of a (2k-2)-set.

    Rows and columns are in lexicographic order; entry 1 iff the row subset
    is contained in the column subset. Every row has weight k, every column
    weight k-1, and all rows are distinct. Its order is l_oracle_dims(k).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return inclusion_matrix(k - 2, 2 * k - 2)


def build_m(n: int) -> BitMatrix:
    """Incidence matrix over I(n-2, 2n) x I(n, 2n).

    Entry (alpha, beta) is 1 iff beta is alpha extended by a complementary
    pair {i, 2n-i+1} disjoint from the support of alpha. Row weights equal
    the number of such disjoint pairs.
    """
    rows, ncols = m_dims(n)
    cols = index_set(n, 2 * n)
    col_pos = {c: t for t, c in enumerate(cols)}
    pairs = symplectic_pairs(n)
    words = []
    for alpha in index_set(n - 2, 2 * n):
        sup = set(alpha)
        word = 0
        for i, j in pairs:
            if i not in sup and j not in sup:
                word |= 1 << col_pos[tuple(sorted(alpha + (i, j)))]
        words.append(word)
    return BitMatrix(rows, ncols, tuple(words))


# -- permutation equivalence --------------------------------------------------


def _adjacency(m: BitMatrix) -> tuple[list[list[int]], list[list[int]]]:
    rows = m.supports()
    return rows, column_supports(rows, m.cols)


def bipartite_isomorphism(
    a: BitMatrix, b: BitMatrix
) -> tuple[list[int], list[int]] | None:
    """Row and column permutations carrying a onto b, or None.

    Classic color refinement with individualization: rows and columns get
    colors refined by the multiset of neighbour colors; ambiguous classes
    are split by fixing one vertex and trying each compatible image, depth
    first on an explicit stack, so a search many levels deep needs no
    recursion. Every leaf candidate is verified entry by entry, so a
    returned pair is always a genuine witness (row_perm[i] is the b-row
    matching a-row i).
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    ra, ca = _adjacency(a)
    rb, cb = _adjacency(b)

    def keys(colors, neighbour_colors, adjacency):
        """Each vertex's color with the sorted colors of its neighbours."""
        look = neighbour_colors.__getitem__
        return [(c, tuple(sorted(map(look, nbrs)))) for c, nbrs in zip(colors, adjacency)]

    def refine(rc_a, cc_a, rc_b, cc_b):
        while True:
            key_ra = keys(rc_a, cc_a, ra)
            key_rb = keys(rc_b, cc_b, rb)
            if sorted(key_ra) != sorted(key_rb):
                return None
            ids = {k: t for t, k in enumerate(sorted(set(key_ra)))}
            new_rc_a = [ids[k] for k in key_ra]
            new_rc_b = [ids[k] for k in key_rb]
            key_ca = keys(cc_a, new_rc_a, ca)
            key_cb = keys(cc_b, new_rc_b, cb)
            if sorted(key_ca) != sorted(key_cb):
                return None
            ids = {k: t for t, k in enumerate(sorted(set(key_ca)))}
            new_cc_a = [ids[k] for k in key_ca]
            new_cc_b = [ids[k] for k in key_cb]
            if (new_rc_a, new_cc_a, new_rc_b, new_cc_b) == (rc_a, cc_a, rc_b, cc_b):
                return rc_a, cc_a, rc_b, cc_b
            rc_a, cc_a, rc_b, cc_b = new_rc_a, new_cc_a, new_rc_b, new_cc_b

    def extract(rc_a, cc_a, rc_b, cc_b):
        row_of_b = {c: i for i, c in enumerate(rc_b)}
        col_of_b = {c: j for j, c in enumerate(cc_b)}
        row_perm = [row_of_b[c] for c in rc_a]
        col_perm = [col_of_b[c] for c in cc_a]
        for i in range(a.rows):
            image = 0
            for j in ra[i]:
                image |= 1 << col_perm[j]
            if image != b.bits[row_perm[i]]:
                return None
        return row_perm, col_perm

    def children(rc_a, cc_a, rc_b, cc_b, side, color):
        """The individualizations of the first a-vertex of color, one per b-image."""
        arr_a, arr_b = (rc_a, rc_b) if side == "r" else (cc_a, cc_b)
        fresh = max(arr_a) + 1
        v = arr_a.index(color)
        for w, c in enumerate(arr_b):
            if c != color:
                continue
            na, nb = list(arr_a), list(arr_b)
            na[v] = fresh
            nb[w] = fresh
            yield (na, cc_a, nb, cc_b) if side == "r" else (rc_a, na, rc_b, nb)

    # one iterator of states still to try per level of individualization
    stack = [iter([([0] * a.rows, [0] * a.cols, [0] * b.rows, [0] * b.cols)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        refined = refine(*state)
        if refined is None:
            continue
        rc_a, cc_a, _, _ = refined
        target = None
        for side, arr in (("r", rc_a), ("c", cc_a)):
            for color, cnt in Counter(arr).items():
                if cnt > 1 and (target is None or cnt < target[2]):
                    target = (side, color, cnt)
        if target is None:
            found = extract(*refined)
            if found is not None:
                return found
            continue
        stack.append(children(*refined, *target[:2]))
    return None


def permutation_equivalent(a: BitMatrix, b: BitMatrix) -> bool:
    return bipartite_isomorphism(a, b) is not None


# -- block decomposition -------------------------------------------------------


@dataclass
class BlockReport:
    """Identified diagonal blocks of an incidence matrix.

    ``blocks`` maps labels like "L_3" to multiplicities; components that
    match no candidate are only counted in ``unidentified``.
    """

    blocks: dict[str, int] = field(default_factory=dict)
    zero_columns: int = 0
    unidentified: int = 0


def _candidate_order(rows: int, cols: int) -> int | None:
    j = 2
    while True:
        r, c = l_oracle_dims(j)
        if r == rows and c == cols:
            return j
        if r > rows:
            return None
        j += 1


def decompose_blocks(m: BitMatrix) -> BlockReport:
    """Connected components of the row-column incidence graph, identified.

    Each component's submatrix (rows and columns kept in index order) is
    compared with the inclusion matrix build_a(j, j-1) of matching
    dimensions: bit equality identifies it by the identity permutations, and
    only otherwise does the permutation-equivalence search run. Zero columns
    are tallied separately.
    """
    row_adj, col_adj = _adjacency(m)
    report = BlockReport()
    report.zero_columns = sum(1 for ones in col_adj if not ones)
    seen_rows = [False] * m.rows
    seen_cols = [False] * m.cols
    labels: Counter[str] = Counter()
    for start in range(m.rows):
        if seen_rows[start]:
            continue
        comp_rows, comp_cols = [start], []
        seen_rows[start] = True
        queue = deque([("r", start)])
        while queue:
            side, v = queue.popleft()
            if side == "r":
                for j in row_adj[v]:
                    if not seen_cols[j]:
                        seen_cols[j] = True
                        comp_cols.append(j)
                        queue.append(("c", j))
            else:
                for i in col_adj[v]:
                    if not seen_rows[i]:
                        seen_rows[i] = True
                        comp_rows.append(i)
                        queue.append(("r", i))
        comp_rows.sort()
        comp_cols.sort()
        if not comp_cols:
            report.unidentified += 1
            continue
        # the component's rows, renumbered to its own columns, from the
        # supports already in hand
        pos = {c: t for t, c in enumerate(comp_cols)}
        words = tuple(sum(1 << pos[c] for c in row_adj[i]) for i in comp_rows)
        sub = BitMatrix(len(comp_rows), len(comp_cols), words)
        j = _candidate_order(sub.rows, sub.cols)
        cand = None if j is None else build_a(j, j - 1)
        if cand is not None and (sub == cand or permutation_equivalent(sub, cand)):
            labels[f"L_{j}"] += 1
        else:
            report.unidentified += 1
    report.blocks = dict(sorted(labels.items()))
    return report

