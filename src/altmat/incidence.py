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

``bipartite_isomorphism`` is that search. Rows and columns share one vertex
space; a splitter queue refines the colour classes of both matrices in step
(Paige & Tarjan 1987; McKay & Piperno 2014): a dequeued class re-keys only
its neighbours, by how many of their neighbours lie in it, and a class that
splits queues all but its largest part, so singletons whose neighbours did
not change are never looked at again. The stable partition is the coarsest
equitable refinement, which is unique, so the verdict of
``permutation_equivalent`` does not depend on how classes are numbered or
queued; that order only picks which witness a search with several finds
first, and every witness is verified entry by entry.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, groupby
from math import comb
from operator import itemgetter

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


def _vertex_adjacency(m: BitMatrix) -> list[list[int]]:
    """Neighbours of every vertex: rows are 0..rows-1, column j is rows + j."""
    rows, cols = _adjacency(m)
    shift = m.rows
    return [[shift + j for j in s] for s in rows] + cols


def _root(rows: int, cols: int) -> tuple:
    """The first search state: rows in one class, columns in another, both queued.

    A state is (colour_a, classes_a, colour_b, classes_b, queue): a colour
    per vertex and the members of each class, for a and for b, and the
    splitter classes still to pop.
    """
    classes = [list(c) for c in (range(rows), range(rows, rows + cols)) if c]
    colour = [0] * rows + [len(classes) - 1] * cols
    return colour, classes, colour.copy(), classes.copy(), list(range(len(classes)))


def _individualize(
    colour: list[int], classes: list[list[int]], v: int
) -> tuple[list[int], list[list[int]]]:
    """Copies of colour and classes with vertex v moved into a fresh class."""
    c = colour[v]
    colour = colour.copy()
    colour[v] = len(classes)
    classes = classes.copy()
    classes[c] = [u for u in classes[c] if u != v]
    classes.append([v])
    return colour, classes


def _child(state: tuple, v: int, w: int) -> tuple:
    """A copy of a refined state with a-vertex v and b-vertex w in a fresh class.

    The parent partition is equitable, so the fresh singleton is the only
    splitter the child needs.
    """
    colour_a, classes_a, colour_b, classes_b, _ = state
    return (
        *_individualize(colour_a, classes_a, v),
        *_individualize(colour_b, classes_b, w),
        [len(classes_a)],
    )


def _refine(
    adj_a: list[list[int]],
    adj_b: list[list[int]],
    colour_a: list[int],
    classes_a: list[list[int]],
    colour_b: list[int],
    classes_b: list[list[int]],
    queue: list[int],
) -> bool:
    """Split both partitions in place until no queued splitter splits a class.

    A popped splitter S counts every vertex's neighbours in S, on a and on
    b; the touched vertices of each class, grouped by count, are its parts,
    and any (class, count) group of a different size on the two sides
    means a and b part ways: False. A class that splits keeps its id for
    its untouched vertices (for the part of least count if all are
    touched), and its other parts take new ids in order of count, so both
    sides number their classes alike. Member lists are replaced, never
    changed in place, so states may share them.
    """
    queued = set(queue)
    while queue:
        s = queue.pop()
        queued.discard(s)
        count_a = Counter(chain.from_iterable(map(adj_a.__getitem__, classes_a[s])))
        count_b = Counter(chain.from_iterable(map(adj_b.__getitem__, classes_b[s])))
        groups_a: dict[tuple[int, int], list[int]] = {}
        for v, k in count_a.items():
            groups_a.setdefault((colour_a[v], k), []).append(v)
        groups_b: dict[tuple[int, int], list[int]] = {}
        for v, k in count_b.items():
            groups_b.setdefault((colour_b[v], k), []).append(v)
        if len(groups_a) != len(groups_b) or any(
            len(groups_b.get(key, ())) != len(vs) for key, vs in groups_a.items()
        ):
            return False
        for c, keys in groupby(sorted(groups_a), itemgetter(0)):
            keys = list(keys)
            parts_a = [groups_a[key] for key in keys]
            parts_b = [groups_b[key] for key in keys]
            rest = len(classes_a[c]) - sum(map(len, parts_a))
            if rest:
                parts_a.insert(0, [u for u in classes_a[c] if u not in count_a])
                parts_b.insert(0, [u for u in classes_b[c] if u not in count_b])
            elif len(parts_a) == 1:
                continue
            classes_a[c] = parts_a[0]
            classes_b[c] = parts_b[0]
            ids = [c]
            for part_a, part_b in zip(parts_a[1:], parts_b[1:]):
                t = len(classes_a)
                for v in part_a:
                    colour_a[v] = t
                for v in part_b:
                    colour_b[v] = t
                classes_a.append(part_a)
                classes_b.append(part_b)
                ids.append(t)
            if c in queued:
                del ids[0]
            else:
                # counts in the whole class are known, so its largest part
                # follows from the others (Hopcroft's smaller-half rule)
                sizes = list(map(len, parts_a))
                del ids[sizes.index(max(sizes))]
            queue.extend(ids)
            queued.update(ids)
    return True


def bipartite_isomorphism(
    a: BitMatrix, b: BitMatrix
) -> tuple[list[int], list[int]] | None:
    """Row and column permutations carrying a onto b, or None.

    Rows and columns share one vertex space, and a search state holds, for
    a and for b, a colour per vertex, the members of each colour class, and
    a queue of splitter classes. Refinement (``_refine``) pops a splitter,
    counts each vertex's neighbours in it, and splits classes by that count
    in step on both sides; a class that splits queues all of its parts if
    it was queued already and all but its largest otherwise (Hopcroft's
    smaller-half rule), so only vertices next to a class that split are
    ever re-keyed. From the rows-versus-columns start with both classes
    queued, this reaches the coarsest equitable refinement, which is
    unique, or finds that a and b part ways.

    Classes still ambiguous are split depth first on an explicit stack, so
    a search many levels deep needs no recursion: the first a-vertex of the
    smallest non-singleton class and each b-vertex of that class in turn go
    into a fresh class, the only one the child queues (``_child``). Every
    leaf candidate is verified entry by entry, so a returned pair is always
    a genuine witness (row_perm[i] is the b-row matching a-row i). Because each stable
    partition is unique, which branches fail and hence the verdict do not
    depend on how refinement numbers its classes; the numbering does pick
    the search order, and so which of several witnesses is returned.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    adj_a, adj_b = _vertex_adjacency(a), _vertex_adjacency(b)
    # one iterator of states still to try per level of individualization
    stack = [iter([_root(a.rows, a.cols)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        if not _refine(adj_a, adj_b, *state):
            continue
        classes_a = state[1]
        ambiguous = [c for c, members in enumerate(classes_a) if len(members) > 1]
        if ambiguous:
            # the first a-vertex of the smallest such class, onto each b-image
            c = min(ambiguous, key=lambda c: len(classes_a[c]))
            stack.append(map(partial(_child, state, classes_a[c][0]), state[3][c]))
            continue
        classes_b = state[3]
        image = [classes_b[c][0] for c in state[0]]
        row_perm = image[: a.rows]
        col_perm = [u - a.rows for u in image[a.rows :]]
        if all(
            sum(1 << col_perm[u - a.rows] for u in adj_a[i]) == b.bits[row_perm[i]]
            for i in range(a.rows)
        ):
            return row_perm, col_perm
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

