"""Index-tuple incidence matrices and block decomposition.

One routine, ``_extension_matrix``, builds every incidence matrix over index
tuples: rows are the t-subsets of {1..v}, columns the u-subsets, both in
lexicographic order and held as bit masks, and a column is 1 in a row iff
it is the row joined with one piece disjoint from it.
``inclusion_matrix(t, v)`` takes the points of {1..v} as pieces, so it maps
the t-subsets into the (t+1)-subsets; ``build_a(k, ell)`` equals
``inclusion_matrix(ell-1, k+ell-1)`` bit for bit, and ``build_l_oracle(k)``
is the case ell = k-1, an independent route to that family member.
``build_m(n)`` takes the complementary pairs {i, 2n-i+1} as pieces, so it
extends the (n-2)-subsets of {1..2n} to n-subsets.

``decompose_blocks`` splits any matrix into the connected components of its
row-column graph and identifies each against ``build_a(j, j-1)`` with
``permutation_equivalent``. For ``build_m(n)`` every component, rows and
columns kept in index order, is that matrix bit for bit (the component's
tuples share their unpaired elements, and index order is then the order of
their full pairs), so bit equality certifies it; ``permutation_equivalent``
tries that identity first and runs the search only where it fails, as on a
permuted input.

``bipartite_isomorphism`` is that search. Rows and columns share one vertex
space, and a's vertices and b's, shifted past a's, make up one partition:
each class holds vertices of a and their possible images in b. A splitter
queue refines it (Paige & Tarjan 1987; McKay & Piperno 2014): a dequeued
class re-keys only its neighbours, by how many of their neighbours lie in
it, and a class that splits queues all but its largest part, so singletons
whose neighbours did not change are never looked at again. The stable
partition is the coarsest equitable refinement, which is unique, so the
verdict of ``permutation_equivalent`` does not depend on how classes are
numbered or queued; that order only picks which witness a search with
several finds first, and every witness is verified entry by entry.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, groupby
from math import comb
from operator import itemgetter

from . import bitmatrix
from .bitmatrix import BitMatrix, column_supports
from .families import build_a, dims_of


def symplectic_pairs(n: int) -> list[tuple[int, int]]:
    """The n complementary pairs (i, 2n-i+1) of {1..2n}."""
    return [(i, 2 * n - i + 1) for i in range(1, n + 1)]


def l_oracle_dims(k: int) -> tuple[int, int]:
    """Order of build_l_oracle(k), which equals build_a(k, k-1) bit for bit."""
    if k < 2:
        raise ValueError("need k >= 2")
    return dims_of(k, k - 1)


def m_dims(n: int) -> tuple[int, int]:
    """Order of build_m(n): (C(2n, n-2), C(2n, n)).

    C(2n, n-2) >= 2^(n-2), so a row count past bitmatrix.MAX_CELLS is
    refused before any binomial is computed.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    limit = bitmatrix.MAX_CELLS
    if n - 2 >= limit.bit_length():
        raise ValueError(f"build_m({n}) would be past the limit of {limit} cells")
    return comb(2 * n, n - 2), comb(2 * n, n)


def _extension_matrix(t: int, u: int, v: int, pieces: Iterable[tuple[int, ...]]) -> BitMatrix:
    """Rows the t-subsets of {1..v}, columns its u-subsets, both lexicographic.

    Subsets are bit masks, bit x for element x. Entry (r, c) is 1 iff
    column c is r | p for a piece p with r & p == 0.
    """
    bits = [1 << x for x in range(1, v + 1)]
    # combinations of the bits keep the elements' lexicographic order
    col = dict(zip(map(sum, combinations(bits, u)), map((1).__lshift__, range(comb(v, u)))))
    masks = [sum(1 << x for x in p) for p in pieces]
    words = []
    for r in map(sum, combinations(bits, t)):
        word = 0
        for p in masks:
            if not r & p:
                word |= col[r | p]
        words.append(word)
    return BitMatrix(len(words), len(col), tuple(words))


def inclusion_matrix(t: int, v: int) -> BitMatrix:
    """Inclusion matrix of the t-subsets into the (t+1)-subsets of {1..v}.

    Rows and columns are in lexicographic order; entry 1 iff the row subset
    is contained in the column subset. Every row has weight v-t and every
    column weight t+1.
    """
    if t < 0 or t + 1 > v:
        raise ValueError("need 0 <= t < v")
    return _extension_matrix(t, t + 1, v, [(x,) for x in range(1, v + 1)])


def build_l_oracle(k: int) -> BitMatrix:
    """Inclusion matrix of (k-2)- into (k-1)-subsets of a (2k-2)-set.

    Rows and columns are in lexicographic order; entry 1 iff the row subset
    is contained in the column subset. Every row has weight k, every column
    weight k-1, and all rows are distinct. Its order is l_oracle_dims(k).
    """
    l_oracle_dims(k)
    return inclusion_matrix(k - 2, 2 * k - 2)


def build_m(n: int) -> BitMatrix:
    """Incidence matrix over the (n-2)- and n-subsets of {1..2n}, lexicographic.

    Entry (alpha, beta) is 1 iff beta is alpha extended by a complementary
    pair {i, 2n-i+1} disjoint from alpha. Row weights equal the number of
    such disjoint pairs. Its order is m_dims(n).
    """
    m_dims(n)
    return _extension_matrix(n - 2, n, 2 * n, symplectic_pairs(n))


# -- permutation equivalence --------------------------------------------------


def _vertex_adjacency(m: BitMatrix) -> list[list[int]]:
    """Neighbours of every vertex: rows are 0..rows-1, column j is rows + j."""
    rows = m.supports()
    shift = m.rows
    return [[shift + j for j in s] for s in rows] + column_supports(rows, m.cols)


def _root(n: int, rows: int) -> tuple:
    """The first search state: rows in one class, columns in another, both queued.

    A state is (colour, classes, queue) over a's n vertices followed by b's:
    a colour per vertex, the members of each class (a-members first), and
    the splitter classes still to pop.
    """
    classes = [[*range(rows), *range(n, n + rows)], [*range(rows, n), *range(n + rows, 2 * n)]]
    return ([0] * rows + [1] * (n - rows)) * 2, classes, [0, 1]


def _child(state: tuple, v: int, w: int) -> tuple:
    """A copy of a refined state with a-vertex v and b-vertex w in a fresh class.

    The parent partition is equitable, so the fresh class is the only
    splitter the child needs.
    """
    colour, classes, _ = state
    c, t = colour[v], len(classes)
    colour = colour.copy()
    colour[v] = colour[w] = t
    classes = classes.copy()
    classes[c] = [u for u in classes[c] if u != v and u != w]
    classes.append([v, w])
    return colour, classes, [t]


def _refine(
    adj: list[list[int]], n: int, colour: list[int], classes: list[list[int]], queue: list[int]
) -> bool:
    """Split the partition in place until no queued splitter splits a class.

    A popped splitter S counts every vertex's neighbours in S; the touched
    vertices of each class, grouped by count, are its parts, and a part with
    unequal numbers of a-vertices (below n) and b-vertices means a and b
    part ways: False. A class that splits keeps its id for its untouched
    vertices (for the part of least count if all are touched), and its
    other parts take new ids in order of count. Every class lists its
    a-members first, and so does every part. Member lists are replaced,
    never changed in place, so states may share them.
    """
    queued = set(queue)
    while queue:
        s = queue.pop()
        queued.discard(s)
        count = Counter(chain.from_iterable(map(adj.__getitem__, classes[s])))
        groups: dict[tuple[int, int], list[int]] = {}
        for v, k in count.items():
            groups.setdefault((colour[v], k), []).append(v)
        # S lists its a-members first, and a-vertices neighbour only
        # a-vertices, so a group lists its a-vertices first too: it is
        # balanced iff it is even and its middle falls between the sides
        if any(
            len(vs) % 2 or vs[len(vs) // 2 - 1] >= n or vs[len(vs) // 2] < n
            for vs in groups.values()
        ):
            return False
        for c, keys in groupby(sorted(groups), itemgetter(0)):
            parts = [groups[key] for key in keys]
            if len(classes[c]) > sum(map(len, parts)):
                parts.insert(0, [u for u in classes[c] if u not in count])
            elif len(parts) == 1:
                continue
            classes[c] = parts[0]
            ids = [c]
            for part in parts[1:]:
                t = len(classes)
                for v in part:
                    colour[v] = t
                classes.append(part)
                ids.append(t)
            if c in queued:
                del ids[0]
            else:
                # counts in the whole class are known, so its largest part
                # follows from the others (Hopcroft's smaller-half rule)
                sizes = list(map(len, parts))
                del ids[sizes.index(max(sizes))]
            queue.extend(ids)
            queued.update(ids)
    return True


def bipartite_isomorphism(
    a: BitMatrix, b: BitMatrix
) -> tuple[list[int], list[int]] | None:
    """Row and column permutations carrying a onto b, or None.

    One partition covers a's n = rows + cols vertices (rows first) and b's,
    shifted by n, so a class that holds a-vertices also holds their possible
    images; a search state is a colour per vertex, the members of each class
    (a-members first), and a queue of splitter classes. Refinement
    (``_refine``) pops a splitter, counts each vertex's neighbours in it,
    and splits classes by that count; a class that splits queues all of its
    parts if it was queued already and all but its largest otherwise
    (Hopcroft's smaller-half rule), so only vertices next to a class that
    split are ever re-keyed. From the rows-versus-columns start with both
    classes queued, this reaches the coarsest equitable refinement of the
    union, which is unique, or finds a part with unequal numbers of a- and
    b-vertices, where a and b part ways.

    Classes still ambiguous are split depth first on an explicit stack, so
    a search many levels deep needs no recursion: the first a-vertex of the
    smallest class with more than one a-vertex and each b-vertex of that
    class in turn go into a fresh class, the only one the child queues
    (``_child``). A leaf is a partition whose every class is one a-vertex
    and its image, and it is verified entry by entry, so a returned pair is
    always a genuine witness (row_perm[i] is the b-row matching a-row i).
    Because each stable partition is unique, which branches fail and hence
    the verdict do not depend on how refinement numbers its classes; the
    numbering does pick the search order, and so which of several
    witnesses is returned.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    n = a.rows + a.cols
    adj = _vertex_adjacency(a) + [[n + u for u in s] for s in _vertex_adjacency(b)]
    # one iterator of states still to try per level of individualization
    stack = [iter([_root(n, a.rows)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        if not _refine(adj, n, *state):
            continue
        colour, classes, _ = state
        ambiguous = [c for c, members in enumerate(classes) if len(members) > 2]
        if ambiguous:
            # the first a-vertex of the smallest such class, onto each b-image
            members = classes[min(ambiguous, key=lambda c: len(classes[c]))]
            stack.append(map(partial(_child, state, members[0]), members[len(members) // 2 :]))
            continue
        image = [classes[c][1] - n for c in colour[:n]]
        row_perm = image[: a.rows]
        col_perm = [u - a.rows for u in image[a.rows :]]
        if all(
            sum(1 << col_perm[u - a.rows] for u in adj[i]) == b.bits[row_perm[i]]
            for i in range(a.rows)
        ):
            return row_perm, col_perm
    return None


def permutation_equivalent(a: BitMatrix, b: BitMatrix) -> bool:
    """True iff permuting a's rows and columns carries it onto b.

    Equal matrices are equivalent by the identity permutations, so the
    search (``bipartite_isomorphism``) runs only when that identity fails.
    """
    return a == b or bipartite_isomorphism(a, b) is not None


# -- block decomposition -------------------------------------------------------


@dataclass(frozen=True)
class BlockReport:
    """Identified diagonal blocks of an incidence matrix.

    ``blocks`` maps labels like "L_3" to multiplicities, in label order;
    components that match no candidate are only counted in ``unidentified``.
    ``decompose_blocks`` builds it once, whole, and it is frozen.
    """

    blocks: dict[str, int]
    zero_columns: int
    unidentified: int


def _candidate_orders(rows: int) -> dict[tuple[int, int], int]:
    """{l_oracle_dims(j): j} for every j >= 2 whose matrix has at most rows rows.

    The row count C(2j-2, j-2) grows with j, so each order names one j, and
    a component of an m with this many rows can only match one listed here.
    """
    orders = {}
    j = 2
    while (dims := l_oracle_dims(j))[0] <= rows:
        orders[dims] = j
        j += 1
    return orders


def decompose_blocks(m: BitMatrix) -> BlockReport:
    """Connected components of the row-column incidence graph, identified.

    The walk runs on the vertex space of the search, rows before columns,
    so a component's sorted vertices are its rows, then its columns from
    m.rows on. Each component's submatrix (rows and columns kept in index
    order) is checked with ``permutation_equivalent`` against the inclusion
    matrix build_a(j, j-1) of matching dimensions, which searches only
    where bit equality fails; j is looked up in one table of orders made
    per call (``_candidate_orders``). Zero columns are tallied separately;
    a zero row is a component without columns, and unidentified.
    """
    adj = _vertex_adjacency(m)
    seen = [False] * len(adj)
    labels: Counter[str] = Counter()
    unidentified = 0
    orders = _candidate_orders(m.rows)
    for start in range(m.rows):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # comp grows while it is walked
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comp.sort()
        split = bisect_left(comp, m.rows)
        if split == len(comp):
            unidentified += 1
            continue
        # the component's rows, renumbered to its own columns, from the
        # supports already in hand
        pos = {u: t for t, u in enumerate(comp[split:])}
        words = tuple(sum(1 << pos[u] for u in adj[i]) for i in comp[:split])
        sub = BitMatrix(split, len(comp) - split, words)
        j = orders.get((sub.rows, sub.cols))
        if j is not None and permutation_equivalent(sub, build_a(j, j - 1)):
            labels[f"L_{j}"] += 1
        else:
            unidentified += 1
    zero_columns = sum(1 for ones in adj[m.rows :] if not ones)
    return BlockReport(dict(sorted(labels.items())), zero_columns, unidentified)
