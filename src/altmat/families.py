"""Recursive construction of the sparse and dense (0,1)-matrix families.

``build_a(k, ell)`` produces a matrix with k ones per row and ell ones per
column, of order C(k+ell-1, ell-1) x C(k+ell-1, ell), in approximate lower
triangular form (identity in the bottom-left corner for ell >= 2).
``build_b(k, ell)`` is its entrywise complement, built by the dual recursion
rather than by subtraction.

Both recursions write each member's rows straight into one word list
(``_join``), with no matrix made per block.

``fragment_a`` states build_a's Richardson–Urbanke split [[T, 0], [I, X]]
once, for the encoder too: a ``Fragmentation`` holds only T and X, and
``reassemble`` writes the identity I into its rows as it joins them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import bitmatrix
from .bitmatrix import BitMatrix


def _validate(k: int, ell: int) -> None:
    if k < 1 or ell < 1:
        raise ValueError("k and ell must be positive")


def dims_of(k: int, ell: int) -> tuple[int, int]:
    """Order of build_a(k, ell): (C(k+ell-1, ell-1), C(k+ell-1, ell)).

    An order past bitmatrix.MAX_CELLS by a bound that costs nothing is
    refused before any binomial is computed: with n = k+ell-1 the rows are
    C(n, ell-1), and C(n, r) >= n and C(n, r) >= 2^min(r, n-r) for
    0 < r < n. Past neither bound, both binomials have a few hundred digits.
    """
    _validate(k, ell)
    n = k + ell - 1
    limit = bitmatrix.MAX_CELLS
    if n > limit or min(k, ell) > limit.bit_length():
        raise ValueError(f"build_a({k}, {ell}) would be past the limit of {limit} cells")
    return comb(n, ell - 1), comb(n, ell)


def _join(children: list[BitMatrix], hollow: bool) -> BitMatrix:
    """Rows of the side-by-side join, bottoms aligned, of each child over its square.

    The square under a child of c columns is I_c, or J - I_c when hollow,
    and the cells above a block shorter than the first are 0, or 1 when
    hollow. Every row is written straight into one word list at the
    child's column offset, so no block is built as a matrix of its own.
    """
    total = children[0].rows + children[0].cols
    words = [0] * total
    offset = 0
    for child in children:
        n = child.cols
        ones = ((1 << n) - 1) << offset if hollow else 0
        top = total - child.rows - n
        if hollow:
            for i in range(top):
                words[i] |= ones
        for i, w in enumerate(child.bits, top):
            words[i] |= w << offset
        for i, t in enumerate(range(offset, offset + n), top + child.rows):
            words[i] |= ones ^ (1 << t)
        offset += n
    return BitMatrix(total, offset, tuple(words))


@lru_cache(maxsize=None)
def build_a(k: int, ell: int) -> BitMatrix:
    """Sparse regular family member with k ones per row, ell per column.

    Recursion: for ell >= 2 the matrix is the side-by-side join (bottoms
    aligned, zero fill) of the blocks [build_a(j, ell-1) over I] for
    j = k down to 1; the base ell = 1 is the single all-ones row. The
    rows are written directly (``_join``), with no matrix per block.
    """
    _validate(k, ell)
    if ell == 1:
        return BitMatrix.ones(1, k)
    return _join([build_a(j, ell - 1) for j in range(k, 0, -1)], hollow=False)


@lru_cache(maxsize=None)
def build_b(k: int, ell: int) -> BitMatrix:
    """Dense complement family member: build_a(k, ell) + build_b(k, ell) = J.

    Same recursion as build_a with every ingredient complemented: the base
    is the all-zeros row, the square under each child is J - I, and the
    fill above a shorter block is 1. The rows are written directly
    (``_join``), with no matrix per block.
    """
    _validate(k, ell)
    if ell == 1:
        return BitMatrix.zeros(1, k)
    return _join([build_b(j, ell - 1) for j in range(k, 0, -1)], hollow=True)


@dataclass(frozen=True)
class Fragmentation:
    """Split [[T, 0], [I, X]] of build_a(k, ell), held as top T and tail X.

    I is the identity of order top.cols, which the tail's row count must
    match; the gap top.rows cuts the tail as X = (B | A), A message_len wide.
    """

    top: BitMatrix
    tail: BitMatrix

    def __post_init__(self) -> None:
        if self.tail.rows != self.top.cols:
            raise ValueError(f"tail has {self.tail.rows} rows, not top.cols = {self.top.cols}")

    @property
    def gap(self) -> int:
        return self.top.rows

    @property
    def message_len(self) -> int:
        return self.tail.cols - self.top.rows

    def reassemble(self) -> BitMatrix:
        """[[T, 0], [I, X]] as one matrix.

        Its rows are written directly: T's rows, then 1 << t | x_t << top.cols
        for each row x_t of X, with no block built as a matrix.
        """
        shift = self.top.cols
        glued = (1 << t | w << shift for t, w in enumerate(self.tail.bits))
        return BitMatrix(self.top.rows + shift, shift + self.tail.cols, (*self.top.bits, *glued))


def fragment_a(k: int, ell: int) -> Fragmentation:
    """Split build_a(k, ell) into top build_a(k, ell-1) and tail build_a(k-1, ell).

    Only defined for k >= 2 and ell >= 2; reassembly is bit-exact.
    """
    _validate(k, ell)
    if k < 2 or ell < 2:
        raise ValueError("fragmentation requires k >= 2 and ell >= 2")
    return Fragmentation(build_a(k, ell - 1), build_a(k - 1, ell))
