"""Recursive construction of the sparse and dense (0,1)-matrix families.

``build_a(k, ell)`` produces a matrix with k ones per row and ell ones per
column, of order C(k+ell-1, ell-1) x C(k+ell-1, ell), in approximate lower
triangular form (identity in the bottom-left corner for ell >= 2).
``build_b(k, ell)`` is its entrywise complement, built by the dual recursion
rather than by subtraction.

Both recursions write each member's rows straight into one word list
(``_join``), with no identity, stack or matrix made per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bitmatrix import BitMatrix, compose, stack


def _validate(k: int, ell: int) -> None:
    if k < 1 or ell < 1:
        raise ValueError("k and ell must be positive")


def dims_of(k: int, ell: int) -> tuple[int, int]:
    """Order of build_a(k, ell): (C(k+ell-1, ell-1), C(k+ell-1, ell))."""
    _validate(k, ell)
    return comb(k + ell - 1, ell - 1), comb(k + ell - 1, ell)


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
    """Three-block split of build_a(k, ell): top over glue, joined with tail."""

    top: BitMatrix
    glue: BitMatrix
    tail: BitMatrix

    def reassemble(self) -> BitMatrix:
        return compose([stack(self.top, self.glue), self.tail])


def fragment_a(k: int, ell: int) -> Fragmentation:
    """Split build_a(k, ell) into (build_a(k, ell-1), identity, build_a(k-1, ell)).

    Only defined for k >= 2 and ell >= 2; reassembly is bit-exact.
    """
    _validate(k, ell)
    if k < 2 or ell < 2:
        raise ValueError("fragmentation requires k >= 2 and ell >= 2")
    top = build_a(k, ell - 1)
    glue = BitMatrix.identity(comb(k + ell - 2, ell - 1))
    tail = build_a(k - 1, ell)
    return Fragmentation(top, glue, tail)
