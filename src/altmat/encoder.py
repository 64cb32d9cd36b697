"""Encoder for the regular code checked by build_a(k, ell).

The check matrix splits as [[T, 0, 0], [I, B, A]] along its recursive block
structure, with T = build_a(k, ell-1). Writing a codeword as (p2 | p1 | s),
the bottom rows give p2 = B·p1 + A·s and the top rows reduce to the small
gap system (T·B)·p1 = T·A·s, of order g = C(k+ell-2, ell-2). The gap matrix
T·B is singular over GF(2) for every (k, ell) with this split (the all-ones
row combination of its rows vanishes because column sums are ell-1 and ell),
so instead of inverting we row-reduce once and keep one particular solution
per message basis vector, with free variables pinned to 0; construction
fails loudly if any basis system is inconsistent.

Encoding is linear, so the encoder also keeps the generator rows: row j is
the codeword of unit message j, (B·p1 + A·e_j | p1 | e_j) with p1 the
particular solution for e_j. They are built in bulk as
(particular · Bᵀ + Aᵀ | particular | I), and a codeword is the XOR of the
rows its message selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .bitmatrix import (
    BitMatrix,
    gf2_basis,
    gf2_matvec,
    gf2_mul,
    gf2_rref,
    gf2_vecmat,
    pack_bits,
    unpack_bits,
)
from .families import build_a


class GapSystemInconsistent(ValueError):
    """Some message basis vector has no codeword completion."""

    def __init__(self, k: int, ell: int, basis_index: int):
        self.k = k
        self.ell = ell
        self.basis_index = basis_index
        super().__init__(
            f"gap system for (k={k}, ell={ell}) is inconsistent at "
            f"message basis index {basis_index}"
        )


@dataclass(frozen=True)
class Partition:
    """Block split [[top, 0, 0], [ident, b, a]] of build_a(k, ell)."""

    k: int
    ell: int
    top: BitMatrix
    ident: BitMatrix
    b: BitMatrix
    a: BitMatrix

    @property
    def gap(self) -> int:
        return self.b.cols

    @property
    def message_len(self) -> int:
        return self.a.cols

    def reassemble(self) -> BitMatrix:
        bottom_words = [
            iw | (bw << self.ident.cols) | (aw << (self.ident.cols + self.b.cols))
            for iw, bw, aw in zip(self.ident.bits, self.b.bits, self.a.bits)
        ]
        words = tuple(self.top.bits) + tuple(bottom_words)
        return BitMatrix(
            self.top.rows + self.ident.rows,
            self.ident.cols + self.b.cols + self.a.cols,
            words,
        )


def partition_h(k: int, ell: int) -> Partition:
    """Slice build_a(k, ell) into the four named blocks.

    Requires 2 <= ell <= k-1 so that the message block is nonempty.
    """
    if ell < 2:
        raise ValueError("no partition for ell < 2")
    if ell >= k:
        raise ValueError("message length is nonpositive for ell >= k")
    h = build_a(k, ell)
    top_rows = comb(k + ell - 2, ell - 2)
    ident_order = comb(k + ell - 2, ell - 1)
    g = comb(k + ell - 2, ell - 2)
    s = comb(k + ell - 1, ell) - comb(k + ell - 1, ell - 1)
    rows = list(range(h.rows))
    if any(h.bits[i] >> ident_order for i in range(top_rows)):
        raise ValueError(
            f"top rows of build_a({k}, {ell}) are not zero past the identity block"
        )
    top = h.submatrix(rows[:top_rows], range(ident_order))
    bottom = rows[top_rows:]
    ident = h.submatrix(bottom, range(ident_order))
    b = h.submatrix(bottom, range(ident_order, ident_order + g))
    a = h.submatrix(bottom, range(ident_order + g, ident_order + g + s))
    return Partition(k, ell, top, ident, b, a)


@dataclass(frozen=True)
class Encoder:
    """Precomputed gap solver: immutable and safe to share across threads."""

    partition: Partition
    phi: BitMatrix
    reduced: BitMatrix
    pivots: tuple[int, ...]
    particular: tuple[int, ...]
    generator: tuple[int, ...]


def make_encoder(k: int, ell: int) -> Encoder:
    """Row-reduce the gap system once and solve it for every basis message.

    Raises GapSystemInconsistent naming the first basis index whose
    right-hand side falls outside the column space of the gap matrix.
    """
    return encoder_from_partition(partition_h(k, ell))


def encoder_from_partition(part: Partition) -> Encoder:
    k, ell = part.k, part.ell
    phi = gf2_mul(part.top, part.b)
    rhs = gf2_mul(part.top, part.a)
    g, s = part.gap, part.message_len
    basis = gf2_basis(pw | (rw << g) for pw, rw in zip(phi.bits, rhs.bits))
    # a member whose lowest bit is a message bit is zero on the gap columns
    # but not on the right-hand side; the lowest such bit is the first basis
    # message without a solution
    bad = min((low for low in basis if low >> g), default=0)
    if bad:
        raise GapSystemInconsistent(k, ell, bad.bit_length() - 1 - g)
    rows = gf2_rref(basis)
    pivots = tuple((w & -w).bit_length() - 1 for w in rows)
    # row c of the tails holds pivot c's value across all basis messages
    tails = [0] * g
    for c, w in zip(pivots, rows):
        tails[c] = w >> g
    particular = BitMatrix(g, s, tuple(tails)).transpose()
    mask = (1 << g) - 1
    padding = (0,) * (phi.rows - len(rows))
    reduced = BitMatrix(phi.rows, g, tuple(w & mask for w in rows) + padding)
    # row j: (B·p1 + A·e_j | p1 | e_j) for p1 = particular row j
    n2 = part.ident.cols
    p2 = gf2_mul(particular, part.b.transpose()).xor(part.a.transpose())
    generator = tuple(
        p2w | p1w << n2 | 1 << (n2 + g + j)
        for j, (p2w, p1w) in enumerate(zip(p2.bits, particular.bits))
    )
    return Encoder(part, phi, reduced, pivots, particular.bits, generator)


def encode(enc: Encoder, message: Sequence[int]) -> tuple[int, ...]:
    """Codeword (p2 | p1 | message) with build_a(k, ell) · x = 0 over GF(2)."""
    part = enc.partition
    if len(message) != part.message_len:
        raise ValueError(
            f"message must have length {part.message_len}, got {len(message)}"
        )
    n = part.ident.cols + part.gap + part.message_len
    return unpack_bits(gf2_vecmat(pack_bits(message), enc.generator), n)


def verify_codeword(k: int, ell: int, x: Sequence[int]) -> bool:
    """True iff build_a(k, ell) · x = 0 over GF(2)."""
    h = build_a(k, ell)
    if len(x) != h.cols:
        raise ValueError(f"word must have length {h.cols}, got {len(x)}")
    return gf2_matvec(h, pack_bits(x)) == 0
