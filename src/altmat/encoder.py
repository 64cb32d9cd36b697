"""Encoder for the regular code checked by build_a(k, ell).

The check matrix is fragment_a(k, ell)'s split [[T, 0], [I, X]], with
T = build_a(k, ell-1) and X = build_a(k-1, ell); the encoder cuts X as
(B | A) after g = C(k+ell-2, ell-2) columns. Writing a codeword as
(p2 | p1 | s), the bottom rows give p2 = B·p1 + A·s and the top rows reduce
to the small gap system (T·B)·p1 = T·A·s, of order g. The gap matrix
T·B is singular over GF(2) for every (k, ell) with this split (the all-ones
row combination of its rows vanishes because column sums are ell-1 and ell),
so instead of inverting we row-reduce once and keep one particular solution
per message basis vector, with free variables pinned to 0; construction
fails loudly if any basis system is inconsistent.

Encoding is linear, so the encoder also keeps the generator rows: row j is
the codeword of unit message j, (B·p1 + A·e_j | p1 | e_j) with p1 the
particular solution for e_j. With Y = (particular | I), whose row j is
(p1 | e_j), they are built in bulk as (Y · Xᵀ | Y), one product for the
whole tail X = (B | A), just as the gap system is the one product
T·X = (T·B | T·A). A codeword is the XOR of the rows its message selects,
read from the generator's subset-XOR tables one lookup per four message
bits. Verification is the same kind of lookup, build_a(k, ell) · x from
the column tables held on the cached matrix.
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
    pack_bits,
    unpack_bits,
    xor_lookup,
    xor_tables,
)
from .families import Fragmentation, build_a, fragment_a


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
class Partition(Fragmentation):
    """fragment_a(k, ell) with its tail cut as (b | a) after ``gap`` columns."""

    k: int
    ell: int
    gap: int

    @property
    def message_len(self) -> int:
        return self.tail.cols - self.gap

    @property
    def b(self) -> BitMatrix:
        mask = (1 << self.gap) - 1
        return BitMatrix(self.tail.rows, self.gap, tuple(w & mask for w in self.tail.bits))

    @property
    def a(self) -> BitMatrix:
        words = tuple(w >> self.gap for w in self.tail.bits)
        return BitMatrix(self.tail.rows, self.message_len, words)


def split_sizes(k: int, ell: int) -> tuple[int, int]:
    """(gap, message_len) of the split: (g, C(k+ell-2, ell) - g), g = C(k+ell-2, ell-2).

    Requires 2 <= ell <= k-1 so that the message block is nonempty.
    """
    if ell < 2:
        raise ValueError("no partition for ell < 2")
    if ell >= k:
        raise ValueError("message length is nonpositive for ell >= k")
    gap = comb(k + ell - 2, ell - 2)
    return gap, comb(k + ell - 2, ell) - gap


def partition_h(k: int, ell: int) -> Partition:
    """fragment_a(k, ell), its tail cut after split_sizes(k, ell)'s gap.

    Checks that the blocks reassemble to build_a(k, ell).
    """
    gap, _ = split_sizes(k, ell)
    frag = fragment_a(k, ell)
    part = Partition(frag.top, frag.glue, frag.tail, k, ell, gap)
    if part.reassemble() != build_a(k, ell):
        raise ValueError(f"fragment_a({k}, {ell}) does not reassemble to build_a({k}, {ell})")
    return part


@dataclass(frozen=True)
class Encoder:
    """Precomputed gap solver: immutable and safe to share across threads.

    ``generator_tables`` are ``xor_tables(generator)``, from which ``encode``
    reads a codeword by table lookup.
    """

    partition: Partition
    phi: BitMatrix
    particular: tuple[int, ...]
    generator: tuple[int, ...]
    generator_tables: tuple[tuple[int, ...], ...]


def make_encoder(k: int, ell: int) -> Encoder:
    """Row-reduce the gap system once and solve it for every basis message.

    Raises GapSystemInconsistent naming the first basis index whose
    right-hand side falls outside the column space of the gap matrix.
    """
    return encoder_from_partition(partition_h(k, ell))


def encoder_from_partition(part: Partition) -> Encoder:
    g, s = part.gap, part.message_len
    # T·X = (T·B | T·A) bit for bit: the gap matrix beside the right-hand sides
    system = gf2_mul(part.top, part.tail).bits
    mask = (1 << g) - 1
    phi = BitMatrix(part.top.rows, g, tuple(w & mask for w in system))
    basis = gf2_basis(system)
    # a member whose lowest bit is a message bit is zero on the gap columns
    # but not on the right-hand side; the lowest such bit is the first basis
    # message without a solution
    bad = min((low for low in basis if low >> g), default=0)
    if bad:
        raise GapSystemInconsistent(part.k, part.ell, bad.bit_length() - 1 - g)
    # row c of the tails holds pivot c's value across all basis messages
    tails = [0] * g
    for w in gf2_rref(basis):
        tails[(w & -w).bit_length() - 1] = w >> g
    particular = BitMatrix(g, s, tuple(tails)).transpose()
    # y_j = (p1 | e_j) for p1 = particular row j, so X·y_j = B·p1 + A·e_j
    # and row j is (X·y_j | y_j)
    ys = tuple(p1w | 1 << (g + j) for j, p1w in enumerate(particular.bits))
    p2 = gf2_mul(BitMatrix(s, g + s, ys), part.tail.transpose())
    n2 = part.glue.cols
    generator = tuple(p2w | y << n2 for p2w, y in zip(p2.bits, ys))
    return Encoder(part, phi, particular.bits, generator, xor_tables(generator))


def encode(enc: Encoder, message: Sequence[int]) -> tuple[int, ...]:
    """Codeword (p2 | p1 | message) with build_a(k, ell) · x = 0 over GF(2).

    The XOR of the generator rows the message selects, as one lookup in the
    encoder's generator tables.
    """
    part = enc.partition
    if len(message) != part.message_len:
        raise ValueError(
            f"message must have length {part.message_len}, got {len(message)}"
        )
    n = part.glue.cols + part.tail.cols
    return unpack_bits(xor_lookup(enc.generator_tables, pack_bits(message)), n)


def verify_codeword(k: int, ell: int, x: Sequence[int]) -> bool:
    """True iff build_a(k, ell) · x = 0 over GF(2)."""
    h = build_a(k, ell)
    if len(x) != h.cols:
        raise ValueError(f"word must have length {h.cols}, got {len(x)}")
    return gf2_matvec(h, pack_bits(x)) == 0
