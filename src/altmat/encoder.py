"""Encoder for the regular code checked by build_a(k, ell).

The check matrix is fragment_a(k, ell)'s split [[T, 0], [I, X]], with
T = build_a(k, ell-1) and X = build_a(k-1, ell); the split's gap
g = T.rows = C(k+ell-2, ell-2) cuts X as (B | A). Writing a codeword as
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
T·X = (T·B | T·A). A codeword is the XOR of the generator rows its
message selects. One word x, packed once, is a codeword of
H = build_a(k, ell) iff every row of H meets it in an even number of ones
(``verify_codeword``): nothing is transposed and no other family member
is built. A batch of words, the rows of a matrix W, is verified by one
product H·Wᵀ (``verify_codewords``), which XORs rows of Wᵀ at H's few
ones per row instead of H's columns at about half the bits of every word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitmatrix import (
    BitMatrix,
    gf2_basis,
    gf2_mul,
    gf2_rref,
    pack_bits,
    unpack_bits,
    xor_selected,
)
from .families import Fragmentation, build_a, dims_of, fragment_a


class GapSystemInconsistent(ValueError):
    """Some message basis vector has no codeword completion."""

    def __init__(self, basis_index: int):
        self.basis_index = basis_index
        super().__init__(f"gap system is inconsistent at message basis index {basis_index}")


def split_sizes(k: int, ell: int) -> tuple[int, int]:
    """(gap, message_len) of fragment_a(k, ell), read off its blocks' orders.

    Requires 2 <= ell <= k-1 so that the message block is nonempty.
    """
    if ell < 2:
        raise ValueError("no partition for ell < 2")
    if ell >= k:
        raise ValueError("message length is nonpositive for ell >= k")
    gap = dims_of(k, ell - 1)[0]
    return gap, dims_of(k - 1, ell)[1] - gap


@dataclass(frozen=True)
class Encoder:
    """Precomputed gap solver: immutable and safe to share across threads.

    ``partition`` is the fragment_a(k, ell) split the gap system comes from;
    ``generator`` holds the codeword of each unit message, packed.
    """

    partition: Fragmentation
    phi: BitMatrix
    particular: tuple[int, ...]
    generator: tuple[int, ...]


def make_encoder(k: int, ell: int) -> Encoder:
    """Row-reduce the gap system once and solve it for every basis message.

    Raises GapSystemInconsistent naming the first basis index whose
    right-hand side falls outside the column space of the gap matrix.
    """
    split_sizes(k, ell)  # refuses a split with no message columns
    frag = fragment_a(k, ell)
    if frag.reassemble() != build_a(k, ell):
        raise ValueError(f"fragment_a({k}, {ell}) does not reassemble to build_a({k}, {ell})")
    return encoder_from_partition(frag)


def encoder_from_partition(part: Fragmentation) -> Encoder:
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
        raise GapSystemInconsistent(bad.bit_length() - 1 - g)
    # row c of the tails holds pivot c's value across all basis messages
    tails = [0] * g
    for w in gf2_rref(basis):
        tails[(w & -w).bit_length() - 1] = w >> g
    particular = BitMatrix(g, s, tuple(tails)).transpose()
    # y_j = (p1 | e_j) for p1 = particular row j, so X·y_j = B·p1 + A·e_j
    # and row j is (X·y_j | y_j)
    ys = tuple(p1w | 1 << (g + j) for j, p1w in enumerate(particular.bits))
    p2 = gf2_mul(BitMatrix(s, g + s, ys), part.tail.transpose())
    generator = tuple(p2w | y << part.top.cols for p2w, y in zip(p2.bits, ys))
    return Encoder(part, phi, particular.bits, generator)


def encode(enc: Encoder, message: Sequence[int]) -> tuple[int, ...]:
    """Codeword (p2 | p1 | message), the XOR of the generator rows the message selects."""
    part = enc.partition
    if len(message) != part.message_len:
        raise ValueError(
            f"message must have length {part.message_len}, got {len(message)}"
        )
    n = part.top.cols + part.tail.cols
    return unpack_bits(xor_selected(enc.generator, message), n)


def verify_codeword(k: int, ell: int, x: Sequence[int]) -> bool:
    """True iff build_a(k, ell) · x = 0 over GF(2): each row meets x in an even number of ones."""
    h = build_a(k, ell)
    if len(x) != h.cols:
        raise ValueError(f"word must have length {h.cols}, got {len(x)}")
    xw = pack_bits(x)
    for w in h.bits:
        if (w & xw).bit_count() & 1:
            return False
    return True


def verify_codewords(k: int, ell: int, words: BitMatrix) -> bool:
    """True iff build_a(k, ell) · w = 0 over GF(2) for every row w of words."""
    h = build_a(k, ell)
    if words.cols != h.cols:
        raise ValueError(f"word must have length {h.cols}, got {words.cols}")
    return gf2_mul(h, words.transpose()).is_zero()
