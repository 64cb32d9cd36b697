"""Exact (0,1)-matrix core: bit transforms, GF(2) arithmetic, rational rank.

Rows are packed into Python ints (bit j = column j), so whole-row XOR and
masking are single int operations and sizes in the thousands of columns
stay cheap. Nothing walks a row one bit at a time. A transpose packs the
rows into one int with a fixed row stride and transposes its square tiles
(64 bits a side at most) in place by delta swaps, log2 of the tile side
whole-int passes (``_transpose_words``); ``flip_transpose`` is the same
kernel run on the row-reversed matrix, its rows reversed. ``col_sums``
adds the rows into bit-sliced counters, one int per bit of the count, and
transposes nothing; zipping the counters' binary numerals
(``format(w, "0nb")``) reads the counts off. ``supports()`` lists the
ones of every row, stepping from one set bit to the next (``w & -w``) on a
sparse row and reading a dense row's reversed numeral with
``itertools.compress``; the choice is made per row from its own weight.
``column_supports`` gathers the same lists per column from the row
supports.

GF(2) rows are combined two ways. ``gf2_mul`` walks the set bits of each
left row, or, for a row with more ones than zeros, starts from the XOR of
all of the right operand's rows and walks the zeros instead, so a row
costs min(w, cols - w) XORs. For G·Hᵀ of ``codes.make_code(8, ·)``
(2-vCPU Xeon VM, CPython 3.11) the dense pair took 1.96 s on set bits
alone and 0.005 s this way; the sparse pair took 0.004 s either way. A caller's
0/1 vector (``xor_selected``) is checked once and selects the rows it
XORs with ``itertools.compress``; ``gf2_matvec`` reads A's columns
(``BitMatrix.columns``), held on the matrix until it is freed.

GF(2) elimination has one kernel, ``gf2_basis``: each row is reduced by the
basis member that owns its lowest set bit until it vanishes or owns a new
lowest bit. Rank, span membership and codeword enumeration read that basis
directly; the reduced row echelon form, needed only to write down a
solution, comes from back-substitution on it (``gf2_rref``). All values are
immutable after construction.

Both elimination kernels, ``gf2_basis`` and ``rank_mod_p``, take the rows
bottom up. ``build_a`` is in approximate lower triangular form, with an
identity block in its bottom-left corner, so its last rows have distinct
lowest bits: taken first, each becomes a pivot as it stands and only the
rows above are reduced against them, where top down every identity row was
pushed through the sparse block above it. The pivot columns, the rank and
the reduced row echelon form of a row space do not depend on the order.

Rational rank is certified modulo a Mersenne prime p = 2^q - 1
(``rank_mod_p``): the rank mod p never exceeds the rational rank, so when
it reaches min(rows, cols) it is exact. That kernel packs each row into one
int of lanes, one lane per column, the smallest multiple of 4 bits that
holds p^2: 12-bit lanes for p = 31 (q = 5), 64-bit lanes for p = 2^31 - 1
(q = 31). Every elimination step is one big-int multiply-add followed by
the same two whole-int folds for every q, which keep every lane at most p,
so no carry crosses a lane. ``exact_rank`` tries p = 31 first, which
certifies every ``build_a`` member the size guard admits, then 2^31 - 1; only a
matrix neither certifies, rank-deficient or (rarely) with minors divisible
by both primes, goes through fraction-free Bareiss elimination.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import xor
from typing import Iterable, Sequence

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

# Desk-scale limit on the cells of a matrix read from a file or generated on
# request, checked (by ``within_limit``) before anything that size is
# allocated: 2^27 cells are 16 MiB of packed bits. The limit bounds only the
# packed rows; whatever else an importer allocates must grow with its payload,
# not with the shape its header declares. The largest matrix built today,
# build_a(8, 8), has 6435^2 (41 M) cells; build_a(12, 12) would have 1.35 M^2.
MAX_CELLS = 1 << 27


def within_limit(rows: int, cols: int) -> bool:
    """Whether a rows x cols matrix fits in MAX_CELLS cells.

    A row counts at least 64 cells wide, the size of the reference that
    holds it, so a tall narrow header cannot ask for a huge row tuple.
    """
    return rows * max(cols, 64) <= MAX_CELLS


def check_size(request: str, dims: tuple[int, int]) -> None:
    """Refuse, before anything is built, a matrix past the desk-scale limit."""
    rows, cols = dims
    if not within_limit(rows, cols):
        raise ValueError(
            f"{request} would be {rows} x {cols}, past the limit of {MAX_CELLS} cells"
        )


def _bit_bytes(bits: Sequence[int]) -> bytes:
    """The entries of bits as 0/1 bytes; every entry must be 0 or 1."""
    # bytes() of an int n is n zero bytes, so an int must fail len() before
    # it gets there; bytes() of a buffer is its memory, one byte per entry
    # only when its items are bytes
    try:
        n = len(bits)
        raw = bytes(bits)
    except (TypeError, ValueError):
        n, raw = -1, b""
    if len(raw) == n and not raw.translate(None, b"\x00\x01"):
        return raw
    # anything else is checked entry by entry, to name the first bad one
    if not set(bits) <= {0, 1}:
        bad = next(e for e in bits if e not in (0, 1))
        raise ValueError(f"entry {bad!r} is not a bit")
    # iterated, so that a buffer gives its items and not its memory
    return bytes(iter(bits))


def pack_bits(bits: Sequence[int]) -> int:
    """Packed int with bit i = bits[i]; every entry must be 0 or 1."""
    return int(_bit_bytes(bits)[::-1].translate(_BIT_CHARS) or b"0", 2)


def xor_selected(rows: Sequence[int], bits: Sequence[int]) -> int:
    """XOR of the rows[i] with bits[i] = 1; bits is as long as rows, all 0 or 1."""
    return reduce(xor, compress(rows, _bit_bytes(bits)), 0)


def unpack_bits(word: int, width: int) -> tuple[int, ...]:
    """(bit 0, ..., bit width-1) of word, as 0/1 ints."""
    return tuple(format(word, f"0{width}b")[::-1].encode().translate(_BIT_VALUES))


# A transpose works on square tiles of at most this many bits a side, and
# puts about this many bytes of packed rows through the swaps at a time, so
# that each pass stays in a fast cache. Measured on a 2-vCPU Xeon VM,
# CPython 3.11: build_a(8, 8) took 0.21 s in one block and 0.08 s in 8 KiB
# blocks; in one block, tiles as wide as the smaller dimension (8192 bits
# for build_a(8, 8)) took 2.5 times as long as 64-bit tiles, and pad more.
_TILE_MAX = 64
_BLOCK_BYTES = 1 << 13

# array typecode of each unsigned item size a tile row can have
_ITEM_TYPES = {array(t).itemsize: t for t in "QLIHB"}
# the byte of a row in which bit j is set when j & s, for s = 4, 2, 1
_BYTE_PERIODS = {4: b"\xf0", 2: b"\xcc", 1: b"\xaa"}


def _swap_mask(s: int, row_bytes: int, nrows: int) -> int:
    """Cells (i, j) of nrows rows, row_bytes wide, with bit s clear in i and set in j."""
    period = bytes(s // 8) + b"\xff" * (s // 8) if s >= 8 else _BYTE_PERIODS[s]
    row = period * (row_bytes // len(period))
    return int.from_bytes((row * s + bytes(row_bytes * s)) * (nrows // (2 * s)), "little")


def _transpose_words(words: Sequence[int], width: int) -> list[int]:
    """Rows of the transpose of the rows ``words``, each ``width`` bits wide.

    The rows are packed into ints with a fixed stride, a multiple of the
    tile side n: the next power of two at least min(rows, width), at most
    _TILE_MAX and at least 8, so that a tile row is whole bytes. Cell (i, j)
    sits at bit i * stride + j, and the matrix is a grid of n x n tiles in
    bands of n rows: a wide matrix is one band, a tall one a stack of single
    tiles, and padding never exceeds one tile side in either direction. Each
    tile is transposed in place by delta swaps (Hacker's Delight 7-3): at
    level s = n/2, ..., 1 the s x s block above the diagonal of every
    2s x 2s block trades places with the one below it, a move of
    d = s * (stride - 1) bits made in all tiles at once by
    ``t = (x ^ (x >> d)) & m; x ^= t ^ (t << d)``. Afterwards column
    t*n + a is row a of tile t in every band, one n-bit item per band, read
    back in band order.
    """
    rows = len(words)
    n = 8
    while n < min(rows, width, _TILE_MAX):
        n *= 2
    stride = -(-width // n) * n
    row_bytes = stride // 8
    band = n * row_bytes
    bands = -(-rows // n)
    block_rows = n * max(1, min(bands, _BLOCK_BYTES // band))
    levels = []
    s = n // 2
    while s:
        levels.append((s * (stride - 1), _swap_mask(s, row_bytes, block_rows)))
        s //= 2
    out = bytearray()
    for start in range(0, rows, block_rows):
        piece = words[start : start + block_rows]
        x = int.from_bytes(
            b"".join(map(int.to_bytes, piece, repeat(row_bytes), repeat("little"))), "little"
        )
        for d, m in levels:
            t = (x ^ (x >> d)) & m
            x ^= t ^ (t << d)
        out += x.to_bytes(-(-len(piece) // n) * band, "little")
    item = _ITEM_TYPES[n // 8]
    tiles = stride // n
    if bands == 1:
        # every column is a single tile row: read them all as native items,
        # where a gather per column took 20x as long on 1 x 3000
        cells = array(item, out)
        if sys.byteorder == "big":
            cells.byteswap()
        columns = [0] * stride
        for a in range(n):
            columns[a::n] = cells[a * tiles : (a + 1) * tiles]
        del columns[width:]
        return columns
    view = memoryview(out).cast(item)
    step = n * tiles
    return [
        int.from_bytes(view[j % n * tiles + j // n :: step].tobytes(), "little")
        for j in range(width)
    ]


def bit_support(word: int, width: int) -> list[int]:
    """Ascending positions of the set bits of word, a row of the given width.

    Each step from one set bit to the next (``w & -w``) costs a pass over the
    whole row, so a row with more than one one in eight is read instead off
    its reversed binary numeral with ``itertools.compress``, one pass in all.
    """
    if word.bit_count() * 8 > width:
        digits = format(word, f"0{width}b")[::-1].encode().translate(_BIT_VALUES)
        return list(compress(range(width), digits))
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return out


def bit_sliced_sum(words: Iterable[int]) -> list[int]:
    """Counter planes of words: bit j of plane t is bit t of how many words have bit j.

    Adding a word is a carry-save ripple up the planes, one XOR and one AND
    per plane the carry reaches. There are as many planes as the largest
    count has bits, none when every word is zero.
    """
    planes: list[int] = []
    for w in words:
        t = 0
        while w:
            if t == len(planes):
                planes.append(w)
                break
            planes[t], w = planes[t] ^ w, planes[t] & w
            t += 1
    return planes


def column_supports(supports: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """For each of cols columns, the ascending indices of the supports holding it.

    Given the row supports of a matrix these are the row supports of its
    transpose. Gathering them costs one step per one; a transpose followed
    by ``supports()`` was 10x slower on sparse build_a(7, 5), 40x on
    build_a(8, 8), and 1.3-1.4x on dense build_b(5, 5) and build_b(6, 6).
    """
    out: list[list[int]] = [[] for _ in range(cols)]
    for i, support in enumerate(supports):
        for j in support:
            out[j].append(i)
    return out


@dataclass(frozen=True)
class BitMatrix:
    """Immutable (0,1)-matrix; ``bits[i]`` holds row i with bit j = column j."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.bits) != self.rows:
            raise ValueError("bit rows do not match declared row count")
        if min(self.bits) < 0 or max(self.bits).bit_length() > self.cols:
            for i, word in enumerate(self.bits):
                if word < 0 or word >> self.cols:
                    raise ValueError(f"row {i} has bits outside {self.cols} columns")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        if not rows:
            raise ValueError("need at least one row")
        ncols = len(rows[0])
        words = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            words.append(pack_bits(row))
        return cls(len(rows), ncols, tuple(words))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BitMatrix":
        word = (1 << cols) - 1
        return cls(rows, cols, (word,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # -- element access ----------------------------------------------------

    def supports(self) -> list[list[int]]:
        """Column indices of the ones in every row, each list ascending."""
        return [bit_support(w, self.cols) for w in self.bits]

    def to_lists(self) -> list[list[int]]:
        return [list(unpack_bits(w, self.cols)) for w in self.bits]

    # -- sums and simple transforms ----------------------------------------

    def row_sums(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.bits))

    def col_sums(self) -> tuple[int, ...]:
        """Ones per column, counted by bit-sliced counters (``bit_sliced_sum``).

        The counter planes' numerals zipped give each column's count as a
        binary numeral.
        """
        planes = bit_sliced_sum(self.bits)
        if not planes:
            return (0,) * self.cols
        numeral = f"0{self.cols}b"
        digits = zip(*(format(p, numeral) for p in reversed(planes)))
        return tuple(map(int, map("".join, digits), repeat(2)))[::-1]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(_transpose_words(self.bits, self.cols)))

    def complement(self) -> "BitMatrix":
        """All-ones matrix of the same shape minus self."""
        mask = (1 << self.cols) - 1
        return BitMatrix(self.rows, self.cols, tuple(w ^ mask for w in self.bits))

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.bits)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """The packed columns (bit i = row i), built on first use, freed with the matrix."""
        return tuple(_transpose_words(self.bits, self.cols))


def flip_transpose(a: BitMatrix) -> BitMatrix:
    """Reflection across the anti-diagonal: result(i,j) = a(rows-j+1, cols-i+1).

    It is the transpose of the row-reversed matrix, with its rows reversed.
    """
    words = _transpose_words(a.bits[::-1], a.cols)
    return BitMatrix(a.cols, a.rows, tuple(reversed(words)))


# -- GF(2) linear algebra -----------------------------------------------------


def gf2_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i is the XOR of b's rows at the set bits of a's row i.

    A row with more ones than zeros is instead the XOR of all of b's rows
    (computed once, at the first such row) and of b's rows at its zeros.
    """
    if a.cols != b.rows:
        raise ValueError("inner dimension mismatch")
    rows = b.bits
    full = (1 << a.cols) - 1
    total = None
    words = []
    for w in a.bits:
        acc = 0
        if w.bit_count() * 2 > a.cols:
            if total is None:
                total = reduce(xor, rows)
            acc, w = total, w ^ full
        while w:
            low = w & -w
            acc ^= rows[low.bit_length() - 1]
            w ^= low
        words.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(words))


def gf2_matvec(a: BitMatrix, x: Sequence[int]) -> int:
    """A·x over GF(2) for a 0/1 sequence x of length a.cols; returns the packed result.

    A·x is the XOR of the columns of A that x selects (``BitMatrix.columns``).
    """
    if len(x) != a.cols:
        raise ValueError(f"vector must have length {a.cols}, got {len(x)}")
    return xor_selected(a.columns, x)


def gf2_reduce(basis: dict[int, int], word: int) -> int:
    """What is left of word after clearing each lowest set bit a member owns.

    Zero exactly when word lies in the span of the basis.
    """
    while word:
        member = basis.get(word & -word)
        if member is None:
            break
        word ^= member
    return word


def gf2_basis(words: Sequence[int]) -> dict[int, int]:
    """XOR basis of the span of words, keyed by each member's lowest set bit.

    Words are taken last to first. Each is reduced against the members taken
    before it and kept if anything is left, so the keys are distinct: their
    bit positions are the pivot columns of the row space (leftmost pivots),
    and their number is its rank. Neither depends on the order. Last to
    first suits ``build_a``, whose bottom rows are an identity block in the
    leftmost columns: each of them owns its lowest bit as it stands, and only
    the rows above are reduced. gf2_rank(build_a(8, 8)) took 0.21-0.29 s top
    down and 0.047-0.067 s bottom up (2-vCPU Xeon VM, CPython 3.11).
    """
    basis: dict[int, int] = {}
    for w in reversed(words):
        w = gf2_reduce(basis, w)
        if w:
            basis[w & -w] = w
    return basis


def gf2_rref(basis: dict[int, int]) -> list[int]:
    """Reduced row echelon form of the basis' span, by back-substitution.

    Rows come in pivot order (lowest set bit ascending), and each is zero in
    every other row's pivot column. The RREF of a row space is unique, so
    this is what Gauss-Jordan elimination column by column would give.
    """
    lows = sorted(basis)
    pivot_mask = sum(lows)
    reduced: dict[int, int] = {}
    for low in reversed(lows):
        w = basis[low]
        # members above this one are already reduced: each clears only its pivot
        hits = (w & pivot_mask) ^ low
        while hits:
            q = hits & -hits
            w ^= reduced[q]
            hits ^= q
        reduced[low] = w
    return [reduced[low] for low in lows]


def gf2_rank(a: BitMatrix) -> int:
    """Rank over the two-element field."""
    return len(gf2_basis(a.bits))


def gf2_solve(a: BitMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """Some x with a·x = rhs over GF(2), or None when the system is inconsistent.

    Every entry of rhs must be 0 or 1. Free variables are pinned to 0 under
    leftmost-pivot order, so the returned solution is deterministic.
    """
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length must equal the row count")
    r = pack_bits(rhs)
    basis = gf2_basis([w | (r >> i & 1) << a.cols for i, w in enumerate(a.bits)])
    # a member whose lowest bit is the rhs column reads 0 = 1
    if (1 << a.cols) in basis:
        return None
    x = [0] * a.cols
    for w in gf2_rref(basis):
        x[(w & -w).bit_length() - 1] = w >> a.cols
    return tuple(x)


# -- exact rank over the rationals -------------------------------------------

RANK_PRIME = (1 << 31) - 1
# the exponents q <= 61 for which 2^q - 1 is prime
_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61)


def _lanes(word: int, width: int, digits: int) -> int:
    """word's bits spread to lanes of ``digits`` hex digits: lane j holds bit j.

    The hex numeral is all zeros but for the last digit of each lane, which
    is that lane's binary digit, written in one slice assignment.
    """
    numeral = bytearray(b"0" * (width * digits))
    numeral[digits - 1 :: digits] = format(word, f"0{width}b").encode()
    return int(numeral, 16)


def _lane_masks(q: int, cols: int) -> tuple[int, int, int]:
    """Hex digits per lane, and the LO and HI masks of cols lanes, for p = 2^q - 1."""
    if q not in _MERSENNE_EXPONENTS:
        raise ValueError(f"2^{q} - 1 is not a supported Mersenne prime")
    digits = -(-2 * q // 4)
    lo = int(f"{(1 << q) - 1:0{digits}x}" * cols, 16)
    hi = int(f"{(1 << (4 * digits - q)) - 1:0{digits}x}" * cols, 16)
    return digits, lo, hi


def rank_mod_p(a: BitMatrix, q: int = RANK_PRIME.bit_length()) -> int:
    """Rank of the matrix over the integers modulo the Mersenne prime p = 2^q - 1.

    Each row is one int of lanes, one lane per column, and is reduced
    against a basis keyed by each member's pivot column, as in
    ``gf2_basis``. The rows are taken last to first for the same reason:
    the identity rows at the bottom of ``build_a`` become pivots with no
    reduction (rank_mod_p(build_a(5, 5), 31) took 6.6-8.7 ms top down and
    2.4-3.9 ms bottom up on a 2-vCPU Xeon VM, CPython 3.11). A row is stored from the
    lane of its lowest live column up (the lanes below it are all zero mod
    p), beside an ordinary packed support mask that is a superset of its
    nonzero columns, so the pivot search steps from one support bit to the
    next and a sparse row stays short.

    Lane bound: every lane stays at most p, so a lane is zero mod p exactly
    when it is 0 or p. A row update r + m*b with m < p then reaches at most
    p + (p-1)p = p^2 < 2^(2q) per lane, and a lane is the smallest multiple
    of 4 bits (one hex digit) that holds 2q bits, so no carry crosses into
    the next lane: 12 bits for q = 5, 64 bits for q = 31. LO masks the low q
    bits of every lane and HI the rest. Since 2^q = 1 mod p, the fold
    (r & LO) + ((r >> q) & HI) keeps each lane's residue. Two folds follow
    every update: the first takes a lane v <= p^2 to at most 2p - 1 (the
    high part is p only for v = p * 2^q, whose low part is 0), the second
    takes that to at most p (a lane of 2^q or more loses 2^q and gains 1).
    Narrow lanes make every multiply-add shorter: rank_mod_p(build_a(7, 7), q)
    took 0.46 s with q = 31 and 0.16 s with q = 5 (2-vCPU Xeon VM,
    CPython 3.11).
    """
    digits, lo, hi = _lane_masks(q, a.cols)
    p = (1 << q) - 1
    lane_bits = 4 * digits
    lane_mask = (1 << lane_bits) - 1
    target = min(a.rows, a.cols)
    # pivot bit -> (lanes from the pivot up, support mask, -1/pivot mod p)
    basis: dict[int, tuple[int, int, int]] = {}
    for support in reversed(a.bits):
        if not support:
            continue
        at = (support & -support).bit_length() - 1
        row = _lanes(support >> at, a.cols - at, digits)
        while support:
            low = support & -support
            c = low.bit_length() - 1
            row >>= (c - at) * lane_bits
            at = c
            x = row & lane_mask
            if x == 0 or x == p:
                support ^= low
                continue
            member = basis.get(low)
            if member is None:
                basis[low] = (row, support, p - pow(x, -1, p))
                break
            pivot_row, pivot_support, neg_inv = member
            row += x * neg_inv % p * pivot_row
            row = (row & lo) + ((row >> q) & hi)
            row = (row & lo) + ((row >> q) & hi)
            support = (support | pivot_support) ^ low
        if len(basis) == target:
            break
    return len(basis)


def exact_rank(a: BitMatrix) -> int:
    """Rank of the integer matrix over the rationals.

    The rank modulo a prime p (``rank_mod_p``) is never above the rational
    rank, which is never above min(rows, cols): a nonzero minor mod p is a
    nonzero integer. When the rank mod p reaches min(rows, cols) it is
    therefore exact and is returned. The small prime 31 (q = 5, 12-bit
    lanes) is tried first: by Wilson's p-rank formula (R. M. Wilson, Europ.
    J. Combin. 1990) build_a(k, ell) has full rank mod any prime above
    min(k, ell), and every build_a that MAX_CELLS admits has min(k, ell)
    <= 8. A matrix that falls short mod 31 is tried mod 2^31 - 1 (q = 31,
    64-bit lanes). On seeded random squares of fair bits, 34 of the 1233
    of order 8-40 that had full rank mod 2^31 - 1 fell short mod 31 (2.8 %,
    near the 1/31 chance that 31 divides a determinant) and paid that
    second pass; none of the 536 of order 1-7 did. Only a matrix both
    primes fall short on, rank-deficient or with minors both divide, goes
    through fraction-free (Bareiss) elimination.
    """
    target = min(a.rows, a.cols)
    for q in (5, 31):
        r = rank_mod_p(a, q)
        if r == target:
            return r
    return _bareiss_rank(a)


def _bareiss_rank(a: BitMatrix) -> int:
    """Rational rank by fraction-free (Bareiss) elimination.

    Every intermediate entry is an exact minor of the input, so the
    divisions below are exact integer divisions and no floating point is
    involved.
    """
    m = a.to_lists()
    nrows, ncols = a.rows, a.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
        r += 1
    return rank
