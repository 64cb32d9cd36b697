"""Bit-at-a-time reference kernels, kept as oracles for the whole-int library.

Each function walks rows one bit (or, for the ranks, one list entry) at a
time, the plain way, so that the fast kernels in ``altmat`` can be checked
against it. None of this is used by
the library.
"""

from fractions import Fraction

from altmat import BitMatrix
from altmat.encoder import GapSystemInconsistent


def row_ones(m, i):
    word = m.bits[i]
    out = []
    j = 0
    while word:
        if word & 1:
            out.append(j)
        word >>= 1
        j += 1
    return out


def col_sums(m):
    sums = [0] * m.cols
    for w in m.bits:
        j = 0
        while w:
            if w & 1:
                sums[j] += 1
            w >>= 1
            j += 1
    return tuple(sums)


def transpose(m):
    words = [0] * m.cols
    for i, w in enumerate(m.bits):
        j = 0
        while w:
            if w & 1:
                words[j] |= 1 << i
            w >>= 1
            j += 1
    return BitMatrix(m.cols, m.rows, tuple(words))


def submatrix(m, row_idx, col_idx):
    words = []
    for i in row_idx:
        src = m.bits[i]
        word = 0
        for t, j in enumerate(col_idx):
            word |= ((src >> j) & 1) << t
        words.append(word)
    return BitMatrix(len(row_idx), len(col_idx), tuple(words))


def flip_transpose(a):
    r, c = a.rows, a.cols
    words = []
    for i in range(c):
        word = 0
        for j in range(r):
            word |= ((a.bits[r - 1 - j] >> (c - 1 - i)) & 1) << j
        words.append(word)
    return BitMatrix(c, r, tuple(words))


def gf2_mul(a, b):
    words = []
    for w in a.bits:
        acc = 0
        j = 0
        while w:
            if w & 1:
                acc ^= b.bits[j]
            w >>= 1
            j += 1
        words.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(words))


def gf2_eliminate(words, cols):
    """Gauss-Jordan over GF(2) on the first ``cols`` columns, column by column.

    Returns (rows, pivots): the pivot rows come first, reduced, then the rest.
    """
    words = list(words)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= len(words):
            break
        sel = None
        for i in range(r, len(words)):
            if (words[i] >> c) & 1:
                sel = i
                break
        if sel is None:
            continue
        words[r], words[sel] = words[sel], words[r]
        for i in range(len(words)):
            if i != r and (words[i] >> c) & 1:
                words[i] ^= words[r]
        pivots.append(c)
        r += 1
    return words, pivots


def gf2_solve(a, rhs):
    aug = [w | (b << a.cols) for w, b in zip(a.bits, rhs)]
    words, pivots = gf2_eliminate(aug, a.cols)
    if any(w >> a.cols for w in words[len(pivots):]):
        return None
    x = [0] * a.cols
    for r, c in enumerate(pivots):
        x[c] = (words[r] >> a.cols) & 1
    return tuple(x)


def encoder_fields(part):
    """(reduced rows, pivots, particular) of the gap system, or the exception."""
    phi = gf2_mul(part.top, part.b)
    rhs = gf2_mul(part.top, part.a)
    g, s = part.gap, part.message_len
    aug = [pw | (rw << g) for pw, rw in zip(phi.bits, rhs.bits)]
    words, pivots = gf2_eliminate(aug, g)
    bad = 0
    for w in words[len(pivots):]:
        bad |= w >> g
    if bad:
        return GapSystemInconsistent(part.k, part.ell, (bad & -bad).bit_length() - 1)
    particular = [0] * s
    for r, c in enumerate(pivots):
        tail = words[r] >> g
        i = 0
        while tail:
            if tail & 1:
                particular[i] |= 1 << c
            tail >>= 1
            i += 1
    mask = (1 << g) - 1
    return tuple(w & mask for w in words), tuple(pivots), tuple(particular)


def encode(enc, message):
    part = enc.partition
    s_word = 0
    p1 = 0
    for i, bit in enumerate(message):
        if bit:
            s_word |= 1 << i
            p1 ^= enc.particular[i]
    p2 = 0
    for i, w in enumerate(part.b.bits):
        p2 |= ((w & p1).bit_count() & 1) << i
    for i, w in enumerate(part.a.bits):
        p2 ^= ((w & s_word).bit_count() & 1) << i
    out = []
    out.extend((p2 >> i) & 1 for i in range(part.ident.cols))
    out.extend((p1 >> i) & 1 for i in range(part.gap))
    out.extend((s_word >> i) & 1 for i in range(part.message_len))
    return tuple(out)


def isodual_counterexample(generator, permuted):
    """First row of ``permuted`` outside the row space of ``generator``."""
    words, pivots = gf2_eliminate(generator.bits, generator.cols)
    basis = words[: len(pivots)]
    for w in permuted.bits:
        residue = w
        for bw in basis:
            if residue & (bw & -bw):
                residue ^= bw
        if residue:
            return tuple((w >> j) & 1 for j in range(permuted.cols))
    return None


def export_dense(m):
    return "".join(
        "".join(str((w >> j) & 1) for j in range(m.cols)) + "\n" for w in m.bits
    )


def parse_dense(text):
    lines = text.split("\n")[:-1]
    words = []
    for line in lines:
        word = 0
        for j, ch in enumerate(line):
            if ch == "1":
                word |= 1 << j
        words.append(word)
    return BitMatrix(len(lines), len(lines[0]), tuple(words))


def rank_by_fractions(m):
    """Plain rational Gaussian elimination, independent of the Bareiss path."""
    rows = [[Fraction(e) for e in row] for row in m.to_lists()]
    rank = 0
    for c in range(m.cols):
        sel = next((i for i in range(rank, m.rows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for i in range(m.rows):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_mod(m, p):
    """Gaussian elimination over the integers mod p on lists, column by column."""
    rows = m.to_lists()
    rank = 0
    for c in range(m.cols):
        sel = next((i for i in range(rank, m.rows) if rows[i][c] % p), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, m.rows):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
