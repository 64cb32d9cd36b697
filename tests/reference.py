"""Bit-at-a-time reference kernels, kept as oracles for the whole-int library.

Each function walks rows one bit (or, for the ranks, one list entry) at a
time, the plain way, so that the fast kernels in ``altmat`` can be checked
against it: the alist and MatrixMarket codecs set one entry at a time,
``gf2_mul`` XORs the rows at every set bit of a row instead of walking the
shorter of its ones and its zeros, ``gf2_matvec`` takes one parity bit per
row instead of XOR-ing the columns the vector selects, ``encode_by_parts``
solves for the parity parts of each codeword with it instead of XOR-ing
generator rows, ``gleason_fit``
row-reduces over the rationals instead of substituting forward, and
``weight_enumerator`` counts one codeword at a time instead of thousands in
bit-sliced counters, and ``colour_refine`` rebuilds and sorts every vertex's
neighbour-colour key in every round instead of re-keying only the neighbours
of a queued splitter class, and ``build_a_by_blocks``/``build_b_by_blocks``
stack a matrix for every block of the family recursion and join the blocks
with a fill instead of writing each member's rows directly. ``tail_split``
cuts a ``Fragmentation``'s tail as (B | A) after its gap (top.rows)
columns, which the library never does: it reads the whole tail in one
product. None of this is used by the library.
"""

from collections import Counter
from fractions import Fraction

from altmat import BitMatrix, stack
from altmat.bitmatrix import column_supports, pack_bits, unpack_bits
from altmat.codes import G1, G2, GleasonFit, WeightEnumerator, _poly_mul, _poly_pow
from altmat.encoder import GapSystemInconsistent
from altmat.formats import MM_HEADER, MatrixParseError


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


def anti_identity(n):
    """The permutation matrix J that reverses n coordinates."""
    return BitMatrix(n, n, tuple(1 << (n - 1 - i) for i in range(n)))


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


def join_blocks(blocks, fill):
    """Blocks side by side, bottoms aligned, the cells above a shorter block set to fill.

    The general block join that ``build_a_by_blocks`` and
    ``build_b_by_blocks`` use; ``compose`` in the library joins with zero fill.
    """
    total_rows = blocks[0].rows
    words = [0] * total_rows
    offset = 0
    for b in blocks:
        pad = total_rows - b.rows
        if fill:
            for i in range(pad):
                words[i] |= ((1 << b.cols) - 1) << offset
        for i, w in enumerate(b.bits):
            words[pad + i] |= w << offset
        offset += b.cols
    return BitMatrix(total_rows, offset, tuple(words))


def _family_by_blocks(k, ell, base, square, fill):
    members = {}

    def member(j, e):
        if (j, e) not in members:
            if e == 1:
                members[j, e] = base(1, j)
            else:
                blocks = []
                for i in range(j, 0, -1):
                    child = member(i, e - 1)
                    blocks.append(stack(child, square(child.cols)))
                members[j, e] = join_blocks(blocks, fill)
        return members[j, e]

    return member(k, ell)


def build_a_by_blocks(k, ell):
    """build_a(k, ell) as a join of the blocks stack(build_a(j, ell-1), I), zero fill."""
    return _family_by_blocks(k, ell, BitMatrix.ones, BitMatrix.identity, 0)


def build_b_by_blocks(k, ell):
    """build_b(k, ell) as a join of the blocks stack(build_b(j, ell-1), J - I), fill 1."""
    return _family_by_blocks(k, ell, BitMatrix.zeros, BitMatrix.hollow_ones, 1)


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


def gf2_matvec(a, x_word):
    """A·x, one parity bit per row: the parity of row i's ones that x selects."""
    out = 0
    for i, w in enumerate(a.bits):
        out |= ((w & x_word).bit_count() & 1) << i
    return out


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


def weight_enumerator(gen):
    """Codeword-weight histogram, one codeword at a time in Gray-code order.

    The basis is the pivot rows of ``gf2_eliminate``; each step XORs one of
    them into the running codeword and counts its weight.
    """
    words, pivots = gf2_eliminate(gen.bits, gen.cols)
    basis = words[: len(pivots)]
    counts = [0] * (gen.cols + 1)
    counts[0] = 1
    word = 0
    for t in range(1, 1 << len(basis)):
        word ^= basis[(t & -t).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightEnumerator(gen.cols, tuple((w, c) for w, c in enumerate(counts) if c))


def gf2_solve(a, rhs):
    aug = [w | (b << a.cols) for w, b in zip(a.bits, rhs)]
    words, pivots = gf2_eliminate(aug, a.cols)
    if any(w >> a.cols for w in words[len(pivots):]):
        return None
    x = [0] * a.cols
    for r, c in enumerate(pivots):
        x[c] = (words[r] >> a.cols) & 1
    return tuple(x)


def tail_split(part):
    """A fragmentation's tail X cut as (B, A) after its gap columns."""
    mask = (1 << part.gap) - 1
    b = BitMatrix(part.tail.rows, part.gap, tuple(w & mask for w in part.tail.bits))
    a = BitMatrix(part.tail.rows, part.message_len, tuple(w >> part.gap for w in part.tail.bits))
    return b, a


def encoder_fields(part):
    """(particular, generator rows) of the gap encoder, or the exception."""
    b, a = tail_split(part)
    phi = gf2_mul(part.top, b)
    rhs = gf2_mul(part.top, a)
    g, s = part.gap, part.message_len
    aug = [pw | (rw << g) for pw, rw in zip(phi.bits, rhs.bits)]
    words, pivots = gf2_eliminate(aug, g)
    bad = 0
    for w in words[len(pivots):]:
        bad |= w >> g
    if bad:
        return GapSystemInconsistent((bad & -bad).bit_length() - 1)
    particular = [0] * s
    for r, c in enumerate(pivots):
        tail = words[r] >> g
        i = 0
        while tail:
            if tail & 1:
                particular[i] |= 1 << c
            tail >>= 1
            i += 1
    # generator row j: (B·p1 + A·e_j | p1 | e_j), one parity bit at a time
    n2 = part.top.cols
    generator = []
    for j, p1 in enumerate(particular):
        p2 = 0
        for i, (bw, aw) in enumerate(zip(b.bits, a.bits)):
            p2 |= (((bw & p1).bit_count() + (aw >> j)) & 1) << i
        generator.append(p2 | p1 << n2 | 1 << (n2 + g + j))
    return tuple(particular), tuple(generator)


def encode(enc, message):
    part = enc.partition
    b, a = tail_split(part)
    s_word = 0
    p1 = 0
    for i, bit in enumerate(message):
        if bit:
            s_word |= 1 << i
            p1 ^= enc.particular[i]
    p2 = 0
    for i, w in enumerate(b.bits):
        p2 |= ((w & p1).bit_count() & 1) << i
    for i, w in enumerate(a.bits):
        p2 ^= ((w & s_word).bit_count() & 1) << i
    out = []
    out.extend((p2 >> i) & 1 for i in range(part.top.cols))
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


# the Gleason fit by general rational RREF, against the library's forward substitution
def gleason_fit(w: WeightEnumerator, n0: int) -> GleasonFit:
    """Integer coefficients a_i with W = sum a_i g1^(n0-4i) g2^i, if they exist.

    Only g1^n0 has an x^0 term, so a0 always equals the weight-0 count.
    The basis polynomials are linearly independent, so the candidate
    solution is unique; exact means zero residual with integer a_i. On
    failure the residual is taken against the nearest integer vector.
    """
    if w.length != 2 * n0:
        raise ValueError("enumerator length must be 2*n0")
    terms = n0 // 4 + 1
    basis = [_poly_mul(_poly_pow(G1, n0 - 4 * i), _poly_pow(G2, i)) for i in range(terms)]
    target = [0] * (2 * n0 + 1)
    for wt, c in w.coeffs:
        target[wt] = c
    rows = [[Fraction(basis[i].get(wt, 0)) for i in range(terms)] + [Fraction(target[wt])]
            for wt in range(2 * n0 + 1)]
    pivots: list[int] = []
    r = 0
    for c in range(terms):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    sol = [Fraction(0)] * terms
    for i, c in enumerate(pivots):
        sol[c] = rows[i][-1]
    consistent = all(row[-1] == 0 for row in rows[r:])
    integral = all(x.denominator == 1 for x in sol)
    if consistent and integral:
        return GleasonFit(tuple(int(x) for x in sol), True, None)
    rounded = [round(x) for x in sol]
    residual = []
    for wt in range(2 * n0 + 1):
        val = target[wt] - sum(rounded[i] * basis[i].get(wt, 0) for i in range(terms))
        if val:
            residual.append((wt, int(val)))
    return GleasonFit((), False, tuple(residual))


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


def encode_by_parts(enc, message):
    """Codeword from the particular solution: p1, then p2 = B·p1 + A·s."""
    part = enc.partition
    s_word = pack_bits(message)
    p1 = 0
    for j, row in enumerate(enc.particular):
        if (s_word >> j) & 1:
            p1 ^= row
    b, a = tail_split(part)
    p2 = gf2_matvec(b, p1) ^ gf2_matvec(a, s_word)
    n2, g = part.top.cols, part.gap
    return unpack_bits(p2 | p1 << n2 | s_word << (n2 + g), n2 + g + part.message_len)


# -- alist and MatrixMarket, one entry at a time ------------------------------


def export_matrix(m, fmt):
    if fmt == "matrixmarket":
        entries = [(i + 1, j + 1) for i in range(m.rows) for j in row_ones(m, i)]
        lines = [MM_HEADER, f"{m.rows} {m.cols} {len(entries)}"]
        lines.extend(f"{i} {j}" for i, j in entries)
        return "\n".join(lines) + "\n"
    col_idx = [[] for _ in range(m.cols)]
    row_idx = []
    for i in range(m.rows):
        ones = row_ones(m, i)
        row_idx.append([j + 1 for j in ones])
        for j in ones:
            col_idx[j].append(i + 1)
    cmax = max((len(c) for c in col_idx), default=0)
    rmax = max((len(r) for r in row_idx), default=0)
    lines = [
        f"{m.cols} {m.rows}",
        f"{cmax} {rmax}",
        " ".join(str(len(c)) for c in col_idx),
        " ".join(str(len(r)) for r in row_idx),
    ]
    for c in col_idx:
        lines.append(" ".join(str(v) for v in c + [0] * (cmax - len(c))))
    for r in row_idx:
        lines.append(" ".join(str(v) for v in r + [0] * (rmax - len(r))))
    return "\n".join(lines) + "\n"


def import_matrix(text, fmt):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixParseError(1, "empty payload")
    if fmt == "matrixmarket":
        return _parse_matrixmarket(lines)
    return _parse_alist(lines)


def _ints(line, lineno):
    out = []
    for tok in line.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise MatrixParseError(lineno, f"expected integer, got {tok!r}") from None
    return out


def _parse_matrixmarket(lines):
    header = lines[0].split()
    expected = MM_HEADER.split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or [
        h.lower() for h in header[1:]
    ] != expected[1:]:
        raise MatrixParseError(1, "expected coordinate-pattern-general header")
    t = 1
    while t < len(lines) and lines[t].startswith("%"):
        t += 1
    if t >= len(lines):
        raise MatrixParseError(t + 1, "missing size line")
    size = _ints(lines[t], t + 1)
    if len(size) != 3 or size[0] < 1 or size[1] < 1 or size[2] < 0:
        raise MatrixParseError(t + 1, "size line must be 'rows cols nnz'")
    rows, cols, nnz = size
    entry_lines = lines[t + 1 :]
    if len(entry_lines) != nnz:
        raise MatrixParseError(t + 2, f"expected {nnz} entry lines, got {len(entry_lines)}")
    words = [0] * rows
    for offset, line in enumerate(entry_lines):
        lineno = t + 2 + offset
        pair = _ints(line, lineno)
        if len(pair) != 2:
            raise MatrixParseError(lineno, "entries must be 'row col' pairs")
        i, j = pair
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(lineno, f"entry ({i}, {j}) out of bounds")
        if (words[i - 1] >> (j - 1)) & 1:
            raise MatrixParseError(lineno, f"duplicate entry ({i}, {j})")
        words[i - 1] |= 1 << (j - 1)
    return BitMatrix(rows, cols, tuple(words))


def _parse_alist(lines):
    head = _ints(lines[0], 1)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise MatrixParseError(1, "header must be 'ncols nrows'")
    cols, rows = head
    if len(lines) != 4 + cols + rows:
        raise MatrixParseError(
            len(lines), f"expected {4 + cols + rows} lines for {cols} columns, {rows} rows"
        )
    maxima = _ints(lines[1], 2)
    if len(maxima) != 2:
        raise MatrixParseError(2, "second line must be 'cmax rmax'")
    cmax, rmax = maxima
    col_weights = _ints(lines[2], 3)
    row_weights = _ints(lines[3], 4)
    if len(col_weights) != cols:
        raise MatrixParseError(3, f"expected {cols} column weights, got {len(col_weights)}")
    if len(row_weights) != rows:
        raise MatrixParseError(4, f"expected {rows} row weights, got {len(row_weights)}")
    if col_weights and max(col_weights) != cmax:
        raise MatrixParseError(2, "cmax does not match the column weights")
    if row_weights and max(row_weights) != rmax:
        raise MatrixParseError(2, "rmax does not match the row weights")
    if sum(col_weights) != sum(row_weights):
        raise MatrixParseError(4, "row and column weights disagree on the number of ones")
    words = [0] * rows
    for j in range(cols):
        lineno = 5 + j
        entries = _ints(lines[lineno - 1], lineno)
        idx = [v for v in entries if v != 0]
        if len(idx) != col_weights[j]:
            raise MatrixParseError(
                lineno, f"column {j + 1} lists {len(idx)} entries, header says {col_weights[j]}"
            )
        for i in idx:
            if not (1 <= i <= rows):
                raise MatrixParseError(lineno, f"row index {i} out of bounds")
            if (words[i - 1] >> j) & 1:
                raise MatrixParseError(lineno, f"duplicate entry in column {j + 1}")
            words[i - 1] |= 1 << j
    m = BitMatrix(rows, cols, tuple(words))
    for i in range(rows):
        lineno = 5 + cols + i
        entries = _ints(lines[lineno - 1], lineno)
        idx = sorted(v for v in entries if v != 0)
        if len(idx) != row_weights[i]:
            raise MatrixParseError(
                lineno, f"row {i + 1} lists {len(idx)} entries, header says {row_weights[i]}"
            )
        if idx != [j + 1 for j in row_ones(m, i)]:
            raise MatrixParseError(lineno, f"row {i + 1} disagrees with the column section")
    return m


def colour_refine(ra, ca, rb, cb, rc_a, cc_a, rc_b, cc_b):
    """Stable row and column colours of a and b, or None where they part ways.

    ra/ca and rb/cb are the row and column supports of a and b; rc_*/cc_*
    are the starting row and column colours. Each round re-keys every row
    by its colour and the sorted colours of its columns, then every column
    likewise by the new row colours, and renumbers the keys in sorted
    order, until a round changes nothing.
    """

    def keys(colors, neighbour_colors, adjacency):
        look = neighbour_colors.__getitem__
        return [(c, tuple(sorted(map(look, nbrs)))) for c, nbrs in zip(colors, adjacency)]

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


def bipartite_isomorphism(a, b):
    """Row and column permutations carrying a onto b, or None.

    Colour refinement by full rebuild (``colour_refine``) with
    individualization of the first vertex of the smallest ambiguous class,
    rows before columns, depth first on an explicit stack; every leaf is
    verified entry by entry.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    ra, rb = a.supports(), b.supports()
    ca, cb = column_supports(ra, a.cols), column_supports(rb, b.cols)

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

    stack = [iter([([0] * a.rows, [0] * a.cols, [0] * b.rows, [0] * b.cols)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        refined = colour_refine(ra, ca, rb, cb, *state)
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
