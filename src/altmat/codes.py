"""Isodual binary codes built from the square family members.

The sparse code has generator (I | A) and check matrix (A^T | I) with
A = build_a(k-1, k-1), a square persymmetric matrix of order
n0 = C(2k-3, k-2); the dense variant uses (J-I | B) and (B^T | I) with
B the complement family member. ``make_code`` writes generator row i as
unit row i (complemented, for J-I) beside core row i, and parity row i as
core column i beside unit row i, with no block built. The sparse pair's
parity-check and isodual certificates are read off its blocks: with
identity blocks in place and the parity's low block equal to A^T,
G·H^T = A + A = 0 and both ranks are n0, and with A persymmetric,
reversing all coordinates carries each parity row onto a generator row.
Every other pair is multiplied out, ranked and reduced, so a doctored code
still yields its counterexample. Weight enumerators are computed by exact
enumeration at desk scale, the weights of thousands of codewords at a time
in bit-sliced counters; the minimum distance is read off the enumerator
(``WeightEnumerator.min_distance``), beside ``distance_bound(n0)``. Fits against the Gleason
generators g1 = y^2+x^2 and g2 = x^2y^2(x^2-y^2)^2 solve a unitriangular
integer system by forward substitution, with no rational arithmetic.

The degree-8 generator is the one that makes a0 the x^0 coefficient: the
other classical choice y^8+14x^4y^4+x^8 equals g1^4 - 4*g2, so both pairs
generate the same ring, but only this one forces a0 = 1 for a code
containing the zero word and keeps the k=4 fit integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .bitmatrix import (
    MAX_CELLS,
    BitMatrix,
    bit_sliced_sum,
    bit_support,
    flip_transpose,
    gf2_basis,
    gf2_mul,
    gf2_rank,
    gf2_reduce,
    unpack_bits,
)
from .families import build_a, build_b, dims_of

ENUMERATION_LIMIT = 24

# weight_enumerator counts the combinations of at most this many basis members
# at once, 2^12 bits (512 bytes) a plane. Measured on a 2-vCPU Xeon VM, CPython
# 3.11, on build_a(5, 3) (dimension 15): blocks of 8, 10, 12 and 14 members
# took 4.6, 1.5, 0.46 and 0.33 ms, but blocks of 14 raised the peak traced
# memory from 45 to 171 KiB. Above dimension 16 larger blocks pay more
# (random 18 x 130 rows: 13.5 ms with 12, 7.5 ms with 14), at 4 times the
# planes' size for each two members more.
_BLOCK_DIM = 12

# coefficients by x-degree; both polynomials are homogeneous in (x, y)
G1 = {0: 1, 2: 1}  # y^2 + x^2
G2 = {2: 1, 4: -2, 6: 1}  # x^2 y^2 (x^2 - y^2)^2


class ZeroCodeError(ValueError):
    """The code has no nonzero codeword, so its minimum distance is undefined."""

    def __init__(self, length: int):
        self.length = length
        super().__init__(
            f"the length-{length} code has no nonzero codeword, "
            f"so it has no minimum distance"
        )


@dataclass(frozen=True)
class CodePair:
    """Generator/check matrix pair of a [2*n0, n0] binary code."""

    generator: BitMatrix
    parity: BitMatrix
    variant: str

    def __post_init__(self) -> None:
        shape = (self.generator.rows, self.generator.cols)
        if shape != (self.parity.rows, self.parity.cols):
            raise ValueError("generator and parity must have identical shape")
        if shape != (self.n0, 2 * self.n0):
            raise ValueError(
                f"shape {shape[0]} x {shape[1]} is not n0 x 2*n0 for n0 = {self.n0}"
            )
        if self.variant not in ("sparse", "dense"):
            raise ValueError("variant must be 'sparse' or 'dense'")

    @property
    def n0(self) -> int:
        """The code's dimension target: the generator's row count."""
        return self.generator.rows

    @cached_property
    def _blocks(self) -> BitMatrix | None:
        """``_identity_blocks(self)``, worked out once per pair."""
        return _identity_blocks(self)


@dataclass(frozen=True)
class ParityCheckResult:
    """Outcome of ``is_parity_check``; ``product`` is G·H^T over GF(2)."""

    ok: bool
    witness: tuple[int, int] | None
    generator_rank: int
    parity_rank: int
    product: BitMatrix


@dataclass(frozen=True)
class IsodualWitness:
    permutation: tuple[int, ...]
    ok: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class WeightEnumerator:
    """Histogram of codeword weights of a length-``length`` code."""

    length: int
    coeffs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def min_distance(self) -> int:
        """Smallest nonzero weight counted; ZeroCodeError if there is none."""
        distance = min((wt for wt, _ in self.coeffs if wt > 0), default=None)
        if distance is None:
            raise ZeroCodeError(self.length)
        return distance

    def total(self) -> int:
        return sum(c for _, c in self.coeffs)


@dataclass(frozen=True)
class GleasonFit:
    a: tuple[int, ...]
    exact: bool
    residual: tuple[tuple[int, int], ...] | None


def code_dims(k: int) -> tuple[int, int]:
    """Order of make_code(k, ·)'s generator and parity: (n0, 2*n0), n0 = C(2k-3, k-2)."""
    if k < 3:
        raise ValueError("need k >= 3")
    n0 = dims_of(k - 1, k - 1)[0]
    return n0, 2 * n0


def make_code(k: int, variant: str) -> CodePair:
    """[2*n0, n0] code pair for n0 = C(2k-3, k-2); variant 'sparse' or 'dense'."""
    n0, n = code_dims(k)
    if variant == "sparse":
        core, left = build_a(k - 1, k - 1), 0
    elif variant == "dense":
        core, left = build_b(k - 1, k - 1), (1 << n0) - 1
    else:
        raise ValueError("variant must be 'sparse' or 'dense'")
    gen = (left ^ 1 << i | w << n0 for i, w in enumerate(core.bits))
    par = (w | 1 << (n0 + i) for i, w in enumerate(core.transpose().bits))
    return CodePair(BitMatrix(n0, n, tuple(gen)), BitMatrix(n0, n, tuple(par)), variant)


def _identity_blocks(code: CodePair) -> BitMatrix | None:
    """A, when the generator is (I | A) and the parity (A^T | I), read off the matrices.

    The generator's low n0 bits must be the identity, the parity's high n0
    bits the identity, and the parity's low block the transpose of the
    generator's high block; None otherwise.
    """
    n0 = code.n0
    low = (1 << n0) - 1
    units = [1 << i for i in range(n0)]
    if [w & low for w in code.generator.bits] != units:
        return None
    if [w >> n0 for w in code.parity.bits] != units:
        return None
    a = BitMatrix(n0, n0, tuple(w >> n0 for w in code.generator.bits))
    if a.transpose().bits != tuple(w & low for w in code.parity.bits):
        return None
    return a


def is_parity_check(code: CodePair) -> ParityCheckResult:
    """True iff G·H^T = 0 over GF(2) and the two ranks sum to the length.

    A pair (I | A), (A^T | I) is certified by its blocks (``_identity_blocks``):
    G·H^T = I·A + A·I = 0, and each identity block gives rank n0. Any other
    pair, the dense variant among them, is multiplied out and both ranks
    are computed by elimination, so a doctored code still gets its witness.
    """
    n0 = code.n0
    if code._blocks is not None:
        return ParityCheckResult(True, None, n0, n0, BitMatrix.zeros(n0, n0))
    prod = gf2_mul(code.generator, code.parity.transpose())
    witness = None
    for i, w in enumerate(prod.bits):
        if w:
            witness = (i, (w & -w).bit_length() - 1)
            break
    rg = gf2_rank(code.generator)
    rp = gf2_rank(code.parity)
    ok = witness is None and rg + rp == 2 * n0
    return ParityCheckResult(ok, witness, rg, rp, prod)


def isodual_witness(code: CodePair) -> IsodualWitness:
    """Coordinate reversal carrying the dual's row space onto the code's.

    The permutation reverses positions within each half and swaps the
    halves, which amounts to reversing all 2*n0 coordinates. For a pair
    (I | A), (A^T | I) with A persymmetric (``flip_transpose(A) == A``) the
    blocks certify it: reversing parity row i gives (e_(n0-1-i) | row
    n0-1-i of A), generator row n0-1-i, and both matrices have rank n0.
    Any other pair is certified by equal full ranks and by every permuted
    dual row reducing to zero against the generator's basis, with no
    codeword enumeration, so it works at any k. The counterexample, if any,
    is the first permuted dual row outside the code.
    """
    if code.variant != "sparse":
        raise ValueError("isodual certificate is defined for the sparse variant")
    n = 2 * code.n0
    sigma = tuple(range(n - 1, -1, -1))
    a = code._blocks
    if a is not None and flip_transpose(a) == a:
        return IsodualWitness(sigma, True, None)
    # reversing the coordinates of a row reverses its n-digit binary numeral
    numeral = f"0{n}b"
    permuted = [int(format(w, numeral)[::-1], 2) for w in code.parity.bits]
    basis = gf2_basis(code.generator.bits)
    outside = next((w for w in permuted if gf2_reduce(basis, w)), None)
    ok = outside is None and len(basis) == len(gf2_basis(permuted)) == code.n0
    counterexample = None if outside is None else unpack_bits(outside, n)
    return IsodualWitness(sigma, ok, counterexample)


def weight_enumerator(code: CodePair | BitMatrix) -> WeightEnumerator:
    """Exact codeword-weight histogram, counted bit-sliced over the row space.

    The codewords are taken 2^b at a time, b = min(dim, _BLOCK_DIM) or fewer
    for a code so wide that its planes would pass MAX_CELLS bits: plane j
    holds coordinate j of all 2^b combinations of the first b basis members
    (bit t for the combination of the members at the set bits of t), so
    adding the planes in bit-sliced counters (``bit_sliced_sum``) gives every
    combination's weight at once. The other members are stepped through in
    Gray-code order; each step adds one member to all 2^b codewords, which
    complements the planes of the coordinates it touches. The histogram is
    read off the counters from the top one down, splitting each set of
    combinations by the next bit of their weight, so its cost grows with
    the number of weights present and not with 2^b.
    """
    gen = code.generator if isinstance(code, CodePair) else code
    basis = list(gf2_basis(gen.bits).values())
    dim = len(basis)
    if dim > ENUMERATION_LIMIT:
        raise ValueError(
            f"code dimension {dim} exceeds the enumeration guard "
            f"({ENUMERATION_LIMIT}); beyond it only sampled estimates are "
            f"feasible, and those are out of scope"
        )
    # the planes of the coordinates some member touches hold at most
    # MAX_CELLS bits, however wide the code
    live = reduce(or_, basis, 0).bit_count()
    b = min(dim, _BLOCK_DIM, max(0, (MAX_CELLS // max(live, 1)).bit_length() - 1))
    size = 1 << b
    full = (1 << size) - 1
    planes = [0] * gen.cols
    for i, member in enumerate(basis[:b]):
        # bit t set where t has bit i: runs of 2^i zeros then 2^i ones
        select, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while span < size:
            select |= select << span
            span *= 2
        for j in bit_support(member, gen.cols):
            planes[j] ^= select
    steps = [bit_support(member, gen.cols) for member in basis[b:]]
    counts = [0] * (gen.cols + 1)
    for t in range(1 << len(steps)):
        if t:
            for j in steps[(t & -t).bit_length() - 1]:
                planes[j] ^= full
        _add_weights(counts, bit_sliced_sum(planes), full)
    coeffs = tuple((w, c) for w, c in enumerate(counts) if c)
    return WeightEnumerator(gen.cols, coeffs)


def _add_weights(counts: list[int], counters: list[int], mask: int) -> None:
    """Add to counts[w] how many set bits of mask hold the count w in counters.

    Bit t of counters[i] is bit i of the count held at bit t. The bits are
    split by the top counter, then each part by the next counter down, so
    the work grows with the number of counts present, not with the bits.
    """
    groups = [(0, mask)]
    for i in range(len(counters) - 1, -1, -1):
        counter = counters[i]
        split = []
        for weight, part in groups:
            high = part & counter
            if high:
                split.append((weight | 1 << i, high))
            if high != part:
                split.append((weight, part ^ high))
        groups = split
    for weight, part in groups:
        counts[weight] += part.bit_count()


def _poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, ca in p.items():
        for b, cb in q.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return out


def _poly_pow(p: dict[int, int], e: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def gleason_fit(w: WeightEnumerator, n0: int) -> GleasonFit:
    """Integer coefficients a_i with W = sum a_i g1^(n0-4i) g2^i, if they exist.

    Basis polynomial i has its lowest x-degree term at 2i, with coefficient
    1, so the system is unitriangular and forward substitution solves it
    over the integers: a_i is the residual's x^(2i) coefficient, and a_i
    times basis i is then subtracted. The fit is exact iff the residual
    ends at zero; otherwise that nonzero residual is returned.
    """
    if w.length != 2 * n0:
        raise ValueError("enumerator length must be 2*n0")
    residual = [0] * (2 * n0 + 1)
    for wt, c in w.coeffs:
        residual[wt] = c
    a = []
    for i in range(n0 // 4 + 1):
        ai = residual[2 * i]
        for wt, c in _poly_mul(_poly_pow(G1, n0 - 4 * i), _poly_pow(G2, i)).items():
            residual[wt] -= ai * c
        a.append(ai)
    if any(residual):
        return GleasonFit((), False, tuple((wt, v) for wt, v in enumerate(residual) if v))
    return GleasonFit(tuple(a), True, None)


def distance_bound(n0: int) -> int:
    """Reference ceiling on the minimum distance of the [2*n0, n0] codes."""
    return 2 * (n0 // 4) + 2 if n0 <= 30 else 2 * (n0 // 4)
