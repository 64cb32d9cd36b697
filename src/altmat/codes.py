"""Isodual binary codes built from the square family members.

The sparse code has generator (I | A) and check matrix (A^T | I) with
A = build_a(k-1, k-1), a square persymmetric matrix of order
n0 = C(2k-3, k-2); the dense variant uses (J-I | B) and (B^T | I) with
B the complement family member. Weight enumerators, fits against the
Gleason generators g1 = y^2+x^2 and g2 = x^2y^2(x^2-y^2)^2, and minimum
distances are computed by exact enumeration at desk scale.

The degree-8 generator is the one that makes a0 the x^0 coefficient: the
other classical choice y^8+14x^4y^4+x^8 equals g1^4 - 4*g2, so both pairs
generate the same ring, but only this one forces a0 = 1 for a code
containing the zero word and keeps the k=4 fit integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bitmatrix import BitMatrix, gf2_basis, gf2_mul, gf2_rank, gf2_reduce, unpack_bits
from .families import build_a, build_b

ENUMERATION_LIMIT = 24

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
    n0: int
    variant: str
    k: int

    def __post_init__(self) -> None:
        if (self.generator.rows, self.generator.cols) != (
            self.parity.rows,
            self.parity.cols,
        ):
            raise ValueError("generator and parity must have identical shape")
        if self.variant not in ("sparse", "dense"):
            raise ValueError("variant must be 'sparse' or 'dense'")


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


@dataclass(frozen=True)
class MinDistanceResult:
    distance: int
    bound: int


def _hconcat(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    if left.rows != right.rows:
        raise ValueError("height mismatch")
    words = tuple(a | (b << left.cols) for a, b in zip(left.bits, right.bits))
    return BitMatrix(left.rows, left.cols + right.cols, words)


def make_code(k: int, variant: str) -> CodePair:
    """[2*n0, n0] code pair for n0 = C(2k-3, k-2); variant 'sparse' or 'dense'."""
    if k < 3:
        raise ValueError("need k >= 3")
    n0 = comb(2 * k - 3, k - 2)
    if variant == "sparse":
        core = build_a(k - 1, k - 1)
        gen = _hconcat(BitMatrix.identity(n0), core)
        par = _hconcat(core.transpose(), BitMatrix.identity(n0))
    elif variant == "dense":
        core = build_b(k - 1, k - 1)
        gen = _hconcat(BitMatrix.hollow_ones(n0), core)
        par = _hconcat(core.transpose(), BitMatrix.identity(n0))
    else:
        raise ValueError("variant must be 'sparse' or 'dense'")
    return CodePair(gen, par, n0, variant, k)


def is_parity_check(code: CodePair) -> ParityCheckResult:
    """True iff G·H^T = 0 over GF(2) and the two ranks sum to the length."""
    prod = gf2_mul(code.generator, code.parity.transpose())
    witness = None
    for i, w in enumerate(prod.bits):
        if w:
            witness = (i, (w & -w).bit_length() - 1)
            break
    rg = gf2_rank(code.generator)
    rp = gf2_rank(code.parity)
    ok = witness is None and rg + rp == 2 * code.n0
    return ParityCheckResult(ok, witness, rg, rp, prod)


def isodual_witness(code: CodePair) -> IsodualWitness:
    """Coordinate reversal carrying the dual's row space onto the code's.

    The permutation reverses positions within each half and swaps the
    halves, which amounts to reversing all 2*n0 coordinates. Row-space
    equality is certified by equal full ranks and by every permuted dual row
    reducing to zero against the generator's basis, with no codeword
    enumeration, so it works at any k. The counterexample, if any, is the
    first permuted dual row outside the code.
    """
    if code.variant != "sparse":
        raise ValueError("isodual certificate is defined for the sparse variant")
    n = 2 * code.n0
    sigma = tuple(range(n - 1, -1, -1))
    permuted = code.parity.permute_columns(sigma)
    basis = gf2_basis(code.generator.bits)
    outside = next((w for w in permuted.bits if gf2_reduce(basis, w)), None)
    ok = outside is None and len(basis) == gf2_rank(permuted) == code.n0
    counterexample = None if outside is None else unpack_bits(outside, n)
    return IsodualWitness(sigma, ok, counterexample)


def _generator_of(code_or_matrix: CodePair | BitMatrix) -> BitMatrix:
    if isinstance(code_or_matrix, CodePair):
        return code_or_matrix.generator
    return code_or_matrix


def weight_enumerator(code: CodePair | BitMatrix) -> WeightEnumerator:
    """Exact codeword-weight histogram by enumerating the row space."""
    gen = _generator_of(code)
    basis = list(gf2_basis(gen.bits).values())
    dim = len(basis)
    if dim > ENUMERATION_LIMIT:
        raise ValueError(
            f"code dimension {dim} exceeds the enumeration guard "
            f"({ENUMERATION_LIMIT}); beyond it only sampled estimates are "
            f"feasible, and those are out of scope"
        )
    counts = [0] * (gen.cols + 1)
    word = 0
    counts[0] = 1
    for t in range(1, 1 << dim):
        word ^= basis[(t & -t).bit_length() - 1]
        counts[word.bit_count()] += 1
    coeffs = tuple((w, c) for w, c in enumerate(counts) if c)
    return WeightEnumerator(gen.cols, coeffs)


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


def distance_bound(n0: int) -> int:
    """Reference ceiling on the minimum distance of the [2*n0, n0] codes."""
    return 2 * (n0 // 4) + 2 if n0 <= 30 else 2 * (n0 // 4)


def min_distance(code: CodePair | BitMatrix) -> MinDistanceResult:
    """Exact minimum nonzero codeword weight, with the reference bound.

    Raises ZeroCodeError when the generator spans only the zero word.
    """
    gen = _generator_of(code)
    n0 = code.n0 if isinstance(code, CodePair) else gen.cols // 2
    return MinDistanceResult(weight_enumerator(gen).min_distance(), distance_bound(n0))
