"""Machine-readable reports: every numeric field is an exact integer.

Reports are plain dicts of ints, bools, strings, lists, and dicts, ready
for deterministic JSON dumping (sorted keys). Where a mechanical result is
compared against a stated identity that does not hold over GF(2), both the
measured value and the nominal one are reported side by side instead of
being asserted.
"""

from __future__ import annotations

import random
from math import comb
from operator import xor

from .bitmatrix import exact_rank, flip_transpose, gf2_rank, unpack_bits
from .codes import (
    ENUMERATION_LIMIT,
    distance_bound,
    gleason_fit,
    is_parity_check,
    isodual_witness,
    make_code,
    weight_enumerator,
)
from .encoder import (
    GapSystemInconsistent,
    encode,
    make_encoder,
    split_sizes,
    verify_codeword,
)
from .families import build_a, build_b, dims_of, fragment_a
from .incidence import build_l_oracle, build_m, decompose_blocks, permutation_equivalent

ENCODER_GRID = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4))
RANDOM_MESSAGES = 100
RANDOM_SEED = 29041
# largest k of the square-rank and oracle grids; the full report's bytes depend on it
RANK_GRID_KMAX = 5


def construction_report(kmax: int, lmax: int) -> dict:
    """Grid check of dimensions, sums, complement, fragmentation, duality.

    Each cell transposes once: flip_a = flip_transpose(a) holds a's columns
    as its rows (column j of a is row cols-1-j of flip_a), so the column
    sums are flip_a's row sums, and it answers the duality and persymmetry
    checks. The flip commutes with complementing, so when b is measured to
    be the complement of a, flip_b is flip_a's complement; otherwise b is
    flipped on its own, and the cell and its mirror record what that gives.
    """
    dims_of(kmax, lmax)  # refuses an empty grid, which would check nothing
    cells = []
    all_ok = True
    for k in range(1, kmax + 1):
        for ell in range(1, lmax + 1):
            a = build_a(k, ell)
            b = build_b(k, ell)
            mask = (1 << a.cols) - 1
            complement_ok = (b.rows, b.cols) == (a.rows, a.cols) and all(
                map(mask.__eq__, map(xor, a.bits, b.bits))
            )
            flip_a = flip_transpose(a)
            flip_b = flip_a.complement() if complement_ok else flip_transpose(b)
            cell = {
                "k": k,
                "ell": ell,
                "rows": a.rows,
                "cols": a.cols,
                "dims_ok": (a.rows, a.cols) == dims_of(k, ell),
                "row_sums_ok": set(a.row_sums()) == {k},
                "col_sums_ok": set(flip_a.row_sums()) == {ell},
                "complement_ok": complement_ok,
                "flip_ok": flip_a == build_a(ell, k) and flip_b == build_b(ell, k),
            }
            if ell >= 2:
                corner = dims_of(k, ell - 1)[1]
                cell["corner_identity_ok"] = all(
                    a.bits[a.rows - corner + t] & ((1 << corner) - 1) == 1 << t
                    for t in range(corner)
                )
            if k >= 2 and ell >= 2:
                cell["fragment_ok"] = fragment_a(k, ell).reassemble() == a
            if k == ell:
                cell["persymmetric_ok"] = flip_a == a and flip_b == b
            all_ok &= all(v for key, v in cell.items() if key.endswith("_ok"))
            cells.append(cell)
    return {"kind": "construction", "kmax": kmax, "lmax": lmax, "ok": all_ok, "cells": cells}


def rank_report(kmax: int = RANK_GRID_KMAX) -> dict:
    """Exact rational rank of the square members against C(2k-1, k-1), k = 2..kmax."""
    if kmax < 2:
        raise ValueError(f"square_rank needs kmax >= 2, got {kmax}")
    entries = []
    ok = True
    for k in range(2, kmax + 1):
        r = exact_rank(build_a(k, k))
        expected = comb(2 * k - 1, k - 1)
        entries.append({"k": k, "rank": r, "expected": expected, "ok": r == expected})
        ok &= r == expected
    return {"kind": "square_rank", "ok": ok, "entries": entries}


def decompose_report(n: int) -> dict:
    """Block structure and rank of build_m(n), with measured-versus-nominal counts.

    decompose_blocks certifies each component of build_m(n) by bit equality
    with build_a(j, j-1) and searches for a permutation only where that
    identity fails. When every component is identified, the rank is the sum
    of the block ranks, exact because the components share no row or column
    and rank is invariant under permutation; otherwise it is exact_rank of
    the whole matrix.
    """
    m = build_m(n)
    rep = decompose_blocks(m)
    out: dict = {
        "kind": "decompose",
        "n": n,
        "rows": m.rows,
        "cols": m.cols,
        "blocks": rep.blocks,
        "zero_columns": rep.zero_columns,
        "unidentified": rep.unidentified,
    }
    r = n // 2 + 1
    out["r"] = r
    top = f"L_{r}"
    measured = rep.blocks.get(top, 0)
    if n % 2 == 0:
        expected = {top: 1}
        for k in range(1, r - 1):
            expected[f"L_{r - k}"] = comb(n, 2 * k) * 4**k
        out["nominal_blocks"] = expected
        out["nominal_blocks_match"] = expected == rep.blocks
    else:
        out["top_block_copies"] = {
            "measured": measured,
            "n_copies": n,
            "two_n_copies": 2 * n,
            "matches_n_copies": measured == n,
            "matches_two_n_copies": measured == 2 * n,
        }
    if rep.unidentified == 0:
        rank = 0
        for name, copies in rep.blocks.items():
            j = int(name.removeprefix("L_"))
            rank += copies * exact_rank(build_a(j, j - 1))
    else:
        rank = exact_rank(m)
    out["rank"] = rank
    out["full_row_rank"] = rank == m.rows
    # the two candidate readings of the stated rank value
    out["rank_candidates"] = {
        "c_2n_choose_n_minus_2": comb(2 * n, n - 2),
        "c_n_choose_n_minus_2": comb(n, n - 2),
    }
    out["rank_matches"] = (
        "c_2n_choose_n_minus_2" if rank == comb(2 * n, n - 2) else
        "c_n_choose_n_minus_2" if rank == comb(n, n - 2) else "neither"
    )
    return out


def oracle_report(kmax: int = RANK_GRID_KMAX) -> dict:
    """Permutation equivalence of the inclusion matrices with build_a(k, k-1).

    The two matrices are equal bit for bit, which ``permutation_equivalent``
    takes as equivalence by the identity permutations; the isomorphism
    search runs only for a k where that identity fails. k runs over 2..kmax.
    """
    if kmax < 2:
        raise ValueError(f"incidence_oracle needs kmax >= 2, got {kmax}")
    entries = []
    ok = True
    for k in range(2, kmax + 1):
        o, a = build_l_oracle(k), build_a(k, k - 1)
        eq = permutation_equivalent(o, a)
        entries.append({"k": k, "equivalent": eq})
        ok &= eq
    return {"kind": "incidence_oracle", "ok": ok, "entries": entries}


def code_report(k: int, variant: str) -> dict:
    """Code parameters, duality certificates, enumerator, fit, and distance."""
    code = make_code(k, variant)
    n0 = code.n0
    pc = is_parity_check(code)
    out: dict = {
        "kind": "code",
        "k": k,
        "variant": variant,
        "length": 2 * n0,
        "dimension_target": n0,
        "generator_rank": pc.generator_rank,
        "parity_rank": pc.parity_rank,
        "parity_check_ok": pc.ok,
        "distance_bound": distance_bound(n0),
    }
    prod = pc.product
    out["parity_product_zero"] = prod.is_zero()
    mask = (1 << prod.cols) - 1
    if prod.is_zero():
        out["parity_product_entries"] = [0]
    elif all(w == mask for w in prod.bits):
        out["parity_product_entries"] = [1]
    else:
        out["parity_product_entries"] = [0, 1]
    if variant == "sparse":
        iso = isodual_witness(code)
        out["isodual_certificate_ok"] = iso.ok
    if pc.generator_rank <= ENUMERATION_LIMIT:
        w = weight_enumerator(code)
        out["weight_enumerator"] = [[wt, c] for wt, c in w.coeffs]
        out["all_weights_even"] = all(wt % 2 == 0 for wt, c in w.coeffs)
        d = w.min_distance()
        out["min_distance"] = d
        out["min_distance_within_bound"] = d <= out["distance_bound"]
        if pc.generator_rank == n0:
            fit = gleason_fit(w, n0)
            out["gleason_fit"] = {"a": list(fit.a), "exact": fit.exact}
            if fit.residual is not None:
                out["gleason_fit"]["residual"] = [list(p) for p in fit.residual]
        if variant == "dense":
            sparse_w = weight_enumerator(make_code(k, "sparse"))
            out["enumerator_equals_sparse"] = sparse_w.coeffs == w.coeffs
    return out


def encoder_report(grid=ENCODER_GRID) -> dict:
    """Consistency and verification table for the gap encoder over a grid.

    Each consistent cell encodes every unit message and RANDOM_MESSAGES
    random ones drawn from RANDOM_SEED, and verifies every codeword.
    """
    entries = []
    ok = True
    for k, ell in grid:
        gap, message_len = split_sizes(k, ell)
        entry: dict = {"k": k, "ell": ell, "gap": gap, "message_len": message_len}
        try:
            enc = make_encoder(k, ell)
        except GapSystemInconsistent as exc:
            entry["consistent"] = False
            entry["failed_basis_index"] = exc.basis_index
            entries.append(entry)
            continue
        entry["consistent"] = True
        entry["phi_rank"] = gf2_rank(enc.phi)
        s = entry["message_len"]
        rng = random.Random(RANDOM_SEED)
        messages = [unpack_bits(1 << i, s) for i in range(s)]
        messages += [unpack_bits(rng.getrandbits(s), s) for _ in range(RANDOM_MESSAGES)]
        verified = all(verify_codeword(k, ell, encode(enc, msg)) for msg in messages)
        entry["all_verified"] = verified
        ok &= verified
        entries.append(entry)
    return {"kind": "encoder", "ok": ok, "entries": entries}
