"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every assertion is exact (integers and booleans only); the stated time
budgets are enforced with wall-clock checks.
"""

import random
import time
from math import comb

import pytest

import reference
from altmat import (
    BitMatrix,
    build_a,
    build_b,
    build_l_oracle,
    build_m,
    decompose_blocks,
    dims_of,
    distance_bound,
    encode,
    exact_rank,
    export_matrix,
    flip_transpose,
    fragment_a,
    gleason_fit,
    import_matrix,
    inclusion_matrix,
    is_parity_check,
    isodual_witness,
    make_code,
    make_encoder,
    permutation_equivalent,
    verify_codeword,
    weight_enumerator,
)
from altmat.encoder import GapSystemInconsistent
from altmat.reports import code_report, decompose_report

GRID = [(k, ell) for k in range(1, 7) for ell in range(1, 7)]


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_construction_suite():
    start = time.perf_counter()
    for k, ell in GRID:
        a = build_a(k, ell)
        b = build_b(k, ell)
        assert (a.rows, a.cols) == dims_of(k, ell)
        assert set(a.row_sums()) == {k}
        assert set(a.col_sums()) == {ell}
        assert b == a.complement()
        assert a == inclusion_matrix(ell - 1, k + ell - 1)
        assert flip_transpose(a) == build_a(ell, k)
        if ell >= 2:
            n = comb(k + ell - 2, ell - 1)
            corner = reference.submatrix(a, range(a.rows - n, a.rows), range(n))
            assert corner == BitMatrix.identity(n)
        if k >= 2 and ell >= 2:
            assert fragment_a(k, ell).reassemble() == a
        if k == ell:
            assert flip_transpose(a) == a
            assert flip_transpose(b) == b
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"construction suite took {elapsed:.2f}s"
    announce(1, True, f"construction grid k,l <= 6 exact ({elapsed:.2f}s)")


def test_criterion_2_square_rational_ranks():
    start = time.perf_counter()
    expected = {2: 3, 3: 10, 4: 35, 5: 126}
    for k, want in expected.items():
        assert want == comb(2 * k - 1, k - 1)
        assert exact_rank(build_a(k, k)) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"rank suite took {elapsed:.2f}s"
    announce(2, True, f"exact ranks 3, 10, 35, 126 ({elapsed:.2f}s)")


def test_criterion_3_incidence_oracle_equivalence():
    for k in (2, 3, 4, 5):
        assert permutation_equivalent(build_l_oracle(k), build_a(k, k - 1))
    announce(3, True, "inclusion matrices equivalent to the family for k = 2..5")


def test_criterion_4_block_decomposition():
    m4 = build_m(4)
    assert (m4.rows, m4.cols) == (28, 70)
    rep4 = decompose_blocks(m4)
    assert rep4.blocks == {"L_2": 24, "L_3": 1}
    assert rep4.zero_columns == 16
    assert rep4.unidentified == 0
    assert exact_rank(m4) == 28

    m5 = build_m(5)
    assert (m5.rows, m5.cols) == (120, 252)
    rep5 = decompose_blocks(m5)
    assert rep5.blocks == {"L_2": 80, "L_3": 10}
    assert rep5.zero_columns == 32
    assert rep5.unidentified == 0
    assert exact_rank(m5) == 120

    # the odd-case copy count: measured 10 = 2n, not the nominal n = 5;
    # the report must carry the delta explicitly rather than hide it
    report = decompose_report(5)
    copies = report["top_block_copies"]
    assert copies["measured"] == 10
    assert copies["matches_n_copies"] is False
    assert copies["matches_two_n_copies"] is True
    announce(
        4,
        True,
        "blocks n=4 {L_3 x1, L_2 x24}+16 zero cols rank 28; n=5 {L_3 x10, L_2 x80}"
        f"+32 zero cols rank 120; odd-case copies measured {copies['measured']} "
        f"vs nominal {copies['n_copies']} (delta reported)",
    )


def test_criterion_5_sparse_codes():
    start = time.perf_counter()

    c3 = make_code(3, "sparse")
    assert weight_enumerator(c3).as_dict() == {0: 1, 3: 4, 4: 3}
    assert weight_enumerator(c3).min_distance() == 3

    c4 = make_code(4, "sparse")
    pc = is_parity_check(c4)
    assert pc.ok and pc.witness is None
    w4 = weight_enumerator(c4)
    assert w4.total() == 1024
    assert all(wt % 2 == 0 for wt, _ in w4.coeffs)
    assert isodual_witness(c4).ok
    fit = gleason_fit(w4, 10)
    assert fit.exact
    assert fit.a[0] == 1
    d4 = w4.min_distance()
    assert d4 <= distance_bound(c4.n0) == 6

    assert isodual_witness(make_code(6, "sparse")).ok

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"code suite took {elapsed:.2f}s"
    announce(
        5,
        True,
        f"k=3 enumerator and d=3; k=4 even isodual code with exact unit-leading fit "
        f"{fit.a} and d={d4} <= 6; k=6 certificate ({elapsed:.2f}s)",
    )


def test_criterion_6_dense_code_report():
    report = code_report(4, "dense")
    # mechanically derived facts are asserted
    assert report["generator_rank"] == 10
    assert report["all_weights_even"] is True
    # claim evaluations are recorded with explicit outcomes
    assert "parity_check_ok" in report and "parity_product_zero" in report
    assert "enumerator_equals_sparse" in report
    dense = weight_enumerator(make_code(4, "dense"))
    sparse = weight_enumerator(make_code(4, "sparse"))
    assert report["enumerator_equals_sparse"] == (dense.coeffs == sparse.coeffs)
    assert report["parity_check_ok"] is False  # measured: the product is all ones
    assert report["parity_product_entries"] == [1]
    announce(
        6,
        True,
        f"dense k=4 rank 10, even weights; recorded outcomes: parity check "
        f"{report['parity_check_ok']}, enumerator equals sparse "
        f"{report['enumerator_equals_sparse']}",
    )


def test_criterion_7_encoder_grid():
    start = time.perf_counter()
    failures = []
    for k, ell in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4)):
        try:
            enc = make_encoder(k, ell)
        except GapSystemInconsistent as exc:
            failures.append((k, ell, exc.basis_index))
            continue
        s = enc.partition.message_len
        rng = random.Random(20260809)
        messages = [tuple(1 if t == i else 0 for t in range(s)) for i in range(s)]
        messages += [tuple(rng.randrange(2) for _ in range(s)) for _ in range(100)]
        for msg in messages:
            assert verify_codeword(k, ell, encode(enc, msg))
    assert encode(make_encoder(3, 2), (1, 0)) == (1, 0, 1, 0, 1, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"encoder suite took {elapsed:.2f}s"
    assert not failures, f"inconsistent gap systems: {failures}"
    announce(
        7,
        True,
        f"all six gap systems consistent; basis plus 100 random messages verify; "
        f"worked example exact ({elapsed:.2f}s)",
    )


def test_criterion_8_round_trips():
    mats = [build_a(k, ell) for k, ell in GRID]
    mats += [build_b(k, ell) for k, ell in GRID]
    mats.append(build_m(4))
    for mat in mats:
        for fmt in ("alist", "matrixmarket", "dense"):
            assert import_matrix(export_matrix(mat, fmt), fmt) == mat
    announce(8, True, f"{len(mats)} matrices round-trip bit-exactly in all 3 formats")
