"""Which route answers the reports, and its fallbacks.

Bit identities answer for the true build_m(n) and build_l_oracle(k); any
matrix they do not certify must get the permutation search's answer, and a
matrix with an unidentified component the whole-matrix rank. In
construction_report one flip of build_a answers for a cell whose build_b is
its complement; any other build_b is flipped on its own.
"""

import random

import pytest

import reference
from altmat import (
    BitMatrix,
    build_b,
    build_l_oracle,
    build_m,
    decompose_blocks,
    exact_rank,
    reports,
)
from altmat import incidence


def spy(monkeypatch, module, name):
    """Record the calls to module.name while still running it."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def moved_bit(m: BitMatrix) -> BitMatrix:
    """m with row 0's lowest one moved onto row 1's lowest one."""
    r0, r1 = m.bits[0], m.bits[1]
    return BitMatrix(m.rows, m.cols, (r0 ^ (r0 & -r0) ^ (r1 & -r1),) + m.bits[1:])


def swapped_rows(m: BitMatrix) -> BitMatrix:
    return reference.submatrix(m, [1, 0] + list(range(2, m.rows)), range(m.cols))


def reaching_a_zero_column(m: BitMatrix) -> BitMatrix:
    """m with a one in its last column, (6, 7, 8, 9, 10) for build_m(5), a zero column."""
    return BitMatrix(m.rows, m.cols, (m.bits[0] | 1 << (m.cols - 1),) + m.bits[1:])


def shuffled(m: BitMatrix) -> BitMatrix:
    rng = random.Random(0)
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return reference.submatrix(m, rows, cols)


def test_decompose_report_sums_the_block_ranks(monkeypatch):
    searches = spy(monkeypatch, incidence, "bipartite_isomorphism")
    ranks = spy(monkeypatch, reports, "exact_rank")
    report = reports.decompose_report(5)
    assert searches == []
    assert ranks and all(a.rows <= 4 for (a,) in ranks)  # build_a(j, j-1) only
    assert report["blocks"] == {"L_2": 80, "L_3": 10}
    assert report["rank"] == 120


@pytest.mark.parametrize("perturb", [moved_bit, swapped_rows, reaching_a_zero_column, shuffled])
def test_decompose_report_answers_like_the_generic_route(monkeypatch, perturb):
    bad = perturb(build_m(5))
    monkeypatch.setattr(reports, "build_m", lambda n: bad)
    ranks = spy(monkeypatch, reports, "exact_rank")
    report = reports.decompose_report(5)
    generic = decompose_blocks(bad)
    assert report["blocks"] == generic.blocks
    assert report["zero_columns"] == generic.zero_columns
    assert report["unidentified"] == generic.unidentified
    assert report["rank"] == exact_rank(bad)
    # the moved bit joins rows 0 and 1 into one 2 x 3 component and the
    # stray one joins row 0 with a zero column; no inclusion matrix matches
    # either, so the whole matrix is ranked. A row swap or a shuffle leaves
    # every component an inclusion matrix, and the block ranks are summed.
    whole = [a for (a,) in ranks if a is bad]
    assert (report["unidentified"] > 0) == (perturb in (moved_bit, reaching_a_zero_column))
    assert bool(whole) == (report["unidentified"] > 0)


def test_oracle_report_needs_no_search_for_the_identity(monkeypatch):
    calls = spy(monkeypatch, incidence, "bipartite_isomorphism")
    report = reports.oracle_report(5)
    assert calls == []
    assert report["ok"] is True
    assert [e["equivalent"] for e in report["entries"]] == [True] * 4


def test_oracle_report_searches_when_the_identity_fails(monkeypatch):
    def reversed_rows(k):
        m = build_l_oracle(k)
        return reference.submatrix(m, range(m.rows - 1, -1, -1), range(m.cols))

    monkeypatch.setattr(reports, "build_l_oracle", reversed_rows)
    calls = spy(monkeypatch, incidence, "bipartite_isomorphism")
    report = reports.oracle_report(4)
    # k = 2 has a single row, so reversing it leaves the identity in place
    assert len(calls) == 2
    assert report["ok"] is True
    assert all(e["equivalent"] for e in report["entries"])


def test_construction_report_flips_each_cell_once(monkeypatch):
    flips = spy(monkeypatch, reports, "flip_transpose")

    def no_col_sums(self):
        raise AssertionError("col_sums called")

    monkeypatch.setattr(BitMatrix, "col_sums", no_col_sums)
    report = reports.construction_report(5, 4)
    assert report["ok"] is True
    assert len(flips) == 20
    assert all(c["complement_ok"] and c["col_sums_ok"] for c in report["cells"])


def test_construction_report_flips_a_member_that_is_not_the_complement(monkeypatch):
    clean = reports.construction_report(5, 5)
    b = build_b(3, 4)
    # one bit flipped in a middle row, so that every row must be compared
    i = b.rows // 2
    bad = BitMatrix(b.rows, b.cols, b.bits[:i] + (b.bits[i] ^ 1 << b.cols // 2,) + b.bits[i + 1 :])
    monkeypatch.setattr(
        reports, "build_b", lambda k, ell: bad if (k, ell) == (3, 4) else build_b(k, ell)
    )
    flips = spy(monkeypatch, reports, "flip_transpose")
    report = reports.construction_report(5, 5)
    # one flip per cell, and one more of the perturbed member
    assert len(flips) == 26
    assert [m for (m,) in flips].count(bad) == 1
    assert report["ok"] is False
    changed = {}
    for before, after in zip(clean["cells"], report["cells"]):
        if before != after:
            changed[after["k"], after["ell"]] = {
                key: (before[key], after[key]) for key in before if before[key] != after[key]
            }
    # the cell reads its own flip of b against build_b(4, 3), and its mirror
    # reads the complement of its flip of a against the perturbed build_b(3, 4)
    assert changed == {
        (3, 4): {"complement_ok": (True, False), "flip_ok": (True, False)},
        (4, 3): {"flip_ok": (True, False)},
    }


@pytest.mark.parametrize("kmax, lmax", [(0, 3), (3, 0), (-2, 3)])
def test_construction_report_refuses_an_empty_grid(kmax, lmax):
    with pytest.raises(ValueError, match="k and ell must be positive"):
        reports.construction_report(kmax, lmax)
