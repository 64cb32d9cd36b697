"""Bit-sliced weight enumeration against the one-codeword-at-a-time reference.

Dimensions 0, 11, 12, 13 and 16 put the code on both sides of the block of
basis members counted side by side (codes._BLOCK_DIM = 12), past which a
code takes Gray-code steps over the rest. Widths 1-80 and 300 need from one
to nine counter planes. Dependent rows, all-ones rows and blocks cut short by
the plane budget must not change the histogram.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import BitMatrix, codes, weight_enumerator
from conftest import bit_matrices


def independent_rows(dim, width, seed, sums=0):
    """dim rows, row i lowest at bit i, then ``sums`` XORs of pairs of them."""
    rng = random.Random(seed)
    words = [(rng.getrandbits(width) | 1) << i & ((1 << width) - 1) for i in range(dim)]
    for _ in range(sums):
        words.append(rng.choice(words) ^ rng.choice(words))
    rng.shuffle(words)
    return BitMatrix(len(words), width, tuple(words)) if words else BitMatrix.zeros(2, width)


@pytest.mark.parametrize("dim", [0, 11, 12, 13, 16])
@pytest.mark.parametrize("width", [40, 300])
def test_dimensions_around_the_block_match_reference(dim, width):
    gen = independent_rows(dim, width, dim * 1000 + width, sums=3 if dim else 0)
    w = weight_enumerator(gen)
    assert w == reference.weight_enumerator(gen)
    assert w.total() == 1 << dim


@settings(max_examples=30)
@given(st.integers(1, 80).flatmap(lambda w: bit_matrices(max_rows=10, min_cols=w, max_cols=w)))
def test_widths_up_to_80_match_reference(gen):
    assert weight_enumerator(gen) == reference.weight_enumerator(gen)


@pytest.mark.parametrize("width", [1, 2, 80, 300])
@pytest.mark.parametrize("rows", [1, 5])
def test_all_ones_rows_span_two_codewords(rows, width):
    gen = BitMatrix.ones(rows, width)
    assert weight_enumerator(gen) == reference.weight_enumerator(gen)
    assert weight_enumerator(gen).as_dict() == {0: 1, width: 1}


def test_a_block_cut_by_the_plane_budget_matches_reference(monkeypatch):
    # 60 live coordinates under a 1024-bit budget leave blocks of 4 members,
    # so a dimension-12 code takes 256 Gray-code steps
    gen = independent_rows(12, 60, 7, sums=2)
    widest = []
    bit_sliced_sum = codes.bit_sliced_sum

    def recording(planes):
        widest.append(max(p.bit_length() for p in planes))
        return bit_sliced_sum(planes)

    monkeypatch.setattr(codes, "MAX_CELLS", 1 << 10)
    monkeypatch.setattr(codes, "bit_sliced_sum", recording)
    assert weight_enumerator(gen) == reference.weight_enumerator(gen)
    assert len(widest) == 1 << 8 and max(widest) <= 1 << 4


def test_the_guard_refuses_dimension_25_before_allocating_planes():
    # 12-member blocks of 2000 coordinates would be 1 MiB of planes
    gen = independent_rows(25, 2000, 25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="enumeration guard"):
            weight_enumerator(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024
