import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from altmat import encoder
from altmat import (
    BitMatrix,
    Fragmentation,
    GapSystemInconsistent,
    build_a,
    encode,
    fragment_a,
    gf2_matvec,
    gf2_mul,
    make_encoder,
    split_sizes,
    verify_codeword,
    verify_codewords,
)
from altmat.bitmatrix import unpack_bits
from altmat.encoder import encoder_from_partition
from altmat.reports import ENCODER_GRID

GRID = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4)]


def test_split_32_hand_values():
    p = fragment_a(3, 2)
    assert p.top == BitMatrix.ones(1, 3)
    assert BitMatrix.identity(p.top.cols) == BitMatrix.identity(3)
    assert reference.tail_split(p) == (
        BitMatrix.from_rows([[1], [1], [0]]),
        BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]),
    )
    assert p.gap == 1
    assert p.message_len == 2


def test_split_42_hand_values():
    p = fragment_a(4, 2)
    assert p.gap == 1
    assert p.message_len == 5
    assert p.top == BitMatrix.ones(1, 4)


def test_split_43_hand_values():
    p = fragment_a(4, 3)
    assert p.gap == comb(5, 1) == 5
    assert p.message_len == comb(6, 3) - comb(6, 2) == 5


@pytest.mark.parametrize("k,ell", GRID)
def test_split_reassembles_bit_exactly(k, ell):
    p = fragment_a(k, ell)
    assert p.reassemble() == build_a(k, ell)
    assert p.gap == comb(k + ell - 2, ell - 2)
    # the rows above the identity block vanish beyond its column range
    h = build_a(k, ell)
    for i in range(p.top.rows):
        assert h.bits[i] >> p.top.cols == 0


@pytest.mark.parametrize("k,ell", ENCODER_GRID)
def test_split_sizes_are_the_partition_sizes(k, ell):
    p = fragment_a(k, ell)
    assert split_sizes(k, ell) == (p.gap, p.message_len)
    assert p.gap == p.top.rows and p.tail.rows == p.top.cols
    assert make_encoder(k, ell).partition == p


def test_split_sizes_rejects_bad_parameters():
    with pytest.raises(ValueError, match="no partition for ell < 2"):
        split_sizes(3, 1)
    with pytest.raises(ValueError, match="nonpositive for ell >= k"):
        split_sizes(3, 3)


def test_make_encoder_rejects_bad_parameters():
    with pytest.raises(ValueError, match="no partition for ell < 2"):
        make_encoder(3, 1)
    with pytest.raises(ValueError, match="nonpositive for ell >= k"):
        make_encoder(3, 3)
    with pytest.raises(ValueError, match="nonpositive for ell >= k"):
        make_encoder(3, 4)


def test_make_encoder_rejects_stray_top_row_bit(monkeypatch):
    h = build_a(4, 3)
    # a one in the last column of the first row, past the identity block
    bits = (h.bits[0] | 1 << (h.cols - 1),) + h.bits[1:]
    monkeypatch.setattr(encoder, "build_a", lambda k, ell: BitMatrix(h.rows, h.cols, bits))
    with pytest.raises(ValueError, match=r"does not reassemble to build_a\(4, 3\)"):
        make_encoder(4, 3)


def test_gap_matrix_rows_sum_to_zero():
    # column sums ell-1 and ell make the product singular over GF(2)
    for k, ell in GRID:
        enc = make_encoder(k, ell)
        acc = 0
        for w in enc.phi.bits:
            acc ^= w
        assert acc == 0


def test_encoder_32_solves_the_trivial_gap_system():
    enc = make_encoder(3, 2)
    assert enc.phi == BitMatrix.zeros(1, 1)
    assert enc.particular == (0, 0)


def test_encode_32_worked_example():
    enc = make_encoder(3, 2)
    assert encode(enc, (1, 0)) == (1, 0, 1, 0, 1, 0)
    assert verify_codeword(3, 2, (1, 0, 1, 0, 1, 0))


def test_encode_zero_message_gives_zero_word():
    enc = make_encoder(3, 2)
    assert encode(enc, (0, 0)) == (0,) * 6


def test_encode_is_linear_on_the_32_code():
    enc = make_encoder(3, 2)
    lhs = encode(enc, (1, 1))
    rhs = tuple(
        a ^ b for a, b in zip(encode(enc, (1, 0)), encode(enc, (0, 1)))
    )
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=31))
def test_encode_is_linear_on_the_43_code(m1, m2):
    enc = make_encoder(4, 3)
    s1 = tuple((m1 >> i) & 1 for i in range(5))
    s2 = tuple((m2 >> i) & 1 for i in range(5))
    s12 = tuple(a ^ b for a, b in zip(s1, s2))
    assert encode(enc, s12) == tuple(
        a ^ b for a, b in zip(encode(enc, s1), encode(enc, s2))
    )


@pytest.mark.parametrize("k,ell", GRID)
def test_all_basis_and_random_messages_verify(k, ell):
    enc = make_encoder(k, ell)
    s = enc.partition.message_len
    rng = random.Random(1234)
    messages = [tuple(1 if t == i else 0 for t in range(s)) for i in range(s)]
    messages += [tuple(rng.randrange(2) for _ in range(s)) for _ in range(25)]
    for msg in messages:
        word = encode(enc, msg)
        assert verify_codeword(k, ell, word)
        assert word[-s:] == msg  # systematic tail


def test_verify_codeword_rejects_unit_vector():
    assert not verify_codeword(3, 2, (1, 0, 0, 0, 0, 0))
    assert verify_codeword(3, 2, (0,) * 6)


def test_length_validation():
    enc = make_encoder(3, 2)
    with pytest.raises(ValueError):
        encode(enc, (1, 0, 1))
    with pytest.raises(ValueError):
        verify_codeword(3, 2, (1, 0))


def test_entries_must_be_bits():
    enc = make_encoder(3, 2)
    with pytest.raises(ValueError, match="not a bit"):
        encode(enc, (2, 0))
    with pytest.raises(ValueError, match="not a bit"):
        verify_codeword(3, 2, (0, 1, 0, 0, 0, 2))


def test_inconsistent_gap_system_is_reported_with_an_index():
    # a doctored square split: T = (1 1) and X = (B | A) with B = (1 1)ᵀ,
    # A = (1 0)ᵀ, so T·B = 0 while T·A = 1 and basis message 0 has no solution
    part = Fragmentation(
        top=BitMatrix.ones(1, 2),
        tail=BitMatrix.from_rows([[1, 1], [1, 0]]),
    )
    assert (part.gap, part.message_len) == (1, 1)
    with pytest.raises(GapSystemInconsistent) as exc:
        encoder_from_partition(part)
    assert exc.value.basis_index == 0
    assert "basis index 0" in str(exc.value)


def test_matvec_agrees_with_encode_verification():
    h = build_a(3, 2)
    assert gf2_matvec(h, (1, 0, 1, 0, 1, 0)) == 0


def test_encoder_report_verifies_its_random_messages(monkeypatch):
    # a batch holding the codeword of a message that is not a unit vector
    # fails to verify: only a report that verifies its random messages sees it
    from altmat import reports

    rejected = []

    def verify(k, ell, words):
        s = split_sizes(k, ell)[1]
        others = [w for w in words.bits if (w >> (words.cols - s)).bit_count() != 1]
        if others:
            rejected.extend(others)
            return False
        return verify_codewords(k, ell, words)

    monkeypatch.setattr(reports, "verify_codewords", verify)
    report = reports.encoder_report(grid=((4, 2),))
    assert rejected
    assert report["ok"] is False
    assert report["entries"][0]["all_verified"] is False


BATCH_GRID = ENCODER_GRID + ((7, 5),)


def generator_matrix(k, ell):
    enc = make_encoder(k, ell)
    return enc, BitMatrix(enc.partition.message_len, build_a(k, ell).cols, enc.generator)


@st.composite
def message_batches(draw):
    """A grid cell and a batch of its messages, packed (bit i = message entry i)."""
    k, ell = draw(st.sampled_from(BATCH_GRID))
    s = split_sizes(k, ell)[1]
    words = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=12))
    return k, ell, BitMatrix(len(words), s, tuple(words))


@settings(max_examples=50)
@given(message_batches())
def test_batch_product_matches_encode_per_message(batch):
    k, ell, messages = batch
    enc, gen = generator_matrix(k, ell)
    words = gf2_mul(messages, gen)
    for m, w in zip(messages.bits, words.bits):
        assert unpack_bits(w, gen.cols) == encode(enc, unpack_bits(m, messages.cols))


@settings(max_examples=50)
@given(message_batches(), st.data())
def test_verify_codewords_matches_verify_codeword(batch, data):
    k, ell, messages = batch
    _, gen = generator_matrix(k, ell)
    bits = list(gf2_mul(messages, gen).bits)
    flip = st.tuples(st.integers(0, len(bits) - 1), st.integers(0, gen.cols - 1))
    for i, j in data.draw(st.lists(flip, max_size=3)):
        bits[i] ^= 1 << j
    words = BitMatrix(len(bits), gen.cols, tuple(bits))
    expected = all(verify_codeword(k, ell, unpack_bits(w, gen.cols)) for w in words.bits)
    assert verify_codewords(k, ell, words) == expected


def test_verify_codewords_rejects_a_wrong_width():
    with pytest.raises(ValueError, match="word must have length 6, got 5"):
        verify_codewords(3, 2, BitMatrix.zeros(2, 5))
    with pytest.raises(ValueError, match="word must have length 6, got 7"):
        verify_codewords(3, 2, BitMatrix.zeros(1, 7))
    assert verify_codewords(3, 2, BitMatrix.from_rows([[1, 0, 1, 0, 1, 0], [0] * 6]))
