import random

from hypothesis import strategies as st

from altmat import BitMatrix


@st.composite
def bit_matrices(
    draw, max_rows: int = 7, max_cols: int = 7, min_rows: int = 1, min_cols: int = 1
):
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = draw(st.integers(min_value=min_cols, max_value=max_cols))
    full = (1 << cols) - 1
    # one uniform byte string for all entries keeps generation cheap at widths
    # past 128 bits; a bounded st.integers this wide is skewed to small values
    nbytes = (rows * cols + 7) // 8
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    packed = int.from_bytes(raw, "little")
    words = [(packed >> (i * cols)) & full for i in range(rows)]
    # all-zero and all-ones rows are edge cases that random entries rarely hit
    special = st.tuples(st.integers(0, rows - 1), st.sampled_from((0, full)))
    for i, word in draw(st.lists(special, max_size=3)):
        words[i] = word
    return BitMatrix(rows, cols, tuple(words))


@st.composite
def square_bit_matrices(draw, max_n: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(bit_matrices(min_rows=n, max_rows=n, min_cols=n, max_cols=n))


def random_matrix(rows, cols, seed):
    """Seeded dense random matrix: every entry an independent fair bit."""
    rng = random.Random(seed)
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
