import pytest

import reference
from altmat import codes, reports
from altmat import (
    BitMatrix,
    CodePair,
    GleasonFit,
    WeightEnumerator,
    ZeroCodeError,
    distance_bound,
    gf2_mul,
    gf2_rank,
    gleason_fit,
    is_parity_check,
    isodual_witness,
    make_code,
    weight_enumerator,
)


def naive_enumerator(gen: BitMatrix) -> dict[int, int]:
    """Histogram by XOR-ing explicit row lists over every row subset."""
    hist: dict[int, int] = {}
    rows = gen.to_lists()
    for r in range(1 << gen.rows):
        word = [0] * gen.cols
        for i in range(gen.rows):
            if (r >> i) & 1:
                word = [a ^ b for a, b in zip(word, rows[i])]
        w = sum(word)
        hist[w] = hist.get(w, 0) + 1
    # collapse duplicates when the rows are dependent
    dim = gf2_rank(gen)
    scale = 1 << (gen.rows - dim)
    return {w: c // scale for w, c in hist.items()}


def toy_repetition_code() -> CodePair:
    g = BitMatrix.from_rows([[1, 1]])
    return CodePair(g, g, "sparse")


# -- construction -----------------------------------------------------------------


def test_make_code_k3_layout():
    code = make_code(3, "sparse")
    assert code.n0 == 3
    assert code.generator == BitMatrix.from_rows(
        [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]
    )
    assert code.parity.cols == 6


def test_make_code_k4_parameters():
    sparse = make_code(4, "sparse")
    assert sparse.n0 == 10
    assert (sparse.generator.rows, sparse.generator.cols) == (10, 20)
    dense = make_code(4, "dense")
    assert gf2_rank(dense.generator) == 10


def test_make_code_rejects_small_k_and_bad_variant():
    with pytest.raises(ValueError, match="need k >= 3"):
        codes.code_dims(2)
    with pytest.raises(ValueError, match="need k >= 3"):
        make_code(2, "sparse")
    with pytest.raises(ValueError):
        make_code(4, "other")


@pytest.mark.parametrize("variant", ["sparse", "dense"])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_code_dims_are_the_shape_of_make_code(k, variant):
    code = make_code(k, variant)
    dims = codes.code_dims(k)
    assert dims == (code.n0, 2 * code.n0)
    assert (code.generator.rows, code.generator.cols) == dims
    assert (code.parity.rows, code.parity.cols) == dims


def test_code_pair_shape_validation():
    g = BitMatrix.from_rows([[1, 1]])
    with pytest.raises(ValueError):
        CodePair(g, BitMatrix.from_rows([[1, 1, 0]]), "sparse")


def test_code_pair_rejects_a_shape_other_than_n0_by_2n0():
    # equal shapes, but 1 x 3 is no [2, 1] code: the parity check and the
    # enumerator would answer for a code of another length
    g = BitMatrix.from_rows([[1, 1, 0]])
    with pytest.raises(ValueError, match=r"1 x 3 is not n0 x 2\*n0 for n0 = 1"):
        CodePair(g, g, "sparse")


def test_code_pair_n0_is_the_generator_row_count():
    pair = CodePair(BitMatrix.zeros(2, 4), BitMatrix.zeros(2, 4), "dense")
    assert pair.n0 == 2
    with pytest.raises(ValueError, match="variant must be 'sparse' or 'dense'"):
        CodePair(BitMatrix.zeros(2, 4), BitMatrix.zeros(2, 4), "other")


# -- duality ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_sparse_parity_check_holds(k):
    res = is_parity_check(make_code(k, "sparse"))
    assert res.ok
    assert res.witness is None
    assert res.generator_rank == res.parity_rank == make_code(k, "sparse").n0


def test_dense_k4_parity_product_is_all_ones():
    code = make_code(4, "dense")
    res = is_parity_check(code)
    assert not res.ok
    assert res.witness == (0, 0)
    # column sums of the dense core are n0-(k-1) = 7, odd, so every entry is 1
    prod = gf2_mul(code.generator, code.parity.transpose())
    assert prod == BitMatrix.ones(10, 10)
    assert res.product == prod


@pytest.mark.parametrize("k", [3, 4, 6])
def test_isodual_certificate(k):
    code = make_code(k, "sparse")
    wit = isodual_witness(code)
    assert wit.ok
    assert wit.counterexample is None
    assert wit.permutation == tuple(range(2 * code.n0 - 1, -1, -1))


def test_isodual_permutation_is_an_involution():
    code = make_code(3, "sparse")
    wit = isodual_witness(code)
    rows = range(code.parity.rows)
    once = reference.submatrix(code.parity, rows, wit.permutation)
    assert reference.submatrix(once, rows, wit.permutation) == code.parity


def test_isodual_rejects_dense_variant():
    with pytest.raises(ValueError):
        isodual_witness(make_code(4, "dense"))


def test_isodual_rejects_a_width_other_than_2n0():
    # the reversal is of all 2 * n0 coordinates, so a wider row has no image
    g = BitMatrix.from_rows([[1, 1, 0]])
    with pytest.raises(ValueError):
        isodual_witness(CodePair(g, g, "sparse"))


def test_isodual_failure_produces_a_counterexample():
    gen = BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    par = BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    wit = isodual_witness(CodePair(gen, par, "sparse"))
    assert not wit.ok
    assert wit.counterexample is not None


def test_k4_dual_enumeration_matches_the_code():
    # explicit dual enumeration: the reversed parity rows span a code with
    # the same weight histogram as the generator's
    code = make_code(4, "sparse")
    dual = weight_enumerator(code.parity)
    primal = weight_enumerator(code)
    assert dual.coeffs == primal.coeffs


# -- weight enumerators ------------------------------------------------------------


def test_enumerator_k3_hand_value():
    w = weight_enumerator(make_code(3, "sparse"))
    assert w.as_dict() == {0: 1, 3: 4, 4: 3}


def test_enumerator_toy_repetition():
    w = weight_enumerator(toy_repetition_code())
    assert w.as_dict() == {0: 1, 2: 1}


def test_enumerator_k4_is_even_and_complete():
    w = weight_enumerator(make_code(4, "sparse"))
    assert w.total() == 1 << 10
    assert all(wt % 2 == 0 for wt, _ in w.coeffs)


@pytest.mark.parametrize("k,variant", [(3, "sparse"), (4, "sparse"), (4, "dense")])
def test_enumerator_matches_naive_subset_enumeration(k, variant):
    code = make_code(k, variant)
    if code.n0 > 10:
        pytest.skip("naive oracle too large")
    assert weight_enumerator(code).as_dict() == naive_enumerator(code.generator)


def test_enumerator_guard_rejects_large_dimension():
    with pytest.raises(ValueError, match="enumeration guard"):
        weight_enumerator(make_code(5, "sparse"))


def test_dense_k4_enumerator_equals_sparse():
    dense = weight_enumerator(make_code(4, "dense"))
    sparse = weight_enumerator(make_code(4, "sparse"))
    assert dense.coeffs == sparse.coeffs


# -- fits against the invariant-ring basis ------------------------------------------


def test_fit_of_the_first_generator():
    w = WeightEnumerator(2, ((0, 1), (2, 1)))
    fit = gleason_fit(w, 1)
    assert fit.exact and fit.a == (1,)


def test_fit_of_the_degree_eight_generator():
    w = WeightEnumerator(8, ((2, 1), (4, -2), (6, 1)))
    fit = gleason_fit(w, 4)
    assert fit.exact and fit.a == (0, 1)


def test_fit_of_the_even_self_dual_octic():
    # y^8 + 14 x^4 y^4 + x^8 = g1^4 - 4 g2, so the fit is (1, -4)
    w = WeightEnumerator(8, ((0, 1), (4, 14), (8, 1)))
    fit = gleason_fit(w, 4)
    assert fit.exact and fit.a == (1, -4)


def test_fit_k4_sparse_is_exact_with_unit_leading_coefficient():
    w = weight_enumerator(make_code(4, "sparse"))
    fit = gleason_fit(w, 10)
    assert fit.exact
    assert len(fit.a) == 10 // 4 + 1 == 3
    assert fit.a[0] == 1
    assert fit.a == (1, -10, 10)


def test_fit_k3_sparse_leaves_the_odd_weights_as_residual():
    # W = y^6 + 4 x^3 y^3 + 3 x^4 y^2 against a0 = 1 times g1^3
    fit = gleason_fit(weight_enumerator(make_code(3, "sparse")), 3)
    assert fit == GleasonFit((), False, ((2, -3), (3, 4), (6, -1)))


def test_fit_failure_reports_a_residual():
    w = WeightEnumerator(4, ((0, 1), (1, 2), (4, 1)))
    fit = gleason_fit(w, 2)
    assert not fit.exact
    assert fit.a == ()
    assert fit.residual is not None and (1, 2) in fit.residual


def test_fit_validates_shape():
    w = WeightEnumerator(6, ((0, 1), (2, 1)))
    with pytest.raises(ValueError):
        gleason_fit(w, 2)  # length must be twice the given half-length


# -- minimum distance ----------------------------------------------------------------


def test_min_distance_hand_values():
    assert weight_enumerator(make_code(3, "sparse")).min_distance() == 3
    assert weight_enumerator(toy_repetition_code()).min_distance() == 2


def test_min_distance_of_the_zero_code_is_a_typed_error():
    with pytest.raises(ZeroCodeError, match="no nonzero codeword") as exc:
        weight_enumerator(BitMatrix.zeros(2, 4)).min_distance()
    assert exc.value.length == 4
    assert isinstance(exc.value, ValueError)


def test_min_distance_k4_within_the_bound():
    code = make_code(4, "sparse")
    distance, bound = weight_enumerator(code).min_distance(), distance_bound(code.n0)
    assert bound == 6
    assert distance <= bound
    assert distance == 4


def test_code_report_enumerates_each_code_once(monkeypatch):
    calls = []

    def counting(code):
        calls.append(code)
        return weight_enumerator(code)

    monkeypatch.setattr(codes, "weight_enumerator", counting)
    monkeypatch.setattr(reports, "weight_enumerator", counting)
    report = reports.code_report(4, "sparse")
    assert len(calls) == 1
    assert report["min_distance"] == 4 and report["min_distance_within_bound"]


def test_code_report_multiplies_the_parity_product_once(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return gf2_mul(a, b)

    # count a product taken in either module, whether or not reports imports it
    monkeypatch.setattr(codes, "gf2_mul", counting)
    monkeypatch.setattr(reports, "gf2_mul", counting, raising=False)
    report = reports.code_report(4, "dense")
    assert len(calls) == 1
    assert report["parity_product_entries"] == [1]
    assert not report["parity_product_zero"]


def test_distance_bound_switches_at_length_32():
    assert distance_bound(10) == 6
    assert distance_bound(30) == 16
    assert distance_bound(32) == 16
    assert distance_bound(126) == 62


def test_k3_distance_exceeds_the_even_case_bound():
    # odd row weight: the even-weight hypothesis fails and so does the bound
    code = make_code(3, "sparse")
    distance, bound = weight_enumerator(code).min_distance(), distance_bound(code.n0)
    assert bound == 2
    assert distance == 3 > bound


def test_even_row_weights_propagate_to_all_codewords():
    # structural evenness argument used where enumeration is impossible
    for k in (4, 6):
        code = make_code(k, "sparse")
        assert all(w % 2 == 0 for w in code.generator.row_sums())
