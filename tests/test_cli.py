import json

import pytest

from altmat import bitmatrix, build_a, build_b, export_matrix, import_matrix
from altmat import cli, codes, encoder, families, reports
from altmat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_dense_matches_library_export(capsys):
    code, out, _ = run(capsys, "gen", "a", "--k", "2", "--l", "2")
    assert code == 0
    assert out == export_matrix(build_a(2, 2), "dense")


def test_gen_report_is_json_with_exact_fields(capsys):
    code, out, _ = run(capsys, "gen", "b", "--k", "3", "--l", "2", "--report")
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"] == 4 and rep["cols"] == 6
    assert rep["row_sums"] == [3] and rep["col_sums"] == [2]
    assert all(isinstance(v, int) for v in rep["params"].values())


def test_gen_lk_and_m(capsys):
    code, out, _ = run(capsys, "gen", "lk", "--k", "3", "--report")
    assert code == 0 and json.loads(out)["rows"] == 4
    code, out, _ = run(capsys, "gen", "m", "--n", "4", "--report")
    assert code == 0 and json.loads(out)["cols"] == 70


def test_gen_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "a", "--k", "2")
    assert code == 2 and "requires" in err
    code, _, err = run(capsys, "gen", "m", "--k", "2")
    assert code == 2


def test_gen_refuses_flags_its_family_ignores(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("built despite a stray flag")

    for name in ("build_a", "build_b", "build_l_oracle", "build_m"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, message in [
        (("a", "--k", "3", "--l", "2", "--n", "7", "--report"), "gen a takes only --k and --l"),
        (("a", "--k", "3", "--l", "2", "--n", "7"), "gen a takes only --k and --l"),
        (("b", "--k", "3", "--l", "2", "--n", "7"), "gen b takes only --k and --l"),
        (("lk", "--k", "3", "--l", "9"), "gen lk takes only --k"),
        (("lk", "--k", "3", "--n", "4"), "gen lk takes only --k"),
        (("m", "--n", "4", "--k", "2"), "gen m takes only --n"),
    ]:
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == "" and message in err, argv


def test_verify_grid_passes_and_is_byte_stable(capsys):
    code, out1, _ = run(capsys, "verify", "--grid", "4", "4")
    assert code == 0
    assert json.loads(out1)["ok"] is True
    code, out2, _ = run(capsys, "verify", "--grid", "4", "4")
    assert out1 == out2


@pytest.mark.parametrize("grid", [("0", "3"), ("3", "0"), ("-2", "3")])
def test_verify_refuses_an_empty_grid(monkeypatch, capsys, grid):
    refuse_builds(monkeypatch)
    code, out, err = run(capsys, "verify", "--grid", *grid)
    assert code == 2 and out == "" and "k and ell must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("code", "mindist", "--k", "4", "--var", "dense"),
        ("encode", "--k", "3", "--l", "2", "--mess", "10"),
        ("gen", "a", "--k", "2", "--l", "2", "--rep"),
    ],
)
def test_flag_prefixes_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "error:" in out.err


def test_verify_with_ranks(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "3", "3", "--ranks")
    rep = json.loads(out)
    assert code == 0 and rep["square_rank"]["ok"] and rep["incidence_oracle"]["ok"]


@pytest.mark.parametrize("grid", [("1", "1"), ("1", "6"), ("6", "1")], ids="-".join)
def test_verify_with_ranks_refuses_a_grid_with_no_square_member(capsys, grid):
    # the square ranks cover k = 2..min(kmax, lmax, 5); a side of 1 leaves none
    code, out, err = run(capsys, "verify", "--grid", *grid, "--ranks")
    assert code == 2 and out == "" and "square_rank needs kmax >= 2, got 1" in err


def test_verify_with_ranks_stays_inside_the_grid(capsys):
    # (k, k) for k <= min(kmax, lmax) and (k, k-1) for k <= min(kmax, lmax + 1)
    code, out, _ = run(capsys, "verify", "--grid", "5", "2", "--ranks")
    rep = json.loads(out)
    assert code == 0 and rep["ok"]
    assert [e["k"] for e in rep["square_rank"]["entries"]] == [2]
    assert [e["k"] for e in rep["incidence_oracle"]["entries"]] == [2, 3]


def test_decompose_reports_blocks(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["blocks"] == {"L_2": 24, "L_3": 1}
    assert rep["zero_columns"] == 16
    assert rep["rank"] == 28
    code, out, _ = run(capsys, "decompose", "--n", "4", "--skip-rank")
    assert "rank" not in json.loads(out)


def test_code_subcommands(capsys):
    code, out, _ = run(capsys, "code", "weights", "--k", "3", "--variant", "sparse")
    rep = json.loads(out)
    assert code == 0
    assert rep["weight_enumerator"] == [[0, 1], [3, 4], [4, 3]]

    code, out, _ = run(capsys, "code", "mindist", "--k", "4")
    rep = json.loads(out)
    assert code == 0 and rep["min_distance"] == 4 and rep["distance_bound"] == 6

    code, out, _ = run(capsys, "code", "isodual", "--k", "4")
    assert code == 0 and json.loads(out)["isodual_certificate_ok"] is True

    code, out, _ = run(capsys, "code", "isodual", "--k", "4", "--variant", "dense")
    assert code == 4  # no certificate for the dense variant


def test_code_gen_writes_both_matrices(tmp_path, capsys):
    gen_path = tmp_path / "gen.alist"
    par_path = tmp_path / "par.alist"
    code, _, _ = run(
        capsys, "code", "gen", "--k", "3", "--format", "alist",
        "--out", str(gen_path), "--parity-out", str(par_path),
    )
    assert code == 0
    g = import_matrix(gen_path.read_text(), "alist")
    h = import_matrix(par_path.read_text(), "alist")
    assert (g.rows, g.cols) == (3, 6) and (h.rows, h.cols) == (3, 6)


def test_encode_worked_example(capsys):
    code, out, _ = run(capsys, "encode", "--k", "3", "--l", "2", "--message", "10")
    rep = json.loads(out)
    assert code == 0
    assert rep["codeword"] == "101010"
    assert rep["parity_checks_zero"] is True


def test_encode_rejects_bad_message(capsys):
    code, _, err = run(capsys, "encode", "--k", "3", "--l", "2", "--message", "1x")
    assert code == 2 and "0/1" in err
    code, _, _ = run(capsys, "encode", "--k", "3", "--l", "2", "--message", "101")
    assert code == 2


def test_export_import_round_trip_via_files(tmp_path, capsys):
    src = tmp_path / "m.mm"
    src.write_text(export_matrix(build_a(4, 3), "matrixmarket"))
    dst = tmp_path / "m.alist"
    code, _, _ = run(
        capsys, "export", "--from", "matrixmarket", "--format", "alist",
        "--in", str(src), "--out", str(dst),
    )
    assert code == 0
    assert import_matrix(dst.read_text(), "alist") == build_a(4, 3)

    code, out, _ = run(capsys, "import", "--format", "alist", "--in", str(dst))
    rep = json.loads(out)
    assert code == 0 and rep["rows"] == 15 and rep["cols"] == 20


@pytest.mark.parametrize("src_fmt,dst_fmt", [("matrixmarket", "alist"), ("alist", "matrixmarket")])
def test_dense_member_round_trips_via_files(tmp_path, capsys, src_fmt, dst_fmt):
    b = build_b(5, 5)
    src = tmp_path / "b.in"
    src.write_text(export_matrix(b, src_fmt))
    dst = tmp_path / "b.out"
    code, _, _ = run(
        capsys, "export", "--from", src_fmt, "--format", dst_fmt,
        "--in", str(src), "--out", str(dst),
    )
    assert code == 0
    assert dst.read_text() == export_matrix(b, dst_fmt)
    assert import_matrix(dst.read_text(), dst_fmt) == b


def test_oversized_gen_is_a_usage_error(monkeypatch, capsys):
    # build_a(4, 4) is 35 x 35; with the limit cut, an unguarded gen builds little
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 1000)
    code, out, err = run(capsys, "gen", "a", "--k", "4", "--l", "4")
    assert code == 2 and out == "" and "limit" in err
    code, _, _ = run(capsys, "gen", "b", "--k", "4", "--l", "3", "--report")
    assert code == 0


def test_oversized_gen_lk_and_m_are_refused_before_building(monkeypatch, capsys):
    # lk --k 4 is 15 x 20 and m --n 4 is 28 x 70, within 2000 cells counted
    # 64 wide; lk --k 5 is 56 x 70 and m --n 5 is 120 x 252, past it
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 2000)
    for argv in (("lk", "--k", "4"), ("m", "--n", "4")):
        code, _, _ = run(capsys, "gen", *argv, "--report")
        assert code == 0

    def refuse(_):
        raise AssertionError("built past the limit")

    monkeypatch.setattr(cli, "build_l_oracle", refuse)
    monkeypatch.setattr(cli, "build_m", refuse)
    for argv in (("lk", "--k", "5"), ("m", "--n", "5", "--report")):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == "" and "limit of 2000 cells" in err


def refuse_builds(monkeypatch):
    def refuse(*_):
        raise AssertionError("built past the limit")

    for module in (families, codes, encoder, reports):
        for name in ("build_a", "build_b", "build_m"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_oversized_builds_are_refused_before_building(monkeypatch, capsys):
    # within 2000 cells counted 64 wide: code --k 4 (10 x 20), encode a(4, 3)
    # (15 x 20), decompose --n 4 (28 x 70) and the 3 x 3 grid's a(3, 3) (10 x 10);
    # past it: code --k 5 (35 x 70), a(6, 4) (84 x 126), build_m(5) (120 x 252)
    # and a(4, 4) (35 x 35)
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 2000)
    within = [
        ("code", "gen", "--k", "4"),
        ("code", "weights", "--k", "4"),
        ("encode", "--k", "4", "--l", "3", "--message", "10110"),
        ("decompose", "--n", "4"),
        ("verify", "--grid", "3", "3"),
    ]
    for argv in within:
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    refuse_builds(monkeypatch)
    past = [
        ("code", "gen", "--k", "5"),
        ("code", "isodual", "--k", "5", "--variant", "dense"),
        ("encode", "--k", "6", "--l", "4", "--message", "1"),
        ("decompose", "--n", "5", "--skip-rank"),
        ("verify", "--grid", "4", "4"),
    ]
    for argv in past:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "limit of 2000 cells" in err, argv


def test_code_weights_and_mindist_past_the_enumeration_guard_are_refused(monkeypatch, capsys):
    # n0 = C(7, 3) = 35 at k = 5 is past codes.ENUMERATION_LIMIT = 24, so the
    # report would have no enumerator and no distance to print
    refuse_builds(monkeypatch)
    for action in ("weights", "mindist"):
        for variant in ("sparse", "dense"):
            code, out, err = run(capsys, "code", action, "--k", "5", "--variant", variant)
            assert code == 2 and out == "", (action, variant)
            assert f"code {action} --k 5 has dimension 35, past the enumeration guard (24)" in err


def test_wrong_length_message_is_refused_before_building(monkeypatch, capsys):
    # a(4, 3) has message length C(5, 3) - C(5, 1) = 5
    def refuse(*_):
        raise AssertionError("built for a message of the wrong length")

    monkeypatch.setattr(cli, "make_encoder", refuse)
    refuse_builds(monkeypatch)
    for message in ("1011", "101101"):
        code, out, err = run(capsys, "encode", "--k", "4", "--l", "3", "--message", message)
        assert code == 2 and out == ""
        assert f"message must have length 5, got {len(message)}" in err


def test_invalid_parameters_keep_their_messages(capsys):
    for argv, message in [
        (("code", "gen", "--k", "2"), "need k >= 3"),
        (("code", "weights", "--k", "2", "--variant", "dense"), "need k >= 3"),
        (("encode", "--k", "3", "--l", "1", "--message", "1"), "no partition for ell < 2"),
        (("encode", "--k", "0", "--l", "2", "--message", "1"), "nonpositive for ell >= k"),
        (("decompose", "--n", "3"), "need n >= 4"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err, argv


def test_oversized_import_header_is_a_parse_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bitmatrix, "MAX_CELLS", 1000)
    big = tmp_path / "big.mm"
    big.write_text("%%MatrixMarket matrix coordinate pattern general\n100000 11 0\n")
    code, _, err = run(capsys, "import", "--format", "matrixmarket", "--in", str(big))
    assert code == 3 and "line 2" in err and "limit" in err


def test_import_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alist"
    bad.write_text("not an alist\n")
    code, _, err = run(capsys, "import", "--format", "alist", "--in", str(bad))
    assert code == 3
    assert "parse error" in err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "import", "--format", "alist", "--in", "/nonexistent")
    assert code == 2
