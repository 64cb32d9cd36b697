"""Command-line surface: generation, verification, codes, encoding, formats.

Exit codes: 0 success, 2 usage or parameter validation, 3 parse error,
4 a requested check or encoding failed. Reports are JSON with sorted keys,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitmatrix import BitMatrix, check_size
from .codes import ENUMERATION_LIMIT, code_dims, make_code
from .encoder import (
    GapSystemInconsistent,
    encode,
    make_encoder,
    split_sizes,
    verify_codeword,
)
from .families import build_a, build_b, dims_of
from .formats import FORMATS, MatrixParseError, export_matrix, import_matrix
from .incidence import build_l_oracle, build_m, l_oracle_dims, m_dims
from .reports import (
    RANK_GRID_KMAX,
    code_report,
    construction_report,
    decompose_report,
    oracle_report,
    rank_report,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CHECK = 4


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit_report(report: dict, out: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _gen_matrix(args) -> tuple[BitMatrix, dict[str, int]]:
    """The requested family member and the flags that named it."""
    # each family's flags, the order of its member and its builder, read from
    # the module's names at each call
    flags, dims, build = {
        "a": (("k", "l"), dims_of, build_a),
        "b": (("k", "l"), dims_of, build_b),
        "lk": (("k",), l_oracle_dims, build_l_oracle),
        "m": (("n",), m_dims, build_m),
    }[args.family]
    named = " and ".join(f"--{flag}" for flag in flags)
    if any(getattr(args, flag) is not None for flag in ("k", "l", "n") if flag not in flags):
        raise ValueError(f"gen {args.family} takes only {named}")
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise ValueError(f"gen {args.family} requires {named}")
    given = " ".join(f"--{flag} {val}" for flag, val in zip(flags, values))
    check_size(f"gen {args.family} {given}", dims(*values))
    return build(*values), dict(zip(flags, values))


def _summary(m: BitMatrix) -> dict:
    row_sums = m.row_sums()
    return {
        "kind": "matrix",
        "rows": m.rows,
        "cols": m.cols,
        "ones": sum(row_sums),
        "row_sums": sorted(set(row_sums)),
        "col_sums": sorted(set(m.col_sums())),
    }


def _cmd_gen(args) -> int:
    m, params = _gen_matrix(args)
    if args.report:
        report = _summary(m)
        report["family"] = args.family
        report["params"] = params
        _emit_report(report, args.out)
    else:
        _emit(export_matrix(m, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    kmax, lmax = args.grid
    # the (kmax, lmax) cell is the grid's largest; dims_of refuses an empty grid
    check_size(f"verify --grid {kmax} {lmax}", dims_of(kmax, lmax))
    report = construction_report(kmax, lmax)
    if args.ranks:
        # the square cells (k, k) and the oracle's cells (k, k-1) of the grid
        report["square_rank"] = rank_report(min(kmax, lmax, RANK_GRID_KMAX))
        report["incidence_oracle"] = oracle_report(min(kmax, lmax + 1, RANK_GRID_KMAX))
        report["ok"] = bool(
            report["ok"] and report["square_rank"]["ok"] and report["incidence_oracle"]["ok"]
        )
    _emit_report(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_CHECK


def _cmd_decompose(args) -> int:
    check_size(f"decompose --n {args.n}", m_dims(args.n))
    report = decompose_report(args.n)
    _emit_report(report, args.out)
    return EXIT_OK if report["unidentified"] == 0 else EXIT_CHECK


def _cmd_code(args) -> int:
    request = f"code {args.action} --k {args.k}"
    n0, cols = code_dims(args.k)
    check_size(request, (n0, cols))
    # both read the weight enumerator, which counts all 2^n0 codewords
    if args.action in ("weights", "mindist") and n0 > ENUMERATION_LIMIT:
        raise ValueError(
            f"{request} has dimension {n0}, past the enumeration guard ({ENUMERATION_LIMIT})"
        )
    if args.action == "gen":
        code = make_code(args.k, args.variant)
        _emit(export_matrix(code.generator, args.format), args.out)
        if args.parity_out:
            _emit(export_matrix(code.parity, args.format), args.parity_out)
        return EXIT_OK
    report = code_report(args.k, args.variant)
    if args.action == "weights":
        keep = {
            "kind", "k", "variant", "length", "dimension_target", "generator_rank",
            "weight_enumerator", "all_weights_even", "gleason_fit",
            "enumerator_equals_sparse",
        }
    elif args.action == "mindist":
        keep = {
            "kind", "k", "variant", "length", "min_distance", "distance_bound",
            "min_distance_within_bound",
        }
    else:
        keep = {
            "kind", "k", "variant", "length", "parity_check_ok", "parity_product_zero",
            "parity_product_entries", "isodual_certificate_ok", "generator_rank",
            "parity_rank",
        }
    report = {key: val for key, val in report.items() if key in keep}
    report["action"] = args.action
    _emit_report(report, args.out)
    if args.action == "isodual":
        return EXIT_OK if report.get("isodual_certificate_ok", False) else EXIT_CHECK
    return EXIT_OK


def _cmd_encode(args) -> int:
    if any(ch not in "01" for ch in args.message) or not args.message:
        raise ValueError("--message must be a nonempty string of 0/1 characters")
    message = tuple(int(ch) for ch in args.message)
    _, message_len = split_sizes(args.k, args.l)
    check_size(f"encode --k {args.k} --l {args.l}", dims_of(args.k, args.l))
    if len(message) != message_len:
        raise ValueError(f"message must have length {message_len}, got {len(message)}")
    enc = make_encoder(args.k, args.l)
    word = encode(enc, message)
    report = {
        "kind": "encode",
        "k": args.k,
        "l": args.l,
        "message": args.message,
        "codeword": "".join(str(b) for b in word),
        "parity_checks_zero": verify_codeword(args.k, args.l, word),
    }
    _emit_report(report, args.out)
    return EXIT_OK if report["parity_checks_zero"] else EXIT_CHECK


def _cmd_export(args) -> int:
    m = import_matrix(_read(args.inp), args.src_format)
    _emit(export_matrix(m, args.format), args.out)
    return EXIT_OK


def _cmd_import(args) -> int:
    m = import_matrix(_read(args.inp), args.format)
    _emit_report(_summary(m), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a flag is spelled in full or refused
    parser = argparse.ArgumentParser(
        prog="altmat",
        allow_abbrev=False,
        description="Recursive (0,1)-matrix families, their codes, and the gap encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", allow_abbrev=False, help="generate a matrix")
    p.add_argument("family", choices=("a", "b", "lk", "m"))
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=FORMATS, default="dense")
    p.add_argument("--out")
    p.add_argument("--report", action="store_true", help="emit a JSON summary instead")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the construction grid checks")
    p.add_argument("--grid", type=int, nargs=2, metavar=("KMAX", "LMAX"), required=True)
    p.add_argument("--ranks", action="store_true", help="include rank and oracle checks")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", allow_abbrev=False, help="block decomposition report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("code", allow_abbrev=False, help="code construction and diagnostics")
    p.add_argument("action", choices=("gen", "weights", "mindist", "isodual"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=("sparse", "dense"), default="sparse")
    p.add_argument("--format", choices=FORMATS, default="dense")
    p.add_argument("--out")
    p.add_argument("--parity-out")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("encode", allow_abbrev=False, help="encode a message word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("export", allow_abbrev=False, help="convert a matrix file between formats")
    p.add_argument("--format", choices=FORMATS, required=True, help="output format")
    p.add_argument("--from", dest="src_format", choices=FORMATS, required=True)
    p.add_argument("--in", dest="inp", help="input path (default stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("import", allow_abbrev=False, help="parse a matrix file and summarize it")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("--in", dest="inp", help="input path (default stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_import)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"altmat: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GapSystemInconsistent as exc:
        print(f"altmat: encoder failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        print(f"altmat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
