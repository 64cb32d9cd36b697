#!/usr/bin/env python3
"""Build the complete verification report for the whole artifact.

Covers the construction grid, exact ranks, the inclusion-matrix oracle,
both block decompositions, the four reference codes, and the encoder
grid. Output is deterministic JSON (integers and booleans only).
"""

import argparse
import json
import sys

from altmat import dims_of
from altmat.bitmatrix import check_size
from altmat.reports import (
    code_report,
    construction_report,
    decompose_report,
    encoder_report,
    oracle_report,
    rank_report,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--lmax", type=int, default=6)
    args = parser.parse_args()
    # the (kmax, lmax) cell is the grid's largest; refuse the grid before building
    if min(args.kmax, args.lmax) < 1:
        parser.error("--kmax and --lmax must be positive")
    try:
        check_size(f"build_a({args.kmax}, {args.lmax})", dims_of(args.kmax, args.lmax))
    except ValueError as exc:
        parser.error(str(exc))

    report = {
        "construction": construction_report(args.kmax, args.lmax),
        "square_rank": rank_report(5),
        "incidence_oracle": oracle_report(5),
        "decompose": {
            "n4": decompose_report(4),
            "n5": decompose_report(5),
        },
        "codes": {
            "sparse_k3": code_report(3, "sparse"),
            "sparse_k4": code_report(4, "sparse"),
            "sparse_k6": code_report(6, "sparse"),
            "dense_k4": code_report(4, "dense"),
        },
        "encoder": encoder_report(),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
