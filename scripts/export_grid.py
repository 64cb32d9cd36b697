#!/usr/bin/env python3
"""Dump the sparse and dense family matrices of a parameter grid to files.

One file per matrix, named a_k{k}_l{l}.<ext> / b_k{k}_l{l}.<ext>, in any of
the three supported formats. Useful for feeding the check matrices to
external decoder toolchains.
"""

import argparse
import pathlib
import sys

from altmat import build_a, build_b, dims_of, export_matrix
from altmat.bitmatrix import MAX_CELLS, within_limit
from altmat.formats import FORMATS

EXT = {"alist": "alist", "matrixmarket": "mtx", "dense": "txt"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--lmax", type=int, default=6)
    parser.add_argument("--format", choices=FORMATS, default="alist")
    args = parser.parse_args()
    # the (kmax, lmax) cell is the grid's largest; refuse the grid before building
    if min(args.kmax, args.lmax) < 1:
        parser.error("--kmax and --lmax must be positive")
    rows, cols = dims_of(args.kmax, args.lmax)
    if not within_limit(rows, cols):
        parser.error(
            f"build_a({args.kmax}, {args.lmax}) would be {rows} x {cols}, "
            f"past the limit of {MAX_CELLS} cells"
        )

    args.outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for k in range(1, args.kmax + 1):
        for ell in range(1, args.lmax + 1):
            for name, build in (("a", build_a), ("b", build_b)):
                path = args.outdir / f"{name}_k{k}_l{ell}.{EXT[args.format]}"
                path.write_text(export_matrix(build(k, ell), args.format))
                count += 1
    print(f"wrote {count} matrices to {args.outdir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
