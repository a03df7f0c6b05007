#!/usr/bin/env python
"""Sweep the grouped Hamming codebook over an SNR grid and tabulate error rates.

One simulation covers the whole grid: every Es/N0 point decodes the same
trials' codeword picks and noise (common random numbers), with both the group
rule and the nearest-codeword rule, and the analytic union bounds are printed
next to the measured rates.  The CSV goes to stdout (or --output); one progress
line per point goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from pathlib import Path

from sebits.chancode import gep_union_bound, simulate_awgn_sweep
from sebits.cli import load_codebook
from sebits.gaussian import db_to_linear

DEFAULT_CODEBOOK = Path(__file__).resolve().parent.parent / "fixtures" / "tableVIII_codebook.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--codebook", default=DEFAULT_CODEBOOK, type=Path)
    parser.add_argument("--db-start", default=0.0, type=float)
    parser.add_argument("--db-stop", default=7.0, type=float)
    parser.add_argument("--db-step", default=0.5, type=float)
    parser.add_argument("--trials", default=200_000, type=int)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--output", default=None, type=Path)
    args = parser.parse_args()

    cb = load_codebook(args.codebook)

    header = ["es_n0_db", "group_err", "cw_err", "ml_group_err", "mlg_bound", "ml_bound"]
    dbs = []
    db = args.db_start
    while db <= args.db_stop + 1e-9:
        dbs.append(db)
        db += args.db_step
    lins = [db_to_linear(db) for db in dbs]
    results = simulate_awgn_sweep(cb, lins, args.trials, args.seed) if dbs else []
    rows = []
    for db, lin, res in zip(dbs, lins, results):
        rows.append(
            [
                db,
                res.group_error_rate,
                res.codeword_error_rate,
                res.ml_group_error_rate,
                gep_union_bound(cb, lin, "MLG"),
                gep_union_bound(cb, lin, "ML"),
            ]
        )
        print(
            f"{db:5.1f} dB  group {res.group_error_rate:.3e}  cw {res.codeword_error_rate:.3e}"
            f"  bound {rows[-1][4]:.3e}",
            file=sys.stderr,
        )

    out = open(args.output, "w", newline="") if args.output else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


if __name__ == "__main__":
    main()
