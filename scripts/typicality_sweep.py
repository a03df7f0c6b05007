#!/usr/bin/env python
"""Track the semantic typical set along a doubling block-length schedule.

Exact composition counting reports the set size against its bracket and the
probability mass captured, demonstrating the march toward probability one.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from sebits.cli import load_distribution, load_partition
from sebits.typicality import enumerate_typical_sets

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dist", default=FIXTURES / "tableI_dist.json", type=Path)
    parser.add_argument("--partition", default=FIXTURES / "tableI_partition.json", type=Path)
    parser.add_argument("--eps", default=0.2, type=float)
    parser.add_argument("--n-values", default="1,2,4,8,12", help="comma-separated block lengths")
    args = parser.parse_args()

    d = load_distribution(args.dist)
    f = load_partition(args.partition, d.alphabet_size)

    print(f"{'n':>4} {'|A~|':>12} {'lower':>12} {'upper':>12} {'Pr':>8} {'tiles A':>8}")
    prev = 0.0
    for n in [int(tok) for tok in args.n_values.split(",")]:
        rep = enumerate_typical_sets(d, f, n, args.eps)
        print(
            f"{n:>4} {rep.set_size:>12.0f} {rep.lower_bound:>12.2f} {rep.upper_bound:>12.2f}"
            f" {rep.prob_typical:>8.4f} {str(rep.detail['partition_exact']):>8}"
        )
        if rep.prob_typical + 1e-9 < prev:
            print("      note: probability dipped below the previous length")
        prev = rep.prob_typical


if __name__ == "__main__":
    main()
