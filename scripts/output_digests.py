#!/usr/bin/env python3
"""Print a digest of every benchmark job's output, one line per job.

    python3 scripts/output_digests.py --seed 3 --seed 11 > digests.txt
    python3 scripts/output_digests.py --root ../parent --seed 3 --seed 11 > parent.txt
    diff parent.txt digests.txt

For each --seed and each workload in perfbench/workloads.py (awgn, solvers,
typicality, cli_small), the script builds the jobs of one pass, runs each
through `sebits.cli.main` in order, and prints the workload, the seed, the
exit code, the sha256 of the output file ("-" when there is none) and the
argv.  Inputs and outputs go to a temporary directory, written as <work> in
the argv, so the lines of two checkouts compare with `diff`.  --root names
the checkout whose src/, perfbench/ and fixtures/ are used; it defaults to
the one holding this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "-"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()

    root = args.root.resolve()
    os.chdir(root)  # the workloads read fixtures/ relative to the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import sebits.cli
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seed:
            for name in WORKLOADS:
                work = Path(tmp) / f"{name}_{seed}"
                work.mkdir()
                for job in WORKLOADS[name].build(work, seed):
                    with contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = sebits.cli.main(job.cli_argv())
                        except Exception as e:  # a crash is an outcome to compare too
                            code = f"raised:{type(e).__name__}"
                    argv = " ".join(job.cli_argv()).replace(str(work), "<work>")
                    print(name, seed, code, digest(job.out), argv, flush=True)


if __name__ == "__main__":
    main()
