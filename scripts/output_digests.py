#!/usr/bin/env python3
"""Print a digest of every benchmark job's output, one line per job.

    python3 scripts/output_digests.py --seed 3 --seed 11 > digests.txt
    python3 scripts/output_digests.py --root ../parent --seed 3 --seed 11 > parent.txt
    diff parent.txt digests.txt

For each --seed and each workload in perfbench/workloads.py (awgn, solvers,
typicality, cli_small), the script builds the jobs of one pass, runs each
through `sebits.cli.main` in order, and prints the workload, the seed, the
exit code, the sha256 of the output file ("-" when there is none; a
`schema-check` report names its input, so the work directory is written as
<work> before hashing), the sha256 of the captured stderr of a job that exits
nonzero ("-" for one that exits 0; the work directory again written as <work>),
so that error messages are compared and not only exit codes, and the argv.  A
fixed set of "extra" jobs outside the benchmark follows, once: the random
decode policy; encode of the same symbols spelled as int() also reads them
(leading zeros, a sign, Arabic-Indic digits, tabs and CRLF) and of the
symbols with one index outside the alphabet; decode of a stream of the
Table VII code that ends inside a codeword and of one with an invalid digit
in the middle; the joint Monte Carlo in both modes at n = 3,
n = 1000 and one trial on Table II, and on a joint where the decoding probe
counts hits, and on Table II the correlated probe at n = 10 and 30 and the
independent probes at n = 6, eps = 0.3, where the exact sums are known;
the independent probes on Table II with identity partitions at n = 6,
eps = 0.3 and n = 20, eps = 0.1 (seed 7), whose decoding probe lumps no
pair; the correlated probe on Table II at n = 2^24, refused before it
builds its table of ln k!; the exact typical sets of Table I at eps = 0.1
swept over n = 1, ..., 12 (CSV: each n's lower bound and verdict);
the same at n = 10 alone (JSON: the per-class bracket flags too);
and R_s(D) beyond the binary case, with a Hamming cost on [0.5, 0.3, 0.2]
at n^ = 4, D = 0.1 and on [0.4, 0.3, 0.2, 0.1] at n^ = 4,
D = 0.2, and the first of them at --tol=-1, which is refused; the second
at n^ = 5 (a positive rate) and n^ = 6 (rate 0), and at n^ = 6 with
--budget 100, which is refused; a uniform 6-symbol source with a 3x3 Hamming
cost at n^ = 5, D = 0.02 (rate 0); the AWGN
simulation on Table VIII at 1 trial and at 12 345 trials (which ends on a
partial batch), and on an n = 8 code, the Table VIII words
with an even-parity bit appended; capacity, full and --identity-only, on a
channel whose optimal input is on the boundary of the simplex, on one with an
all-zero output column and on a seeded random 6x6 channel; chancode and
simulate on a codebook whose two groups have equal sum signals, so that the
MLG decoder always ties between them; simulate on a singleton codebook of
300 seeded distinct length-9 words, whose decision indices need more than
one byte (2 000 trials at 0 and 3 dB, seed 1); and every malformed file of
tests/malformed_inputs.json (read from this script's checkout), run through the subcommand of its kind and, for the
five schema kinds, through `schema-check`; huffman on uniform sources whose
complete codes' Kraft sums round off 1 in floats (9 symbols at arity 3, 6 at
arity 6); and the capacity_vs_ebn0 curve at S = 1, 1.5 and 3 on a grid from
-24 to 4 dB that crosses each ln2/S^4 limit.  Inputs and outputs go to a
temporary directory, written as <work> in the argv, so the lines of two
checkouts compare with `diff`.
--root names the checkout whose src/, perfbench/ and fixtures/ are used; it
defaults to the one holding this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path


def digest(path: Path, work: Path) -> str:
    """sha256 of the file with the work directory written as <work>, as in the argv."""
    try:
        return hashlib.sha256(path.read_bytes().replace(str(work).encode(), b"<work>")).hexdigest()
    except OSError:
        return "-"


def extra_jobs(work: Path) -> list[tuple[list[str], Path]]:
    """(argv, output) of the fixed jobs outside the benchmark, in order."""
    import numpy as np
    from workloads import _write_json

    rng = np.random.default_rng(9)
    probs = json.loads(Path("fixtures/tableVI_dist.json").read_text())["probs"]
    drawn = rng.choice(len(probs), size=20_000, p=probs).tolist()
    symbols = work / "symbols.txt"
    symbols.write_text(" ".join(map(str, drawn)))
    part = ["--partition", "fixtures/tableVII_partition.json"]
    code, stream = work / "code.json", work / "stream.txt"
    jobs = [
        (["huffman", "--dist", "fixtures/tableVI_dist.json", *part], code),
        (["encode", "--code", str(code), *part, "--input", str(symbols)], stream),
        (["decode", "--code", str(code), *part, "--input", str(stream), "--policy", "random", "--seed", "9"],
         work / "decoded.txt"),
    ]
    # the same symbols spelled as int() also reads them, and with one symbol outside [0, 4)
    spellings = (lambda u: f"00{u}", lambda u: f"+{u}", lambda u: chr(0x660 + u), str)
    odd = "".join(spellings[i % 4](u) + ("\t", "\r\n", " ")[i % 3] for i, u in enumerate(drawn))
    half = len(drawn) // 2
    out_of_range = " ".join(map(str, drawn[:half] + [4] + drawn[half:]))
    for name, text in (("symbols_spelled.txt", odd), ("symbols_range.txt", out_of_range)):
        (work / name).write_bytes(text.encode())
        jobs.append((["encode", "--code", str(code), *part, "--input", str(work / name)], work / f"{name}.out"))
    # streams of the Table VII code written here, so that they do not depend on the code under test
    words = ["0", "10", "11"]
    fixed_code = _write_json(work / "code_fixed.json", {"codewords": words, "arity": 2})
    body = "".join(words[k] for k in rng.integers(0, 3, size=20_000))
    for name, text in (("stream_truncated.txt", body + "1"), ("stream_digit.txt", body[:half] + "2" + body[half:])):
        (work / name).write_text(text)
        jobs.append((["decode", "--code", fixed_code, *part, "--input", str(work / name)], work / f"{name}.out"))
    table2 = ["--joint", "fixtures/tableII_joint.json", "--u-partition", "fixtures/tableIII_u_partition.json",
              "--v-partition", "fixtures/tableIII_v_partition.json"]
    # a weakly dependent joint on which the decoding probe's probability is not 0
    weak_matrix = [[0.26, 0.24], [0.12, 0.13], [0.12, 0.13]]
    weak = ["--joint", _write_json(work / "weak.json", {"matrix": weak_matrix}),
            "--u-partition", _write_json(work / "weak_u.json", {"blocks": [[0], [1, 2]]}),
            "--v-partition", _write_json(work / "weak_v.json", {"blocks": [[0], [1]]})]
    both = ("correlated", "independent")
    for joint, n, trials, eps, modes in ((table2, 3, 20_000, 0.1, both), (table2, 1000, 1500, 0.02, both),
                                         (table2, 200, 1, 0.1, both), (weak, 24, 30_000, 0.1, both),
                                         (table2, 10, 20_000, 0.1, ("correlated",)),
                                         (table2, 30, 20_000, 0.1, ("correlated",)),
                                         (table2, 6, 20_000, 0.3, ("independent",))):
        for mode in modes:
            argv = ["typicality", *joint, "--n", str(n), "--trials", str(trials), "--eps", str(eps),
                    "--mc-mode", mode, "--seed", "5"]
            jobs.append((argv, work / f"joint_{mode}_{n}_{trials}.json"))
    # every pair its own representative, so the decoding probe's lumped cell has law 0
    identity = ["--joint", "fixtures/tableII_joint.json",
                "--u-partition", _write_json(work / "identity_u.json", {"blocks": [[k] for k in range(4)]}),
                "--v-partition", _write_json(work / "identity_v.json", {"blocks": [[k] for k in range(5)]})]
    for n, eps in ((6, 0.3), (20, 0.1)):
        argv = ["typicality", *identity, "--n", str(n), "--trials", "20000", "--eps", str(eps),
                "--mc-mode", "independent", "--seed", "7"]
        jobs.append((argv, work / f"joint_identity_{n}.json"))
    # n + 1 entries of ln k! exceed EXHAUSTIVE_STATE_CAP, so the call is refused
    jobs.append((["typicality", *table2, "--n", str(2**24), "--trials", "1", "--eps", "0.1"],
                 work / "joint_table_cap.json"))
    table1 = ["typicality", "--dist", "fixtures/tableI_dist.json", "--partition", "fixtures/tableI_partition.json",
              "--eps", "0.1"]
    jobs.append(([*table1, "--sweep", ",".join(map(str, range(1, 13)))], work / "table1_sweep.csv"))
    jobs.append(([*table1, "--n", "10"], work / "table1_n10.json"))
    for probs, target in (([0.5, 0.3, 0.2], 0.1), ([0.4, 0.3, 0.2, 0.1], 0.2)):
        k = len(probs)
        argv = ["rate-distortion", "--dist", _write_json(work / f"rd{k}.json", {"probs": probs}),
                "--distortion", _write_json(work / f"hamming{k}.json", {"values": (1.0 - np.eye(k)).tolist()}),
                "--d-target", str(target), "--reconstruction-size", "4"]
        jobs.append((argv, work / f"rd_{k}x{k}.json"))
    # a tolerance that is not positive is refused before any round
    argv = ["rate-distortion", "--dist", str(work / "rd3.json"), "--distortion", str(work / "hamming3.json"),
            "--d-target", "0.1", "--tol=-1"]
    jobs.append((argv, work / "rd_tol.json"))
    rd4 = ["rate-distortion", "--dist", str(work / "rd4.json"), "--distortion", str(work / "hamming4.json"),
           "--d-target", "0.2"]
    for flags in (["--reconstruction-size", "5"], ["--reconstruction-size", "6"],
                  ["--reconstruction-size", "6", "--budget", "100"]):
        jobs.append(([*rd4, *flags], work / f"rd_4x4_{'_'.join(flags[1::2])}.json"))
    argv = ["rate-distortion", "--dist", _write_json(work / "uniform6_rd.json", {"probs": [1 / 6] * 6}),
            "--distortion", str(work / "hamming3.json"), "--d-target", "0.02", "--reconstruction-size", "5"]
    jobs.append((argv, work / "rd_uniform6.json"))
    table8 = json.loads(Path("fixtures/tableVIII_codebook.json").read_text())
    parity = {"n": 8, "codewords": [w + str(w.count("1") % 2) for w in table8["codewords"]],
              "groups": table8["groups"]}
    for codebook, trials in (("fixtures/tableVIII_codebook.json", 1), ("fixtures/tableVIII_codebook.json", 12_345),
                             (_write_json(work / "parity8.json", parity), 12_345)):
        argv = ["simulate", "--codebook", codebook, "--es-n0-db", "0,1.5,3", "--trials", str(trials), "--seed", "7"]
        jobs.append((argv, work / f"awgn_{Path(codebook).stem}_{trials}.csv"))
    boundary = [[0.6634490638607984, 0.17789920231940143, 0.15865173381980024],
                [0.011519950965607977, 0.5930180594914135, 0.39546198954297845],
                [0.7468046402560758, 0.25215560168911316, 0.0010397580548109561]]
    zero_column = np.insert(np.random.default_rng(5).dirichlet(np.ones(4), size=5), 2, 0.0, axis=1)
    random6 = np.random.default_rng(6).dirichlet(0.7 * np.ones(6), size=6)
    for name, w in (("boundary", boundary), ("zero_column", zero_column.tolist()), ("random6", random6.tolist())):
        channel = _write_json(work / f"channel_{name}.json", {"transition": w})
        for flags in ([], ["--identity-only"]):
            jobs.append((["capacity", "--channel", channel, *flags], work / f"capacity_{name}{len(flags)}.json"))
    tied = _write_json(work / "tied.json", {"codewords": ["000", "111", "001", "110"], "groups": [[0, 1], [2, 3]]})
    jobs.append((["chancode", "--codebook", tied, "--es-n0", "1.0"], work / "tied_chancode.json"))
    jobs.append((["simulate", "--codebook", tied, "--es-n0-db", "0,10", "--trials", "20000", "--seed", "1"],
                 work / "tied_awgn.csv"))
    # 300 singleton groups, so decision indices run past one byte
    words = [format(int(w), "09b") for w in np.random.default_rng(33).choice(1 << 9, size=300, replace=False)]
    wide = _write_json(work / "wide300.json", {"codewords": words, "groups": [[i] for i in range(300)]})
    jobs.append((["simulate", "--codebook", wide, "--es-n0-db", "0,3", "--trials", "2000", "--seed", "1"],
                 work / "wide300_awgn.csv"))
    malformed = json.loads((Path(__file__).resolve().parent.parent / "tests" / "malformed_inputs.json").read_text())
    for i, (kind, _, doc) in enumerate(malformed["cases"]):
        file = _write_json(work / f"malformed_{i}.json", doc)
        argv = [a.format(file=file, fixtures="fixtures", symbols=symbols) for a in malformed["commands"][kind]]
        jobs.append((argv, work / f"malformed_{i}.out"))
        if kind in malformed["schema_kinds"]:
            jobs.append((["schema-check", "--file", file, "--kind", kind], work / f"malformed_{i}_schema.json"))
    # complete codes whose Kraft sum rounds off 1 in floats
    for size, arity in ((9, 3), (6, 6)):
        uniform = _write_json(work / f"uniform{size}.json", {"probs": [1 / size] * size})
        jobs.append((["huffman", "--dist", uniform, "--arity", str(arity)], work / f"huffman_uniform{size}.json"))
    # the ln2/S^4 limits lie at -1.59, -8.64 and -20.68 dB
    jobs.append((["gaussian", "--curve", "capacity_vs_ebn0", "--s-values", "1,1.5,3", "--grid=-24,4,113"],
                 work / "gaussian_limits.csv"))
    return jobs


def run(name: str, seed, argv: list[str], out: Path, work: Path) -> None:
    """Run one job through the CLI and print its line."""
    import sebits.cli

    argv = [*argv, "-o", str(out)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = sebits.cli.main(argv)
        except Exception as e:  # a crash is an outcome to compare too
            code = f"raised:{type(e).__name__}"
    stderr = "-"
    if code != 0:
        stderr = hashlib.sha256(err.getvalue().replace(str(work), "<work>").encode()).hexdigest()
    print(name, seed, code, digest(out, work), stderr, " ".join(argv).replace(str(work), "<work>"), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()

    root = args.root.resolve()
    os.chdir(root)  # the workloads read fixtures/ relative to the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seed:
            for name in WORKLOADS:
                work = Path(tmp) / f"{name}_{seed}"
                work.mkdir()
                for job in WORKLOADS[name].build(work, seed):
                    run(name, seed, job.argv, job.out, work)
        work = Path(tmp) / "extra"
        work.mkdir()
        for argv, out in extra_jobs(work):
            run("extra", "-", argv, out, work)


if __name__ == "__main__":
    main()
