"""The four workloads: seeded inputs, the job list of one pass, output checks.

A job is one `sebits` CLI invocation that writes its result to a file with
`-o`.  Each workload builder writes its generated inputs into a work
directory and returns the jobs of one pass, in order; later jobs may read
files that earlier jobs of the same pass wrote (huffman -> encode -> decode).
Every job carries a check that reads its output and returns a reason when
the output is wrong, or None.

This module imports numpy only, so the checks do not lean on the code under
test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FIXTURES = Path("fixtures")

# Dirichlet(1) instances whose solver cost sets a pass's length are drawn once
# from this fixed seed.  Solver time on fresh Dirichlet draws is heavy-tailed.
# On a 2-core x86-64 host with numpy 2.4 and OpenBLAS 0.3.31, 3x3 capacity
# took 0.09-1.2 s (coefficient of variation 0.94) and the 8-symbol enumeration
# at n = 14-16 4.6-7.0 s, so fresh draws per seed would make seed-to-seed
# spread exceed any usable bound.  The run seed relabels the symbols of the
# 3x3 channels and of the 8-symbol source: the same problem at the same cost,
# but different input bytes and a different enumeration order.
POOL_SEED = 0


@dataclass
class Job:
    """One CLI call: `sebits.cli.main(argv + ["-o", out])`."""

    argv: list[str]
    out: Path
    check: Callable[[str], str | None]

    def cli_argv(self) -> list[str]:
        return [*self.argv, "-o", str(self.out)]


@dataclass
class Workload:
    name: str
    build: Callable[[Path, int], list[Job]]  # jobs[0] doubles as the untimed warm-up job
    replay: int  # index of the job rerun for the byte-identical output check


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _relabel_matrix(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return w[rng.permutation(w.shape[0])][:, rng.permutation(w.shape[1])]


def wilson_upper_margin(p_hat: float, trials: int, z: float = 3.0) -> float:
    """Half-width of the Wilson score interval at z standard errors."""
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))


def h2(x: float) -> float:
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------------
# awgn: simulate on the Table VIII grouped Hamming codebook
# ---------------------------------------------------------------------------

AWGN_JOBS = 10
# Exactly one full decoder batch (2^15 trials) per point: each job allocates
# the same (batch, M, n) temporaries as the README's million-trial run, and a
# run still holds 100+ jobs, so p90 has 10 samples beyond it.
AWGN_TRIALS = 1 << 15
AWGN_SNR_DB = (0.0, 1.5, 3.0)
AWGN_HEADER = ["es_n0_db", "group_err", "cw_err", "mlg_bound", "ml_bound"]


def _check_awgn(text: str) -> str | None:
    header, rows = _csv_rows(text)
    if header != AWGN_HEADER:
        return f"header {header}"
    if [float(r[0]) for r in rows] != list(AWGN_SNR_DB):
        return f"rows for {[r[0] for r in rows]}"
    for row in rows:
        db, group_err, cw_err, mlg_bound, ml_bound = map(float, row)
        if not (0.0 <= group_err <= 1.0 and 0.0 <= cw_err <= 1.0):
            return f"error rate outside [0, 1] at {db} dB"
        if group_err > mlg_bound + wilson_upper_margin(group_err, AWGN_TRIALS):
            return f"group_err {group_err} above MLG bound {mlg_bound} at {db} dB"
        if cw_err > ml_bound + wilson_upper_margin(cw_err, AWGN_TRIALS):
            return f"cw_err {cw_err} above ML bound {ml_bound} at {db} dB"
    return None


def build_awgn(work: Path, seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    snr = ",".join(f"{db:g}" for db in AWGN_SNR_DB)
    return [
        Job(["simulate", "--codebook", _fixture("tableVIII_codebook.json"),
             "--es-n0-db", snr, "--trials", str(AWGN_TRIALS), "--seed", str(int(s))],
            work / f"awgn_{i}.csv",
            _check_awgn,
        )
        for i, s in enumerate(rng.integers(0, 2**31, size=AWGN_JOBS))
    ]


# ---------------------------------------------------------------------------
# solvers: capacity and rate-distortion, no Monte Carlo
# ---------------------------------------------------------------------------

SOLVER_CHANNELS_3X3 = 4
RD_BINARY_TARGETS = (0.05, 0.15, 0.25, 0.35)


def _check_capacity(nx: int, ny: int, identity_only: bool):
    def check(text: str) -> str | None:
        out = json.loads(text)
        c_s, c_classic = out["c_s"], out["c_classic"]
        if not c_s <= math.log2(nx) + math.log2(ny) + 1e-9:
            return f"c_s {c_s} above log2 Nx + log2 Ny"
        if identity_only:
            if abs(c_s - c_classic) > 1e-4:
                return f"identity-only c_s {c_s} differs from BA {c_classic}"
        elif c_s < c_classic - 1e-6:
            return f"c_s {c_s} below classic capacity {c_classic}"
        return None

    return check


def _check_rd(target: float):
    def check(text: str) -> str | None:
        out = json.loads(text)
        r_s = out["r_s"]
        if abs(r_s - (1.0 - h2(target))) > 5e-3:
            return f"r_s {r_s} far from 1 - h2({target})"
        if r_s > out["r_classic"] + 1e-6:
            return f"r_s {r_s} above classic R(D) {out['r_classic']}"
        if out["distortion_achieved"] > target + 1e-9:
            return f"distortion {out['distortion_achieved']} above target {target}"
        return None

    return check


def build_solvers(work: Path, seed: int) -> list[Job]:
    pool = np.random.default_rng(POOL_SEED)
    channels = [pool.dirichlet(np.ones(3), size=3) for _ in range(SOLVER_CHANNELS_3X3)]
    rng = np.random.default_rng(seed)
    channels = [_relabel_matrix(w, rng) for w in channels]
    jobs = []
    for i, w in enumerate(channels):
        path = _write_json(work / f"channel_{i}.json", {"transition": w.tolist()})
        nx, ny = w.shape
        for identity_only in (True, False):
            argv = ["capacity", "--channel", path] + (["--identity-only"] if identity_only else [])
            suffix = "identity" if identity_only else "full"
            jobs.append(Job(argv, work / f"capacity_{i}_{suffix}.json",
                            _check_capacity(nx, ny, identity_only)))

    hamming = _write_json(work / "hamming2.json", {"values": [[0.0, 1.0], [1.0, 0.0]]})
    binary = _write_json(work / "binary.json", {"probs": [0.5, 0.5]})
    for d in RD_BINARY_TARGETS:
        jobs.append(Job(["rate-distortion", "--dist", binary, "--distortion", hamming, "--d-target", str(d)],
                        work / f"rd_binary_{d}.json", _check_rd(d)))
    return jobs


# ---------------------------------------------------------------------------
# typicality: exact composition sweeps and joint Monte Carlo
# ---------------------------------------------------------------------------

TYPICAL_EPS_EXACT = 0.2
TYPICAL_SWEEP = tuple(range(1, 13))
TYPICAL_8SYM_N = 12
TYPICAL_MC_N = 200
TYPICAL_MC_TRIALS = 20_000
TYPICAL_MC_EPS = 0.1
TYPICAL_SWEEP_HEADER = ["n", "prob_typical", "set_size", "lower_bound", "upper_bound", "bound_satisfied"]


def _check_sweep(text: str) -> str | None:
    header, rows = _csv_rows(text)
    if header != TYPICAL_SWEEP_HEADER:
        return f"header {header}"
    if [int(r[0]) for r in rows] != list(TYPICAL_SWEEP):
        return "sweep rows do not match the requested n values"
    bad = [r[0] for r in rows if r[5] != "1"]
    return f"bound not satisfied at n = {bad}" if bad else None


def _check_exact(text: str) -> str | None:
    out = json.loads(text)
    return None if out["bound_satisfied"] is True else f"bound not satisfied at n = {out['n']}"


def _check_correlated(text: str) -> str | None:
    out = json.loads(text)
    if out["prob_typical"] > 1.0 - out["epsilon"]:
        return None
    return f"p_hat {out['prob_typical']} not above 1 - eps"


def _check_independent(text: str) -> str | None:
    out = json.loads(text)
    if out["prob_typical"] > out["upper_bound"]:
        return f"p_hat {out['prob_typical']} above upper bound {out['upper_bound']}"
    if out["detail"]["encoding_upper_ok"] is not True:
        return "encoding probe above its upper bound"
    return None


def build_typicality(work: Path, seed: int) -> list[Job]:
    pool = np.random.default_rng(POOL_SEED)
    probs = pool.dirichlet(np.ones(8))
    rng = np.random.default_rng(seed)
    label = rng.permutation(8)  # pool symbol i becomes symbol label[i]
    relabelled = np.empty(8)
    relabelled[label] = probs
    dist = _write_json(work / "source8.json", {"probs": relabelled.tolist()})
    part = _write_json(work / "partition8.json",
                       {"blocks": [sorted(label[:4].tolist()), sorted(label[4:].tolist())]})

    table1 = ["--dist", _fixture("tableI_dist.json"), "--partition", _fixture("tableI_partition.json")]
    jobs = [Job(["typicality", *table1, "--sweep", ",".join(map(str, TYPICAL_SWEEP)),
                 "--eps", str(TYPICAL_EPS_EXACT)],
                work / "sweep_table1.csv", _check_sweep)]
    jobs.append(Job(["typicality", "--dist", dist, "--partition", part, "--n", str(TYPICAL_8SYM_N),
                     "--eps", str(TYPICAL_EPS_EXACT)],
                    work / "exact8.json", _check_exact))
    joint = ["--joint", _fixture("tableII_joint.json"),
             "--u-partition", _fixture("tableIII_u_partition.json"),
             "--v-partition", _fixture("tableIII_v_partition.json")]
    for mode, check in (("correlated", _check_correlated), ("independent", _check_independent)):
        jobs.append(Job(["typicality", *joint, "--n", str(TYPICAL_MC_N), "--trials", str(TYPICAL_MC_TRIALS),
                         "--eps", str(TYPICAL_MC_EPS), "--mc-mode", mode,
                         "--seed", str(int(rng.integers(0, 2**31)))],
                        work / f"joint_{mode}.json", check))
    return jobs


# ---------------------------------------------------------------------------
# cli_small: many light subcommands on the fixtures
# ---------------------------------------------------------------------------

CLI_ROUNDS = 15
CLI_STREAM_SYMBOLS = 20_000
README_H = 2.4709505944546684
README_HS = 1.9709505944546686
README_MLG_BOUND = 0.8303
GAUSSIAN_GRID = (-2.0, 20.0, 45)
SCHEMA_FIXTURES = (
    ("tableI_dist.json", "distribution"),
    ("tableI_partition.json", "partition"),
    ("tableII_joint.json", "joint"),
    ("tableIII_u_partition.json", "partition"),
    ("tableIII_v_partition.json", "partition"),
    ("tableVI_dist.json", "distribution"),
    ("tableVI_partition.json", "partition"),
    ("tableVII_partition.json", "partition"),
    ("tableVIII_codebook.json", "codebook"),
)


def _check_measures_dist(text: str) -> str | None:
    out = json.loads(text)
    if abs(out["H"] - README_H) > 1e-12 or abs(out["Hs"] - README_HS) > 1e-12:
        return f"H, Hs = {out['H']}, {out['Hs']}"
    return None


def _check_measures_joint(text: str) -> str | None:
    out = json.loads(text)
    if not all(math.isfinite(v) for v in out.values()):
        return "non-finite measure"
    if not out["I_down"] - 1e-12 <= out["I"] <= out["I_up"] + 1e-12:
        return f"I {out['I']} outside [I_down {out['I_down']}, I_up {out['I_up']}]"
    return None


def _check_huffman(text: str) -> str | None:
    out = json.loads(text)
    return None if out["kraft_sum"] <= 1.0 + 1e-12 else f"Kraft sum {out['kraft_sum']}"


def _check_bits(text: str) -> str | None:
    return None if set(text.strip()) <= {"0", "1"} else "stream holds non-binary digits"


def _check_roundtrip(symbols: np.ndarray, block_of: np.ndarray):
    def check(text: str) -> str | None:
        decoded = np.array(text.split(), dtype=int)
        if decoded.shape != symbols.shape:
            return f"decoded {decoded.size} symbols, sent {symbols.size}"
        wrong = int((block_of[decoded] != block_of[symbols]).sum())
        return f"{wrong} decoded symbols in the wrong block" if wrong else None

    return check


def _check_chancode(text: str) -> str | None:
    out = json.loads(text)
    if out["d_gh_min"] != 2 or abs(out["mlg_bound"] - README_MLG_BOUND) > 1e-4:
        return f"d_gh_min {out['d_gh_min']}, MLG bound {out['mlg_bound']}"
    return None


def _check_gaussian(text: str) -> str | None:
    _, rows = _csv_rows(text)
    if len(rows) != GAUSSIAN_GRID[2]:
        return f"{len(rows)} rows"
    return None if all(math.isfinite(float(v)) for r in rows for v in r) else "non-finite value"


def _check_schema(text: str) -> str | None:
    out = json.loads(text)
    return f"violations {out['violations']}" if out["violations"] else None


def build_cli_small(work: Path, seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    huffman_dist = json.loads((FIXTURES / "tableVI_dist.json").read_text())["probs"]
    blocks = json.loads((FIXTURES / "tableVII_partition.json").read_text())["blocks"]
    block_of = np.empty(sum(len(b) for b in blocks), dtype=int)
    for k, b in enumerate(blocks):
        block_of[b] = k

    table1 = ["--dist", _fixture("tableI_dist.json"), "--partition", _fixture("tableI_partition.json")]
    joint = ["--joint", _fixture("tableII_joint.json"),
             "--u-partition", _fixture("tableIII_u_partition.json"),
             "--v-partition", _fixture("tableIII_v_partition.json")]
    huffman = ["--partition", _fixture("tableVII_partition.json")]
    start, stop, points = GAUSSIAN_GRID
    jobs = []
    for r in range(CLI_ROUNDS):
        symbols = rng.choice(len(huffman_dist), size=CLI_STREAM_SYMBOLS, p=huffman_dist)
        sym_path = work / f"symbols_{r}.txt"
        sym_path.write_text(" ".join(map(str, symbols)))
        code, stream = work / f"code_{r}.json", work / f"stream_{r}.txt"
        schema_file, kind = SCHEMA_FIXTURES[r % len(SCHEMA_FIXTURES)]
        jobs += [
            Job(["measures", *table1], work / f"measures_dist_{r}.json", _check_measures_dist),
            Job(["measures", *joint], work / f"measures_joint_{r}.json", _check_measures_joint),
            Job(["huffman", "--dist", _fixture("tableVI_dist.json"), *huffman], code, _check_huffman),
            Job(["encode", "--code", str(code), *huffman, "--input", str(sym_path)], stream, _check_bits),
            Job(["decode", "--code", str(code), *huffman, "--input", str(stream)],
                work / f"decoded_{r}.txt", _check_roundtrip(symbols, block_of)),
            Job(["chancode", "--codebook", _fixture("tableVIII_codebook.json"), "--es-n0", "1.0"],
                work / f"chancode_{r}.json", _check_chancode),
            # `--grid -2,20,45` (as the top-level README writes it) is rejected
            # by argparse because the value starts with '-'; `=` is required.
            Job(["gaussian", "--curve", "capacity_vs_ebn0", f"--grid={start:g},{stop:g},{points}"],
                work / f"gaussian_{r}.csv", _check_gaussian),
            Job(["schema-check", "--file", _fixture(schema_file), "--kind", kind],
                work / f"schema_{r}.json", _check_schema),
            Job(["typicality", *table1, "--n", "8", "--eps", str(TYPICAL_EPS_EXACT)],
                work / f"typical8_{r}.json", _check_exact),
        ]
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("awgn", build_awgn, replay=0),
        Workload("solvers", build_solvers, replay=1),
        Workload("typicality", build_typicality, replay=0),
        Workload("cli_small", build_cli_small, replay=4),
    )
}
