"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one ``ACCEPTANCE`` line (run with ``pytest -s`` to see
them inline) before asserting, so the pass/fail record survives either way.

Two checks restate reference values that the shipped inputs contradict; they
are implemented exactly as stated and fail honestly (see the notes in each
test and the repository README):

* criterion 4's classic distance spectrum {3: 8, 4: 6, 7: 1} (the listed
  sixteen codewords have weight enumerator 7/7/1),
* criterion 4's ML union bound 0.5091 at unit SNR (follows from the 8/6/1
  spectrum; the honest spectrum gives 0.4776),
* criterion 7's joint convexity of the semantic-vs-syntactic relative entropy
  (a one-block counterexample gives 1.0 against 0.152).
"""

import itertools
import math
import time

import numpy as np
import pytest

from sebits.chancode import (
    AwgnConfig,
    classic_distance_spectrum,
    gep_union_bound,
    min_group_hamming_distance,
    ml_decode,
    mlg_decode,
    simulate_awgn,
    singleton_codebook,
)
from sebits.core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    marginals,
)
from sebits.gaussian import (
    bandlimited_semantic_capacity,
    emit_curves,
    gaussian_semantic_capacity,
    gaussian_semantic_rd,
    min_energy_per_sebit,
)
from sebits.measures import (
    conditional_entropy,
    down_smi,
    entropy,
    full_smi,
    joint_entropy,
    mutual_information,
    semantic_conditional_entropy,
    semantic_entropy,
    semantic_joint_entropy,
    semantic_relative_entropy,
    up_smi,
)
from sebits.optimize import (
    blahut_arimoto_capacity,
    blahut_arimoto_rd,
    hamming_distortion,
    semantic_capacity,
    semantic_rate_distortion,
)
from sebits.srccode import (
    average_length,
    build_semantic_huffman,
    decode_sequence,
    encode_sequence,
)
from sebits.typicality import enumerate_typical_sets

from conftest import random_joint, random_partition


def report(criterion: str, checks: dict[str, bool]):
    failed = [name for name, ok in checks.items() if not ok]
    verdict = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {criterion}: {verdict}")
    assert not failed, f"{criterion} failed: {failed}"


def h2(x: float) -> float:
    if x <= 0 or x >= 1:
        return 0.0
    return float(-(x * np.log2(x) + (1 - x) * np.log2(1 - x)))


# ---------------------------------------------------------------------------
# criterion 1: Table I entropies, < 1 ms
# ---------------------------------------------------------------------------

def test_criterion1_table1(table1_dist, table1_partition):
    entropy(table1_dist)  # warm-up
    timings = []
    for _ in range(20):
        t0 = time.perf_counter()
        h = entropy(table1_dist)
        hs = semantic_entropy(table1_dist, table1_partition)
        timings.append(time.perf_counter() - t0)
    report(
        "criterion 1 (Table I reproduction)",
        {
            "H = 2.471 +/- 1e-3": abs(h - 2.471) < 1e-3,
            "Hs = 1.971 +/- 1e-3": abs(hs - 1.971) < 1e-3,
            "runtime < 1 ms": sorted(timings)[len(timings) // 2] < 1e-3,
        },
    )


# ---------------------------------------------------------------------------
# criterion 2: Tables II-V measures
# ---------------------------------------------------------------------------

def test_criterion2_tables2to5(table2_joint, table3_partitions):
    j, fj = table2_joint, table3_partitions
    pu, pv = marginals(j)
    fu, fv = fj.u_partition, fj.v_partition
    tol = 1e-3
    values = {
        "H(U,V)=3.5842": (joint_entropy(j), 3.5842),
        "Hs(U~,V~)=2.7087": (semantic_joint_entropy(j, fj), 2.7087),
        "H(U|V)=1.3377": (conditional_entropy(j, "u_given_v"), 1.3377),
        "H(V|U)=1.6132": (conditional_entropy(j, "v_given_u"), 1.6132),
        "Hs(U~|V)=0.6623": (semantic_conditional_entropy(j, fu, "u_given_v"), 0.6623),
        "Hs(V~|U)=1.4755": (semantic_conditional_entropy(j, fv, "v_given_u"), 1.4755),
        "I(U;V)=0.6332": (mutual_information(j), 0.6332),
        "up=1.5087": (up_smi(j, fj), 1.5087),
        "down=-0.6422": (down_smi(j, fj), -0.6422),
        "H(V)-Hs(V~|U)=0.7709": (
            entropy(pv) - semantic_conditional_entropy(j, fv, "v_given_u"),
            0.7709,
        ),
        "H(U)-Hs(U~|V)=1.3087": (
            entropy(pu) - semantic_conditional_entropy(j, fu, "u_given_v"),
            1.3087,
        ),
    }
    report(
        "criterion 2 (Tables II-V reproduction)",
        {name: abs(got - want) < tol for name, (got, want) in values.items()},
    )


# ---------------------------------------------------------------------------
# criterion 3: worked coding example
# ---------------------------------------------------------------------------

def test_criterion3_huffman_example(huffman_dist, huffman_partition):
    f_id = SynonymousPartition.identity(4)
    classic = build_semantic_huffman(huffman_dist, f_id)
    semantic = build_semantic_huffman(huffman_dist, huffman_partition)
    seq = [0, 0, 2, 3, 1, 2, 1]
    xs = encode_sequence(seq, semantic, huffman_partition)
    x = encode_sequence(seq, classic, f_id)
    decoded = decode_sequence(xs, semantic, huffman_partition)
    blocks = huffman_partition.block_of
    report(
        "criterion 3 (semantic Huffman example)",
        {
            "semantic average exactly 1.5": average_length(semantic, huffman_dist, huffman_partition) == 1.5,
            "classic average exactly 1.75": average_length(classic, huffman_dist, f_id) == 1.75,
            "semantic encoding length 12": len(xs) == 12,
            "classic encoding length 15": len(x) == 15,
            "round trip preserves blocks": [blocks[s] for s in decoded] == [blocks[s] for s in seq],
        },
    )


# ---------------------------------------------------------------------------
# criterion 4: Table VIII distances and bounds
# ---------------------------------------------------------------------------

def test_criterion4_group_distances_and_mlg_bound(hamming_codebook):
    d_min, spectrum = min_group_hamming_distance(hamming_codebook)
    mlg = gep_union_bound(hamming_codebook, 1.0, "MLG")
    report(
        "criterion 4a (group distances and MLG bound)",
        {
            "d_GH,min = 2": d_min == 2.0,
            "group spectrum {(2,2): 6, (4,4): 1}": spectrum
            == {(2.0, 2.0): 6.0, (4.0, 4.0): 1.0},
            "MLG bound 0.8303 +/- 1e-4": abs(mlg - 0.8303) < 1e-4,
        },
    )


def test_criterion4_reference_classic_spectrum(hamming_codebook):
    """The reference classic spectrum {3: 8, 4: 6, 7: 1} and the ML bound
    0.5091 that follows from it.  The sixteen listed codewords actually have
    seven weight-3 and seven weight-4 words (any such code does), so the
    honest computation yields {3: 7, 4: 7, 7: 1} and an ML bound of 0.4776.
    This check states the reference numbers verbatim and fails accordingly.
    """
    spectrum = classic_distance_spectrum(hamming_codebook)
    ml = gep_union_bound(hamming_codebook, 1.0, "ML")
    report(
        "criterion 4b (reference classic spectrum; known erratum)",
        {
            "classic spectrum {3: 8, 4: 6, 7: 1}": spectrum == {3: 8.0, 4: 6.0, 7: 1.0},
            "ML bound 0.5091 +/- 1e-4": abs(ml - 0.5091) < 1e-4,
        },
    )


# ---------------------------------------------------------------------------
# criterion 5: decoder oracle equivalence, < 10 s
# ---------------------------------------------------------------------------

def test_criterion5_decoder_oracles(hamming_codebook):
    rng = np.random.default_rng(55)
    cb = hamming_codebook
    single = singleton_codebook(cb.codewords)
    t0 = time.perf_counter()

    ys = rng.normal(0.0, 1.5, size=(10_000, 7))
    signals = cb.signals()
    mlg_ok = 0
    for y in ys:
        d2 = ((y[None, :] - signals) ** 2).sum(axis=1)
        loglik = np.array([
            -d2[list(g)].sum() for g in cb.groups
        ])  # log-likelihood sums reduce to negated distance sums over AWGN
        mlg_ok += mlg_decode(y, cb) == int(np.argmax(loglik))

    singleton_ok = sum(mlg_decode(y, single) == ml_decode(y, single) for y in ys)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (decoder oracle equivalence)",
        {
            "MLG matches likelihood-sum oracle on 10^4 vectors": mlg_ok == 10_000,
            "singleton MLG equals ML on 10^4 vectors": singleton_ok == 10_000,
            "runtime < 10 s": elapsed < 10.0,
        },
    )


# ---------------------------------------------------------------------------
# criterion 6: AWGN simulation vs the analytic bound, < 60 s
# ---------------------------------------------------------------------------

def test_criterion6_awgn_simulation(hamming_codebook):
    t0 = time.perf_counter()
    checks = {}
    for es_n0 in (1.0, 2.0, 4.0):
        res = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=es_n0, trials=10**6, seed=60))
        bound = gep_union_bound(hamming_codebook, es_n0, "MLG")
        sigma = res.ci95 / 1.959963984540054
        checks[f"rate <= bound + 3 sigma at Es/N0={es_n0:g}"] = (
            res.group_error_rate <= bound + 3 * sigma
        )
    again = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=2.0, trials=10**6, seed=60))
    reference = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=2.0, trials=10**6, seed=60))
    checks["deterministic under fixed seed"] = again == reference
    checks["runtime < 60 s"] = time.perf_counter() - t0 < 60.0
    report("criterion 6 (AWGN simulation)", checks)


# ---------------------------------------------------------------------------
# criterion 7: inequality property suite on 1000 random instances
# ---------------------------------------------------------------------------

def test_criterion7_inequality_suite():
    slack = 1e-9
    rng = np.random.default_rng(77)
    ok = {
        "entropy sandwich": True,
        "chain sandwich": True,
        "companion orderings": True,
        "relative-entropy orderings": True,
        "non-negativity": True,
        "entropy concavity": True,
        "provable relative-entropy convexity": True,
        "companion concavity/convexity": True,
    }
    for _ in range(1000):
        nu, nv = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        d = Distribution(rng.dirichlet(np.ones(nu)))
        f = random_partition(rng, nu)
        h, hs = entropy(d), semantic_entropy(d, f)
        if not (-slack <= hs <= h + slack <= np.log2(nu) + 2 * slack):
            ok["entropy sandwich"] = False

        j = random_joint(rng, nu, nv)
        fj = JointSynonymousPartition(random_partition(rng, nu), random_partition(rng, nv))
        pu, pv = marginals(j)
        hs_joint = semantic_joint_entropy(j, fj)
        left = semantic_entropy(pu, fj.u_partition) + semantic_conditional_entropy(
            j, fj.v_partition, "v_given_u"
        )
        mid = entropy(pv) + semantic_conditional_entropy(j, fj.u_partition, "u_given_v")
        if not (left <= hs_joint + slack and hs_joint <= mid + slack and mid <= joint_entropy(j) + slack):
            ok["chain sandwich"] = False

        i = mutual_information(j)
        lo, hi, fl = down_smi(j, fj), up_smi(j, fj), full_smi(j, fj)
        via_cond = entropy(pv) - semantic_conditional_entropy(j, fj.v_partition, "v_given_u")
        if not (lo <= i + slack and i <= via_cond + slack and via_cond <= hi + slack):
            ok["companion orderings"] = False
        if fl < -slack:
            ok["non-negativity"] = False

        p = Distribution(rng.dirichlet(np.ones(nu)))
        q = Distribution(rng.dirichlet(np.ones(nu)))
        d_full = semantic_relative_entropy(p, q, f, "full")
        d_hi = semantic_relative_entropy(p, q, f, "semantic_vs_syntactic")
        d_lo = semantic_relative_entropy(p, q, f, "syntactic_vs_semantic")
        d_classic = float(np.sum(p.probs * np.log2(p.probs / q.probs)))
        if not (
            d_full >= -slack
            and d_lo <= d_full + slack <= d_hi + 2 * slack
            and d_lo <= d_classic + slack <= d_hi + 2 * slack
        ):
            ok["relative-entropy orderings"] = False

        theta = rng.uniform()
        p2 = Distribution(rng.dirichlet(np.ones(nu)))
        mix = Distribution(theta * p.probs + (1 - theta) * p2.probs)
        if semantic_entropy(mix, f) < (
            theta * semantic_entropy(p, f) + (1 - theta) * semantic_entropy(p2, f) - 1e-12
        ):
            ok["entropy concavity"] = False

        q2 = Distribution(rng.dirichlet(np.ones(nu)))
        mix_q = Distribution(theta * q.probs + (1 - theta) * q2.probs)
        for mode in ("full", "syntactic_vs_semantic"):
            lhs = semantic_relative_entropy(mix, mix_q, f, mode)
            rhs = theta * semantic_relative_entropy(p, q, f, mode) + (
                1 - theta
            ) * semantic_relative_entropy(p2, q2, f, mode)
            if lhs > rhs + 1e-12:
                ok["provable relative-entropy convexity"] = False

        w = rng.dirichlet(np.ones(nv), size=nu)
        pa, pb = rng.dirichlet(np.ones(nu)), rng.dirichlet(np.ones(nu))
        mix_in = theta * pa + (1 - theta) * pb
        up_mix = up_smi(JointDistribution(mix_in[:, None] * w), fj)
        up_split = theta * up_smi(JointDistribution(pa[:, None] * w), fj) + (
            1 - theta
        ) * up_smi(JointDistribution(pb[:, None] * w), fj)
        w2 = rng.dirichlet(np.ones(nv), size=nu)
        mix_w = theta * w + (1 - theta) * w2
        down_mix = down_smi(JointDistribution(pa[:, None] * mix_w), fj)
        down_split = theta * down_smi(JointDistribution(pa[:, None] * w), fj) + (
            1 - theta
        ) * down_smi(JointDistribution(pa[:, None] * w2), fj)
        if up_mix < up_split - 1e-12 or down_mix > down_split + 1e-12:
            ok["companion concavity/convexity"] = False

    report("criterion 7 (inequality property suite, 1000 instances)", ok)


def test_criterion7_reference_joint_convexity_all_modes():
    """The reference property makes all three relative-entropy forms jointly
    convex in (p, q).  The semantic-vs-syntactic form is not: with a single
    block, p1=(1,0), q1=(0.9,0.1), p2=(0,1), q2=(0.1,0.9), theta=1/2, the
    mixture evaluates to 1.0 while the convex split gives 0.152.  This check
    states the reference property verbatim and fails accordingly.
    """
    slack = 1e-9
    rng = np.random.default_rng(78)
    holds = True
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        f = random_partition(rng, n)
        p1, p2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        q1, q2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        theta = rng.uniform()
        mix_p = Distribution(theta * p1 + (1 - theta) * p2)
        mix_q = Distribution(theta * q1 + (1 - theta) * q2)
        lhs = semantic_relative_entropy(mix_p, mix_q, f, "semantic_vs_syntactic")
        rhs = theta * semantic_relative_entropy(
            Distribution(p1), Distribution(q1), f, "semantic_vs_syntactic"
        ) + (1 - theta) * semantic_relative_entropy(
            Distribution(p2), Distribution(q2), f, "semantic_vs_syntactic"
        )
        if lhs > rhs + slack:
            holds = False
            break
    report(
        "criterion 7b (reference joint convexity of all three forms; known erratum)",
        {"semantic-vs-syntactic form jointly convex": holds},
    )


# ---------------------------------------------------------------------------
# criterion 8: solver sanity
# ---------------------------------------------------------------------------

def test_criterion8_capacity_solvers():
    rng = np.random.default_rng(88)
    checks = {}

    two_by_two = [
        ChannelModel(np.array([[1 - a, a], [b, 1 - b]]))
        for a in (0.0, 0.11, 0.3, 0.5)
        for b in (0.0, 0.2, 0.45)
    ] + [ChannelModel(rng.dirichlet(np.ones(2), size=2)) for _ in range(8)]
    ok_identity = True
    ok_dominates = True
    for ch in two_by_two:
        res = semantic_capacity(ch)
        if abs(semantic_capacity(ch, identity_only=True).c_s - res.c_classic) > 1e-4:
            ok_identity = False
        if res.c_s < res.c_classic - 1e-6:
            ok_dominates = False
    checks["identity-only equals Blahut-Arimoto on 2x2"] = ok_identity

    for _ in range(3):
        ch = ChannelModel(rng.dirichlet(np.ones(3), size=3))
        res = semantic_capacity(ch)
        if abs(semantic_capacity(ch, identity_only=True).c_s - res.c_classic) > 1e-4:
            ok_identity = False
        if res.c_s < res.c_classic - 1e-6:
            ok_dominates = False
    checks["identity-only equals Blahut-Arimoto on 3x3 sample"] = ok_identity
    checks["C_s >= C on every enumerated instance"] = ok_dominates

    merged = semantic_capacity(ChannelModel(np.eye(2)))
    checks["noiseless binary full merging gives 2.0 +/- 1e-4"] = abs(merged.c_s - 2.0) < 1e-4
    report("criterion 8a (capacity solvers)", checks)


def test_criterion8_rate_distortion_solver():
    src = Distribution(np.array([0.5, 0.5]))
    ds = hamming_distortion(2)
    ok_value = True
    ok_order = True
    for target in np.arange(0.05, 0.46, 0.05):
        res = semantic_rate_distortion(src, ds, float(target))
        if abs(res.r_s - (1 - h2(float(target)))) > 5e-3:
            ok_value = False
        if res.r_s > res.r_classic + 1e-6:
            ok_order = False
    report(
        "criterion 8b (rate-distortion solver)",
        {
            "reproduces 1 - H(D) within 5e-3 on the D grid": ok_value,
            "R_s(D) <= R(D) everywhere": ok_order,
        },
    )


# ---------------------------------------------------------------------------
# criterion 9: typicality
# ---------------------------------------------------------------------------

def test_criterion9_typicality():
    d = Distribution(np.array([0.5, 0.25, 0.25]))
    f = SynonymousPartition(((0,), (1, 2)), 3)
    tiling_ok = True
    bounds_ok = True
    for n in range(1, 13):
        rep = enumerate_typical_sets(d, f, n, 0.2)
        if not rep.detail["partition_exact"]:
            tiling_ok = False
        if rep.set_size > rep.upper_bound or not rep.detail["b_upper_ok"]:
            bounds_ok = False

    # Monte Carlo: Pr of the semantic typical set at n=200, eps=0.1, 1e5 draws
    sem = induced_semantic_distribution(
        Distribution(np.array([0.3, 0.15, 0.15, 0.2, 0.1, 0.1])),
        SynonymousPartition(((0,), (1, 2), (3,), (4, 5)), 6),
    )
    hs = entropy(sem)
    rng = np.random.Generator(np.random.Philox(key=99))
    seqs = rng.choice(sem.alphabet_size, size=(100_000, 200), p=sem.probs)
    rates = -np.log2(sem.probs[seqs]).sum(axis=1) / 200
    prob = float(np.mean(np.abs(rates - hs) < 0.1))
    report(
        "criterion 9 (typicality)",
        {
            "B classes tile A exactly for n <= 12": tiling_ok,
            "non-asymptotic upper bounds hold at every n": bounds_ok,
            "Monte Carlo Pr > 1 - eps at n=200": prob > 0.9,
        },
    )


# ---------------------------------------------------------------------------
# criterion 10: Gaussian closed forms
# ---------------------------------------------------------------------------

def test_criterion10_gaussian():
    rng = np.random.default_rng(110)
    shannon_ok = True
    for _ in range(1000):
        p = float(rng.uniform(0.05, 20.0))
        sigma2 = float(rng.uniform(0.05, 20.0))
        c_s, lower = gaussian_semantic_capacity(p, sigma2, 1.0)
        shannon = 0.5 * math.log2(1 + p / sigma2)
        if abs(c_s - shannon) > 1e-12 or abs(lower - shannon) > 1e-12:
            shannon_ok = False

    limits_ok = True
    for s in (1.0, 2.0, 4.0):
        _, lower = bandlimited_semantic_capacity(1.0, 1.0, 1e8, s)
        if abs(lower - s**4 / math.log(2)) > 0.01 * s**4 / math.log(2):
            limits_ok = False
        e0 = min_energy_per_sebit(1e-6, s)
        if abs(e0 - math.log(2) / s**4) > 0.01 * math.log(2) / s**4:
            limits_ok = False
        cut = 1.0 / s**4
        if gaussian_semantic_rd(1.0, cut * 1.001, s) != 0.0:
            limits_ok = False
        if s > 1 and gaussian_semantic_rd(1.0, cut * 0.999, s) <= 0.0:
            limits_ok = False

    _, cap_rows = emit_curves(
        "capacity_vs_ebn0", {"s_values": [2, 4, 8]}, np.linspace(-1.5, 20, 40)
    )
    cap_ok = all(all(v >= row[1] - 1e-9 for v in row[2:]) for row in cap_rows)
    _, e_rows = emit_curves("min_energy_vs_mu", {"s_values": [2, 4]}, np.linspace(0.2, 4, 30))
    energy_ok = all(row[2] < row[1] and row[3] < row[2] for row in e_rows)
    _, rd_rows = emit_curves("rd_vs_d", {"p": 1.0, "s_values": [1.5, 2]}, np.linspace(0.02, 0.98, 40))
    rd_ok = all(row[2] < row[1] and row[3] <= row[2] + 1e-12 for row in rd_rows)
    report(
        "criterion 10 (Gaussian closed forms)",
        {
            "S=1 equals Shannon within 1e-12 on 1000 points": shannon_ok,
            "limiting values within 1%": limits_ok,
            "capacity curves ordered above classic": cap_ok,
            "energy curves ordered below classic": energy_ok,
            "rate-distortion curves ordered below classic": rd_ok,
        },
    )
