"""Typical-set membership, exact enumeration, and the Monte Carlo joint probes."""

import itertools
import math
import multiprocessing
import queue
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sebits._kernels import trial_uniforms
from sebits.core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
)
from sebits.errors import BudgetExceeded, IndexOutOfRange
from sebits.measures import (
    down_smi,
    entropy,
    full_smi,
    joint_entropy,
    mutual_information,
    semantic_joint_entropy,
    up_smi,
)
from sebits import _kernels, typicality
from sebits.typicality import (
    _inverse_cdf,
    _log2_probs,
    enumerate_typical_sets,
    estimate_joint_typicality,
    is_semantically_typical,
    is_synonymous_typical,
)

# three-symbol source whose blocks are uniform inside and whose semantic
# distribution is uniform, so the three membership conditions coincide and the
# synonymous classes tile the syntactic typical set exactly at every n
TILE_DIST = Distribution(np.array([0.5, 0.25, 0.25]))
TILE_PART = SynonymousPartition(((0,), (1, 2)), 3)


def _brute_force(d, f, n, eps):
    """Exact-mode fields by literal enumeration of every sequence of length n.

    `b_lower_ok` checks each class B(z) against Pr{B(z) | z} 2^{n(H - Hs - eps)},
    with Pr{B(z) | z} the sum of p(u) / p(z) over the class's members u.
    Also returns the smallest distance of any of the four rates compared
    against eps from the edge, so callers can keep eps off knife edges.
    """
    sem = np.array([d.probs[list(b)].sum() for b in f.blocks])
    h, hs = entropy(d), entropy(Distribution(sem))

    def supported(alphabet, probs):
        seqs = np.array(list(itertools.product(range(alphabet), repeat=n)))
        return seqs[(probs[seqs] > 0).all(axis=1)]

    seqs = supported(d.alphabet_size, d.probs)
    z = f.block_of[seqs]
    rate = -np.log2(d.probs[seqs]).sum(axis=1) / n
    rate_sem = -np.log2(sem[z]).sum(axis=1) / n
    zs = supported(len(f.blocks), sem)
    z_rate = -np.log2(sem[zs]).sum(axis=1) / n
    dev = [rate - h, rate_sem - hs, (rate - rate_sem) - (h - hs), z_rate - hs]
    margin = min(np.abs(np.abs(x) - eps).min() for x in dev)
    syn, sem_ok, cond_ok, z_ok = (np.abs(x) < eps for x in dev)
    member = syn & sem_ok & cond_ok
    classes = Counter(map(tuple, z[member].tolist()))
    class_prob = Counter()
    cond_prob = d.probs[seqs].prod(axis=1) / sem[z].prod(axis=1)
    for key, p in zip(map(tuple, z[member].tolist()), cond_prob[member]):
        class_prob[key] += p
    fields = {
        "set_size": int(z_ok.sum()),
        "prob_typical": float(sem[zs[z_ok]].prod(axis=1).sum()),
        "syntactic_typical_size": int(syn.sum()),
        "synonymous_union_size": int(member.sum()),
        "b_class_sizes": sorted(set(classes.values())),
        "partition_exact": bool(member.sum() == syn.sum()),
        "b_lower_ok": all(
            size >= class_prob[key] * 2.0 ** (n * (h - hs - eps)) * (1 - 1e-9) for key, size in classes.items()
        ),
    }
    return fields, margin


def _exact_fields(rep):
    return {
        "set_size": rep.set_size,
        "prob_typical": pytest.approx(rep.prob_typical, rel=1e-12),
        **{k: rep.detail[k] for k in (
            "syntactic_typical_size", "synonymous_union_size", "b_class_sizes", "partition_exact", "b_lower_ok"
        )},
    }


def _reference_loop(d, f, n, eps):
    """The per-composition loop the type grid replaced, kept as a test oracle."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def multinomial(m, counts):
        out = math.factorial(m)
        for c in counts:
            out //= math.factorial(c)
        return out

    sem = np.array([d.probs[list(b)].sum() for b in f.blocks])
    h, hs = entropy(d), entropy(Distribution(sem))
    log2_syn, log2_sem = np.log2(d.probs), np.log2(sem)
    a_sem_size, prob_sem, sem_mult = 0, 0.0, {}
    for counts in compositions(n, len(sem)):
        logp = float(np.dot(counts, log2_sem))
        if abs(-logp / n - hs) < eps:
            mult = multinomial(n, counts)
            a_sem_size += mult
            prob_sem += mult * 2.0**logp
            sem_mult[counts] = mult
    a_syn_size, b_sizes = 0, {}
    for counts in compositions(n, d.alphabet_size):
        rate_syn = -float(np.dot(counts, log2_syn)) / n
        cond1 = abs(rate_syn - h) < eps
        if cond1:
            a_syn_size += multinomial(n, counts)
        sem_counts = tuple(int(sum(counts[i] for i in block)) for block in f.blocks)
        rate_sem = -float(np.dot(sem_counts, log2_sem)) / n
        if cond1 and abs(rate_sem - hs) < eps and abs((rate_syn - rate_sem) - (h - hs)) < eps:
            ways = 1
            for k, block in enumerate(f.blocks):
                ways *= multinomial(sem_counts[k], [counts[i] for i in block])
            b_sizes[sem_counts] = b_sizes.get(sem_counts, 0) + ways
    b_total = sum(size * sem_mult.get(s, 0) for s, size in b_sizes.items())
    b_values = [size for s, size in b_sizes.items() if sem_mult.get(s, 0) > 0]
    return {
        "set_size": float(a_sem_size),
        "prob_typical": prob_sem,
        "syntactic_typical_size": float(a_syn_size),
        "synonymous_union_size": float(b_total),
        "b_class_sizes": sorted(set(b_values)),
        "partition_exact": b_total == a_syn_size,
        "b_upper_ok": all(v <= 2.0 ** (n * (h - hs + eps)) * (1 + 1e-9) for v in b_values),
        "b_lower_ok": all(v >= 2.0 ** (n * (h - hs - eps)) * (1 - 1e-9) for v in b_values),
    }


class TestMembership:
    def test_uniform_semantic_always_typical(self):
        d = Distribution(np.full(4, 0.25))
        f = SynonymousPartition(((0, 1), (2, 3)), 4)
        assert is_semantically_typical([0, 1, 0, 1, 1], d, f, 1e-9)

    def test_all_heaviest_symbol_is_atypical(self, table1_dist, table1_partition):
        # rate is -log2(0.3) = 1.737 against a 1.971 target
        assert not is_semantically_typical([0] * 20, table1_dist, table1_partition, 0.1)

    def test_huge_eps_accepts_everything(self, table1_dist, table1_partition):
        assert is_semantically_typical([0] * 20, table1_dist, table1_partition, 10.0)

    def test_bad_semantic_index(self, table1_dist, table1_partition):
        with pytest.raises(IndexOutOfRange):
            is_semantically_typical([0, 9], table1_dist, table1_partition, 0.1)

    @pytest.mark.parametrize("check", [is_semantically_typical, is_synonymous_typical])
    def test_nan_eps_refused(self, check, table1_dist, table1_partition):
        with pytest.raises(ValueError, match="eps must be positive"):
            check([0, 1], table1_dist, table1_partition, math.nan)

    def test_synonymous_identity_reduces_to_classic(self, table1_dist):
        f = SynonymousPartition.identity(6)
        seq = [0, 3, 1, 2, 0, 3, 0, 5, 4, 0]
        rate = float(-np.log2(table1_dist.probs[seq]).sum() / len(seq))
        h = 2.4709505944546684
        assert is_synonymous_typical(seq, table1_dist, f, abs(rate - h) + 0.01)
        assert not is_synonymous_typical(seq, table1_dist, f, abs(rate - h) - 0.01)

    def test_single_block_checks_against_zero_entropy(self):
        d = Distribution(np.array([0.5, 0.5]))
        f = SynonymousPartition.single_block(2)
        # semantic rate is exactly 0 = Hs, syntactic conditions carry the test
        assert is_synonymous_typical([0, 1, 0, 1], d, f, 0.05)

    def test_zero_mass_block_is_atypical_without_warning(self):
        """A sequence through a zero-probability symbol has infinite syntactic and
        semantic rates; it fails the first two conditions, so the conditional
        rate, inf - inf, is never taken."""
        d = Distribution(np.array([0.5, 0.5, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_synonymous_typical([2, 0, 1], d, SynonymousPartition.identity(3), 0.1) is False

    def test_tiling_source_membership_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = 10
            seq = rng.integers(0, 3, size=n).tolist()
            member = is_synonymous_typical(seq, TILE_DIST, TILE_PART, 0.2)
            # conditions collapse: syntactic typicality alone decides membership
            rate = float(-np.log2(TILE_DIST.probs[seq]).sum() / n)
            assert member == (abs(rate - 1.5) < 0.2)


class TestEnumeration:
    @pytest.mark.parametrize("n, eps, message", [(5, math.nan, "eps must be positive"),
                                                 (math.nan, 0.1, "n must be at least 1")])
    def test_nan_refused(self, table1_dist, table1_partition, n, eps, message):
        with pytest.raises(ValueError, match=message):
            enumerate_typical_sets(table1_dist, table1_partition, n, eps)

    def test_uniform_source_counts(self):
        d = Distribution(np.full(4, 0.25))
        f = SynonymousPartition(((0, 1), (2, 3)), 4)
        rep = enumerate_typical_sets(d, f, 5, 0.05)
        assert rep.set_size == 2**5
        assert rep.prob_typical == pytest.approx(1.0)
        assert rep.bound_satisfied

    def test_identity_partition_b_classes_are_singletons(self):
        rep = enumerate_typical_sets(TILE_DIST, SynonymousPartition.identity(3), 6, 0.3)
        assert rep.detail["b_class_sizes"] == [1]
        assert rep.detail["partition_exact"]

    def test_tiling_partition_property_every_n(self):
        for n in range(1, 13):
            rep = enumerate_typical_sets(TILE_DIST, TILE_PART, n, 0.2)
            assert rep.detail["partition_exact"], f"tiling failed at n={n}"
            assert rep.detail["b_upper_ok"], f"B upper bound failed at n={n}"
            assert rep.set_size <= rep.upper_bound + 1e-9

    def test_table1_counts_against_bounds(self, table1_dist, table1_partition):
        rep = enumerate_typical_sets(table1_dist, table1_partition, 8, 0.2)
        assert rep.set_size <= rep.upper_bound
        assert rep.detail["b_upper_ok"]
        assert 0.0 <= rep.prob_typical <= 1.0

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_table1_lower_bounds_hold_at_every_n(self, table1_dist, table1_partition, eps):
        """The lower bounds are the finite-n ones, Pr{A~} 2^{n(Hs - eps)} and
        Pr{B | z} 2^{n(H - Hs - eps)}, so they hold at n = 1..12 as the upper
        bounds do.  The paper's (1 - eps) 2^{n(Hs - eps)} fails here at n = 1, 2
        (and at 3, 4, 5 and 7 at eps = 0.1), and the bare 2^{n(H - Hs - eps)}
        fails a class at n = 10, eps = 0.1.  No report carries a small-n caveat."""
        hs = entropy(induced_semantic_distribution(table1_dist, table1_partition))
        for n in range(1, 13):
            rep = enumerate_typical_sets(table1_dist, table1_partition, n, eps)
            assert rep.bound_satisfied and rep.detail["b_lower_ok"], f"n={n}"
            assert rep.lower_bound == rep.prob_typical * 2.0 ** (n * (hs - eps))
            assert rep.lower_bound <= rep.set_size <= rep.upper_bound
            assert set(rep.to_json()) == {
                "n", "epsilon", "prob_typical", "set_size", "lower_bound", "upper_bound", "bound_satisfied", "detail"
            }

    def test_prob_grows_toward_one(self):
        probs = [
            enumerate_typical_sets(TILE_DIST, TILE_PART, n, 0.15).prob_typical
            for n in (2, 4, 8)
        ]
        assert probs[-1] > 0.8
        assert probs[-1] >= probs[0] - 1e-9

    def test_budget_gate(self):
        d = Distribution(np.full(8, 0.125))
        with pytest.raises(BudgetExceeded):
            enumerate_typical_sets(d, SynonymousPartition.identity(8), 14, 0.1)

    def test_budget_gate_counts_compositions(self):
        """One block admits every n under the n_sem**n gate; the composition
        count C(n+N-1, N-1) still has to fit."""
        d = Distribution(np.full(8, 0.125))
        with pytest.raises(BudgetExceeded) as err:
            enumerate_typical_sets(d, SynonymousPartition.single_block(8), 200, 0.1)
        assert err.value.required == math.comb(207, 7)

    def test_budget_gate_counts_factorial_table_words(self):
        """One block over a binary source admits n far beyond both other gates;
        at n = 16 000 the table of k! for k <= n would hold about 2.4e7 64-bit
        words, so the call refuses before building it."""
        d = Distribution(np.array([1 - 1e-9, 1e-9]))
        with pytest.raises(BudgetExceeded, match="factorial table") as err:
            enumerate_typical_sets(d, SynonymousPartition.single_block(2), 16_000, 1e-4)
        assert err.value.required > typicality.EXHAUSTIVE_STATE_CAP

    @pytest.mark.parametrize(
        "probs, blocks, n, eps, field, expected",
        [
            ([0, 0.5, 0.25, 0.25], ((0, 1), (2,), (3,)), 4, 0.3, "syntactic_typical_size", 64),
            ([0, 0.9, 0.1], ((1, 2), (0,)), 2, 0.4, "set_size", 1),
        ],
    )
    def test_zero_probability_symbols(self, probs, blocks, n, eps, field, expected):
        """A zero-probability symbol must not turn every type's rate into NaN."""
        d = Distribution(np.array(probs, dtype=float))
        f = SynonymousPartition(blocks, d.alphabet_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = enumerate_typical_sets(d, f, n, eps)
            fields, margin = _brute_force(d, f, n, eps)
        assert margin > 1e-9
        got = rep.set_size if field == "set_size" else rep.detail[field]
        assert got == fields[field] == expected
        assert fields == _exact_fields(rep)

    def test_matches_brute_force_random_sources(self):
        """Random sources with N <= 4 and n <= 6, merged blocks and zero
        probabilities, eps kept more than 1e-9 off every rate's edge."""
        rng = np.random.default_rng(37)
        merged = zeros = 0
        for case in range(20):
            size = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(size))
            if case % 2 and size > 2:
                probs[rng.integers(size)] = 0.0
                probs /= probs.sum()
            labels = rng.integers(0, size, size=size)
            blocks = tuple(tuple(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels))
            d, f = Distribution(probs), SynonymousPartition(blocks, size)
            n = int(rng.integers(1, 7))
            while True:
                eps = float(rng.uniform(0.05, 0.8))
                fields, margin = _brute_force(d, f, n, eps)
                if margin > 1e-9:
                    break
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = enumerate_typical_sets(d, f, n, eps)
            assert fields == _exact_fields(rep), f"case {case}: {probs}, {blocks}, n={n}, eps={eps}"
            merged += len(blocks) < size
            zeros += bool((probs == 0).any())
        assert merged >= 5 and zeros >= 5

    def test_matches_reference_loop(self):
        """The type grid equals the per-composition loop it replaced on an
        8-symbol Dirichlet(1) source in two blocks at n = 12 (50 388 types)."""
        probs = np.random.default_rng(0).dirichlet(np.ones(8))
        label = np.random.default_rng(1).permutation(8)
        d = Distribution(probs[np.argsort(label)])
        f = SynonymousPartition(
            (tuple(sorted(label[:4].tolist())), tuple(sorted(label[4:].tolist()))), 8
        )
        rep = enumerate_typical_sets(d, f, 12, 0.2)
        flags = {k: rep.detail[k] for k in ("b_upper_ok", "b_lower_ok")}
        assert _reference_loop(d, f, 12, 0.2) == {**_exact_fields(rep), **flags}

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 14])
    def test_type_grid_order_and_chunks(self, monkeypatch, chunk):
        """Compositions come out in lexicographic order, each exactly once, in
        pieces of at most chunk + n + 1 rows, whatever the chunk size."""
        monkeypatch.setattr(typicality, "GRID_CHUNK", chunk)
        for n, parts in [(1, 1), (0, 3), (5, 1), (3, 2), (6, 4), (12, 5), (20, 3)]:
            pieces = list(typicality._type_grid(n, parts))
            expected = [
                list(c) for c in itertools.product(range(n + 1), repeat=parts) if sum(c) == n
            ]
            assert np.concatenate(pieces).tolist() == expected
            assert max(len(piece) for piece in pieces) <= chunk + n + 1

    def test_type_grid_memory_is_chunked(self):
        """8 symbols in two blocks at n = 20 is 888 030 types; walking the grid
        in chunks keeps the traced peak far below the whole grid's arrays."""
        probs = np.random.default_rng(0).dirichlet(np.ones(8))
        f = SynonymousPartition(((0, 1, 2, 3), (4, 5, 6, 7)), 8)
        tracemalloc.start()
        try:
            rep = enumerate_typical_sets(Distribution(probs), f, 20, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.set_size > 0

    def test_exact_matches_brute_force_small(self):
        """Composition counting equals literal sequence enumeration at n=6."""
        import itertools

        n, eps = 6, 0.25
        d, f = TILE_DIST, TILE_PART
        sem = np.array([0.5, 0.5])
        hs = 1.0
        h = 1.5
        a_sem = sum(
            1
            for seq in itertools.product(range(2), repeat=n)
            if abs(-np.log2(sem[list(seq)]).sum() / n - hs) < eps
        )
        a_syn = 0
        b_union = 0
        for seq in itertools.product(range(3), repeat=n):
            rate = -np.log2(d.probs[list(seq)]).sum() / n
            if abs(rate - h) < eps:
                a_syn += 1
            if is_synonymous_typical(list(seq), d, f, eps):
                b_union += 1
        rep = enumerate_typical_sets(d, f, n, eps)
        assert rep.set_size == a_sem
        assert rep.detail["syntactic_typical_size"] == a_syn
        assert rep.detail["synonymous_union_size"] == b_union


# weakly dependent joint with one merged source pair: small up companion, so
# the decoding-probe probability is estimable at desk scale
WEAK_JOINT = JointDistribution(np.array([[0.26, 0.24], [0.12, 0.13], [0.12, 0.13]]))
WEAK_FJ = JointSynonymousPartition(
    SynonymousPartition(((0,), (1, 2)), 3), SynonymousPartition.identity(2)
)

# strongly dependent variant: positive down companion for the encoding probe
STRONG_JOINT = JointDistribution(np.array([[0.45, 0.05], [0.025, 0.225], [0.025, 0.225]]))
STRONG_FJ = JointSynonymousPartition(
    SynonymousPartition(((0,), (1, 2)), 3), SynonymousPartition.identity(2)
)


def _report_in_child(results, j, fj, kw):
    results.put(estimate_joint_typicality(j, fj, **kw).to_json())


def joint_chunk(monkeypatch, n: int, mode: str, trials: int) -> None:
    """Set CHUNK_DRAWS so that estimate_joint_typicality at block length n runs in
    chunks of `trials` trials."""
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", trials * (n if mode == "correlated" else 4 * n))


def _per_symbol_estimator(j, fj, n, eps, trials, seed, mode, batch=4096):
    """The per-symbol joint estimator that the representative-first, cell-table
    version replaced, kept as a test oracle: every rate of every trial through
    block_of arrays and 2-D fancy indexing, with the same Philox slices."""
    pu, pv = marginals(j)
    sem_u = induced_semantic_distribution(pu, fj.u_partition)
    sem_v = induced_semantic_distribution(pv, fj.v_partition)
    h_u, h_v, h_uv = entropy(pu), entropy(pv), joint_entropy(j)
    hs_u, hs_v = entropy(sem_u), entropy(sem_v)
    hs_uv = semantic_joint_entropy(j, fj)
    l2_ju, l2_jv = _log2_probs(sem_u.probs), _log2_probs(sem_v.probs)
    l2_js = _log2_probs(induced_semantic_joint(j, fj).probs)
    l2_u, l2_v, l2_uv = _log2_probs(pu.probs), _log2_probs(pv.probs), _log2_probs(j.probs)
    bu, bv = fj.u_partition.block_of, fj.v_partition.block_of
    rep_u = np.array([min(b) for b in fj.u_partition.blocks])
    rep_v = np.array([min(b) for b in fj.v_partition.blocks])
    nv = j.shape[1]
    hits = enc_hits = done = 0
    while done < trials:
        b = min(batch, trials - done)
        u = trial_uniforms(seed, done, b, n if mode == "correlated" else 4 * n)
        if mode == "correlated":
            pair = _inverse_cdf(u, j.probs.ravel())
            xs, ys = pair // nv, pair % nv
        else:
            xs = _inverse_cdf(u[:, :n], pu.probs)
            ys = _inverse_cdf(u[:, n : 2 * n], pv.probs)
        sx, sy = bu[xs], bv[ys]
        rate_sj = -l2_js[sx, sy].sum(axis=1) / n
        in_sem = (
            (np.abs(-l2_ju[sx].sum(axis=1) / n - hs_u) < eps)
            & (np.abs(-l2_jv[sy].sum(axis=1) / n - hs_v) < eps)
            & (np.abs(rate_sj - hs_uv) < eps)
        )
        if mode == "correlated":
            hits += int(in_sem.sum())
        else:
            rate_xy = -l2_uv[xs, ys].sum(axis=1) / n
            in_syn = (
                (np.abs(-l2_u[xs].sum(axis=1) / n - h_u) < eps)
                & (np.abs(-l2_v[ys].sum(axis=1) / n - h_v) < eps)
                & (np.abs(rate_xy - h_uv) < eps)
            )
            cond_rate = np.full(b, np.inf)
            seen = np.isfinite(rate_xy)
            cond_rate[seen] = rate_xy[seen] - rate_sj[seen]
            cond_ok = np.abs(cond_rate - (h_uv - hs_uv)) < eps
            is_rep = (xs == rep_u[sx]).all(axis=1) & (ys == rep_v[sy]).all(axis=1)
            hits += int((is_rep & in_sem & in_syn & cond_ok).sum())
            zx = _inverse_cdf(u[:, 2 * n : 3 * n], sem_u.probs)
            zy = _inverse_cdf(u[:, 3 * n :], sem_v.probs)
            enc_hits += int(
                (
                    (np.abs(-l2_ju[zx].sum(axis=1) / n - hs_u) < eps)
                    & (np.abs(-l2_jv[zy].sum(axis=1) / n - hs_v) < eps)
                    & (np.abs(-l2_js[zx, zy].sum(axis=1) / n - hs_uv) < eps)
                ).sum()
            )
        done += b

    p_hat = hits / trials
    if mode == "correlated":
        lower, upper = 1.0 - eps, 1.0
        satisfied = p_hat > lower
        detail = {"target": "prob of semantic joint typicality approaches 1"}
    else:
        up, down = h_u + h_v - hs_uv, hs_u + hs_v - h_uv
        lower = (1.0 - eps) * 2.0 ** (-n * (up + 3 * eps))
        upper = 2.0 ** (-n * (up - 3 * eps))
        satisfied = lower <= p_hat <= upper
        p_enc = enc_hits / trials
        enc_lower = (1.0 - eps) * 2.0 ** (-n * (down + 3 * eps))
        enc_upper = 2.0 ** (-n * (down - 3 * eps))
        detail = {
            "up_companion": up,
            "down_companion": down,
            "full_companion": hs_u + hs_v - hs_uv,
            "encoding_prob": p_enc,
            "encoding_lower": enc_lower,
            "encoding_upper": enc_upper,
            "encoding_upper_ok": bool(p_enc <= enc_upper),
            "encoding_lower_ok": bool(p_enc >= enc_lower),
        }
    return {
        "n": n,
        "epsilon": eps,
        "prob_typical": p_hat,
        "set_size": None,
        "lower_bound": lower,
        "upper_bound": upper,
        "bound_satisfied": bool(satisfied),
        "detail": detail,
    }


class TestJointMonteCarlo:
    def test_correlated_probability_approaches_one(self, table2_joint, table3_partitions):
        rep = estimate_joint_typicality(
            table2_joint, table3_partitions, n=200, eps=0.1, trials=20_000, seed=7,
            mode="correlated",
        )
        assert rep.prob_typical > 0.9
        assert rep.bound_satisfied

    def test_correlated_independent_product_joint(self):
        j = JointDistribution(np.outer([0.6, 0.4], [0.3, 0.7]))
        fj = JointSynonymousPartition.identity(2, 2)
        rep = estimate_joint_typicality(j, fj, n=300, eps=0.1, trials=10_000, seed=9,
                                        mode="correlated")
        assert rep.prob_typical > 0.9  # independence just makes Hs_joint = Hs_u + Hs_v

    def test_decoding_probe_band(self):
        rep = estimate_joint_typicality(
            WEAK_JOINT, WEAK_FJ, n=24, eps=0.1, trials=400_000, seed=11, mode="independent"
        )
        assert rep.bound_satisfied
        assert rep.lower_bound <= rep.prob_typical <= rep.upper_bound

    def test_decoding_probe_identity_reduces_to_classic_band(self):
        rep = estimate_joint_typicality(
            STRONG_JOINT,
            JointSynonymousPartition.identity(3, 2),
            n=20,
            eps=0.1,
            trials=400_000,
            seed=13,
            mode="independent",
        )
        i = mutual_information(STRONG_JOINT)
        assert rep.detail["up_companion"] == pytest.approx(i, abs=1e-12)
        assert rep.bound_satisfied

    def test_encoding_probe_identity_band_holds(self):
        rep = estimate_joint_typicality(
            STRONG_JOINT,
            JointSynonymousPartition.identity(3, 2),
            n=20,
            eps=0.1,
            trials=400_000,
            seed=17,
            mode="independent",
        )
        d = rep.detail
        assert d["encoding_upper_ok"] and d["encoding_lower_ok"]

    def test_encoding_probe_merged_concentrates_at_full_companion(self):
        """With real merging the event probability tracks the full companion,
        which sits above the down companion, so only the upper edge of the
        stated band can hold; the lower edge fails at every block length."""
        rep = estimate_joint_typicality(
            STRONG_JOINT, STRONG_FJ, n=20, eps=0.1, trials=400_000, seed=19,
            mode="independent",
        )
        d = rep.detail
        assert d["full_companion"] > d["down_companion"] + 0.3
        assert d["encoding_upper_ok"]
        assert not d["encoding_lower_ok"]
        # the measured rate matches the full companion within the eps slack
        if d["encoding_prob"] > 0:
            rate = -np.log2(d["encoding_prob"]) / rep.n
            assert rate == pytest.approx(d["full_companion"], abs=4 * rep.epsilon)

    def test_deterministic_given_seed(self):
        kw = dict(n=24, eps=0.1, trials=50_000, seed=23, mode="independent")
        a = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        b = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        assert a.prob_typical == b.prob_typical
        assert a.detail["encoding_prob"] == b.detail["encoding_prob"]

    def test_zero_probability_pairs_raise_no_warning(self, table2_joint, table3_partitions):
        """Table II has zero cells: sequences through them are atypical, with no
        inf - inf on the way.  The pinned probabilities are what the unmasked
        subtraction gave; the mask changes no result."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_joint_typicality(
                table2_joint, table3_partitions, n=3, eps=0.5, trials=20_000, seed=5,
                mode="independent",
            )
        assert rep.prob_typical == 0.0172
        assert rep.detail["encoding_prob"] == 0.6485

    @pytest.mark.parametrize(
        "mode, n, eps, seed, trials, prob, detail",
        [
            ("correlated", 30, 0.1, 43, 5000, 0.698, None),
            ("correlated", 200, 0.1, 41, 5000, 0.9964, None),
            ("independent", 4, 0.3, 47, 20_000, 0.00185,
             {"encoding_prob": 0.45555, "encoding_lower": 0.34259047609869386,
              "encoding_upper": 71.96034127217747, "encoding_lower_ok": True}),
            ("independent", 5, 0.4, 59, 20_000, 0.002,
             {"encoding_prob": 0.55555, "encoding_lower": 0.08683660061253501,
              "encoding_upper": 592.8045268482399, "encoding_lower_ok": True}),
        ],
    )
    def test_pinned_table2_draws(self, table2_joint, table3_partitions, mode, n, eps, seed,
                                 trials, prob, detail):
        """Draws through the comparison-count inverse CDF reproduce the values
        the binary-search version gave at these seeds."""
        rep = estimate_joint_typicality(
            table2_joint, table3_partitions, n=n, eps=eps, trials=trials, seed=seed, mode=mode
        )
        assert rep.prob_typical == prob
        if detail is None:
            assert rep.detail == {"target": "prob of semantic joint typicality approaches 1"}
        else:
            assert rep.detail == {
                "up_companion": 1.5086949695628413,
                "down_companion": -0.6422825308698514,
                "full_companion": 0.2332062193464952,
                "encoding_upper_ok": True,
                **detail,
            }

    def test_batch_split_invariance(self, monkeypatch):
        """Per-trial counter slices make results independent of chunking."""
        kw = dict(n=24, eps=0.1, trials=30_000, seed=29, mode="independent")
        joint_chunk(monkeypatch, 24, "independent", 4096)
        a = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        joint_chunk(monkeypatch, 24, "independent", 911)
        b = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        assert a.prob_typical == b.prob_typical
        assert a.detail["encoding_prob"] == b.detail["encoding_prob"]

    @pytest.mark.parametrize("mode", ["correlated", "independent"])
    @pytest.mark.parametrize(
        "joint, n, eps, seed, trials",
        [
            ("table2", 3, 0.5, 5, 20_000),
            ("table2", 4, 0.3, 47, 20_000),
            ("table2", 5, 0.4, 59, 20_000),
            ("table2", 30, 0.1, 43, 5000),
            ("table2", 200, 0.1, 41, 2000),
            ("weak", 24, 0.1, 11, 100_000),
            ("strong_identity", 6, 0.3, 2, 30_000),
        ],
    )
    def test_matches_per_symbol_estimator(self, table2_joint, table3_partitions, joint, n, eps,
                                          seed, trials, mode, monkeypatch):
        """Every report field equals the per-symbol oracle's at batches 4096,
        1024 and 911 and at the default, draw-sized batch (inline when one
        chunk holds every trial, split across two threads otherwise).  On the weak joint at n = 24 rows survive the
        representative test and decoding hits are nonzero; warnings are errors,
        so an empty surviving subset must pass silently."""
        j, fj = {
            "table2": (table2_joint, table3_partitions),
            "weak": (WEAK_JOINT, WEAK_FJ),
            "strong_identity": (STRONG_JOINT, JointSynonymousPartition.identity(3, 2)),
        }[joint]
        expected = _per_symbol_estimator(j, fj, n, eps, trials, seed, mode)
        if joint != "table2" and mode == "independent":
            assert expected["prob_typical"] > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch in (4096, 1024, 911, None):
                with monkeypatch.context() as chunk:
                    if batch is not None:
                        joint_chunk(chunk, n, mode, batch)
                    rep = estimate_joint_typicality(j, fj, n=n, eps=eps, trials=trials, seed=seed, mode=mode)
                assert rep.to_json() == expected

    @pytest.mark.parametrize("mode", ["correlated", "independent"])
    @pytest.mark.parametrize("eps, trials, message", [(math.nan, 10, "eps must be positive"),
                                                      (0.1, math.nan, "need at least one trial")])
    def test_nan_refused(self, table2_joint, table3_partitions, eps, trials, message, mode):
        with pytest.raises(ValueError, match=message):
            estimate_joint_typicality(table2_joint, table3_partitions, n=10, eps=eps, trials=trials, mode=mode)

    @pytest.mark.parametrize("mode", ["correlated", "independent"])
    @pytest.mark.parametrize("n", [0, -3, math.nan])
    def test_n_must_be_positive(self, table2_joint, table3_partitions, n, mode):
        with pytest.raises(ValueError, match="n must be at least 1"):
            estimate_joint_typicality(table2_joint, table3_partitions, n=n, eps=0.1, trials=10,
                                      mode=mode)

    @pytest.mark.parametrize("mode", ["correlated", "independent"])
    @pytest.mark.parametrize(
        "joint, n, eps, seed, trials",
        [("table2", 200, 0.1, 41, 2000), ("weak", 24, 0.1, 1, 2000), ("table2", 3, 0.5, 5, 2000)],
    )
    def test_one_trial_batches_match_per_symbol_estimator(self, table2_joint, table3_partitions, joint,
                                                          n, eps, seed, trials, mode, monkeypatch):
        """At one trial per chunk, 2000 chunks are shared by the calling thread and
        the helper, and every report field still equals the per-symbol oracle's."""
        j, fj = {"table2": (table2_joint, table3_partitions), "weak": (WEAK_JOINT, WEAK_FJ)}[joint]
        expected = _per_symbol_estimator(j, fj, n, eps, trials, seed, mode)
        if joint == "weak" and mode == "independent":
            assert expected["prob_typical"] > 0
        joint_chunk(monkeypatch, n, mode, 1)
        rep = estimate_joint_typicality(j, fj, n=n, eps=eps, trials=trials, seed=seed, mode=mode)
        assert rep.to_json() == expected

    def test_correlated_memory_does_not_grow_with_n(self, table2_joint, table3_partitions):
        """A correlated call at n = 10 000 peaks under 32 MB traced: the
        default chunk holds about 2^17 uniforms (13 trials here), where the
        old fixed 1024-trial batch peaked at 235 MB."""
        kw = dict(n=10_000, eps=0.1, trials=1100, seed=3, mode="correlated")
        estimate_joint_typicality(table2_joint, table3_partitions, n=10, eps=0.1, trials=10)
        tracemalloc.start()
        try:
            rep = estimate_joint_typicality(table2_joint, table3_partitions, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.prob_typical == 1.0
        assert peak < 32 * 2**20

    def test_forked_child_reports_after_the_parent_used_the_pool(self, table2_joint, table3_partitions):
        """A map's helper thread does not survive a fork, so a child must
        start its own; its call returns the parent's report instead of
        hanging."""
        kw = dict(n=200, eps=0.1, trials=2000, seed=17, mode="independent")
        before = threading.active_count()
        want = estimate_joint_typicality(table2_joint, table3_partitions, **kw).to_json()
        assert threading.active_count() <= before + 1
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_report_in_child, args=(results, table2_joint, table3_partitions, kw))
        child.start()
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            got = None
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert got == want
        assert child.exitcode == 0

    def test_independent_memory_is_batched(self, table2_joint, table3_partitions):
        """The traced peak of an independent-mode call stays below one
        4096-trial block of its 4n uniforms; the per-symbol estimator at its old
        4096-trial default batch peaked at 66 MB."""
        kw = dict(n=200, eps=0.1, trials=8192, seed=3, mode="independent")
        estimate_joint_typicality(table2_joint, table3_partitions, **kw)  # one-time set-up
        tracemalloc.start()
        try:
            estimate_joint_typicality(table2_joint, table3_partitions, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np.dtype(float).itemsize * 4096 * 4 * 200


class TestInverseCdf:
    @staticmethod
    def _searchsorted(u, probs):
        edges = np.cumsum(probs)
        edges[-1] = 1.0
        return np.searchsorted(edges, u, side="right")

    @pytest.mark.parametrize(
        "probs",
        [
            [0.3, 0.7],
            [0.05, 0.1, 0.15, 0.0, 0.0, 0.1, 0.05, 0.05, 0.1, 0.4],
            [0.0, 0.4, 0.6],
            [0.5, 0.5, 0.0],
            [0.2, 0.0, 0.0, 0.5, 0.0, 0.3],
            np.full(300, 1 / 300),
        ],
    )
    def test_equals_binary_search(self, probs):
        """Random u, u on every edge and just below it, repeated edges from
        zero-probability cells, and an alphabet too large for uint8."""
        probs = np.asarray(probs, dtype=float)
        edges = np.cumsum(probs)[:-1]
        u = np.concatenate([
            np.random.default_rng(41).random(5000),
            edges,
            np.nextafter(edges, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0].reshape(-1, 1)  # the Philox uniforms lie in [0, 1)
        got = _inverse_cdf(u, probs)
        np.testing.assert_array_equal(got, self._searchsorted(u, probs))
        assert got.dtype == np.min_scalar_type(probs.size - 1)
