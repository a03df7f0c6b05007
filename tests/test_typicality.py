"""Typical-set membership, exact enumeration, and the Monte Carlo joint probes."""

import bisect
import functools
import itertools
import math
import multiprocessing
import queue
import threading
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from _oracles import compositions, exact_joint_probe
from conftest import load_fixture
from sebits.core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
)
from sebits.errors import BudgetExceeded, IndexOutOfRange
from sebits.measures import entropy, mutual_information
from sebits import _kernels, typicality
from sebits.typicality import (
    _binomial_inverse,
    _cdf_rows,
    _count_typical,
    _draw_off_lumped,
    _draw_types,
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

    @pytest.mark.parametrize("semantic", [False, True])
    def test_verdicts_depend_on_the_type_alone(self, table1_dist, table1_partition, semantic):
        """On Table I at n = 10, eps = 0.2, a dozen random orderings of each of
        the 3 003 syntactic types (286 semantic types) get one verdict, and the
        multinomials of the typical types sum to the exact sweep's
        synonymous_union_size (set_size for the semantic check)."""
        n, eps = 10, 0.2
        rep = enumerate_typical_sets(table1_dist, table1_partition, n, eps)
        check, size, expected = (
            (is_semantically_typical, table1_partition.semantic_size, rep.set_size)
            if semantic
            else (is_synonymous_typical, table1_dist.alphabet_size, rep.detail["synonymous_union_size"])
        )
        rng = np.random.default_rng(53)
        total = 0
        for counts in itertools.chain.from_iterable(compositions(n, size)):
            seq = np.repeat(np.arange(size), counts)
            verdicts = {check(rng.permutation(seq), table1_dist, table1_partition, eps) for _ in range(12)}
            assert len(verdicts) == 1, counts
            if verdicts.pop():
                total += math.factorial(n) // math.prod(map(math.factorial, counts))
        assert total == expected


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

    @pytest.mark.parametrize("n, parts", [(1, 100), (2, 40), (0, 3), (7, 1), (6, 4), (12, 5)])
    def test_rank_key_groups_as_the_row_unique(self, n, parts):
        """The lexicographic rank of a composition is its place in the type
        grid, and keying rows by it groups them, in the same order, exactly as
        `np.unique(axis=0)` does.  At n = 1 with 100 parts and n = 2 with 40 a
        base-(n + 1) key would overflow int64 (3^40 > 2^63)."""
        grid = np.concatenate(list(typicality._type_grid(n, parts)))
        np.testing.assert_array_equal(typicality._lex_rank(grid, n), np.arange(len(grid)))
        rows = grid[np.random.default_rng(n + parts).integers(0, len(grid), 3 * len(grid) + 5)]
        types, group = np.unique(rows, axis=0, return_inverse=True)
        keys, key_group = np.unique(typicality._lex_rank(rows, n), return_inverse=True)
        np.testing.assert_array_equal(key_group, group.ravel())
        np.testing.assert_array_equal(grid[keys], types)

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
    """Run estimate_joint_typicality in chunks of `trials` trials.

    The chunk is set on `trial_map` itself, so it holds `trials` trials at
    every n and in either mode."""
    monkeypatch.setattr(typicality, "trial_map", functools.partial(_kernels.trial_map, batch=trials))


def _joint(name):
    """The weak joint, or Table II with the Table III partitions."""
    if name == "weak":
        return WEAK_JOINT, WEAK_FJ
    j = JointDistribution(np.asarray(load_fixture("tableII_joint.json")["matrix"]))
    fu, fv = (
        SynonymousPartition(tuple(map(tuple, load_fixture(f"tableIII_{side}_partition.json")["blocks"])), size)
        for side, size in zip("uv", j.shape)
    )
    return j, JointSynonymousPartition(fu, fv)


@functools.cache
def _exact(name: str, n: int, eps: float, probe: str) -> float:
    return exact_joint_probe(*_joint(name), n, eps, probe)


def _assert_near_exact(estimate: float, exact: float, trials: int) -> None:
    """The estimate lies within 4 binomial standard errors of the exact probability."""
    variance = max(exact * (1 - exact), 0.0)  # the oracle's sum may round past 1
    assert abs(estimate - exact) <= 4 * math.sqrt(variance / trials) + 1e-12, (estimate, exact)


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
        """Table II has zero cells: types through them are atypical, with no
        inf - inf on the way.  Both estimates lie within 4 standard errors of
        the exact probabilities 0.016092 and 0.649080."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_joint_typicality(
                table2_joint, table3_partitions, n=3, eps=0.5, trials=20_000, seed=5,
                mode="independent",
            )
        assert rep.prob_typical == 0.01615
        assert rep.detail["encoding_prob"] == 0.65295
        _assert_near_exact(rep.prob_typical, _exact("table2", 3, 0.5, "decoding"), 20_000)
        _assert_near_exact(rep.detail["encoding_prob"], _exact("table2", 3, 0.5, "encoding"), 20_000)

    def test_lumped_cell_alone_misses_every_trial(self):
        """Every representative pair has probability 0 here (u's one block
        is {0, 1}, and p(u = 0) = 0), so the decoding probe's lumped cell is
        its one cell of positive law: every trial lands on it, with no draw
        and no log 0, while the encoding probe hits every trial."""
        j = JointDistribution(np.array([[0.0, 0.0], [0.5, 0.5]]))
        fj = JointSynonymousPartition(SynonymousPartition(((0, 1),), 2), SynonymousPartition.identity(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_joint_typicality(j, fj, n=5, eps=0.3, trials=1000, seed=1, mode="independent")
        assert rep.prob_typical == 0.0
        assert rep.detail["encoding_prob"] == 1.0

    @pytest.mark.parametrize("n, eps, prob, encoding", [(6, 0.3, 0.07565, 0.0744), (20, 0.1, 0.0001, 0.0002)])
    def test_identity_partitions_draw_no_lumped_cell(self, table2_joint, n, eps, prob, encoding):
        """With identity partitions every pair is its own representative, so
        the decoding probe's lumped cell has law 0 and takes no uniform: its
        types come from the same uniforms, cell by cell, as the types of a
        law with no lumped cell at all."""
        rep = estimate_joint_typicality(
            table2_joint, JointSynonymousPartition.identity(4, 5), n=n, eps=eps, trials=20_000, seed=7,
            mode="independent",
        )
        assert (rep.prob_typical, rep.detail["encoding_prob"]) == (prob, encoding)

    def test_ln_factorial_table_over_the_cap_is_refused(self, table2_joint, table3_partitions):
        """At n = 2^24 the table of ln k! for k <= n would hold more than
        EXHAUSTIVE_STATE_CAP doubles (128 MB), so the call refuses before
        building it."""
        with pytest.raises(BudgetExceeded, match="ln k! table") as err:
            estimate_joint_typicality(table2_joint, table3_partitions, n=2**24, eps=0.1, trials=1)
        assert err.value.required == 2**24 + 1

    @pytest.mark.parametrize(
        "mode, n, eps, seed, trials, prob, detail",
        [
            ("correlated", 30, 0.1, 43, 5000, 0.702, None),
            ("correlated", 200, 0.1, 41, 5000, 0.9962, None),
            ("independent", 4, 0.3, 47, 20_000, 0.00245,
             {"encoding_prob": 0.4604, "encoding_lower": 0.34259047609869386,
              "encoding_upper": 71.96034127217747, "encoding_lower_ok": True}),
            ("independent", 5, 0.4, 59, 20_000, 0.0025,
             {"encoding_prob": 0.54835, "encoding_lower": 0.08683660061253501,
              "encoding_upper": 592.8045268482399, "encoding_lower_ok": True}),
        ],
        ids=["correlated-30-0.1-43", "correlated-200-0.1-41", "independent-4-0.3-47", "independent-5-0.4-59"],
    )
    def test_pinned_table2_draws(self, table2_joint, table3_partitions, mode, n, eps, seed,
                                 trials, prob, detail):
        """Type draws at these seeds, each pin within 4 standard errors of the
        exact probability where the type grid is small enough to sum (every
        case but the correlated probe at n = 200)."""
        rep = estimate_joint_typicality(
            table2_joint, table3_partitions, n=n, eps=eps, trials=trials, seed=seed, mode=mode
        )
        assert rep.prob_typical == prob
        if detail is None:
            assert rep.detail == {"target": "prob of semantic joint typicality approaches 1"}
            if n <= 30:
                _assert_near_exact(prob, _exact("table2", n, eps, "correlated"), trials)
        else:
            assert rep.detail == {
                "up_companion": 1.5086949695628413,
                "down_companion": -0.6422825308698514,
                "full_companion": 0.2332062193464952,
                "encoding_upper_ok": True,
                **detail,
            }
            _assert_near_exact(prob, _exact("table2", n, eps, "decoding"), trials)
            _assert_near_exact(detail["encoding_prob"], _exact("table2", n, eps, "encoding"), trials)

    def test_batch_split_invariance(self, monkeypatch):
        """Per-trial counter slices make results independent of chunking."""
        kw = dict(n=24, eps=0.1, trials=30_000, seed=29, mode="independent")
        joint_chunk(monkeypatch, 24, "independent", 4096)
        a = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        joint_chunk(monkeypatch, 24, "independent", 911)
        b = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, **kw)
        assert a.prob_typical == b.prob_typical
        assert a.detail["encoding_prob"] == b.detail["encoding_prob"]

    @pytest.mark.parametrize(
        "joint, mode, n, eps, seed, trials, probes",
        [
            ("table2", "correlated", 10, 0.1, 3, 20_000, {"correlated": 0.219538}),
            ("table2", "correlated", 30, 0.1, 3, 20_000, {"correlated": 0.696412}),
            ("table2", "independent", 6, 0.3, 3, 20_000, {"decoding": 3.3878e-4, "encoding": 0.432963}),
            ("weak", "independent", 24, 0.1, 3, 100_000, {"decoding": 2.41705e-4, "encoding": 1.0}),
        ],
    )
    def test_matches_exact_probe(self, joint, mode, n, eps, seed, trials, probes):
        """Each probe's estimate lies within 4 standard errors of its exact
        probability, summed over every type by the oracle, whose values these
        are (to the digits shown).  On the weak joint the decoding event has
        probability 2.4e-4, so hits are counted there."""
        j, fj = _joint(joint)
        rep = estimate_joint_typicality(j, fj, n=n, eps=eps, trials=trials, seed=seed, mode=mode)
        got = {"correlated": rep.prob_typical, "decoding": rep.prob_typical,
               "encoding": rep.detail.get("encoding_prob")}
        for probe, value in probes.items():
            exact = _exact(joint, n, eps, probe)
            assert exact == pytest.approx(value, rel=1e-4)
            _assert_near_exact(got[probe], exact, trials)

    @pytest.mark.parametrize("mode", ["correlated", "independent"])
    @pytest.mark.parametrize(
        "joint, n, eps, seed",
        [("table2", 3, 0.5, 5), ("table2", 30, 0.1, 43), ("table2", 200, 0.1, 41), ("weak", 24, 0.1, 11)],
    )
    def test_fields_equal_across_chunkings(self, joint, n, eps, seed, mode, monkeypatch):
        """Every report field is the same at chunks of 4096, 1024 and 911
        trials as at the default, draw-sized chunk (10 000 trials), and at
        one-trial chunks, shared by the calling thread and the helper, as at
        the default (300 trials)."""
        j, fj = _joint(joint)

        def report(trials, batch):
            with monkeypatch.context() as chunk:
                if batch is not None:
                    joint_chunk(chunk, n, mode, batch)
                return estimate_joint_typicality(j, fj, n=n, eps=eps, trials=trials, seed=seed, mode=mode).to_json()

        for trials, batches in ((10_000, (4096, 1024, 911)), (300, (1,))):
            expected = report(trials, None)
            for batch in batches:
                assert report(trials, batch) == expected, batch

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

    def test_correlated_memory_does_not_grow_with_n(self, table2_joint, table3_partitions):
        """A correlated call at n = 10 000 peaks under 32 MB traced: the
        default chunk holds about 2^17 uniforms, 6 a trial here, so the 1100
        trials run as one chunk, where the old fixed 1024-trial batch peaked
        at 235 MB."""
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

    def test_correlated_memory_is_bounded_at_large_n(self, table2_joint, table3_partitions):
        """At n = 10^6 a few hundred trials spread each binomial's m over
        hundreds of values, and every value's CDF row is 16 384 counts long;
        the rows are built a block of about 2^17 doubles at a time, so the
        peak is the 8 MB ln k! table plus a few MB, under the same 32 MB."""
        kw = dict(n=10**6, eps=0.1, trials=300, seed=3, mode="correlated")
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


def _exact_inverse(m: int, hit: float, miss: float):
    """(u -> #{x : F(x) <= u}, the CDF values as floats) for the exact CDF F of
    Bin(m, hit / (hit + miss)), in integers from `math.comb`: F(x) = c_x / D."""
    a, b = (Fraction(p) for p in (hit, miss))
    scale = math.lcm(a.denominator, b.denominator)
    a, b = int(a * scale), int(b * scale)
    cs = list(itertools.accumulate(math.comb(m, x) * a**x * b ** (m - x) for x in range(m + 1)))
    denominator = (a + b) ** m

    def count(u: float) -> int:
        top, bottom = u.as_integer_ratio()
        return bisect.bisect_right(cs, top * denominator // bottom)

    return count, np.array([c / denominator for c in cs])


class TestTypeSampler:
    @pytest.mark.parametrize(
        "n, ms, tol",
        [(40, (0, 1, 2, 3, 7, 20, 39, 40), 1e-12), (600, (600, 420), 1e-9)],
    )
    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9])
    def test_inversion_counts_cdf_values_at_or_below_u(self, n, ms, tol, q):
        """_binomial_inverse returns #{x : F(x) <= u} against the exact CDF,
        at random u and at u = F(x) +/- tol for every CDF value in [0, 1).
        At n = 40 each row covers [0, m]; at n = 600 it is a window, and the
        lgamma table's rounding keeps the float CDF within 1e-9 there."""
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        rng = np.random.default_rng(61)
        for m in ms:
            count, edges = _exact_inverse(m, q, 1 - q)
            u = np.concatenate([rng.random(2000), edges - tol, edges + tol])
            u = u[(u > 0) & (u < 1)]
            got = _binomial_inverse(u, np.full(u.size, m), q, 1 - q, lg)
            np.testing.assert_array_equal(got, [count(x) for x in u.tolist()])

    def test_inversion_mixes_counts_in_one_call(self):
        """Each element is inverted against its own m's CDF row when one call
        holds many m."""
        n, q = 40, 0.3
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        rng = np.random.default_rng(67)
        m = rng.integers(0, n + 1, size=3000)
        u = rng.random(3000)
        got = _binomial_inverse(u, m, q, 1 - q, lg)
        counts = {k: _exact_inverse(k, q, 1 - q)[0] for k in np.unique(m).tolist()}
        np.testing.assert_array_equal(got, [counts[k](x) for k, x in zip(m.tolist(), u.tolist())])

    def test_inversion_of_no_rows(self):
        """A chunk in which no trial is left to draw passes empty arrays."""
        lg = np.array([math.lgamma(k + 1) for k in range(11)])
        got = _binomial_inverse(np.empty(0), np.empty(0, dtype=np.int64), 0.3, 0.7, lg)
        assert got.shape == (0,) and got.dtype == np.int64

    def test_type_frequencies_match_the_multinomial(self):
        """At n = 4 over three cells, each of the 15 types turns up within 5
        standard errors of its multinomial probability in 2e5 draws."""
        n, law, draws = 4, np.array([0.5, 0.3, 0.2]), 200_000
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        counts = _draw_types(np.random.default_rng(71).random((draws, 2)), law, lg)
        seen = Counter(map(tuple, counts.T.tolist()))
        types = [c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n]
        assert set(seen) <= set(types)
        for c in types:
            p = math.factorial(n) / math.prod(map(math.factorial, c)) * math.prod(law**c)
            assert abs(seen[c] / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws), c

    @pytest.mark.parametrize(
        "law",
        [[0.0, 0.2, 0.0, 0.5, 0.3, 0.0], [0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [1e-3, 0.999, 0.0, 1e-3]],
    )
    @pytest.mark.parametrize("n", [1, 7, 500, 10_000])
    def test_counts_sum_to_n_off_zero_law_cells(self, law, n):
        """Every type (a column) sums to n, has no negative count, and puts
        nothing on a zero-law cell; u has a column for each positive cell but
        the last."""
        law = np.array(law)
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        u = np.random.default_rng(73).random((4000, np.count_nonzero(law) - 1))
        counts = _draw_types(u, law, lg)
        assert counts.shape == (law.size, 4000)
        assert (counts.sum(axis=0) == n).all()
        assert (counts >= 0).all()
        assert not counts[law == 0].any()

    @pytest.mark.parametrize(
        "law",
        [[0.01, 0.5, 0.0, 0.49], [1e-4, 0.3, 0.3, 0.2, 0.2], [0.55, 0.1, 0.2, 0.15], [0.3, 0.7],
         [0.5, 0.0, 0.0], [0.0, 0.6, 0.4]],
    )
    @pytest.mark.parametrize("n", [1, 7, 20, 200, 10_000])
    def test_off_lumped_equals_the_full_lumped_inversion(self, law, n):
        """The one comparison against F(0) keeps exactly the trials that the
        lumped cell's full inversion puts 0 on, and the rest are drawn from
        the same uniforms, bit for bit.  u is planted at the first entry of
        the lumped cell's CDF row (F(0) where its window starts at 0) and at
        its float neighbours.  Two of these windows start above 0 (law 0.55
        from n = 200 on, 0.3 at n = 10 000), where every trial lands on the
        lumped cell; at law 0.01 and n = 10 000, F(0) is 2.2e-44 and only
        planted trials count 0 there.  The lumped cell alone draws nothing,
        and a law with no lumped mass is drawn as it is."""
        law = np.array(law)
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        u = np.random.default_rng(79).random((3000, np.count_nonzero(law) - 1))
        rest = np.append(0.0, law[1:])
        if law[0] > 0 and rest.any():
            first = next(_cdf_rows(np.array([n]), law[0], rest.sum(), lg))[2][0, 0]
            near = np.nextafter(first, [0.0, 1.0])
            planted = [first, *near, *np.nextafter(near, [0.0, 1.0]), first - 1e-12, first + 1e-12]
            u[: len(planted), 0] = np.clip(planted, 0.0, np.nextafter(1.0, 0.0))
        got = _draw_off_lumped(u, law, lg)
        if law[0] == 0:
            want = _draw_types(u, law, lg)
        elif not rest.any():
            want = np.zeros((law.size, 0), dtype=np.int64)
        else:
            lumped = _binomial_inverse(u[:, 0], np.full(u.shape[0], n), law[0], rest.sum(), lg)
            want = _draw_types(u[lumped == 0, 1:], rest, lg)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 4), (3, 1)])
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_count_typical_matches_a_loop_over_trials(self, shape, n):
        """The count equals a per-trial loop that forms each block type with
        Python sums and each rate cell by cell as `_log2_mass` orders it, so
        the verdicts agree exactly.  Every table of more than one entry has a
        -inf (zero-probability) entry where the law puts a little mass, which
        makes every type counting there atypical."""
        rng = np.random.default_rng(83 + n)
        size = shape[0] * shape[1]
        cell_law = rng.dirichlet(np.ones(size)).reshape(shape)
        cell_law[0] *= 0.02
        cell_law[:, 0] *= 0.02
        cell_law /= cell_law.sum()
        law = np.append(0.0, cell_law.ravel())
        lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        counts = _draw_types(rng.random((4000, size - 1)), law, lg)

        def check(axis, p):
            p = p.ravel().copy()
            if p.size > 1:
                p[0] = 0.0
            p /= p.sum()
            with np.errstate(divide="ignore"):
                table = np.log2(p)
            return axis, table, -float(p[p > 0] @ table[p > 0])

        checks = [check(0, cell_law.sum(axis=1)), check(1, cell_law.sum(axis=0)), check(None, cell_law)]

        def rate(c, t):
            if any(k > 0 and not math.isfinite(lp) for k, lp in zip(c, t.tolist())):
                return math.inf
            total = 0.0
            for k, lp in zip(c, t.tolist()):
                if math.isfinite(lp):
                    total += k * lp
            return -total / n

        for eps in (0.2, 0.5, 1.0):
            want = 0
            for col in counts.T.tolist():
                grid = [col[1 + a * shape[1] : 1 + (a + 1) * shape[1]] for a in range(shape[0])]
                types = {0: [sum(r) for r in grid], 1: [sum(c) for c in zip(*grid)], None: col[1:]}
                want += all(abs(rate(types[axis], t) - target) < eps for axis, t, target in checks)
            assert _count_typical(counts, shape, n, eps, checks) == want
