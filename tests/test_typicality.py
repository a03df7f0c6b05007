"""Typical-set membership, exact enumeration, and the Monte Carlo joint probes."""

import warnings

import numpy as np
import pytest

from sebits.core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
)
from sebits.errors import BudgetExceeded, IndexOutOfRange
from sebits.measures import down_smi, full_smi, mutual_information, up_smi
from sebits.typicality import (
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

    def test_batch_split_invariance(self):
        """Per-trial counter slices make results independent of chunking."""
        kw = dict(n=24, eps=0.1, trials=30_000, seed=29, mode="independent")
        a = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, batch=4096, **kw)
        b = estimate_joint_typicality(WEAK_JOINT, WEAK_FJ, batch=911, **kw)
        assert a.prob_typical == b.prob_typical
        assert a.detail["encoding_prob"] == b.detail["encoding_prob"]
