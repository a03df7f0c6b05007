import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebits.chancode import GroupedCodebook
from sebits.core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
    validate_distribution,
    validate_partition,
)
from sebits.errors import (
    EmptyBlock,
    IncompleteCover,
    IndexOutOfRange,
    NegativeProbability,
    OverlappingBlocks,
    SizeMismatch,
    SumNotOne,
    ValidationError,
)
from sebits.optimize import SemanticDistortionMatrix
from sebits.srccode import SemanticPrefixCode

from conftest import random_joint, random_partition


class TestValidateDistribution:
    def test_table1_is_valid(self):
        d = validate_distribution([0.3, 0.15, 0.15, 0.2, 0.1, 0.1])
        assert d.alphabet_size == 6

    def test_point_mass(self):
        assert validate_distribution([1.0]).alphabet_size == 1

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate_distribution([0.5, 0.6])

    def test_nan_rejected(self):
        """NaN passes every comparison false, so a tolerance test written as
        `> tol` would let it through."""
        with pytest.raises(SumNotOne):
            validate_distribution([np.nan, 0.5, 0.5])

    def test_negative(self):
        with pytest.raises(NegativeProbability):
            validate_distribution([1.2, -0.2])

    def test_empty(self):
        with pytest.raises(SizeMismatch):
            validate_distribution([])

    def test_frozen(self):
        d = validate_distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestValidatePartition:
    def test_table1_partition(self):
        f = validate_partition([[0], [1, 2], [3], [4, 5]], 6)
        assert f.semantic_size == 4
        assert f.block_of.tolist() == [0, 1, 1, 2, 3, 3]

    def test_identity(self):
        f = validate_partition([[0], [1], [2], [3]], 4)
        assert f.semantic_size == f.alphabet_size == 4
        assert f.is_identity

    def test_overlap(self):
        with pytest.raises(OverlappingBlocks):
            validate_partition([[0, 1], [1, 2]], 3)

    def test_incomplete(self):
        with pytest.raises(IncompleteCover):
            validate_partition([[0], [2]], 3)

    def test_empty_block(self):
        with pytest.raises(EmptyBlock):
            validate_partition([[0, 1], []], 2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate_partition([[0], [5]], 2)

    @pytest.mark.parametrize("alphabet_size", [0, 3])
    def test_no_blocks(self, alphabet_size):
        with pytest.raises(SizeMismatch, match="^a partition needs at least one block$"):
            validate_partition([], alphabet_size)

    @pytest.mark.parametrize(
        "blocks, bad",
        [([[0, 1.7], [2.9]], "1.7"), ([[0, True], [2]], "True"), ([[0], [1, np.True_]], "np.True_"),
         ([[0], ["1", 2]], "'1'"), ([[0, float("nan")], [1, 2]], "nan"), ([[0], [1, [2]]], "[2]")],
    )
    def test_non_integer_index_rejected(self, blocks, bad):
        with pytest.raises(IndexOutOfRange) as exc:
            validate_partition(blocks, 3)
        block = next(k for k, b in enumerate(blocks) if any(repr(i) == bad for i in b))
        assert str(exc.value) == f"index {bad} in block {block} is not an integer"

    def test_integer_types_accepted(self):
        f = validate_partition([[np.int64(0), np.uint8(2)], [1.0]], 3)
        assert f.blocks == ((0, 2), (1,))
        assert all(type(i) is int for b in f.blocks for i in b)

    def test_block_order_preserved(self):
        f = validate_partition([[3], [0, 1, 2]], 4)
        assert f.blocks == ((3,), (0, 1, 2))


# each input kind's constructor, applied to a document as its CLI loader would apply it
CONSTRUCT = {
    "distribution": lambda doc: Distribution(doc["probs"]),
    "partition": lambda doc: SynonymousPartition(doc["blocks"], None),
    "joint": lambda doc: JointDistribution(doc["matrix"]),
    "channel": lambda doc: ChannelModel(doc["transition"]),
    "codebook": lambda doc: GroupedCodebook(doc["codewords"], doc["groups"]),
    "distortion": lambda doc: SemanticDistortionMatrix(doc["values"]),
    "code": lambda doc: SemanticPrefixCode(doc["codewords"], doc.get("arity", 2)),
}
DATA_KEYS = {"/probs", "/matrix", "/transition", "/values", "/blocks", "/groups", "/codewords", "/arity"}
MALFORMED_DATA = [
    (kind, doc)
    for kind, pointer, doc in json.loads((Path(__file__).parent / "malformed_inputs.json").read_text())["cases"]
    if pointer in DATA_KEYS
]
LIBRARY_ONLY = [
    ("distribution", {"probs": np.array(["0.5", "0.5"])}),
    ("distribution", {"probs": np.array([True, False])}),
    ("distribution", {"probs": [[0.5], [0.25, 0.25]]}),
    ("joint", {"matrix": [[0.5, 0.25], [0.25]]}),
    ("channel", {"transition": np.array([["1", "0"], ["0", "1"]])}),
    ("distortion", {"values": np.array([[False, True], [True, False]])}),
    ("partition", {"blocks": 5}),
    ("codebook", {"codewords": ["00", "11"], "groups": 5}),
    ("code", {"codewords": (5,)}),
    ("code", {"codewords": 5}),
    ("code", {"codewords": ["0", "1"], "arity": 2.9}),
    ("code", {"codewords": ["0", "1"], "arity": np.float64(2.0)}),
]


class TestOneInputContract:
    """The library constructors refuse what the CLI loaders refuse, with a ValidationError."""

    @pytest.mark.parametrize(
        "kind, doc", MALFORMED_DATA + LIBRARY_ONLY,
        ids=[f"{k}-{i}" for i, (k, _) in enumerate(MALFORMED_DATA + LIBRARY_ONLY)],
    )
    def test_constructor_refuses(self, kind, doc):
        with pytest.raises(ValidationError):
            CONSTRUCT[kind](doc)

    def test_numeric_arrays_and_real_scalars_accepted(self):
        assert Distribution(np.array([1, 0], dtype=np.uint8)).probs.tolist() == [1.0, 0.0]
        assert Distribution([np.float32(0.25), 0.75]).probs.tolist() == [0.25, 0.75]
        w = ChannelModel([np.array([1.0, 0.0]), [0, 1]]).transition
        assert w.dtype == np.float64 and not w.flags.writeable


class TestInducedDistribution:
    def test_table1(self, table1_dist, table1_partition):
        sem = induced_semantic_distribution(table1_dist, table1_partition)
        np.testing.assert_allclose(sem.probs, [0.3, 0.3, 0.2, 0.2], atol=1e-12)

    def test_identity_is_noop(self, table1_dist):
        f = SynonymousPartition.identity(6)
        sem = induced_semantic_distribution(table1_dist, f)
        np.testing.assert_allclose(sem.probs, table1_dist.probs)

    def test_table5_v_mapping(self):
        d = validate_distribution([0.3, 0.2, 0.2, 0.2, 0.1])
        f = validate_partition([[0], [1], [2], [3, 4]], 5)
        np.testing.assert_allclose(
            induced_semantic_distribution(d, f).probs, [0.3, 0.2, 0.2, 0.3], atol=1e-12
        )

    def test_single_block_gives_point_mass(self, table1_dist):
        sem = induced_semantic_distribution(table1_dist, SynonymousPartition.single_block(6))
        np.testing.assert_allclose(sem.probs, [1.0])

    def test_size_mismatch(self, table1_dist):
        with pytest.raises(SizeMismatch):
            induced_semantic_distribution(table1_dist, SynonymousPartition.identity(4))


class TestMarginals:
    def test_table2(self, table2_joint):
        pu, pv = marginals(table2_joint)
        np.testing.assert_allclose(pu.probs, [0.3, 0.3, 0.2, 0.2], atol=1e-12)
        np.testing.assert_allclose(pv.probs, [0.3, 0.2, 0.2, 0.2, 0.1], atol=1e-12)

    def test_product_joint(self):
        pu = np.array([0.6, 0.4])
        pv = np.array([0.2, 0.3, 0.5])
        mu, mv = marginals(JointDistribution(np.outer(pu, pv)))
        np.testing.assert_allclose(mu.probs, pu)
        np.testing.assert_allclose(mv.probs, pv)


class TestChannelModel:
    def test_row_validation(self):
        with pytest.raises(SumNotOne):
            ChannelModel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_nan_entry_rejected(self):
        with pytest.raises(SumNotOne, match=r"rows \[0\]"):
            ChannelModel(np.array([[0.5, np.nan], [0.25, 0.75]]))

    def test_nan_joint_cell_rejected(self):
        with pytest.raises(SumNotOne):
            JointDistribution(np.array([[0.5, np.nan], [0.25, 0.25]]))

    def test_joint_with(self):
        ch = ChannelModel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        j = ch.joint_with(validate_distribution([0.25, 0.75]))
        np.testing.assert_allclose(j.probs, [[0.225, 0.025], [0.15, 0.6]])


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_induced_distribution_preserves_mass(n, seed):
    rng = np.random.default_rng(seed)
    d = Distribution(rng.dirichlet(np.ones(n)))
    f = random_partition(rng, n)
    sem = induced_semantic_distribution(d, f)
    assert abs(float(sem.probs.sum()) - 1.0) < 1e-12
    assert sem.alphabet_size == f.semantic_size


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_induced_joint_marginals_commute(nu, nv, seed):
    """Marginals of the induced semantic joint equal the induced marginal semantics."""
    rng = np.random.default_rng(seed)
    j = random_joint(rng, nu, nv)
    fj = JointSynonymousPartition(random_partition(rng, nu), random_partition(rng, nv))
    sem_joint = induced_semantic_joint(j, fj)
    mu, mv = marginals(sem_joint)
    pu, pv = marginals(j)
    np.testing.assert_allclose(
        mu.probs, induced_semantic_distribution(pu, fj.u_partition).probs, atol=1e-12
    )
    np.testing.assert_allclose(
        mv.probs, induced_semantic_distribution(pv, fj.v_partition).probs, atol=1e-12
    )
