"""Inequality and convexity properties of the measures on random instances.

Each ordering from the theory is checked on a large batch of random
(distribution, partition) and (joint, joint-partition) instances with a 1e-9
slack for float error; the convexity/concavity statements are checked through
random convex combinations.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebits.core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
)
from sebits.errors import SupportMismatch
from sebits.measures import (
    RELATIVE_ENTROPY_MODES,
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

from sebits.optimize import _up_smi_pieces

from _oracles import (
    loop_column_block_sums,
    loop_induced_semantic_distribution,
    loop_induced_semantic_joint,
    loop_semantic_conditional_entropy,
    loop_semantic_relative_entropy,
)
from conftest import random_joint, random_partition

SLACK = 1e-9
N_INSTANCES = 1000


def _instances(seed: int, count: int = N_INSTANCES):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nu = int(rng.integers(2, 7))
        nv = int(rng.integers(2, 7))
        j = random_joint(rng, nu, nv)
        fj = JointSynonymousPartition(random_partition(rng, nu), random_partition(rng, nv))
        yield j, fj


def test_entropy_sandwich_on_random_instances():
    """0 <= Hs <= H <= log2 N and Hs <= log2(number of blocks)."""
    rng = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 9))
        d = Distribution(rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0)))
        f = random_partition(rng, n)
        h = entropy(d)
        hs = semantic_entropy(d, f)
        assert -SLACK <= hs <= h + SLACK
        assert h <= np.log2(n) + SLACK
        assert hs <= np.log2(f.semantic_size) + SLACK


def test_chain_rule_sandwich_on_random_instances():
    """Hs(U~)+Hs(V~|U) <= Hs(U~,V~) <= H(V)+Hs(U~|V) <= H(U,V)."""
    for j, fj in _instances(202):
        pu, pv = marginals(j)
        hs_joint = semantic_joint_entropy(j, fj)
        left = semantic_entropy(pu, fj.u_partition) + semantic_conditional_entropy(
            j, fj.v_partition, "v_given_u"
        )
        mid = entropy(pv) + semantic_conditional_entropy(j, fj.u_partition, "u_given_v")
        assert left <= hs_joint + SLACK
        assert hs_joint <= mid + SLACK
        assert mid <= joint_entropy(j) + SLACK


def test_conditional_entropy_dominance_on_random_instances():
    """Hs(V~|U) <= H(V|U) and Hs(U~|V) <= H(U|V)."""
    for j, fj in _instances(303, 500):
        assert (
            semantic_conditional_entropy(j, fj.v_partition, "v_given_u")
            <= conditional_entropy(j, "v_given_u") + SLACK
        )
        assert (
            semantic_conditional_entropy(j, fj.u_partition, "u_given_v")
            <= conditional_entropy(j, "u_given_v") + SLACK
        )


def test_mutual_information_sandwich_on_random_instances():
    """down <= I <= H(V) - Hs(V~|U) <= up, and down <= full <= up with full >= 0."""
    for j, fj in _instances(404):
        pu, pv = marginals(j)
        i = mutual_information(j)
        lo = down_smi(j, fj)
        hi = up_smi(j, fj)
        mid = entropy(pv) - semantic_conditional_entropy(j, fj.v_partition, "v_given_u")
        fl = full_smi(j, fj)
        assert lo <= i + SLACK
        assert i <= mid + SLACK
        assert mid <= hi + SLACK
        assert lo <= fl + SLACK
        assert fl <= mid + SLACK
        assert fl >= -SLACK  # non-negativity of the full companion
        assert hi >= joint_entropy(j) - semantic_joint_entropy(j, fj) - SLACK


def test_relative_entropy_orderings_on_random_instances():
    """Full-support p, q: D(p||q_s) <= D(p_s||q_s) <= D(p_s||q), D(p||q_s) <= D(p||q) <= D(p_s||q)."""
    rng = np.random.default_rng(505)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 8))
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        f = random_partition(rng, n)
        d_ps_qs = semantic_relative_entropy(p, q, f, "full")
        d_ps_q = semantic_relative_entropy(p, q, f, "semantic_vs_syntactic")
        d_p_qs = semantic_relative_entropy(p, q, f, "syntactic_vs_semantic")
        d_p_q = float(np.sum(p.probs * np.log2(p.probs / q.probs)))
        assert d_ps_qs >= -SLACK  # non-negativity of the full form
        assert d_p_qs <= d_ps_qs + SLACK
        assert d_ps_qs <= d_ps_q + SLACK
        assert d_p_qs <= d_p_q + SLACK
        assert d_p_q <= d_ps_q + SLACK


def test_semantic_entropy_concavity():
    """Hs(theta p1 + (1-theta) p2) >= theta Hs(p1) + (1-theta) Hs(p2)."""
    rng = np.random.default_rng(606)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 8))
        f = random_partition(rng, n)
        p1 = rng.dirichlet(np.ones(n))
        p2 = rng.dirichlet(np.ones(n))
        theta = rng.uniform()
        mix = Distribution(theta * p1 + (1 - theta) * p2)
        lhs = semantic_entropy(mix, f)
        rhs = theta * semantic_entropy(Distribution(p1), f) + (1 - theta) * semantic_entropy(
            Distribution(p2), f
        )
        assert lhs >= rhs - 1e-12


@pytest.mark.parametrize("mode", ["full", "syntactic_vs_semantic"])
def test_relative_entropy_convexity_in_the_pair(mode):
    """D_mode(theta p1 + .. || theta q1 + ..) <= theta D_mode(p1||q1) + (1-theta) D_mode(p2||q2).

    These two modes pass both arguments through block aggregation or keep the
    divergence form D(p || linear(q)), so joint convexity follows from the
    log-sum inequality.
    """
    rng = np.random.default_rng(707)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        f = random_partition(rng, n)
        p1, p2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        q1, q2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        theta = rng.uniform()
        mix_p = Distribution(theta * p1 + (1 - theta) * p2)
        mix_q = Distribution(theta * q1 + (1 - theta) * q2)
        lhs = semantic_relative_entropy(mix_p, mix_q, f, mode)
        rhs = theta * semantic_relative_entropy(
            Distribution(p1), Distribution(q1), f, mode
        ) + (1 - theta) * semantic_relative_entropy(Distribution(p2), Distribution(q2), f, mode)
        assert lhs <= rhs + 1e-12


def test_semantic_vs_syntactic_mode_convex_in_q_only():
    """The mixed-granularity form is convex in q for fixed p; joint convexity fails.

    Witness: a single block with p1=(1,0), q1=(.9,.1), p2=(0,1), q2=(.1,.9)
    mixed at theta=1/2 gives 1 on the left but 0.152 on the right.
    """
    rng = np.random.default_rng(717)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        f = random_partition(rng, n)
        p = Distribution(rng.dirichlet(np.ones(n)))
        q1, q2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        theta = rng.uniform()
        mix_q = Distribution(theta * q1 + (1 - theta) * q2)
        lhs = semantic_relative_entropy(p, mix_q, f, "semantic_vs_syntactic")
        rhs = theta * semantic_relative_entropy(
            p, Distribution(q1), f, "semantic_vs_syntactic"
        ) + (1 - theta) * semantic_relative_entropy(p, Distribution(q2), f, "semantic_vs_syntactic")
        assert lhs <= rhs + 1e-12

    f1 = SynonymousPartition.single_block(2)
    lhs = semantic_relative_entropy(
        Distribution([0.5, 0.5]), Distribution([0.5, 0.5]), f1, "semantic_vs_syntactic"
    )
    rhs = 0.5 * semantic_relative_entropy(
        Distribution([1.0, 0.0]), Distribution([0.9, 0.1]), f1, "semantic_vs_syntactic"
    ) + 0.5 * semantic_relative_entropy(
        Distribution([0.0, 1.0]), Distribution([0.1, 0.9]), f1, "semantic_vs_syntactic"
    )
    assert lhs > rhs + 0.5  # joint convexity genuinely fails for this form


def _joint_from(px: np.ndarray, w: np.ndarray) -> JointDistribution:
    return JointDistribution(px[:, None] * w)


def test_up_smi_concave_in_input_distribution():
    """For a fixed channel, the up companion is concave in p(x)."""
    rng = np.random.default_rng(808)
    for _ in range(400):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(ny), size=nx)
        fj = JointSynonymousPartition(random_partition(rng, nx), random_partition(rng, ny))
        p1, p2 = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(nx))
        theta = rng.uniform()
        mix = theta * p1 + (1 - theta) * p2
        lhs = up_smi(_joint_from(mix, w), fj)
        rhs = theta * up_smi(_joint_from(p1, w), fj) + (1 - theta) * up_smi(
            _joint_from(p2, w), fj
        )
        assert lhs >= rhs - 1e-12


def test_down_smi_convex_in_channel():
    """For a fixed input distribution, the down companion is convex in p(v|u)."""
    rng = np.random.default_rng(909)
    for _ in range(400):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        px = rng.dirichlet(np.ones(nx))
        w1 = rng.dirichlet(np.ones(ny), size=nx)
        w2 = rng.dirichlet(np.ones(ny), size=nx)
        fj = JointSynonymousPartition(random_partition(rng, nx), random_partition(rng, ny))
        theta = rng.uniform()
        mix = theta * w1 + (1 - theta) * w2
        lhs = down_smi(_joint_from(px, mix), fj)
        rhs = theta * down_smi(_joint_from(px, w1), fj) + (1 - theta) * down_smi(
            _joint_from(px, w2), fj
        )
        assert lhs <= rhs + 1e-12


@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_semantic_entropy_concavity_hypothesis(n, seed, theta):
    rng = np.random.default_rng(seed)
    f = random_partition(rng, n)
    p1 = rng.dirichlet(np.ones(n))
    p2 = rng.dirichlet(np.ones(n))
    mix = Distribution(theta * p1 + (1 - theta) * p2)
    lhs = semantic_entropy(mix, f)
    rhs = theta * semantic_entropy(Distribution(p1), f) + (1 - theta) * semantic_entropy(
        Distribution(p2), f
    )
    assert lhs >= rhs - 1e-12


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_companion_sandwich_hypothesis(nu, nv, seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, nu, nv)
    fj = JointSynonymousPartition(random_partition(rng, nu), random_partition(rng, nv))
    assert down_smi(j, fj) <= mutual_information(j) + SLACK
    assert mutual_information(j) <= up_smi(j, fj) + SLACK
    assert full_smi(j, fj) >= -SLACK


def _scrambled_partition(rng: np.random.Generator, n: int) -> SynonymousPartition:
    """A random partition whose blocks, and the symbols inside each, are listed out of order."""
    labels = rng.integers(0, n, size=n)
    blocks = [tuple(rng.permutation(np.flatnonzero(labels == lab)).tolist()) for lab in np.unique(labels)]
    return SynonymousPartition(tuple(blocks[k] for k in rng.permutation(len(blocks))), n)


def _with_zeros(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Random probabilities with about `rate` of the entries set to exactly 0, renormalized."""
    m = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    m[rng.random(shape) < rate] = 0.0
    if not m.any():
        m.flat[rng.integers(m.size)] = 1.0
    return m / m.sum()


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_block_aggregators_match_per_block_loops_hypothesis(nu, nv, seed):
    """block_sums-based aggregation agrees with the per-block loops it replaced,
    on zero-mass symbols and scrambled block order, and raises where they raise."""
    rng = np.random.default_rng(seed)
    j = JointDistribution(_with_zeros(rng, (nu, nv), 0.3))
    fj = JointSynonymousPartition(_scrambled_partition(rng, nu), _scrambled_partition(rng, nv))
    pu, _ = marginals(j)
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        induced_semantic_distribution(pu, fj.u_partition).probs,
        loop_induced_semantic_distribution(pu.probs, fj.u_partition), **close,
    )
    np.testing.assert_allclose(
        induced_semantic_joint(j, fj).probs, loop_induced_semantic_joint(j.probs, fj), **close
    )
    for direction, f in (("u_given_v", fj.u_partition), ("v_given_u", fj.v_partition)):
        assert semantic_conditional_entropy(j, f, direction) == pytest.approx(
            loop_semantic_conditional_entropy(j.probs, f, direction), abs=1e-12
        )
    w = _with_zeros(rng, (nu, nv), 0.3)
    w[w.sum(axis=1) == 0, 0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(
        _up_smi_pieces(ChannelModel(w), fj)[1], loop_column_block_sums(w, fj.v_partition), **close
    )
    p, q = (_with_zeros(rng, (nu,), rate) for rate in (0.3, rng.choice([0.0, 0.4])))
    for mode in RELATIVE_ENTROPY_MODES:
        args = (Distribution(p), Distribution(q), fj.u_partition, mode)
        try:
            want = loop_semantic_relative_entropy(p, q, fj.u_partition, mode)
        except SupportMismatch as e:
            with pytest.raises(SupportMismatch, match=re.escape(str(e))):
                semantic_relative_entropy(*args)
        else:
            assert semantic_relative_entropy(*args) == pytest.approx(want, abs=1e-12)
