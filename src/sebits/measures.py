"""Discrete information measures over synonymous partitions.

All logs are base 2 with the 0*log(0) = 0 convention.  Quantities computed
through a non-identity partition are in sebits, otherwise in bits; the two
share the same numeric type and the distinction is documentation only.

Naming: `up_smi` / `down_smi` are the upper and lower companions of classic
mutual information,

    up   = H(U) + H(V) - Hs(U~, V~)      (>= I(U;V))
    down = Hs(U~) + Hs(V~) - H(U, V)     (<= I(U;V), may be negative)

and `full_smi` = Hs(U~) + Hs(V~) - Hs(U~, V~) >= 0.
"""

from __future__ import annotations

import numpy as np

from ._kernels import block_sums, xlog2x
from .core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
)
from .errors import SizeMismatch, SupportMismatch

RELATIVE_ENTROPY_MODES = ("full", "semantic_vs_syntactic", "syntactic_vs_semantic")


def entropy(d: Distribution | np.ndarray) -> float:
    """Shannon entropy -sum p log2 p in bits."""
    p = d.probs if isinstance(d, Distribution) else np.asarray(d, dtype=float)
    return float(-xlog2x(p).sum())


def semantic_entropy(d: Distribution, f: SynonymousPartition) -> float:
    """Entropy of the block-mass distribution induced by the partition (sebits)."""
    return entropy(induced_semantic_distribution(d, f))


def semantic_joint_entropy(j: JointDistribution, fj: JointSynonymousPartition) -> float:
    """Entropy of the product-block masses of a joint distribution (sebits)."""
    return entropy(induced_semantic_joint(j, fj).probs.ravel())


def joint_entropy(j: JointDistribution) -> float:
    return entropy(j.probs.ravel())


def conditional_entropy(j: JointDistribution, direction: str) -> float:
    """Classic H(U|V) (direction "u_given_v") or H(V|U) ("v_given_u")."""
    pu, pv = marginals(j)
    if direction == "u_given_v":
        return joint_entropy(j) - entropy(pv)
    if direction == "v_given_u":
        return joint_entropy(j) - entropy(pu)
    raise ValueError(f"direction must be 'u_given_v' or 'v_given_u', got {direction!r}")


def mutual_information(j: JointDistribution) -> float:
    pu, pv = marginals(j)
    return entropy(pu) + entropy(pv) - joint_entropy(j)


def semantic_conditional_entropy(
    j: JointDistribution, f_cond: SynonymousPartition, direction: str
) -> float:
    """Hs(U~|V) or Hs(V~|U): the conditioned variable stays syntactic.

    The conditional mapping applies the same partition of the semantic-side
    alphabet for every conditioning symbol.
    """
    if direction not in ("u_given_v", "v_given_u"):
        raise ValueError(f"direction must be 'u_given_v' or 'v_given_u', got {direction!r}")
    # rows: the conditioning symbol; columns: the symbols the partition covers
    m = j.probs.T if direction == "u_given_v" else j.probs
    if f_cond.alphabet_size != m.shape[1]:
        side, other = ("U", "V") if direction == "u_given_v" else ("V", "U")
        raise SizeMismatch(f"partition must cover the {side} alphabet for Hs({side}~|{other})")
    cond_mass = block_sums(m, np.arange(len(m)), len(m), f_cond.block_of, f_cond.semantic_size)
    # ratio 1 keeps empty cells at 0 without a 0/0 (a cell with mass has a row with mass);
    # the sum per conditioning symbol, then over them, fixes the printed bits
    given = m.sum(axis=1)[:, None]
    ratio = np.divide(cond_mass, given, out=np.ones_like(cond_mass), where=cond_mass > 0)
    return float(-np.sum(cond_mass * np.log2(ratio), axis=1).sum())


def semantic_relative_entropy(
    p: Distribution, q: Distribution, f: SynonymousPartition, mode: str = "full"
) -> float:
    """Relative entropy with either argument coarsened by the partition.

    mode "full":                  D(p_s || q_s) over block masses, >= 0
    mode "semantic_vs_syntactic": sum_block sum_u p(u) log2(p_s(block) / q(u))
    mode "syntactic_vs_semantic": sum_block sum_u p(u) log2(p(u) / q_s(block)), may be negative
    """
    if p.alphabet_size != q.alphabet_size:
        raise SizeMismatch("p and q must share one alphabet")
    if f.alphabet_size != p.alphabet_size:
        raise SizeMismatch("partition does not cover the alphabet of p and q")
    if mode not in RELATIVE_ENTROPY_MODES:
        raise ValueError(f"mode must be one of {RELATIVE_ENTROPY_MODES}, got {mode!r}")

    p_s = induced_semantic_distribution(p, f).probs
    q_s = induced_semantic_distribution(q, f).probs
    if mode == "full":
        blocks = np.flatnonzero(p_s > 0)
        weight = num = p_s[blocks]
        den = q_s[blocks]
    else:
        # a symbol with mass puts mass on its block, so this covers every nonzero term
        has_mass = p.probs > 0
        blocks = f.block_of[has_mass]
        weight = p.probs[has_mass]
        if mode == "semantic_vs_syntactic":
            num, den = p_s[blocks], q.probs[has_mass]
        else:  # syntactic_vs_semantic
            num, den = weight, q_s[blocks]
    missing = den <= 0
    if missing.any():
        if mode == "semantic_vs_syntactic":
            raise SupportMismatch("q vanishes at a symbol where p has mass")
        raise SupportMismatch(f"q has no mass on block {blocks[missing].min()} where p does")
    return float(np.sum(weight * np.log2(num / den)))


def up_smi(j: JointDistribution, fj: JointSynonymousPartition) -> float:
    """H(U) + H(V) - Hs(U~, V~); upper companion of I(U;V)."""
    pu, pv = marginals(j)
    return entropy(pu) + entropy(pv) - semantic_joint_entropy(j, fj)


def down_smi(j: JointDistribution, fj: JointSynonymousPartition, clamp: bool = False) -> float:
    """Hs(U~) + Hs(V~) - H(U, V); lower companion of I(U;V), raw by default."""
    pu, pv = marginals(j)
    value = (
        semantic_entropy(pu, fj.u_partition)
        + semantic_entropy(pv, fj.v_partition)
        - joint_entropy(j)
    )
    return max(value, 0.0) if clamp else value


def full_smi(j: JointDistribution, fj: JointSynonymousPartition) -> float:
    """Hs(U~) + Hs(V~) - Hs(U~, V~); non-negative."""
    pu, pv = marginals(j)
    return (
        semantic_entropy(pu, fj.u_partition)
        + semantic_entropy(pv, fj.v_partition)
        - semantic_joint_entropy(j, fj)
    )
