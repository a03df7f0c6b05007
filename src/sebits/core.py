"""Validated core types: distributions, synonymous partitions, joints, channels.

A synonymous partition carves a syntactic alphabet {0..N-1} into ordered,
disjoint, covering blocks; block i_s is the i_s-th semantic symbol.  All types
are frozen after construction and every operation here is a pure function, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import block_sums
from .errors import (
    EmptyBlock,
    IncompleteCover,
    IndexOutOfRange,
    NegativeProbability,
    OverlappingBlocks,
    SizeMismatch,
    SumNotOne,
)

PROB_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass vector over a finite alphabet of size N."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise SizeMismatch("probability vector must be non-empty and 1-D")
        if np.any(p < 0):
            raise NegativeProbability(f"negative entries at {np.flatnonzero(p < 0).tolist()}")
        if abs(float(p.sum()) - 1.0) > PROB_TOL:
            raise SumNotOne(f"entries sum to {float(p.sum())!r}, expected 1 within {PROB_TOL}")
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    def to_json(self) -> dict:
        return {"probs": self.probs.tolist()}


def validate_distribution(probs) -> Distribution:
    """Check non-negativity and unit mass, returning a frozen Distribution."""
    return Distribution(np.asarray(probs, dtype=float))


@dataclass(frozen=True, eq=False)
class SynonymousPartition:
    """Ordered disjoint blocks of {0..N-1}; one block per semantic symbol."""

    blocks: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        n = int(self.alphabet_size)
        if n < 1:
            raise SizeMismatch("alphabet_size must be >= 1")
        block_of = [-1] * n
        for k, b in enumerate(blocks):
            if len(b) == 0:
                raise EmptyBlock(f"block {k} is empty")
            for i in b:
                if not 0 <= i < n:
                    raise IndexOutOfRange(f"index {i} in block {k} outside [0, {n})")
                if block_of[i] >= 0:
                    raise OverlappingBlocks(f"index {i} appears in more than one block")
                block_of[i] = k
        missing = [i for i, k in enumerate(block_of) if k < 0]
        if missing:
            raise IncompleteCover(f"indices {missing} not covered by any block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "alphabet_size", n)
        object.__setattr__(self, "_block_of", np.array(block_of))

    @property
    def semantic_size(self) -> int:
        return len(self.blocks)

    @property
    def block_of(self) -> np.ndarray:
        """Map syntactic index -> block (semantic symbol) index."""
        return self._block_of  # type: ignore[attr-defined]

    @property
    def is_identity(self) -> bool:
        return self.semantic_size == self.alphabet_size

    @classmethod
    def identity(cls, n: int) -> "SynonymousPartition":
        return cls(tuple((i,) for i in range(n)), n)

    @classmethod
    def single_block(cls, n: int) -> "SynonymousPartition":
        return cls((tuple(range(n)),), n)

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}


def validate_partition(blocks, alphabet_size: int) -> SynonymousPartition:
    """Check disjointness, coverage and index range; block order is preserved."""
    return SynonymousPartition(tuple(tuple(b) for b in blocks), alphabet_size)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """N_u x N_v matrix of probabilities p(u, v)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise SizeMismatch("joint distribution must be a non-empty 2-D matrix")
        if np.any(p < 0):
            raise NegativeProbability("joint distribution has negative entries")
        if abs(float(p.sum()) - 1.0) > PROB_TOL:
            raise SumNotOne(f"entries sum to {float(p.sum())!r}, expected 1 within {PROB_TOL}")
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape  # type: ignore[return-value]

    def to_json(self) -> dict:
        return {"matrix": self.probs.tolist()}


@dataclass(frozen=True, eq=False)
class JointSynonymousPartition:
    """A pair of marginal partitions; product blocks U_is x V_js tile the grid."""

    u_partition: SynonymousPartition
    v_partition: SynonymousPartition

    @property
    def semantic_shape(self) -> tuple[int, int]:
        return (self.u_partition.semantic_size, self.v_partition.semantic_size)

    @classmethod
    def identity(cls, n_u: int, n_v: int) -> "JointSynonymousPartition":
        return cls(SynonymousPartition.identity(n_u), SynonymousPartition.identity(n_v))


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Discrete memoryless channel; row x of `transition` is p(y|x)."""

    transition: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.transition, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise SizeMismatch("transition matrix must be a non-empty 2-D matrix")
        if np.any(w < 0):
            raise NegativeProbability("transition matrix has negative entries")
        bad = np.flatnonzero(np.abs(w.sum(axis=1) - 1.0) > PROB_TOL)
        if bad.size:
            raise SumNotOne(f"rows {bad.tolist()} do not sum to 1 within {PROB_TOL}")
        object.__setattr__(self, "transition", _frozen(w))

    @property
    def input_size(self) -> int:
        return self.transition.shape[0]

    @property
    def output_size(self) -> int:
        return self.transition.shape[1]

    def joint_with(self, d: Distribution) -> JointDistribution:
        """Input distribution p(x) times the channel: p(x, y) = p(x) p(y|x)."""
        if d.alphabet_size != self.input_size:
            raise SizeMismatch(
                f"input distribution has {d.alphabet_size} symbols, channel expects {self.input_size}"
            )
        return JointDistribution(d.probs[:, None] * self.transition)

    def to_json(self) -> dict:
        return {"transition": self.transition.tolist()}


def induced_semantic_distribution(d: Distribution, f: SynonymousPartition) -> Distribution:
    """Sum syntactic masses within each block: p(U_is) = sum_{i in block} p(u_i)."""
    if f.alphabet_size != d.alphabet_size:
        raise SizeMismatch(
            f"partition covers {f.alphabet_size} symbols, distribution has {d.alphabet_size}"
        )
    # block sums of a valid distribution stay within the validation tolerance
    return Distribution(block_sums(d.probs, 0, 1, f.block_of, f.semantic_size)[0])


def induced_semantic_joint(j: JointDistribution, fj: JointSynonymousPartition) -> JointDistribution:
    """Block-mass matrix p(U_is x V_js) over the product blocks of `fj`."""
    nu, nv = j.shape
    if fj.u_partition.alphabet_size != nu or fj.v_partition.alphabet_size != nv:
        raise SizeMismatch("joint partition does not tile the joint distribution's grid")
    fu, fv = fj.u_partition, fj.v_partition
    return JointDistribution(
        block_sums(j.probs, fu.block_of, fu.semantic_size, fv.block_of, fv.semantic_size)
    )


def marginals(j: JointDistribution) -> tuple[Distribution, Distribution]:
    """Row-sum (U) and column-sum (V) marginals."""
    return Distribution(j.probs.sum(axis=1)), Distribution(j.probs.sum(axis=0))
