"""Capacity and rate-distortion solvers over synonymous partitions.

Semantic capacity needs no search over mappings: the up companion
H(X) + H(Y) - Hs(X~,Y~) is largest on the pair that merges each alphabet into
one block, where Hs(X~,Y~) = 0, so C_s = max_p H(X) + H(Y).  Semantic
rate-distortion enumerates labeled source partitions and reconstruction
block-size vectors, gated by a caller-supplied budget: the cost sees only the
semantic symbols, so each such pair is one problem on the semantic alphabet.
The pairs are solved least first, and the first whose value reaches the clamp
at zero ends the search.
With the partition pair fixed, both inner problems are solved by closed-form
Blahut-Arimoto-style alternating updates, accelerated by SQUAREM extrapolation
(shortened toward the plain step when it would leave the simplex, so optima on
its boundary keep the speed-up), that stop on a certificate: the up companion
of mutual information is concave in the input distribution and its ascent
stops on the Frank-Wolfe gap; the down companion is convex in the test channel
and its descent, with the multiplier of the distortion constraint re-solved at
every step, stops once the Lagrange-dual lower bound meets the best feasible
value.  Classic Blahut-Arimoto baselines are included for the C <= C_s and
R_s(D) <= R(D) comparisons; both run on the same SQUAREM driver and stop on
their own certificates: Arimoto's upper and lower capacity bounds for C, the
singleton case of the descent's duality bound for R(D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import block_sums
from .core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    _real_array,
    induced_semantic_joint,
)
from .errors import BudgetExceeded, Infeasible, NonConvergence, SizeMismatch, ValidationError
from .measures import entropy, semantic_entropy

_LOG_FLOOR = 1e-300
JSCC_EDGE_TOL = 1e-6
MAX_ROUNDS = 100_000  # `_iterate_to_certificate` rounds, each of up to three steps, before NonConvergence


# ---------------------------------------------------------------------------
# set-partition enumeration
# ---------------------------------------------------------------------------

def ordered_set_partitions(n: int, k: int):
    """Partitions of {0..n-1} into exactly k labeled, non-empty blocks, in
    increasing (block 0, block 1, ...) order.

    Block 0 runs over the sorted non-empty subsets that leave at least k - 1
    symbols, and the symbols it leaves are split into k - 1 blocks the same
    way, down to the last block, which takes every symbol left.  So only the
    k! S(n, k) onto labelings are built, and the recursion stops at the last
    block.
    """
    def split(rest: tuple[int, ...], k: int):
        if k == 1:
            yield (rest,)
            return
        # block 0 is never empty and leaves at least one symbol for each of the other k - 1
        subsets = (c for size in range(1, len(rest) - k + 2) for c in itertools.combinations(rest, size))
        for block in sorted(subsets):
            for tail in split(tuple(x for x in rest if x not in block), k - 1):
                yield (block, *tail)

    if k == n == 0:
        yield ()
    elif 1 <= k <= n:
        yield from split(tuple(range(n)), k)


def count_ordered_set_partitions(n: int, k: int) -> int:
    # k! * Stirling2(n, k) by inclusion-exclusion, never negative
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


# ---------------------------------------------------------------------------
# shared solver pieces
# ---------------------------------------------------------------------------

def _iterate_to_certificate(step, x: np.ndarray, done, rounds: int):
    """Run a monotone map on the simplex until its certificate says stop.

    step(x) returns (the map's image of x, the certificate gap at x, the
    objective at x, lower being better).  Returns (x, objective, stopped) at
    the first x with done(gap, objective) true, or after `rounds` rounds with
    stopped false.  Each round is two steps x -> x1 -> x2 plus a SQUAREM
    extrapolation along them (Varadhan and Roland 2008), x - 2 alpha r +
    alpha^2 v with r = x1 - x, v = x2 - 2 x1 + x and alpha <= -1: it rescues
    near-degenerate problems, where plain Blahut-Arimoto steps contract at a
    rate near 1.  An extrapolation with an entry <= 0 is shortened toward x2,
    alpha <- (alpha - 1) / 2, until it is inside the simplex (Du and Varadhan
    2020), so problems whose optimum lies on the boundary keep the
    acceleration; at alpha = -1 it is x2 itself.  One step from the
    extrapolation is kept when it lowers the objective; otherwise the round
    ends at x2.
    """
    for _ in range(rounds):
        x1, gap, f = step(x)
        if done(gap, f):
            return x, f, True
        x2, gap1, f1 = step(x1)
        if done(gap1, f1):
            return x1, f1, True
        r, v = x1 - x, x2 - 2.0 * x1 + x
        if v.any():
            alpha = min(-float(np.linalg.norm(r) / np.linalg.norm(v)), -1.0)
            ext = x - 2.0 * alpha * r + alpha * alpha * v
            while ext.min() <= 0 and alpha < -1.0:
                alpha = 0.5 * (alpha - 1.0)
                ext = x - 2.0 * alpha * r + alpha * alpha * v
            if ext.min() > 0:
                x3, _, f3 = step(ext / ext.sum())
                if f3 < f:
                    x = x3
                    continue
        x = x2
    _, gap, f = step(x)
    return x, f, done(gap, f)


# ---------------------------------------------------------------------------
# classic Blahut-Arimoto capacity
# ---------------------------------------------------------------------------

def blahut_arimoto_capacity(ch: ChannelModel, tol: float = 1e-10) -> tuple[float, Distribution]:
    """Classic channel capacity max_p I(X;Y) in bits, with the maximizing input.

    The step is Arimoto's update r <- r 2^d, normalised, where d_x is the
    divergence of row x from the output law (Arimoto 1972), run on the
    SQUAREM driver.  It stops on Arimoto's certificate: max d bounds the
    capacity from above and r.d from below, so once they agree within `tol`
    the returned value is within `tol` of the true maximum, or raises
    NonConvergence after `MAX_ROUNDS` rounds.
    """
    if not tol > 0:  # a NaN tol is refused too
        raise ValueError("tol must be positive")
    w = ch.transition
    m = ch.input_size
    logw = np.where(w > 0, np.log2(np.maximum(w, _LOG_FLOOR)), 0.0)

    def step(r: np.ndarray) -> tuple[np.ndarray, float, float]:
        q = r @ w
        logq = np.where(q > 0, np.log2(np.maximum(q, _LOG_FLOOR)), 0.0)
        d = np.sum(w * (logw - logq), axis=1)  # per-input divergence to the output dist
        nxt = r * np.exp2(d - d.max())
        return nxt / nxt.sum(), float(d.max() - r @ d), -float(r @ d)

    r, f, stopped = _iterate_to_certificate(
        step, np.full(m, 1.0 / m), lambda gap, f: gap < tol, MAX_ROUNDS
    )
    if not stopped:
        raise NonConvergence(f"Blahut-Arimoto did not reach tol={tol} in {MAX_ROUNDS} rounds")
    return -f, Distribution(r)


# ---------------------------------------------------------------------------
# inner capacity solver: block Blahut-Arimoto ascent of the up companion over p(x)
# ---------------------------------------------------------------------------

def _up_smi_pieces(ch: ChannelModel, fj: JointSynonymousPartition):
    if fj.u_partition.alphabet_size != ch.input_size or fj.v_partition.alphabet_size != ch.output_size:
        raise SizeMismatch("joint partition does not tile the channel's input x output grid")
    w, fv = ch.transition, fj.v_partition
    # column-block sums of the transition matrix: wv[x, b] = sum_{y in V_b} p(y|x)
    wv = block_sums(w, np.arange(w.shape[0]), w.shape[0], fv.block_of, fv.semantic_size)
    return w, wv, fj.u_partition.block_of


def _up_smi_value_grad(
    p: np.ndarray, w: np.ndarray, wv: np.ndarray, x_block: np.ndarray, x_onehot: np.ndarray
) -> tuple[float, np.ndarray]:
    """Up companion at p and its gradient, up to an additive constant."""
    py = p @ w
    own = p[:, None] * wv
    pb = x_onehot.T @ own  # pb[a, b]: mass of input block a and output block b
    value = entropy(p) + entropy(py) - entropy(pb.ravel())
    logpy = np.log2(np.maximum(py, 1e-15))
    # -log p_x + sum_b wv log pb fused as sum_b wv log(pb / p_x); the mass each
    # x contributes to its block cancels exactly, so boundary points cannot
    # produce mismatched clamps between the two logs
    rest = np.maximum(pb[x_block, :] - own, 0.0)
    ratio = wv + rest / np.maximum(p, 1e-15)[:, None]
    fused = np.where(wv > 0, wv * np.log2(np.maximum(ratio, 1e-300)), 0.0).sum(axis=1)
    return value, fused - (w @ logpy)


def maximize_up_smi(
    ch: ChannelModel, fj: JointSynonymousPartition, tol: float = 1e-8
) -> tuple[float, Distribution]:
    """max over p(x) of H(X)+H(Y)-Hs(X~,Y~) by block Blahut-Arimoto ascent.

    Written with a backward channel and a conditional block distribution, both
    fixed at the current point, the objective is H(A) + 2 H(X|A) + sum_x p_x c_x
    for the input block A, with c_x = g_x + 2 log p_x - log p_a and g the
    gradient.  Its exact maximizer p_x ~ S_a 2^{c_x/2}, S_a = sum over the
    block of 2^{c/2}, is the step, so no step lowers the objective; on
    identity partitions it is classic Blahut-Arimoto (Arimoto 1972).  The
    ascent starts from the uniform input.  The objective is concave in p(x),
    so the Frank-Wolfe gap max g - g.p bounds the distance to the global
    maximum, and the ascent stops once it is below `tol`, or raises
    NonConvergence after `MAX_ROUNDS` rounds.
    """
    if not tol > 0:  # a NaN tol is refused too
        raise ValueError("tol must be positive")
    w, wv, x_block = _up_smi_pieces(ch, fj)
    x_onehot = np.eye(x_block.max() + 1)[x_block]

    def step(p: np.ndarray) -> tuple[np.ndarray, float, float]:
        value, g = _up_smi_value_grad(p, w, wv, x_block, x_onehot)
        log_pa = np.log2(np.maximum(p @ x_onehot, _LOG_FLOOR))
        half_c = 0.5 * (g - log_pa[x_block]) + np.log2(np.maximum(p, _LOG_FLOOR))
        e = np.exp2(half_c - half_c.max())
        nxt = ((e @ x_onehot) @ x_onehot.T) * e
        return nxt / nxt.sum(), float(g.max() - g @ p), -value

    p, f, stopped = _iterate_to_certificate(
        step, np.full(w.shape[0], 1.0 / w.shape[0]), lambda gap, f: gap < tol, MAX_ROUNDS
    )
    if not stopped:
        raise NonConvergence(f"up-SMI ascent did not reach tol={tol} in {MAX_ROUNDS} rounds")
    return -f, Distribution(p)


# ---------------------------------------------------------------------------
# semantic capacity: one ascent on the single-block pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityResult:
    c_s: float
    best_input: Distribution
    best_partition: JointSynonymousPartition
    c_classic: float

    def to_json(self) -> dict:
        return {
            "c_s": self.c_s,
            "c_classic": self.c_classic,
            "best_input": self.best_input.probs.tolist(),
            "best_partition": {
                "input_blocks": [list(b) for b in self.best_partition.u_partition.blocks],
                "output_blocks": [list(b) for b in self.best_partition.v_partition.blocks],
            },
        }


def semantic_capacity(
    ch: ChannelModel,
    tol: float = 1e-8,
    identity_only: bool = False,
) -> CapacityResult:
    """max over (input-partition, output-partition) pairs and p(x) of the up companion.

    The up companion is H(X) + H(Y) - Hs(X~,Y~).  Hs >= 0, and it is 0 on the
    pair with every input in one block and every output in one block, so that
    pair attains the outer maximum at every p(x) and C_s = max_p H(X) + H(Y):
    one ascent on it, stopped on its Frank-Wolfe gap, gives C_s.
    `identity_only` takes the identity pair instead, where the up companion is
    I(X;Y), so C_s is the classic capacity: the Blahut-Arimoto value and input
    already computed for `c_classic` are returned, and c_s == c_classic.
    """
    c_classic, r = blahut_arimoto_capacity(ch, tol=min(tol, 1e-10))
    nx, ny = ch.input_size, ch.output_size
    if identity_only:
        fj = JointSynonymousPartition.identity(nx, ny)
        return CapacityResult(c_s=c_classic, best_input=r, best_partition=fj, c_classic=c_classic)
    fj = JointSynonymousPartition(
        SynonymousPartition.single_block(nx), SynonymousPartition.single_block(ny)
    )
    c_s, p = maximize_up_smi(ch, fj, tol)
    return CapacityResult(c_s=c_s, best_input=p, best_partition=fj, c_classic=c_classic)


# ---------------------------------------------------------------------------
# semantic distortion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SemanticDistortionMatrix:
    """Non-negative cost d_s(x~_is, x^~_js) of representing one semantic symbol by another."""

    values: np.ndarray

    def __post_init__(self):
        v = _real_array(self.values, 2, "distortion matrix must be a non-empty 2-D matrix")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValidationError("distortion entries must be finite and non-negative")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]


def hamming_distortion(n_source: int) -> SemanticDistortionMatrix:
    """0 on the diagonal, 1 elsewhere."""
    return SemanticDistortionMatrix(1.0 - np.eye(n_source))


def expected_semantic_distortion(
    j: JointDistribution,
    fx: SynonymousPartition,
    fxh: SynonymousPartition,
    ds: SemanticDistortionMatrix,
) -> float:
    """sum over product blocks of block mass times d_s(block)."""
    if ds.shape != (fx.semantic_size, fxh.semantic_size):
        raise SizeMismatch(
            f"distortion matrix is {ds.shape}, partitions induce "
            f"{(fx.semantic_size, fxh.semantic_size)}"
        )
    mass = induced_semantic_joint(j, JointSynonymousPartition(fx, fxh)).probs
    return float(np.sum(mass * ds.values))


# ---------------------------------------------------------------------------
# classic Blahut-Arimoto rate-distortion
# ---------------------------------------------------------------------------

def blahut_arimoto_rd(
    src: Distribution, d, target_d: float, tol: float = 1e-8
) -> tuple[float, ChannelModel]:
    """Classic R(D) in bits with the achieving test channel.

    The semantic rate-distortion solver with every block a single symbol,
    where the down companion is I(X;X^): constrained Blahut-Arimoto stopped on
    a duality certificate, so the rate is within `tol` of R(D) and the channel
    meets the target.
    """
    if not tol > 0:  # a NaN tol is refused too
        raise ValueError("tol must be positive")
    p = src.probs
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.size:
        raise SizeMismatch("distortion matrix rows must match the source alphabet")
    if not target_d >= 0:  # a NaN target is refused too
        raise Infeasible("distortion target must be non-negative")
    d_floor = float(p @ d.min(axis=1))
    if target_d < d_floor - 1e-12:
        raise Infeasible(f"no test channel reaches distortion {target_d} (minimum {d_floor})")
    rate, _, q = _min_down_smi_under_distortion(p, d, np.ones(d.shape[1]), 0.0, target_d, tol)
    return max(rate, 0.0), ChannelModel(q)


# ---------------------------------------------------------------------------
# semantic rate-distortion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateDistortionResult:
    r_s: float
    best_test_channel: ChannelModel
    best_partitions: tuple[SynonymousPartition, SynonymousPartition]
    r_classic: float
    distortion_achieved: float

    def to_json(self) -> dict:
        return {
            "r_s": self.r_s,
            "r_classic": self.r_classic,
            "distortion_achieved": self.distortion_achieved,
            "best_test_channel": self.best_test_channel.transition.tolist(),
            "best_partitions": {
                "source_blocks": [list(b) for b in self.best_partitions[0].blocks],
                "reconstruction_blocks": [list(b) for b in self.best_partitions[1].blocks],
            },
        }


def _down_smi_of_block_channel(
    p: np.ndarray, qb: np.ndarray, sizes: np.ndarray, offset: float
) -> float:
    """offset + I(A;B) - sum_b r_b log2 |b| for the block channel qb[a, b] on A ~ p,
    where r is the law of B: with offset = -H(X|X~), the down companion
    Hs(X~) + Hs(X^~) - H(X, X^) of the test channel that is constant on each
    source block and spreads block b's mass evenly over its |b| symbols."""
    joint = p[:, None] * qb
    r = joint.sum(axis=0)
    return offset + entropy(p) + entropy(r) - entropy(joint.ravel()) - float(r @ np.log2(sizes))


def _meet_target(
    p: np.ndarray, d: np.ndarray, shifted: np.ndarray, sizes: np.ndarray,
    t: np.ndarray, aim: float, lam: float,
) -> tuple[float, np.ndarray]:
    """The multiplier at which the channel qb ~ t_b A_ab has distortion `aim`.

    A_ab = |b| 2^{-lam d(a, b)}, taken with each row of d shifted to start at
    0, which rescales the rows of A and leaves qb as it is.  The distortion
    falls as lam grows, with slope -ln 2 times the p-mean of the variance of
    d under qb(.|a).  Returns (lam, A) with A taken at that lam: lam = 0 when
    the target is slack there, else the root by Newton's method from `lam`,
    kept inside the bracket by doubling and bisection, or the last probe if
    rounding keeps the distortion from meeting `aim` within 0.5e-12 relative.
    """
    lo, hi = 0.0, math.inf
    probe = 0.0
    for _ in range(200):
        at = probe
        a = sizes * np.exp2(-at * shifted)
        qb = t * a
        qb /= qb.sum(axis=1, keepdims=True)
        mean = np.sum(qb * d, axis=1)
        excess = float(p @ mean) - aim
        if abs(excess) <= 0.5e-12 * max(1.0, aim) or (probe == 0.0 and excess <= 0.0):
            break
        if excess > 0.0:
            lo = probe
        else:
            hi = probe
        if probe == 0.0 and lam > 0.0:
            probe = lam  # the previous step's multiplier is close
            continue
        var = float(p @ (np.sum(qb * d * d, axis=1) - mean * mean))
        newton = probe + excess / (math.log(2.0) * var) if var > 0.0 else math.inf
        if not lo < newton < hi:
            newton = 2.0 * lo + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        probe = newton
    return at, a


def _min_down_smi_under_distortion(
    p: np.ndarray,
    d: np.ndarray,
    sizes: np.ndarray,
    offset: float,
    target_d: float,
    tol: float,
) -> tuple[float, float, np.ndarray]:
    """min of offset + I(A;B) - sum_b r_b log2 sizes_b subject to E d(A, B) <= target,
    by constrained Blahut-Arimoto.

    A ~ p ranges over the source blocks and B over the reconstruction blocks,
    with law r.  For a partition pair, p the block masses p~, d the semantic
    cost and offset = -H(X|X~), this is the least down companion over test
    channels: the optimal channel is even inside each reconstruction block,
    and averaging its rows over a source block (p-weighted) keeps the law of
    (X~, X^~), so the distortion and Hs(X^~), and does not lower H(X^|X)
    (entropy is concave), so one row per source block, qb[a, b], carries it.
    Hs(X^~) = min_t -sum_b r_b log t_b over block distributions t, so the
    problem is a joint minimum over (channel, t), alternated in closed form.
    Given t, the best feasible channel is qb ~ t_b |b| 2^{-lam d(a, b)} with
    the multiplier lam set so that it meets the target exactly (lam = 0 when
    the target is slack); given the channel, t is the block masses of p qb.
    Re-solving lam at every step keeps the iteration off the multipliers near
    the slope of a straight segment of the curve, where Blahut-Arimoto at a
    fixed slope contracts at a rate near 1.  Every step certifies the
    Lagrange-dual lower bound offset - sum_a p_a log2 c_a - lam * target - gap
    (c = A t, gap = log2 max_b sum_a p_a A_ab / c_a, the Blahut-Arimoto
    duality gap), and its channel is feasible; the descent stops when the best
    feasible value is within `tol` of the bound, or reaches 0, where the
    caller's clamp makes it final; after `MAX_ROUNDS` rounds it raises
    NonConvergence.  Returns the best feasible (value, dist, qb).
    """
    col_cost = p @ d
    j = int(np.argmin(col_cost))
    if col_cost[j] <= target_d:
        # all to one reconstruction block: I(A;B) = 0 and offset <= 0, so the value,
        # taken exactly, is at most 0, where the caller's clamp makes it final
        qb = np.zeros_like(d)
        qb[:, j] = 1.0
        return offset - math.log2(sizes[j]), float(col_cost[j]), qb
    limit = target_d + 1e-12
    row_min = d.min(axis=1)
    shifted = d - row_min[:, None]
    lam, lower, best = 0.0, -math.inf, None

    def step(t: np.ndarray) -> tuple[np.ndarray, float, float]:
        nonlocal lam, lower, best
        lam, a = _meet_target(p, d, shifted, sizes, t, target_d, lam)
        c = a @ t
        ratio = (p / c) @ a
        gap = math.log2(ratio.max())
        # the joint objective at t with the best channel meeting the target: no step
        # raises it, and it sits at most the gap above the constrained minimum
        joint = offset - float(p @ (np.log2(c) - lam * row_min)) - lam * target_d
        lower = max(lower, joint - gap)
        qb = t * a / c[:, None]
        dist = float(np.sum(p[:, None] * qb * d))
        if dist <= limit:
            value = _down_smi_of_block_channel(p, qb, sizes, offset)
            if best is None or value < best[0]:
                best = (value, dist, qb)
        return t * ratio / (t @ ratio), gap, joint

    def done(gap: float, joint: float) -> bool:
        return best is not None and (best[0] <= 0.0 or best[0] - lower <= tol)

    t0 = np.full(sizes.size, 1.0 / sizes.size)
    if not _iterate_to_certificate(step, t0, done, MAX_ROUNDS)[2]:
        raise NonConvergence(f"down-SMI descent did not certify tol={tol} in {MAX_ROUNDS} rounds")
    return best


def semantic_rate_distortion(
    src: Distribution,
    ds: SemanticDistortionMatrix,
    target_d: float,
    partition_budget: int = 10_000,
    tol: float = 1e-7,
    reconstruction_size: int | None = None,
) -> RateDistortionResult:
    """min over partition pairs and distortion-feasible test channels of the down companion.

    `ds` is indexed by semantic symbols, so a source partition into
    k = ds.shape[0] blocks enters only through its block masses p~ and
    H(X|X~), and a partition of the n^ reconstruction symbols into
    k^ = ds.shape[1] blocks only through its block sizes.  The search ranges
    over labeled source partitions and the compositions of n^ into k^ sizes,
    one k x k^ solve each.  `partition_budget` caps their number, counted up
    front, so an input over it is refused before any solve.  Each composition
    stands for its consecutive-block partition, the least labeled partition
    with those sizes, so the least (value, source blocks, reconstruction
    blocks) is the one the enumeration of every labeled pair would keep.
    Pairs are solved least first, so that pair is the first of the least
    value, and the first pair whose value reaches the clamp at zero ends the
    search: no later pair can be less.  The returned n x n^ test channel is
    constant on each source block and even inside each reconstruction block.
    The reconstruction syntactic alphabet defaults to one symbol per semantic
    symbol.  The result is clamped at zero.
    """
    if not tol > 0:  # a NaN tol is refused too
        raise ValueError("tol must be positive")
    if not target_d >= 0:  # a NaN target is refused too
        raise Infeasible("distortion target must be non-negative")
    p = src.probs
    n = src.alphabet_size
    n_sx, n_sxh = ds.shape
    n_hat = reconstruction_size if reconstruction_size is not None else n_sxh
    if n_sx > n or n_sxh > n_hat:
        raise SizeMismatch("distortion matrix implies more semantic symbols than syntactic ones")
    required = count_ordered_set_partitions(n, n_sx) * math.comb(n_hat - 1, n_sxh - 1)
    if required > partition_budget:
        raise BudgetExceeded(
            f"enumeration needs {required} partition pairs, budget is {partition_budget}",
            required=required,
        )

    # each size vector's consecutive blocks: the least labeled partition with those sizes
    edges = [(0, *c, n_hat) for c in itertools.combinations(range(1, n_hat), n_sxh - 1)]
    recon = [SynonymousPartition([tuple(range(a, b)) for a, b in zip(e, e[1:])], n_hat) for e in edges]
    pos = p > 0

    def solves():
        """(clamped value, fx, fxh, sizes, dist, qb) of each pair, in key order,
        up to the first whose value is at most 0."""
        for fx_blocks in ordered_set_partitions(n, n_sx):
            fx = SynonymousPartition(fx_blocks, n)
            pt = block_sums(p, 0, 1, fx.block_of, n_sx)[0]
            if target_d < float(pt @ ds.values.min(axis=1)) - 1e-12:
                continue  # no pair with this source partition can meet the distortion target
            # -H(X|X~) as a sum of p_x log2(p_x / p~_b) <= 0, each exactly 0 on a singleton block
            offset = float(p[pos] @ np.log2(p[pos] / pt[fx.block_of[pos]]))
            for fxh in recon:
                sizes = np.array([len(b) for b in fxh.blocks], dtype=float)
                value, dist, qb = _min_down_smi_under_distortion(
                    pt, ds.values, sizes, offset, target_d, tol
                )
                yield max(value, 0.0), fx, fxh, sizes, dist, qb
                if value <= 0.0:
                    return  # the clamp makes this final: no later pair can be less

    # min keeps the first of equal values, which is the least pair
    best = min(solves(), key=lambda solved: solved[0], default=None)
    if best is None:
        raise Infeasible(f"no partition pair admits a test channel with distortion <= {target_d}")
    value, fx, fxh, sizes, dist, qb = best
    q = qb[fx.block_of][:, fxh.block_of] / sizes[fxh.block_of]
    dsyn = ds.values[np.ix_(fx.block_of, fxh.block_of)]
    r_classic, _ = blahut_arimoto_rd(src, dsyn, target_d)
    return RateDistortionResult(
        r_s=value,
        best_test_channel=ChannelModel(q),
        best_partitions=(fx, fxh),
        r_classic=r_classic,
        distortion_achieved=dist,
    )


# ---------------------------------------------------------------------------
# source-channel feasibility
# ---------------------------------------------------------------------------

def jscc_feasible(
    rate: float,
    src: Distribution,
    f: SynonymousPartition,
    ch: ChannelModel,
    mode: str = "lossless",
    ds: SemanticDistortionMatrix | None = None,
    target_d: float | None = None,
    partition_budget: int = 10_000,
    tol: float = 1e-8,
) -> str:
    """Classify a code rate against the semantic source-channel criterion.

    Lossless: feasible iff Hs(U~) <= rate <= C_s.  Lossy (needs ds and
    target_d): feasible iff R_s(D) <= rate <= C_s, with `partition_budget`
    gating the R_s(D) enumeration.  Returns "feasible", "infeasible", or
    "boundary" when within JSCC_EDGE_TOL of either edge.
    """
    if mode == "lossless":
        lower = semantic_entropy(src, f)
    elif mode == "lossy":
        if ds is None or target_d is None:
            raise ValueError("lossy mode needs ds and target_d")
        lower = semantic_rate_distortion(
            src, ds, target_d, partition_budget=partition_budget, tol=tol
        ).r_s
    else:
        raise ValueError(f"mode must be 'lossless' or 'lossy', got {mode!r}")
    upper = semantic_capacity(ch, tol=tol).c_s
    if abs(rate - lower) <= JSCC_EDGE_TOL or abs(rate - upper) <= JSCC_EDGE_TOL:
        return "boundary"
    if lower <= rate <= upper:
        return "feasible"
    return "infeasible"
