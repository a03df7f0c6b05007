"""Empirical checks of the semantic and synonymous typical-set bounds.

Every rate here is a rate of a type: the log2 probability of one sequence of
type c is sum_k c_k log2 p_k (method of types), computed by `_log2_mass`
column by column, so a type gets the same float wherever it comes from.
Small block lengths are handled exactly: the O(N^n) sweep becomes one array
computation over the grid of C(n+N-1, N-1) compositions, walked in
fixed-size chunks, with multinomial coefficients as exact integer weights.
Every membership test, exact or sampled, is the one predicate `_within`: a
rate is typical when it lies strictly within eps of its target (Cover &
Thomas write the typical set with <=), and a rate lying exactly on +/-eps is
decided by floating-point rounding.
Large block lengths fall back to seeded Monte Carlo on types.  Each joint
probe draws a trial's type over its own cells, one lumped cell and then the
semantic cells (a, b), by K - 1 conditional binomials (Devroye 1986, ch. XI),
each inverted from one uniform, so a trial costs K - 1 uniforms whatever n
is.  A trial that counts on the lumped cell is atypical, so it draws no
further cell.  Trials run in chunks of about 2^17 uniforms, and the calling
thread and one helper thread each draw and score chunks, whose integer hit
counts are summed: two threads at most.

Every bound the exact sweep checks holds at every n, so a failed check is a
fault.  Each semantically typical sequence has probability below
2^{-n(Hs-eps)}, so |A~| >= Pr{A~} 2^{n(Hs-eps)} (the step of the proof of
Cover & Thomas Thm 3.1.2 before Pr{A~} > 1 - eps is used), and each member
of the synonymous class B(z) of a semantic sequence z has conditional
probability below 2^{-n(H-Hs-eps)}, so |B(z)| >= Pr{B(z) | z} 2^{n(H-Hs-eps)}.
The paper's (1 - eps) 2^{n(Hs-eps)} follows from the first whenever
Pr{A~} >= 1 - eps, which the AEP promises only for sufficiently large n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from ._kernels import CHUNK_DRAWS, trial_map
from .core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
)
from .errors import BudgetExceeded, IndexOutOfRange
from .measures import entropy, joint_entropy

EXHAUSTIVE_STATE_CAP = 2**24
GRID_CHUNK = 1 << 14


def _log2_probs(p: np.ndarray) -> np.ndarray:
    out = np.full(p.shape, -np.inf)
    mask = p > 0
    out[mask] = np.log2(p[mask])
    return out


def is_semantically_typical(
    seq, d: Distribution, f: SynonymousPartition, eps: float
) -> bool:
    """Whether a semantic index sequence has empirical semantic entropy eps-close to Hs.

    The rate is that of the sequence's type, the float the exact sweep gives
    that type, so every ordering of a sequence gets one verdict.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    sem = induced_semantic_distribution(d, f)
    seq = np.asarray(seq, dtype=int)
    if seq.size == 0 or seq.min() < 0 or seq.max() >= sem.alphabet_size:
        raise IndexOutOfRange("semantic sequence indices outside the semantic alphabet")
    counts = np.bincount(seq, minlength=sem.alphabet_size)[None]
    rate = -_log2_mass(counts, _log2_probs(sem.probs)) / seq.size
    return bool(_within([rate], [entropy(sem)], eps)[0])


def is_synonymous_typical(
    u_seq, d: Distribution, f: SynonymousPartition, eps: float
) -> bool:
    """All three membership conditions for a syntactic sequence.

    Syntactic rate within eps of H(U), semantic rate of the blockwise image
    within eps of Hs(U~), and the conditional rate of choosing this sequence
    inside its synonymous set within eps of H(U) - Hs(U~).  Each rate is that
    of the sequence's syntactic or semantic type, computed as the exact sweep
    computes it, so a sequence is a member exactly when its type is counted
    in `synonymous_union_size`.  The last condition is tested only when the
    first two pass, so a sequence of zero probability never takes inf - inf.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    u_seq = np.asarray(u_seq, dtype=int)
    if u_seq.size == 0 or u_seq.min() < 0 or u_seq.max() >= d.alphabet_size:
        raise IndexOutOfRange("sequence indices outside the syntactic alphabet")
    sem = induced_semantic_distribution(d, f)
    h, hs = entropy(d), entropy(sem)
    n = u_seq.size
    rate_syn = -_log2_mass(np.bincount(u_seq, minlength=d.alphabet_size)[None], _log2_probs(d.probs)) / n
    sem_counts = np.bincount(f.block_of[u_seq], minlength=sem.alphabet_size)[None]
    rate_sem = -_log2_mass(sem_counts, _log2_probs(sem.probs)) / n
    return bool(
        _within([rate_syn, rate_sem], [h, hs], eps)[0] and _within([rate_syn - rate_sem], [h - hs], eps)[0]
    )


@dataclass(frozen=True)
class TypicalityReport:
    """Sizes, probabilities and bound checks for one typicality experiment.

    `bound_satisfied` is true only when every check the experiment makes
    holds at this n: in exact mode, upper_bound >= set_size >= lower_bound
    and every synonymous-class bracket in `detail`; in Monte Carlo mode, the
    estimate against its band.
    """

    n: int
    epsilon: float
    prob_typical: float
    set_size: float | None
    lower_bound: float
    upper_bound: float
    bound_satisfied: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _type_grid(n: int, parts: int):
    """Every composition of n into `parts` counts, in lexicographic order.

    Yields int64 arrays of one composition per row.  Each row of the grid for
    parts - 1 is split into rows for `parts` by writing its last count L as
    (c, L - c) for c = 0..L, which keeps lexicographic order.  Every level is
    cut into pieces that expand to about GRID_CHUNK rows (GRID_CHUNK + n at
    most), so memory stays fixed however many compositions there are.
    """
    if parts == 1:
        yield np.array([[n]])
        return
    for head in _type_grid(n, parts - 1):
        ends = np.cumsum(head[:, -1] + 1)
        cuts = np.searchsorted(ends, np.arange(GRID_CHUNK, ends[-1], GRID_CHUNK))
        for piece in np.split(head, cuts):
            if piece.size:
                reps = piece[:, -1] + 1
                rows = np.repeat(piece, reps, axis=0)
                c = np.arange(rows.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
                yield np.column_stack([rows[:, :-1], c, rows[:, -1] - c])


def _supported_types(n: int, probs: np.ndarray):
    """Type-grid chunks without the rows that put a count on a zero-probability symbol."""
    zero = probs == 0
    for counts in _type_grid(n, probs.size):
        yield counts[~counts[:, zero].any(axis=1)]


def _log2_mass(counts: np.ndarray, log2p: np.ndarray) -> np.ndarray:
    """log2 probability of one sequence of each type row, sum_i c_i log2 p_i.

    The sum runs column by column over the finite columns, so a given row
    gives the same float wherever it sits in the grid or a draw.  A row with
    a count on a zero-probability (-inf) column gets -inf, with no inf - inf.
    """
    out = np.zeros(counts.shape[0])
    finite = np.isfinite(log2p)
    for i in np.flatnonzero(finite):
        out += counts[:, i] * log2p[i]
    out[counts[:, ~finite].any(axis=1)] = -np.inf
    return out


def enumerate_typical_sets(
    d: Distribution,
    f: SynonymousPartition,
    n: int,
    eps: float,
) -> TypicalityReport:
    """Exact sizes of the semantic typical set and its synonymous classes.

    Reports |A~| (the semantic typical set) against its bracket
    Pr{A~} 2^{n(Hs - eps)} <= |A~| <= 2^{n(Hs + eps)}, Pr{A~}, the syntactic
    typical-set size |A|, per-class synonymous set sizes |B|, whether the B
    classes exactly tile A, and whether every |B(z)| obeys
    Pr{B(z) | z} 2^{n(H - Hs - eps)} <= |B(z)| <= 2^{n(H - Hs + eps)}.  Both
    brackets hold at every n, and `bound_satisfied` is true only when all of
    them hold.  `detail["b_lower_bound"]` is the multiplier 2^{n(H - Hs - eps)}.

    Probabilities and rates depend only on a sequence's type (method of types),
    so the sweep is over the grid of compositions of n: each row's rates and
    its three membership conditions are array expressions, its semantic type is
    `counts @ block-indicator`, and the exact set sizes are Python-int sums of
    multinomials taken from factorial tables over the rows that pass.  Each
    passing row adds its sequences inside one semantic sequence, times their
    conditional probability, to its class's Pr{B | z}.  The grid
    is walked in chunks of GRID_CHUNK rows, so memory does not grow with the
    composition count.  Types that put a count on a zero-probability symbol
    hold no sequences and are dropped.  A rate that lies exactly on +/-eps in
    real arithmetic is decided by floating-point rounding (on Table I at
    eps = 0.2 and n = 10, 640 of the 3003 types have a conditional rate within
    1e-12 of the edge).

    Raises BudgetExceeded when n_sem**n, the syntactic composition count
    C(n+N-1, N-1) or the factorial table's size in 64-bit words exceeds
    EXHAUSTIVE_STATE_CAP, or, before the sweep, when a bracket exponent
    n(H - Hs + eps) or n(Hs + eps) overflows a double.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not n >= 1:
        raise ValueError("n must be at least 1")
    sem = induced_semantic_distribution(d, f)
    n_sem, n_syn = sem.alphabet_size, d.alphabet_size
    if n_sem**n > EXHAUSTIVE_STATE_CAP:
        raise BudgetExceeded(
            f"exhaustive mode needs {n_sem**n} states, cap is {EXHAUSTIVE_STATE_CAP}",
            required=n_sem**n,
        )
    n_types = math.comb(n + n_syn - 1, n_syn - 1)
    if n_types > EXHAUSTIVE_STATE_CAP:
        raise BudgetExceeded(
            f"exhaustive mode needs {n_types} compositions, cap is {EXHAUSTIVE_STATE_CAP}",
            required=n_types,
        )
    # log2 k! is convex in k and 0 at k = 0, so the table of k! for k <= n holds at
    # most (n + 1) log2(n!) / 2 bits
    table_words = math.ceil((n + 1) * math.lgamma(n + 1) / (128 * math.log(2)))
    if table_words > EXHAUSTIVE_STATE_CAP:
        raise BudgetExceeded(
            f"exhaustive mode needs a {table_words}-word factorial table, cap is {EXHAUSTIVE_STATE_CAP}",
            required=table_words,
        )
    h, hs = entropy(d), entropy(sem)
    try:
        b_lower = 2.0 ** (n * (h - hs - eps))
        b_upper = 2.0 ** (n * (h - hs + eps))
        upper = 2.0 ** (n * (hs + eps))
    except OverflowError:
        exponent = n * max(h - hs + eps, hs + eps)
        raise BudgetExceeded(
            f"typical-set bracket 2^{exponent:.1f} overflows a double at n={n}",
            required=math.ceil(exponent),
        ) from None
    log2_syn = _log2_probs(d.probs)
    log2_sem = _log2_probs(sem.probs)
    fact = np.array(list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1)), dtype=object)

    # semantic typical set, grouped by semantic type
    a_sem_size = 0
    prob_sem = 0.0
    for counts in _supported_types(n, sem.probs):
        logp = _log2_mass(counts, log2_sem)
        typical = _within([-logp / n], [hs], eps)
        mult = fact[n] // fact[counts[typical]].prod(axis=1)
        a_sem_size += mult.sum()
        prob_sem += float(np.sum(mult.astype(float) * 2.0 ** logp[typical]))

    # syntactic typical set and synonymous classes, grouped by syntactic type;
    # a type passing all three conditions has a semantically typical image
    # (its semantic rate is the float the semantic sweep computed), and its
    # multinomial is its class size times the number of semantic sequences of
    # that image, so the union of the classes is the sum of those multinomials
    indicator = np.zeros((n_syn, n_sem), dtype=np.int64)
    indicator[np.arange(n_syn), f.block_of] = 1
    a_syn_size = 0
    b_total = 0
    b_sizes_by_semtype: dict[tuple[int, ...], int] = {}
    b_prob_by_semtype: dict[tuple[int, ...], float] = {}
    for counts in _supported_types(n, d.probs):
        rate_syn = -_log2_mass(counts, log2_syn) / n
        sem_counts = counts @ indicator
        rate_sem = -_log2_mass(sem_counts, log2_sem) / n
        cond1 = _within([rate_syn], [h], eps)
        denom = fact[counts[cond1]].prod(axis=1)
        mult = fact[n] // denom
        a_syn_size += mult.sum()
        member = _within([rate_sem, rate_syn - rate_sem], [hs, h - hs], eps)[cond1]
        b_total += mult[member].sum()
        # sequences of each passing type inside one fixed semantic sequence, and
        # their probability given that sequence, summed per semantic type
        sem_member = sem_counts[cond1][member]
        ways = fact[sem_member].prod(axis=1) // denom[member]
        prob = ways.astype(float) * 2.0 ** (n * (rate_sem - rate_syn)[cond1][member])
        types, group = np.unique(sem_member, axis=0, return_inverse=True)
        sizes = np.zeros(types.shape[0], dtype=object)
        np.add.at(sizes, group, ways)
        probs = np.bincount(group, prob, types.shape[0]).tolist()
        for key, size, p in zip(map(tuple, types.tolist()), sizes, probs):
            b_sizes_by_semtype[key] = b_sizes_by_semtype.get(key, 0) + size
            b_prob_by_semtype[key] = b_prob_by_semtype.get(key, 0.0) + p

    # per-class bracket on every nonempty synonymous class of a semantically
    # typical sequence; bracket checks carry a relative float slack because a
    # knife-edge eps can put a class rate exactly on the membership boundary
    slack = 1e-9
    b_values = list(b_sizes_by_semtype.values())
    b_upper_ok = all(v <= b_upper * (1 + slack) for v in b_values)
    b_lower_ok = all(v >= b_prob_by_semtype[key] * b_lower * (1 - slack) for key, v in b_sizes_by_semtype.items())

    lower = prob_sem * 2.0 ** (n * (hs - eps))
    upper_ok = a_sem_size <= upper * (1 + slack) and b_upper_ok
    lower_ok = a_sem_size >= lower * (1 - slack) and b_lower_ok
    return TypicalityReport(
        n=n,
        epsilon=eps,
        prob_typical=prob_sem,
        set_size=float(a_sem_size),
        lower_bound=lower,
        upper_bound=upper,
        bound_satisfied=upper_ok and lower_ok,
        detail={
            "syntactic_typical_size": float(a_syn_size),
            "synonymous_union_size": float(b_total),
            "partition_exact": bool(b_total == a_syn_size),
            "b_class_sizes": sorted(set(b_values)),
            "b_lower_bound": b_lower,
            "b_upper_bound": b_upper,
            "b_upper_ok": b_upper_ok,
            "b_lower_ok": b_lower_ok,
        },
    )


# ---------------------------------------------------------------------------
# joint typicality via Monte Carlo
# ---------------------------------------------------------------------------

def _within(rates, targets, eps: float) -> np.ndarray:
    """Rows whose every rate lies strictly within eps of its target.

    The one +/-eps predicate of this module.  The result starts as the first
    rate's comparison, so a call with one rate costs one comparison.
    """
    near = (np.abs(rate - target) < eps for rate, target in zip(rates, targets))
    ok = next(near)
    for more in near:
        ok &= more
    return ok


def _binomial_inverse(u: np.ndarray, m: np.ndarray, hit: float, miss: float, lg: np.ndarray) -> np.ndarray:
    """Bin(m, q) variates with q = hit / (hit + miss), one per (u, m) pair, by inversion.

    Each variate is #{x : F(x) <= u} for the CDF F of Bin(m, q).  Each
    distinct m in `m` gets one CDF row over a window of counts from
    floor(m q) - w, with w = ceil(15 + sqrt(225 + 90 n q (1 - q))) and
    n = lg.size - 1, at least min(2w, n) + 1 counts long: by Bernstein's
    inequality Bin(m, q) puts less than 2 e^-45 < 2^-63 outside
    floor(m q) +/- w for every m <= n, below the 2^-53 spacing of the
    uniforms.  Log-pmfs come from the table lg[k] = ln k!, so a row depends
    on (m, q, n) alone.  A row reads inf from min(m, its last count) on, so a
    variate stays inside its window and at most m.  A binary search per
    element counts the entries of its row at or below u; the window's length
    is a power of two, so the search needs no bounds check.  Rows are built
    and searched in blocks of at most max(1, CHUNK_DRAWS // width) distinct
    m, so a block holds about CHUNK_DRAWS doubles whatever n is.  Empty `u`
    and `m` give an empty result.
    """
    n = lg.size - 1
    q = hit / (hit + miss)
    log_hit = math.log(hit) - math.log(hit + miss)
    log_miss = math.log(miss) - math.log(hit + miss)
    w = math.ceil(15 + math.sqrt(225 + 90 * n * q * (1 - q)))
    width = 1 << min(2 * w, n).bit_length()
    span = max(1, CHUNK_DRAWS // width)
    low = m.min(initial=n)
    present = np.bincount(m - low) > 0
    distinct = low + np.flatnonzero(present)
    row = np.cumsum(present)[m - low] - 1
    out = np.empty_like(m)
    for first in range(0, distinct.size, span):
        rows = distinct[first : first + span]
        start = np.maximum(np.floor(rows * q).astype(np.int64) - w, 0)
        x = start[:, None] + np.arange(width)
        k = np.minimum(x, rows[:, None])
        rest = rows[:, None] - k
        cdf = np.cumsum(np.exp(lg[rows][:, None] - lg[k] - lg[rest] + k * log_hit + rest * log_miss), axis=1)
        cdf[x >= np.minimum(rows, start + width - 1)[:, None]] = np.inf
        sel = np.flatnonzero((row >= first) & (row < first + span))
        at = row[sel] - first
        last = at * width - 1
        below = u[sel]
        flat = cdf.ravel()
        found = last.copy()
        for step in (width >> s for s in range(1, width.bit_length())):
            found += step * (flat.take(found + step) <= below)
        out[sel] = start[at] + found - last
    return out


def _draw_types(u: np.ndarray, law: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """Multinomial(n, law) types, n = lg.size - 1: one int64 row per row of `u`.

    Conditional binomials (Devroye 1986, ch. XI): the k-th cell of positive
    law takes Bin(m, p_k / sum_{i >= k} p_i) of the m counts left, inverted
    from u[:, k], and the last such cell takes the rest.  `u` has a column
    for every positive cell but the last; a zero-law cell never gets a count.
    """
    cells = np.flatnonzero(law > 0)
    counts = np.zeros((u.shape[0], law.size), dtype=np.int64)
    left = np.full(u.shape[0], lg.size - 1, dtype=np.int64)
    for k, cell in enumerate(cells[:-1]):
        counts[:, cell] = _binomial_inverse(u[:, k], left, law[cell], law[cells[k + 1 :]].sum(), lg)
        left -= counts[:, cell]
    counts[:, cells[-1]] = left
    return counts


def _draw_off_lumped(u: np.ndarray, law: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """The types of `_draw_types(u, law, lg)` that count 0 on the lumped cell law[0].

    A law with nothing on the lumped cell is drawn as it is.  Otherwise the
    lumped cell comes first, as in `_draw_types`: it takes Bin(n, law[0] / sum
    of the law) counts, inverted from u[:, 0], and only the trials that count
    0 there draw the other cells, from u[:, 1:], with the lumped cell's law set
    to 0.  When the lumped cell is the only one of positive law, every trial
    lands on it and nothing is drawn.
    """
    if law[0] == 0:
        return _draw_types(u, law, lg)
    rest = np.append(0.0, law[1:])
    if not rest.any():
        return np.zeros((0, law.size), dtype=np.int64)
    lumped = _binomial_inverse(u[:, 0], np.full(u.shape[0], lg.size - 1), law[0], rest.sum(), lg)
    return _draw_types(u[lumped == 0, 1:], rest, lg)


def _count_typical(counts: np.ndarray, shape: tuple[int, int], n: int, eps: float, checks) -> int:
    """How many type rows of `counts` are typical.

    A row counts one lumped cell, which is 0 in every row passed here, then
    the cells (a, b) of a `shape` grid in row-major order.  It is typical when
    every check's rate lies within eps of its target.  A check (axis, log2
    table, target) rates the type summed over b (axis 0, a type over a), over
    a (axis 1, over b), or the type over the cells (a, b) itself (axis None).
    """
    cells = counts[:, 1:]
    grid = cells.reshape(-1, *shape)
    types = {0: grid.sum(axis=2), 1: grid.sum(axis=1), None: cells}
    rates = [-_log2_mass(types[axis], table) / n for axis, table, _ in checks]
    return int(_within(rates, [target for *_, target in checks], eps).sum())


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -math.inf


def estimate_joint_typicality(
    j: JointDistribution,
    fj: JointSynonymousPartition,
    n: int,
    eps: float,
    trials: int,
    seed: int = 0,
    mode: str = "correlated",
) -> TypicalityReport:
    """Monte Carlo probes of the joint typicality statements.

    mode "correlated": sample (x, y) pairs from the joint and estimate the
    probability that the blockwise semantic image lands in the semantically
    jointly typical set.  The verdict checks the limit statement, p_hat >
    1 - eps, which the AEP promises only for large n; it is not a bound that
    holds at the printed n (on Table II at n = 3 and eps = 0.1 the exact
    probability is 0.080, so the verdict is false).

    mode "independent": runs two probes.  The decoding probe samples x and y
    from the marginals independently and estimates the chance that the pair is
    the canonical representative of a jointly synonymous typical class, whose
    band is 2^{-n (up-companion -/+ 3 eps)}.  The encoding probe (reported in
    `detail`) draws independent semantic sequences and estimates the chance
    they land in the semantically jointly typical set, compared against the
    2^{-n (down-companion -/+ 3 eps)} band.  That event actually concentrates
    at the full companion Hs(U~)+Hs(V~)-Hs(U~,V~), which is never below the
    down companion, so the upper edge always holds while the lower edge is
    only attainable when the partition does no real merging (identity blocks);
    the flags in `detail` report each edge separately.  When the down
    companion is negative the upper edge exceeds 1, so `encoding_upper_ok`
    holds for every estimate; when it is below -3 eps as well, the lower edge
    exceeds 1 once n > log2(1 / (1 - eps)) / |down + 3 eps|, and then
    `encoding_lower_ok` fails for every estimate.  On Table II (down
    companion -0.642) at eps = 0.1 both happen at every n, and the band
    checks nothing.  Both verdicts are decided on the log2 scale, where an
    estimate of 0 fails a lower edge even when the printed edge underflows
    to 0.

    Every rate is a rate of the trial's type, so each probe draws types from
    its own law over one lumped cell and then the semantic cells (a, b).  The
    correlated probe's law is the semantic joint, the encoding probe's the
    product of the semantic marginals; neither puts mass on the lumped cell.
    The decoding probe's cell (a, b) is the pair of block representatives,
    with law p(rep a) p(rep b), and its lumped cell, with the law of every
    other pair, must count 0.  A type costs one uniform per cell of positive
    law but the last.  The decoding probe draws its lumped cell first, as
    Bin(n, law of the lumped cell), and only the trials that count 0 there
    draw the representative pairs; the rest are misses after one binomial.
    Any cell order gives the same multinomial law.

    Trials run through `_kernels.trial_map` in chunks of as many trials as
    hold about CHUNK_DRAWS (2^17) uniforms.  The calling thread and one
    helper thread of this call's own each draw a chunk's Philox slices into
    their own buffer, both allocated on the calling thread, and score it to
    (hits, encoding hits); a call runs on at most two threads.  A trial's
    verdict depends on its own Philox slice alone and the counts are
    integers, so the result does not depend on the chunk size or on which
    thread scored which chunk.

    In independent mode, raises BudgetExceeded before drawing when a band
    edge overflows a double.  In either mode, raises BudgetExceeded before
    building the table of ln k! for k <= n when its n + 1 doubles exceed
    EXHAUSTIVE_STATE_CAP.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if not trials >= 1:
        raise ValueError("need at least one trial")
    if mode not in ("correlated", "independent"):
        raise ValueError(f"mode must be 'correlated' or 'independent', got {mode!r}")

    pu, pv = marginals(j)
    sem_joint = induced_semantic_joint(j, fj).probs
    sem_u = induced_semantic_distribution(pu, fj.u_partition)
    sem_v = induced_semantic_distribution(pv, fj.v_partition)
    h_u, h_v, h_uv = entropy(pu), entropy(pv), joint_entropy(j)
    hs_u, hs_v, hs_uv = entropy(sem_u), entropy(sem_v), entropy(sem_joint.ravel())
    up = h_u + h_v - hs_uv
    down = hs_u + hs_v - h_uv

    semantic = [
        (0, _log2_probs(sem_u.probs), hs_u),
        (1, _log2_probs(sem_v.probs), hs_v),
        (None, _log2_probs(sem_joint.ravel()), hs_uv),
    ]
    if mode == "correlated":
        lower, upper = 1.0 - eps, 1.0
        probes = [(np.append(0.0, sem_joint.ravel()), semantic)]
    else:
        try:
            lower = (1.0 - eps) * 2.0 ** (-n * (up + 3 * eps))
            upper = 2.0 ** (-n * (up - 3 * eps))
            enc_lower = (1.0 - eps) * 2.0 ** (-n * (down + 3 * eps))
            enc_upper = 2.0 ** (-n * (down - 3 * eps))
        except OverflowError:
            exponent = n * (3 * eps - min(up, down))
            raise BudgetExceeded(
                f"typicality band 2^{exponent:.1f} overflows a double at n={n}",
                required=math.ceil(exponent),
            ) from None
        reps_u = [min(b) for b in fj.u_partition.blocks]
        reps_v = [min(b) for b in fj.v_partition.blocks]
        rep = np.ix_(reps_u, reps_v)
        product = np.outer(pu.probs, pv.probs)
        others = np.ones(product.shape, dtype=bool)
        others[rep] = False
        pair = j.probs[rep]
        # log2 of each representative pair's probability given its semantic cell
        given = np.divide(pair, sem_joint, out=np.zeros_like(pair), where=pair > 0)
        decoding = [
            (0, _log2_probs(pu.probs[reps_u]), h_u),
            (1, _log2_probs(pv.probs[reps_v]), h_v),
            (None, _log2_probs(pair.ravel()), h_uv),
            *semantic,
            (None, _log2_probs(given.ravel()), h_uv - hs_uv),
        ]
        probes = [
            (np.append(product[others].sum(), product[rep].ravel()), decoding),
            (np.append(0.0, np.outer(sem_u.probs, sem_v.probs).ravel()), semantic),
        ]

    if n + 1 > EXHAUSTIVE_STATE_CAP:
        raise BudgetExceeded(
            f"joint probes need a ln k! table of {n + 1} entries, cap is {EXHAUSTIVE_STATE_CAP}",
            required=n + 1,
        )
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    bounds = np.cumsum([0, *(max(np.count_nonzero(law) - 1, 0) for law, _ in probes)]).tolist()

    def score(u: np.ndarray) -> np.ndarray:
        hits = [
            _count_typical(_draw_off_lumped(u[:, a:b], law, lg), sem_joint.shape, n, eps, checks)
            for (law, checks), a, b in zip(probes, bounds, bounds[1:])
        ]
        return np.array(hits + [0] * (2 - len(hits)))

    hits, enc_hits = trial_map(seed, trials, max(bounds[-1], 1), score).tolist()
    p_hat = hits / trials
    if mode == "correlated":
        satisfied = p_hat > lower
        detail = {"target": "prob of semantic joint typicality approaches 1"}
    else:
        satisfied = _log2(1.0 - eps) - n * (up + 3 * eps) <= _log2(p_hat) <= -n * (up - 3 * eps)
        p_enc = enc_hits / trials
        full = hs_u + hs_v - hs_uv
        detail = {
            "up_companion": up,
            "down_companion": down,
            "full_companion": full,
            "encoding_prob": p_enc,
            "encoding_lower": enc_lower,
            "encoding_upper": enc_upper,
            "encoding_upper_ok": _log2(p_enc) <= -n * (down - 3 * eps),
            "encoding_lower_ok": _log2(p_enc) >= _log2(1.0 - eps) - n * (down + 3 * eps),
        }
    return TypicalityReport(
        n=n,
        epsilon=eps,
        prob_typical=p_hat,
        set_size=None,
        lower_bound=lower,
        upper_bound=upper,
        bound_satisfied=bool(satisfied),
        detail=detail,
    )
