"""Empirical checks of the semantic and synonymous typical-set bounds.

Small block lengths are handled exactly by the method of types: probabilities
and rates depend only on a sequence's composition, so the O(N^n) sweep becomes
one array computation over the grid of C(n+N-1, N-1) compositions, walked in
fixed-size chunks, with multinomial coefficients as exact integer weights.  A
rate lying exactly on +/-eps is decided there by floating-point rounding.
Large block lengths fall back to seeded Monte Carlo.  Symbols are drawn by a
comparison-count inverse CDF as cell indices, and each rate is a row sum of
log-probabilities gathered from a table over the syntactic or semantic joint
cells, built once per call.  The decoding probe computes rates only for
trials whose every symbol is its block's representative, the only trials it
can count.

The non-asymptotic upper bounds on set sizes hold at every n; the matching
lower bounds only for "sufficiently large n", so violations below a caller
configurable threshold are reported as informational caveats, not failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import trial_batches, trial_uniforms
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
SMALL_N_THRESHOLD = 64
GRID_CHUNK = 1 << 14


def _log2_probs(p: np.ndarray) -> np.ndarray:
    out = np.full(p.shape, -np.inf)
    mask = p > 0
    out[mask] = np.log2(p[mask])
    return out


def _seq_rate(seq: np.ndarray, log2p: np.ndarray) -> float:
    """Empirical rate -(1/n) sum log2 p(symbol)."""
    return float(-log2p[seq].sum() / seq.size)


def is_semantically_typical(
    seq, d: Distribution, f: SynonymousPartition, eps: float
) -> bool:
    """Whether a semantic index sequence has empirical semantic entropy eps-close to Hs."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    sem = induced_semantic_distribution(d, f)
    seq = np.asarray(seq, dtype=int)
    if seq.size == 0 or seq.min() < 0 or seq.max() >= sem.alphabet_size:
        raise IndexOutOfRange("semantic sequence indices outside the semantic alphabet")
    hs = entropy(sem)
    return abs(_seq_rate(seq, _log2_probs(sem.probs)) - hs) < eps


def is_synonymous_typical(
    u_seq, d: Distribution, f: SynonymousPartition, eps: float
) -> bool:
    """All three membership conditions for a syntactic sequence.

    Syntactic rate within eps of H(U), semantic rate of the blockwise image
    within eps of Hs(U~), and the conditional rate of choosing this sequence
    inside its synonymous set within eps of H(U) - Hs(U~).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    u_seq = np.asarray(u_seq, dtype=int)
    if u_seq.size == 0 or u_seq.min() < 0 or u_seq.max() >= d.alphabet_size:
        raise IndexOutOfRange("sequence indices outside the syntactic alphabet")
    sem = induced_semantic_distribution(d, f)
    h, hs = entropy(d), entropy(sem)
    rate_syn = _seq_rate(u_seq, _log2_probs(d.probs))
    rate_sem = _seq_rate(f.block_of[u_seq], _log2_probs(sem.probs))
    return (
        abs(rate_syn - h) < eps
        and abs(rate_sem - hs) < eps
        and abs((rate_syn - rate_sem) - (h - hs)) < eps
    )


@dataclass(frozen=True)
class TypicalityReport:
    """Sizes, probabilities and bound checks for one typicality experiment."""

    n: int
    epsilon: float
    prob_typical: float
    set_size: float | None
    lower_bound: float
    upper_bound: float
    bound_satisfied: bool
    lower_bound_caveat: str | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "prob_typical": self.prob_typical,
            "set_size": self.set_size,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "bound_satisfied": self.bound_satisfied,
            "lower_bound_caveat": self.lower_bound_caveat,
            "detail": self.detail,
        }


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

    Zero-probability (-inf) columns are skipped, as supported rows count 0
    there, and the sum runs column by column, so a given row gives the same
    float wherever it sits in the grid.
    """
    out = np.zeros(counts.shape[0])
    for i in np.flatnonzero(np.isfinite(log2p)):
        out += counts[:, i] * log2p[i]
    return out


def enumerate_typical_sets(
    d: Distribution,
    f: SynonymousPartition,
    n: int,
    eps: float,
    small_n_threshold: int = SMALL_N_THRESHOLD,
) -> TypicalityReport:
    """Exact sizes of the semantic typical set and its synonymous classes.

    Reports |A~| (semantic typical set, with its 2^{n(Hs -/+ eps)} bracket),
    Pr{A~}, the syntactic typical-set size |A|, per-class synonymous set sizes
    |B|, whether the B classes exactly tile A, and whether every |B| obeys the
    2^{n(H - Hs -/+ eps)} bracket.  Lower-bound violations below `small_n_threshold` are
    demoted to a caveat.

    Probabilities and rates depend only on a sequence's type (method of types),
    so the sweep is over the grid of compositions of n: each row's rates and
    its three membership conditions are array expressions, its semantic type is
    `counts @ block-indicator`, and the exact set sizes are Python-int sums of
    multinomials taken from factorial tables over the rows that pass.  The grid
    is walked in chunks of GRID_CHUNK rows, so memory does not grow with the
    composition count.  Types that put a count on a zero-probability symbol
    hold no sequences and are dropped.  A rate that lies exactly on +/-eps in
    real arithmetic is decided by floating-point rounding (on Table I at
    eps = 0.2 and n = 10, 640 of the 3003 types have a conditional rate within
    1e-12 of the edge).

    Raises BudgetExceeded when n_sem**n or the syntactic composition count
    C(n+N-1, N-1) exceeds EXHAUSTIVE_STATE_CAP, or, before the sweep, when a
    bracket exponent n(H - Hs + eps) or n(Hs + eps) overflows a double.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 1:
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
    h, hs = entropy(d), entropy(sem)
    try:
        b_lower = 2.0 ** (n * (h - hs - eps))
        b_upper = 2.0 ** (n * (h - hs + eps))
        lower = (1.0 - eps) * 2.0 ** (n * (hs - eps))
        upper = 2.0 ** (n * (hs + eps))
    except OverflowError:
        exponent = n * max(h - hs + eps, hs + eps)
        raise BudgetExceeded(
            f"typical-set bracket 2^{exponent:.1f} overflows a double at n={n}",
            required=math.ceil(exponent),
        ) from None
    log2_syn = _log2_probs(d.probs)
    log2_sem = _log2_probs(sem.probs)
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=object)

    # semantic typical set, grouped by semantic type
    a_sem_size = 0
    prob_sem = 0.0
    for counts in _supported_types(n, sem.probs):
        logp = _log2_mass(counts, log2_sem)
        typical = np.abs(-logp / n - hs) < eps
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
    for counts in _supported_types(n, d.probs):
        rate_syn = -_log2_mass(counts, log2_syn) / n
        sem_counts = counts @ indicator
        rate_sem = -_log2_mass(sem_counts, log2_sem) / n
        cond1 = np.abs(rate_syn - h) < eps
        cond2 = np.abs(rate_sem - hs) < eps
        cond3 = np.abs((rate_syn - rate_sem) - (h - hs)) < eps
        denom = fact[counts[cond1]].prod(axis=1)
        mult = fact[n] // denom
        a_syn_size += mult.sum()
        member = (cond2 & cond3)[cond1]
        b_total += mult[member].sum()
        # sequences of each passing type inside one fixed semantic sequence,
        # summed per semantic type
        sem_member = sem_counts[cond1][member]
        types, group = np.unique(sem_member, axis=0, return_inverse=True)
        sizes = np.zeros(types.shape[0], dtype=object)
        np.add.at(sizes, group, fact[sem_member].prod(axis=1) // denom[member])
        for key, size in zip(map(tuple, types.tolist()), sizes):
            b_sizes_by_semtype[key] = b_sizes_by_semtype.get(key, 0) + size

    # per-class bracket on every nonempty synonymous class of a semantically
    # typical sequence; bracket checks carry a relative float slack because a
    # knife-edge eps can put a class rate exactly on the membership boundary
    slack = 1e-9
    b_values = list(b_sizes_by_semtype.values())
    b_upper_ok = all(v <= b_upper * (1 + slack) for v in b_values)
    b_lower_ok = all(v >= b_lower * (1 - slack) for v in b_values)

    upper_ok = a_sem_size <= upper * (1 + slack) and b_upper_ok
    lower_ok = a_sem_size >= lower * (1 - slack) and b_lower_ok
    caveat = None
    if not lower_ok and n < small_n_threshold:
        caveat = f"lower bounds hold only for sufficiently large n (n={n} < {small_n_threshold})"
    return TypicalityReport(
        n=n,
        epsilon=eps,
        prob_typical=prob_sem,
        set_size=float(a_sem_size),
        lower_bound=lower,
        upper_bound=upper,
        bound_satisfied=upper_ok and (lower_ok or caveat is not None),
        lower_bound_caveat=caveat,
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

def _inverse_cdf(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Cell index of each uniform in [0, 1): the number of CDF edges at or below it.

    Equal to `np.searchsorted(edges, u, side="right")`, counted with one
    comparison pass per cell into the smallest unsigned dtype that holds
    K - 1.  Every pass writes its comparison into one preallocated bool
    buffer and adds it as uint8, so no pass allocates an array of u's shape.
    The K passes cost at most about 1 ns per element each: faster than the
    binary search up to about 100 cells, slower beyond.
    """
    edges = np.cumsum(probs)
    out = np.zeros(u.shape, dtype=np.min_scalar_type(probs.size - 1))
    passed = np.empty(u.shape, dtype=bool)
    for e in edges[:-1]:
        np.greater_equal(u, e, out=passed)
        out += passed.view(np.uint8)
    return out


def _rate(table: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """Empirical rate -(1/n) sum_i table[cell_i] of each row of `cells`.

    A gather followed by a row sum over a C-contiguous (rows, n) array, so
    numpy's pairwise summation gives a row the same float whichever other
    rows are present.
    """
    return -table[cells].sum(axis=1) / n


def _within(rates, targets, eps: float) -> np.ndarray:
    """Rows whose every rate lies within eps of its target."""
    ok = np.ones(rates[0].shape, dtype=bool)
    for rate, target in zip(rates, targets):
        ok &= np.abs(rate - target) < eps
    return ok


def estimate_joint_typicality(
    j: JointDistribution,
    fj: JointSynonymousPartition,
    n: int,
    eps: float,
    trials: int,
    seed: int = 0,
    mode: str = "correlated",
    batch: int = 1024,
) -> TypicalityReport:
    """Monte Carlo probes of the joint typicality statements.

    mode "correlated": sample (x, y) pairs from the joint and estimate the
    probability that the blockwise semantic image lands in the semantically
    jointly typical set; the limit statement promises > 1 - eps for large n.

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
    the flags in `detail` report each edge separately.

    Each rate is a row sum of log-probabilities gathered by cell index
    (x * |V| + y, or the semantic cell in the encoding probe) from tables
    built once per call.  The decoding probe computes its six rates only for
    trials whose every x_i and y_i is its block's representative, the only
    trials it can count.  A trial's verdict depends on its own Philox slice
    alone, so the result does not depend on `batch`.

    Raises ValueError when `batch` < 1 and, in independent mode, raises
    BudgetExceeded before drawing when a band edge overflows a double.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode not in ("correlated", "independent"):
        raise ValueError(f"mode must be 'correlated' or 'independent', got {mode!r}")

    pu, pv = marginals(j)
    sem_joint = induced_semantic_joint(j, fj)
    sem_u = induced_semantic_distribution(pu, fj.u_partition)
    sem_v = induced_semantic_distribution(pv, fj.v_partition)
    h_u, h_v, h_uv = entropy(pu), entropy(pv), joint_entropy(j)
    hs_u, hs_v, hs_uv = entropy(sem_u), entropy(sem_v), entropy(sem_joint.probs.ravel())
    up = h_u + h_v - hs_uv
    down = hs_u + hs_v - h_uv

    l2_ju = _log2_probs(sem_u.probs)
    l2_jv = _log2_probs(sem_v.probs)
    l2_js = _log2_probs(sem_joint.probs)
    bu, bv = fj.u_partition.block_of, fj.v_partition.block_of
    nu, nv = j.shape
    # log2-probability tables indexed by the joint cell x * nv + y
    cu, cv = np.divmod(np.arange(nu * nv), nv)
    sem_tables = (l2_ju[bu[cu]], l2_jv[bv[cv]], l2_js[bu[cu], bv[cv]])
    l2_u, l2_v = _log2_probs(pu.probs), _log2_probs(pv.probs)
    syn_tables = (l2_u[cu], l2_v[cv], _log2_probs(j.probs).ravel())
    sem_targets = (hs_u, hs_v, hs_uv)
    is_rep_u = np.array([min(b) for b in fj.u_partition.blocks])[bu] == np.arange(nu)
    is_rep_v = np.array([min(b) for b in fj.v_partition.blocks])[bv] == np.arange(nv)

    if mode == "correlated":
        lower, upper = 1.0 - eps, 1.0
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

    per_trial = n if mode == "correlated" else 4 * n
    hits = 0
    enc_hits = 0
    for start, b in trial_batches(trials, batch):
        u = trial_uniforms(seed, start, b, per_trial)
        if mode == "correlated":
            cells = _inverse_cdf(u, j.probs.ravel()).astype(np.intp)
            sem_rates = [_rate(t, cells, n) for t in sem_tables]
            hits += int(_within(sem_rates, sem_targets, eps).sum())
        else:
            xs = _inverse_cdf(u[:, :n], pu.probs)
            ys = _inverse_cdf(u[:, n : 2 * n], pv.probs)
            # decoding probe: the pair must be the representative of a jointly
            # synonymous typical class, so only rows whose every x_i and y_i
            # is its block's representative get rates (ys only where xs are)
            rep = is_rep_u[xs].all(axis=1)
            rep[rep] = is_rep_v[ys[rep]].all(axis=1)
            cells = xs[rep].astype(np.intp) * nv + ys[rep]
            rates = [_rate(t, cells, n) for t in syn_tables + sem_tables]
            typical = _within(rates, (h_u, h_v, h_uv, *sem_targets), eps)
            # the conditional rate is taken on typical rows only, where rate_xy
            # and rate_sj are finite; a zero-probability pair never gets there
            cond_rate = rates[2][typical] - rates[5][typical]
            hits += int((np.abs(cond_rate - (h_uv - hs_uv)) < eps).sum())
            # encoding probe: independent semantic sequences in the semantic
            # joint typical set; the joint rate, on the semantic cells
            # zx * |V~| + zy, fails most often, so it is tested first
            zx = _inverse_cdf(u[:, 2 * n : 3 * n], sem_u.probs)
            zy = _inverse_cdf(u[:, 3 * n :], sem_v.probs)
            rate_zj = _rate(l2_js.ravel(), zx.astype(np.intp) * sem_v.alphabet_size + zy, n)
            keep = np.abs(rate_zj - hs_uv) < eps
            rates = [_rate(l2_ju, zx[keep], n), _rate(l2_jv, zy[keep], n)]
            enc_hits += int(_within(rates, (hs_u, hs_v), eps).sum())

    p_hat = hits / trials
    if mode == "correlated":
        satisfied = p_hat > lower
        detail = {"target": "prob of semantic joint typicality approaches 1"}
    else:
        satisfied = lower <= p_hat <= upper
        p_enc = enc_hits / trials
        full = hs_u + hs_v - hs_uv
        detail = {
            "up_companion": up,
            "down_companion": down,
            "full_companion": full,
            "encoding_prob": p_enc,
            "encoding_lower": enc_lower,
            "encoding_upper": enc_upper,
            "encoding_upper_ok": bool(p_enc <= enc_upper),
            "encoding_lower_ok": bool(p_enc >= enc_lower),
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
