"""References that the library does not run: all set partitions, the
labeled partitions read off every label assignment, the capacity search over
every (input, output) partition pair, the R_s(D) search over every labeled
(source, reconstruction) partition pair, the exact probabilities of the joint
typicality probes summed over every type (the library estimates them by Monte
Carlo), the per-block
loops that summed masses over the blocks before `_kernels.block_sums`, and
the plain Blahut-Arimoto capacity loop that ran before the SQUAREM driver."""

import itertools
import math

import numpy as np

from sebits._kernels import block_sums
from sebits.core import ChannelModel, Distribution, JointSynonymousPartition, SynonymousPartition
from sebits.errors import Infeasible, NonConvergence, SupportMismatch
from sebits.measures import entropy, semantic_entropy
from sebits.optimize import (
    RateDistortionResult,
    _min_down_smi_under_distortion,
    blahut_arimoto_rd,
    maximize_up_smi,
    ordered_set_partitions,
)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1] if n >= 1 else 1


def set_partitions(n: int):
    """All partitions of {0..n-1}, blocks ordered by smallest element."""
    assignment = [0] * n

    def rec(i: int, k: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(k)]
            for idx, lab in enumerate(assignment):
                blocks[lab].append(idx)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(k + 1):
            assignment[i] = lab
            yield from rec(i + 1, k + 1 if lab == k else k)

    if n >= 1:
        yield from rec(1, 1)


def assignment_partitions(n: int, k: int):
    """Partitions of {0..n-1} into exactly k labeled, non-empty blocks, read
    off the k^n label assignments in `itertools.product` order, keeping the
    onto ones."""
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        blocks: list[list[int]] = [[] for _ in range(k)]
        for idx, lab in enumerate(assignment):
            blocks[lab].append(idx)
        yield tuple(tuple(b) for b in blocks)


def plain_blahut_arimoto_capacity(
    ch: ChannelModel, tol: float = 1e-10, max_iter: int = 100_000
) -> tuple[float, Distribution, int]:
    """(capacity, input, passes made) by the plain Arimoto loop, stopped when
    the upper/lower capacity bounds agree within `tol`."""
    w = ch.transition
    m = ch.input_size
    if m == 1:
        return 0.0, Distribution(np.ones(1)), 0
    r = np.full(m, 1.0 / m)
    logw = np.where(w > 0, np.log2(np.maximum(w, 1e-300)), 0.0)
    for it in range(max_iter):
        q = r @ w
        logq = np.where(q > 0, np.log2(np.maximum(q, 1e-300)), 0.0)
        d = np.sum(w * (logw - logq), axis=1)  # per-input divergence to the output dist
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower < tol:
            return lower, Distribution(r), it + 1
        r = r * np.exp2(d - d.max())
        r /= r.sum()
    raise NonConvergence(f"Blahut-Arimoto did not reach tol={tol} in {max_iter} iterations")


def exhaustive_capacity(ch: ChannelModel) -> float:
    """C_s as the maximum of the up companion over all Bell(Nx) * Bell(Ny) partition pairs."""
    nx, ny = ch.input_size, ch.output_size
    return max(
        maximize_up_smi(
            ch,
            JointSynonymousPartition(SynonymousPartition(fu, nx), SynonymousPartition(fv, ny)),
        )[0]
        for fu in set_partitions(nx)
        for fv in set_partitions(ny)
    )


def labeled_pair_solve(src, ds, target_d, fx_blocks, fxh_blocks, reduced=False, tol=1e-7):
    """(value, dist, qb) of one labeled partition pair, None when the source
    partition cannot meet the target.

    By default this is the n x k^ problem on the syntactic source, with the
    cost gathered to d_s(block of x, b) and the offset Hs(X~) - H(X).
    `reduced` solves the k x k^ problem on the block masses instead, with the
    offset -H(X|X~), as the library does once per reconstruction size vector.
    """
    p, n = src.probs, src.alphabet_size
    fx = SynonymousPartition(fx_blocks, n)
    if reduced:
        a = block_sums(p, 0, 1, fx.block_of, ds.shape[0])[0]
        d, offset = ds.values, entropy(a) - entropy(src)
    else:
        a = p
        d, offset = ds.values[fx.block_of], semantic_entropy(src, fx) - entropy(p)
    if target_d < float(a @ d.min(axis=1)) - 1e-12:
        return None
    sizes = np.array([len(b) for b in fxh_blocks], dtype=float)
    return _min_down_smi_under_distortion(a, d, sizes, offset, target_d, tol)


def labeled_rate_distortion(src, ds, target_d, n_hat, reduced=False, tol=1e-7):
    """R_s(D) with one `labeled_pair_solve` per labeled (source, reconstruction)
    partition pair, the least (value, source blocks, reconstruction blocks) kept."""
    n = src.alphabet_size
    k, k_hat = ds.shape
    best = None
    for fx_blocks in ordered_set_partitions(n, k):
        for fxh_blocks in ordered_set_partitions(n_hat, k_hat):
            solved = labeled_pair_solve(src, ds, target_d, fx_blocks, fxh_blocks, reduced, tol)
            if solved is None:
                break
            value, dist, qb = solved
            key = (max(value, 0.0), fx_blocks, fxh_blocks)
            if best is None or key < best[0]:
                best = (key, dist, qb)
    if best is None:
        raise Infeasible(f"no partition pair admits a test channel with distortion <= {target_d}")
    (value, fx_blocks, fxh_blocks), dist, qb = best
    fx, fxh = SynonymousPartition(fx_blocks, n), SynonymousPartition(fxh_blocks, n_hat)
    sizes = np.array([len(b) for b in fxh_blocks], dtype=float)
    rows = qb[fx.block_of] if reduced else qb
    r_classic, _ = blahut_arimoto_rd(src, ds.values[np.ix_(fx.block_of, fxh.block_of)], target_d)
    return RateDistortionResult(
        r_s=value,
        best_test_channel=ChannelModel(rows[:, fxh.block_of] / sizes[fxh.block_of]),
        best_partitions=(fx, fxh),
        r_classic=r_classic,
        distortion_achieved=dist,
    )


def loop_induced_semantic_distribution(p: np.ndarray, f: SynonymousPartition) -> np.ndarray:
    return np.array([p[list(b)].sum() for b in f.blocks])


def loop_induced_semantic_joint(m: np.ndarray, fj: JointSynonymousPartition) -> np.ndarray:
    out = np.zeros(fj.semantic_shape)
    for a, bu in enumerate(fj.u_partition.blocks):
        sub = m[list(bu), :]
        for b, bv in enumerate(fj.v_partition.blocks):
            out[a, b] = sub[:, list(bv)].sum()
    return out


def loop_column_block_sums(w: np.ndarray, fv: SynonymousPartition) -> np.ndarray:
    """wv[x, b] = sum_{y in V_b} w[x, y], as the capacity solver's pieces built it."""
    return np.stack([w[:, list(b)].sum(axis=1) for b in fv.blocks], axis=1)


def loop_semantic_conditional_entropy(m: np.ndarray, f_cond: SynonymousPartition, direction: str) -> float:
    if direction == "u_given_v":
        cond_mass = np.stack([m[list(b), :].sum(axis=0) for b in f_cond.blocks])
        given = m.sum(axis=0)
    else:
        cond_mass = np.stack([m[:, list(b)].sum(axis=1) for b in f_cond.blocks])
        given = m.sum(axis=1)
    total = 0.0
    for k, g in enumerate(given):
        if g <= 0:
            continue
        q = cond_mass[:, k]
        mask = q > 0
        total -= float(np.sum(q[mask] * np.log2(q[mask] / g)))
    return total


def loop_semantic_relative_entropy(
    p: np.ndarray, q: np.ndarray, f: SynonymousPartition, mode: str
) -> float:
    p_s = loop_induced_semantic_distribution(p, f)
    q_s = loop_induced_semantic_distribution(q, f)
    total = 0.0
    for k, block in enumerate(f.blocks):
        idx = list(block)
        pb, qb = p[idx], q[idx]
        if mode == "full":
            if p_s[k] > 0:
                if q_s[k] <= 0:
                    raise SupportMismatch(f"q has no mass on block {k} where p does")
                total += p_s[k] * np.log2(p_s[k] / q_s[k])
        elif mode == "semantic_vs_syntactic":
            if p_s[k] <= 0:
                continue
            for pu, qu in zip(pb, qb):
                if pu > 0:
                    if qu <= 0:
                        raise SupportMismatch("q vanishes at a symbol where p has mass")
                    total += pu * np.log2(p_s[k] / qu)
        else:  # syntactic_vs_semantic
            for pu in pb:
                if pu > 0:
                    if q_s[k] <= 0:
                        raise SupportMismatch(f"q has no mass on block {k} where p does")
                    total += pu * np.log2(pu / q_s[k])
    return float(total)


def compositions(n: int, k: int, chunk: int = 1 << 16):
    """Every composition of n into k nonnegative counts, as chunks of int64 rows:
    stars and bars, read off `itertools.combinations` of k - 1 bar positions."""
    if k == 1:
        yield np.array([[n]])
        return
    bars = itertools.combinations(range(n + k - 1), k - 1)
    while True:
        cut = np.fromiter(itertools.islice(bars, chunk), dtype=(np.int64, k - 1))
        if not len(cut):
            return
        ends = np.full((len(cut), 1), -1), np.full((len(cut), 1), n + k - 1)
        yield np.diff(np.hstack([ends[0], cut, ends[1]]), axis=1) - 1


def exact_joint_probe(j, fj: JointSynonymousPartition, n: int, eps: float, probe: str) -> float:
    """Exact probability of a joint typicality probe's event at block length n,
    summed over every type of the pairs the probe draws, one multinomial
    probability each, without the library's sampler or scorer.

    - "correlated": semantic pairs (a, b) from the semantic joint; the event
      is the three semantic rates within eps of Hs(U~), Hs(V~), Hs(U~, V~).
    - "encoding": (a, b) from the product of the semantic marginals; the same
      event.
    - "decoding": syntactic pairs (x, y) from the product of the syntactic
      marginals; the event is every x and y its block's least member, the
      three syntactic and three semantic rates within eps of their
      entropies, and the rate of the pairs given their semantic cells within
      eps of H(U, V) - Hs(U~, V~).

    Types run over the cells of positive probability.  A rate is a float dot
    product of the type with a log2 table over the cells, infinite on a type
    that counts a zero-probability cell.  An AssertionError refuses a case in
    which a finite rate lies within 1e-9 of its edge, where the summation
    order could decide the verdict, so a returned value is exact up to
    rounding in the weights.
    """
    m = np.asarray(j.probs, dtype=float)
    sj = loop_induced_semantic_joint(m, fj)
    bu, bv = fj.u_partition.block_of, fj.v_partition.block_of

    def entropy_of(p):
        return -math.fsum(x * math.log2(x) for x in np.ravel(p) if x > 0)

    def log2_of(p):
        return np.array([math.log2(x) if x > 0 else -math.inf for x in np.ravel(p)])

    if probe == "decoding":
        pu, pv = m.sum(axis=1), m.sum(axis=0)
        x, y = np.divmod(np.arange(m.size), m.shape[1])
        a, b = bu[x], bv[y]
        law = np.outer(pu, pv).ravel()
        least_u = np.array([min(blk) for blk in fj.u_partition.blocks])
        least_v = np.array([min(blk) for blk in fj.v_partition.blocks])
        allowed = (x == least_u[a]) & (y == least_v[b])
        given = [math.log2(m[xi, yi] / sj[ai, bi]) if m[xi, yi] > 0 else -math.inf
                 for xi, yi, ai, bi in zip(x, y, a, b)]
        tables = [
            (log2_of(pu)[x], entropy_of(pu)),
            (log2_of(pv)[y], entropy_of(pv)),
            (log2_of(m), entropy_of(m)),
            (log2_of(sj.sum(axis=1))[a], entropy_of(sj.sum(axis=1))),
            (log2_of(sj.sum(axis=0))[b], entropy_of(sj.sum(axis=0))),
            (log2_of(sj)[a * sj.shape[1] + b], entropy_of(sj)),
            (np.array(given), entropy_of(m) - entropy_of(sj)),
        ]
    else:
        su, sv = sj.sum(axis=1), sj.sum(axis=0)
        a, b = np.divmod(np.arange(sj.size), sj.shape[1])
        law = sj.ravel() if probe == "correlated" else np.outer(su, sv).ravel()
        allowed = np.ones(law.size, dtype=bool)
        tables = [
            (log2_of(su)[a], entropy_of(su)),
            (log2_of(sv)[b], entropy_of(sv)),
            (log2_of(sj), entropy_of(sj)),
        ]
    keep = law > 0
    law, allowed = law[keep], allowed[keep]
    tables = [(t[keep], h) for t, h in tables]
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    weights = []
    for counts in compositions(n, law.size):
        counts = counts[~counts[:, ~allowed].any(axis=1)]
        hit = np.ones(len(counts), dtype=bool)
        for table, h in tables:
            finite = np.isfinite(table)
            rate = -(counts[:, finite] @ table[finite]) / n
            rate[counts[:, ~finite].any(axis=1)] = math.inf
            gap = np.abs(rate - h)
            assert np.all(np.abs(gap[np.isfinite(rate)] - eps) > 1e-9), "a rate lies on an edge"
            hit &= gap < eps
        log_w = lg[n] - lg[counts[hit]].sum(axis=1) + counts[hit] @ np.log(law)
        weights.extend(np.exp(log_w).tolist())
    return math.fsum(weights)
