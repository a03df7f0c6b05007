"""References that the library no longer runs: all set partitions, the
capacity search over every (input, output) partition pair, and the per-block
loops that summed masses over the blocks before `_kernels.block_sums`."""

import numpy as np

from sebits.core import ChannelModel, JointSynonymousPartition, SynonymousPartition
from sebits.errors import SupportMismatch
from sebits.optimize import maximize_up_smi


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
