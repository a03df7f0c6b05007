"""Exhaustive references that the library no longer runs: all set partitions
and the capacity search over every (input, output) partition pair."""

from sebits.core import ChannelModel, JointSynonymousPartition, SynonymousPartition
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
