"""Numerical primitives shared by the sebits modules.

- `trial_uniforms`: one Philox counter slice per trial.
- `trial_map`: the one loop over those slices, which both Monte Carlo loops
  (AWGN and joint typicality) run through; the calling thread and one helper
  thread of the call's own each draw and score chunks of trials and their
  integer counts are summed.
- `xlog2x`: p log2 p with the 0 log 0 = 0 convention.
- `block_sums`: masses summed over the blocks of a synonymous partition, or a
  product of two, in one `np.bincount`.
"""

from __future__ import annotations

import threading

import numpy as np

CHUNK_DRAWS = 1 << 17  # uniforms per trial_map chunk by default: 1 MB of doubles


def _philox(seed: int, start: int, width: int) -> np.random.Generator:
    """A generator at the first slice of trial `start`, for slices of `width` = 4 k uniforms."""
    return np.random.Generator(np.random.Philox(key=seed, counter=start * (width // 4)))


def trial_uniforms(seed: int, start: int, count: int, per_trial: int) -> np.ndarray:
    """`per_trial` uniforms for each trial in [start, start+count), one Philox counter slice each.

    Trial t owns the 256-bit counter blocks [t k, (t+1) k) with k = ceil(per_trial / 4)
    (four doubles per block), so any batching or parallel split over trial
    indices reproduces the same stream (Salmon et al., SC'11).
    """
    width = 4 * ((per_trial + 3) // 4)
    return _philox(seed, start, width).random((count, width))[:, :per_trial]


def trial_map(seed: int, trials: int, per_trial: int, score, batch: int | None = None):
    """The sum of `score(u)` over chunks of `batch` trials covering [0, trials).

    u is `trial_uniforms(seed, start, count, per_trial)` for one chunk, a view
    into a buffer that the next chunk overwrites; `score` may change it in
    place and returns an integer count array.  Integer sums are exact, so the
    result does not depend on `batch` or on which thread scored which chunk.
    The default batch is max(1, CHUNK_DRAWS // per_trial) trials, so a chunk
    holds at most about CHUNK_DRAWS uniforms whatever n is.

    A one-chunk call draws and scores inline.  Otherwise the calling thread
    and one helper thread, started for this call and joined before it
    returns, each claim the next chunk from one shared counter, fill its
    Philox slices into their own (batch, 4 k) buffer and score it, until the
    trials run out: two threads at most, and numpy's Philox fill and ufuncs
    release the GIL.  Both buffers are allocated here, on the calling
    thread: buffers the helper allocated would come from its own malloc
    arena and raise the process's peak RSS.  When `score` raises on either
    thread, neither claims another chunk, and the exception is raised here
    once the other thread's chunk is scored.  Raises ValueError when
    `batch` < 1.
    """
    if batch is None:
        batch = max(1, CHUNK_DRAWS // per_trial)
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if trials <= batch:
        return score(trial_uniforms(seed, 0, trials, per_trial))
    width = 4 * ((per_trial + 3) // 4)
    chunks = iter(range(0, trials, batch))
    claim = threading.Lock()

    def run(buffer: np.ndarray):
        nonlocal chunks
        total = 0
        while True:
            with claim:
                start = next(chunks, None)
            if start is None:
                return total
            try:
                u = _philox(seed, start, width).random(out=buffer[: min(batch, trials - start)])
                total += score(u[:, :per_trial])
            except BaseException:
                with claim:
                    chunks = iter(())  # neither thread claims a chunk after a failure
                raise

    from concurrent.futures import ThreadPoolExecutor  # at module level it slows `import sebits`

    buffers = np.empty((2, batch, width))
    # leaving the block waits for the helper's chunk, whether or not `run` raised
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="sebits-philox") as pool:
        worker = pool.submit(run, buffers[1])
        total = run(buffers[0])
    return total + worker.result()


def xlog2x(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise, 0 where p = 0, without a divide-by-zero warning."""
    out = np.zeros_like(p, dtype=float)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def block_sums(a: np.ndarray, rows, n_rows: int, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) sums of `a` over the blocks rows[i] x cols[j], each in row-major order.

    rows and cols map the indices of a 2-D `a` to blocks, as `SynonymousPartition.block_of`
    does (`np.arange` keeps an axis whole); a 1-D `a` is the one row rows = 0.  One
    `np.bincount`, weighted by `a`, over the labels rows[i] n_cols + cols[j].
    """
    labels = np.add.outer(rows * n_cols, cols).ravel()
    return np.bincount(labels, np.ravel(a), n_rows * n_cols).reshape(n_rows, n_cols)
