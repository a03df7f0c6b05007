"""Numerical primitives shared by the sebits modules.

- `trial_uniforms` / `trial_batches`: one Philox counter slice per trial.
- `xlog2x`: p log2 p with the 0 log 0 = 0 convention.
- `block_sums`: masses summed over the blocks of a synonymous partition, or a
  product of two, in one `np.bincount`.
"""

from __future__ import annotations

import numpy as np


def trial_uniforms(seed: int, start: int, count: int, per_trial: int) -> np.ndarray:
    """`per_trial` uniforms for each trial in [start, start+count), one Philox counter slice each.

    Trial t owns the 256-bit counter blocks [t k, (t+1) k) with k = ceil(per_trial / 4)
    (four doubles per block), so any batching or parallel split over trial
    indices reproduces the same stream (Salmon et al., SC'11).
    """
    blocks_per_trial = (per_trial + 3) // 4
    gen = np.random.Generator(np.random.Philox(key=seed, counter=start * blocks_per_trial))
    return gen.random((count, 4 * blocks_per_trial))[:, :per_trial]


def trial_batches(trials: int, batch: int):
    """(start, count) of consecutive batches of at most `batch` trials covering [0, trials)."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    return ((start, min(batch, trials - start)) for start in range(0, trials, batch))


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
