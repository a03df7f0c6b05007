"""Numerical primitives shared by the sebits modules."""

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
