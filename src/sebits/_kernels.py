"""Numerical primitives shared by the sebits modules.

- `trial_uniforms`: one Philox counter slice per trial.
- `trial_stream`: the one batching loop over those slices, which both Monte
  Carlo loops (AWGN and joint typicality) draw through; the next batch is
  drawn, and optionally transformed in place, on one worker thread while the
  caller scores the current one.
- `xlog2x`: p log2 p with the 0 log 0 = 0 convention.
- `block_sums`: masses summed over the blocks of a synonymous partition, or a
  product of two, in one `np.bincount`.
"""

from __future__ import annotations

import os
import threading

import numpy as np

BATCH_DRAWS = 1 << 18  # uniforms per trial_stream batch by default: 2 MB of doubles


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


_prefetch_lock = threading.Lock()
_prefetch_pool = None
_prefetch_pid = None


def _prefetcher():
    """The process's one-worker pool, created on first use and again in a forked child,
    where the worker thread of the parent's pool does not exist."""
    global _prefetch_pool, _prefetch_pid
    with _prefetch_lock:
        if _prefetch_pid != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _prefetch_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sebits-philox")
            _prefetch_pid = os.getpid()
        return _prefetch_pool


def _draw(seed: int, start: int, width: int, out: np.ndarray, per_trial: int, transform) -> np.ndarray:
    """Fill `out` with the slices of trials [start, start + len(out)), then apply
    `transform` in place to its first `per_trial` columns; returns that view."""
    u = _philox(seed, start, width).random(out=out)[:, :per_trial]
    if transform is not None:
        transform(u)
    return u


def trial_stream(seed: int, trials: int, per_trial: int, batch: int | None = None, transform=None):
    """Yield (start, u) for consecutive batches of trials covering [0, trials).

    u is `trial_uniforms(seed, start, count, per_trial)`, passed through
    `transform(u)` when one is given: the stream does not depend on `batch`.
    `transform` works in place on the (count, per_trial) block and returns
    nothing.  The default batch is max(1, BATCH_DRAWS // per_trial) trials, so
    a batch holds at most about BATCH_DRAWS uniforms whatever n is.  A
    single-batch stream is drawn and transformed inline.  Otherwise two
    (batch, 4 k) buffers are allocated once, and while the caller scores batch
    i, the process's one prefetch worker thread draws batch i + 1 into the
    other buffer (numpy's Philox fill and ufuncs release the GIL), so the work
    runs on at most two threads.  The worker fills, then runs the caller's
    in-place transform, allocating nothing: an array it allocated would come
    from its own malloc arena and raise the process's peak RSS.  A stream's
    transforms run one at a time, so a transform may reuse one scratch array
    of `batch` rows across its batches; a stream left suspended may still be
    running one, so each stream needs its own scratch.

    A yielded u is a view of one of those buffers: it is valid only until the
    next iteration, which starts overwriting it.  Raises ValueError when
    `batch` < 1.
    """
    if batch is None:
        batch = max(1, BATCH_DRAWS // per_trial)
    if batch < 1:
        raise ValueError("batch must be at least 1")
    width = 4 * ((per_trial + 3) // 4)
    if trials <= batch:
        yield 0, _draw(seed, 0, width, np.empty((trials, width)), per_trial, transform)
        return
    buffers = (np.empty((batch, width)), np.empty((batch, width)))
    pool = _prefetcher()
    start, u = 0, _draw(seed, 0, width, buffers[0], per_trial, transform)
    pending = None
    try:
        for i, nxt in enumerate(range(batch, trials, batch), start=1):
            out = buffers[i % 2][: min(batch, trials - nxt)]
            pending = pool.submit(_draw, seed, nxt, width, out, per_trial, transform)
            yield start, u
            start, u, pending = nxt, pending.result(), None
        yield start, u
    finally:
        if pending is not None:  # the caller stopped early: let the draw finish with its buffer
            pending.result()


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
