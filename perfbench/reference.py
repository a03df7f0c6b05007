"""A fixed reference load that tracks the host's speed during a run.

On a shared host the CPU speed of one core swings by up to 2x, within
seconds and between minutes, so raw job times from two runs of the same code
differ by as much.  The reference load is timed between jobs, every
REFERENCE_EVERY_S of job time, and each job's latency is scaled by
REFERENCE_S over the reference time measured just before and just after it.
A scaled time reads as seconds on a host where one reference load takes
REFERENCE_S.

The load never calls sebits, so a change to the program does not change it,
and it allocates no fresh buffers, so the program's heap does not change it
either.  Its three parts mirror what the workloads spend their time on:
interpreter loops over floats and dicts, many numpy calls on small arrays,
and passes over a buffer of a few MB.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.025
REFERENCE_EVERY_S = 0.3

_SMALL = np.random.default_rng(0).random((8, 8))
_SMALL_OUT = np.empty_like(_SMALL)
_LARGE = np.random.default_rng(0).standard_normal((1 << 15, 8))
_LARGE_OUT = np.empty_like(_LARGE)


def _interpreter() -> float:
    table, total = {}, 0.0
    for i in range(30_000):
        total += (i * 0.5) ** 0.5
        table[i & 255] = total
    return total


def _small_arrays() -> float:
    total = 0.0
    for _ in range(1_500):
        np.multiply(_SMALL, 2.5, out=_SMALL_OUT)
        np.log2(_SMALL_OUT, out=_SMALL_OUT)
        total += float(_SMALL_OUT.sum())
    return total


def _large_array() -> float:
    total = 0.0
    for _ in range(15):
        np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
        np.abs(_LARGE_OUT, out=_LARGE_OUT)
        total += float(_LARGE_OUT.sum())
    return total


def reference_load() -> None:
    _interpreter()
    _small_arrays()
    _large_array()


class SpeedProbe:
    """Reference-load times, keyed by the job time of the run at which they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0
        self.after_job(0.0)  # a timing before the first job

    def after_job(self, busy_s: float) -> None:
        if busy_s >= self._due:
            t0 = time.perf_counter()
            reference_load()
            self.took.append(time.perf_counter() - t0)
            self.at.append(busy_s)
            self._due = busy_s + REFERENCE_EVERY_S

    def scale(self, busy_s: float) -> float:
        """REFERENCE_S over the mean of the reference times taken just before and just after busy_s."""
        i = bisect.bisect_left(self.at, busy_s)
        return REFERENCE_S / statistics.fmean(self.took[max(0, i - 1):i + 1])
