"""The shared kernels: pinned draws of both Monte Carlo loops built on the Philox
per-trial slice, the two-thread trial_map against those slices (with and
without the AWGN loop's in-place Box-Muller inside the score, and with a score
that raises), the 0 log 0 convention of xlog2x, and block_sums against a
per-block loop."""

import concurrent.futures
import math
import random
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from sebits._kernels import CHUNK_DRAWS, block_sums, trial_map, trial_uniforms, xlog2x
from sebits.core import SynonymousPartition
from sebits.chancode import _box_muller


def test_trial_uniforms_pinned():
    # the stream typicality's joint Monte Carlo draws from
    assert trial_uniforms(3, 7, 2, 5).tolist() == [
        [0.885434299730485, 0.8479332331947514, 0.720212365238304,
         0.058745419183729886, 0.04992421004920955],
        [0.2647457887086194, 0.5670608131282537, 0.5952256810053397,
         0.3542781990324808, 0.3678732532016862],
    ]


def test_awgn_randoms_pinned():
    u = trial_uniforms(60, 5, 2, 1 + 2 * ((7 + 1) // 2)).copy()
    _box_muller(u, 7)
    picks, normals = u[:, 0], u[:, 1:8]
    assert picks.tolist() == [0.13293533483405817, 0.5762025677116801]
    assert normals.shape == (2, 7)
    want = [[1.04859132357323, -0.18007449927490535, 0.8903315393889379],
            [-0.7606459739016622, 1.0579415448900422, 1.3992687349451667]]
    assert normals[:, :3] == pytest.approx(np.array(want), rel=1e-12)


@pytest.mark.parametrize("per_trial", [1, 4, 5, 9])
def test_slices_do_not_depend_on_batching(per_trial):
    whole = trial_uniforms(11, 0, 50, per_trial)
    parts = np.vstack([trial_uniforms(11, s, c, per_trial) for s, c in [(0, 13), (13, 1), (14, 36)]])
    assert whole.shape == (50, per_trial)
    assert np.array_equal(whole, parts)


def _placing_score(want: np.ndarray, write, pause=None):
    """A score that finds each row's trial by its first uniform (distinct in `want`),
    passes the row and its trial to `write`, counts the trial and returns the row
    count; `pause`, when given, sleeps for a while after each chunk."""
    trial_of = {x: t for t, x in enumerate(want[:, 0].tolist())}
    assert len(trial_of) == len(want)
    seen = np.zeros(len(want), dtype=int)
    lock = threading.Lock()

    def score(u):
        trials = [trial_of[x] for x in u[:, 0].tolist()]
        with lock:
            seen[trials] += 1
            write(u, trials)
        if pause is not None:
            time.sleep(pause())
        return np.array([len(u)])

    return score, seen


def _row_sums_of_map(seed, trials, per_trial, batch, pause=None):
    want = trial_uniforms(seed, 0, trials, per_trial)
    sums = np.full(trials, np.nan)

    def write(u, rows):
        sums[rows] = u.sum(axis=1)

    score, seen = _placing_score(want, write, pause)
    assert trial_map(seed, trials, per_trial, score, batch).tolist() == [trials]
    assert seen.tolist() == [1] * trials  # every trial scored once
    return sums, want.sum(axis=1)


@pytest.mark.parametrize("per_trial", [1, 5, 800])
@pytest.mark.parametrize("batch", [1, 977, None])
def test_stream_is_the_trial_uniforms_stream(per_trial, batch):
    """Each chunk's rows are those trials' slices: the row sums, written into
    their trial positions, are trial_uniforms' row sums bit for bit, and the
    count sums to the trials.  By default 2000 trials are one inline chunk at
    1 and 5 uniforms a trial and 13 chunks at 800."""
    got, want = _row_sums_of_map(4, 2000, per_trial, batch)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [1, 977, None])
def test_map_does_not_depend_on_interleaving(batch):
    """Scores that sleep at random shift which thread takes which chunk."""
    rng = random.Random(batch or 0)
    got, want = _row_sums_of_map(9, 3000, 60, batch, pause=lambda: rng.uniform(0, 2e-3))
    assert np.array_equal(got, want)


def test_stream_batch_must_be_positive():
    with pytest.raises(ValueError, match="batch must be at least 1"):
        trial_map(0, 10, 3, lambda u: np.array([len(u)]), batch=0)


def _separate_arrays_box_muller(u, n):
    """Oracle: the Box-Muller of separate radius, angle and normals arrays that
    the in-place transform replaced."""
    half = (u.shape[1] - 1) // 2
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 1 : 1 + half]))
    angle = 2.0 * math.pi * u[:, 1 + half :]
    normals = np.empty((len(u), 2 * half))
    np.cos(angle, out=normals[:, :half])
    np.sin(angle, out=normals[:, half:])
    normals[:, :half] *= radius
    normals[:, half:] *= radius
    return u[:, 0].copy(), normals[:, :n]


@pytest.mark.parametrize(
    "n, trials",
    [pytest.param(n, 5000, id=str(n)) for n in (1, 2, 7, 8, 15)]
    + [pytest.param(n, 1 << 16, id=f"{n}-65536") for n in (7, 8)],
)
def test_box_muller_equals_the_separate_arrays_form(n, trials):
    """Box-Muller runs on a transposed copy, the oracle on column views of u:
    a ufunc whose result depends on the memory layout shows here, on long rows too."""
    u = trial_uniforms(8, 3, trials, 1 + 2 * ((n + 1) // 2))
    v = u.copy()
    _box_muller(v, n)
    want_picks, want_normals = _separate_arrays_box_muller(u, n)
    assert np.array_equal(v[:, 0], want_picks) and np.array_equal(v[:, 1 : 1 + n], want_normals)


@pytest.mark.parametrize("n", [1, 2, 7, 8])
@pytest.mark.parametrize("batch", [1, 977, 4096, "inline"])
def test_transformed_stream_is_box_muller_of_the_stream(n, batch):
    """A score that runs Box-Muller in place, as the AWGN loop's does, sees picks
    and normals equal to Box-Muller of trial_uniforms(...) bit for bit, on either
    thread, on partial last chunks too."""
    per_trial = 1 + 2 * ((n + 1) // 2)
    trials = 300 if batch == 1 else 10_000  # 10 000 is not a multiple of 977 or 4096
    want = trial_uniforms(6, 0, trials, per_trial)
    got = np.full((trials, 1 + n), np.nan)

    def write(u, rows):
        got[rows] = u[:, : 1 + n]

    place, seen = _placing_score(want, write)

    def score(u):
        _box_muller(u, n)  # leaves the pick column, by which place finds the trials
        return place(u)

    size = trials if batch == "inline" else batch
    assert trial_map(6, trials, per_trial, score, size).tolist() == [trials]
    assert seen.tolist() == [1] * trials
    boxed = want.copy()
    _box_muller(boxed, n)
    assert np.array_equal(got, boxed[:, : 1 + n])


def test_stream_runs_on_at_most_one_extra_thread():
    """Chunks are scored on the calling thread and on one other, and no
    thread the map started is alive once it returns."""
    before = threading.active_count()
    during = []

    def score(u):
        scorers.add(threading.current_thread())
        during.append(threading.active_count())
        time.sleep(1e-4)
        return np.array([len(u)])

    for batch in (4, 1, 7):
        scorers = set()
        assert trial_map(1, 60, 7, score, batch).tolist() == [60]
        assert threading.current_thread() in scorers and len(scorers) <= 2
        assert not any(t.is_alive() for t in scorers - {threading.current_thread()})
    assert max(during) <= before + 1
    assert threading.active_count() == before


def test_concurrent_maps_each_score_every_trial_once():
    """Four maps at once from four threads, more than the two cores, with a short
    switch interval: each call has a helper thread of its own, and each call
    scores each of its trials exactly once."""
    whole = {}

    def one(seed):
        got, want = _row_sums_of_map(seed, 3000, 5, 7)
        whole[seed] = np.array_equal(got, want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=one, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert whole == {seed: True for seed in range(4)}


def test_one_chunk_call_starts_no_thread(monkeypatch):
    """With every trial in one chunk (given, or the default at small n) the caller
    scores inline and no executor is made for a helper thread."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk call made an executor")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    callers = []

    def score(u):
        callers.append(threading.get_ident())
        return np.array([len(u), u.shape[1]])

    assert trial_map(5, 40, 3, score, batch=40).tolist() == [40, 3]
    assert trial_map(5, CHUNK_DRAWS // 200, 200, score).tolist() == [CHUNK_DRAWS // 200, 200]
    assert callers == [threading.get_ident()] * 2


class _Boom(Exception):
    pass


def test_breaking_out_early_leaves_the_next_stream_intact():
    """A score that raises on the calling thread, or on the worker, stops the
    map: the exception comes out of trial_map once no score is running, at
    most the one chunk the other thread had claimed is scored after it, and
    the next map is whole.  The caller raises only once the worker is inside
    a score, so returning without waiting for it would show."""
    caller = threading.get_ident()
    for where in ("caller", "worker"):
        events, running = [], [0]
        lock = threading.Lock()
        worker_scoring = threading.Event()

        def score(u):
            on_caller = threading.get_ident() == caller
            with lock:
                events.append("score")
                running[0] += 1
                fail = on_caller == (where == "caller") and "raise" not in events
                if fail:
                    events.append("raise")
            try:
                if not on_caller:
                    worker_scoring.set()
                if fail:
                    assert not on_caller or worker_scoring.wait(10)
                    raise _Boom(where)
                time.sleep(2e-3)
                return np.array([len(u)])
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(_Boom, match=where):
            trial_map(2, 20_000, 9, score, batch=10)
        assert running == [0]
        assert events[events.index("raise") + 1 :].count("score") <= 1
        got, want = _row_sums_of_map(2, 100, 9, 8)
        assert np.array_equal(got, want)


def test_xlog2x_zero_convention_without_warning():
    p = np.array([0.0, 0.5, 1.0, 0.25, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = xlog2x(p)
    assert out.tolist() == [0.0, -0.5, 0.0, -0.5, 0.0]


def _loop_block_sums(a, row_blocks, col_blocks):
    """The per-block loop that block_sums replaces."""
    out = np.zeros((len(row_blocks), len(col_blocks)))
    for r, br in enumerate(row_blocks):
        for c, bc in enumerate(col_blocks):
            out[r, c] = a[np.ix_(list(br), list(bc))].sum()
    return out


def _labels(blocks, n):
    return SynonymousPartition(blocks, n).block_of


@pytest.mark.parametrize(
    "row_blocks, col_blocks",
    [
        (((2, 0), (1,)), ((3,), (0, 2), (1,))),
        (((0, 1, 2),), ((1, 3, 0, 2),)),
        (((1,), (0,), (2,)), ((0,), (1,), (2,), (3,))),
    ],
)
def test_block_sums_match_per_block_loop(row_blocks, col_blocks):
    a = np.random.default_rng(5).dirichlet(np.ones(12)).reshape(3, 4)
    got = block_sums(a, _labels(row_blocks, 3), len(row_blocks), _labels(col_blocks, 4), len(col_blocks))
    np.testing.assert_allclose(got, _loop_block_sums(a, row_blocks, col_blocks), rtol=0, atol=1e-15)


def test_block_sums_of_a_vector_is_the_one_row_case():
    p = np.array([0.1, 0.0, 0.4, 0.2, 0.3])
    blocks = ((4, 1), (0, 2), (3,))
    got = block_sums(p, 0, 1, _labels(blocks, 5), 3)
    assert got.shape == (1, 3)
    np.testing.assert_allclose(got[0], [p[list(b)].sum() for b in blocks], rtol=0, atol=1e-15)


def test_single_block_sum_of_table2_joint_is_exactly_one(table2_joint):
    # an indicator matmul gives 0.9999999999999999 here, which makes Hs(U~,V~) 1.6e-16
    nu, nv = table2_joint.shape
    total = block_sums(table2_joint.probs, np.zeros(nu, dtype=int), 1, np.zeros(nv, dtype=int), 1)
    assert total.tolist() == [[1.0]]
