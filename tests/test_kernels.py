"""The shared kernels: pinned draws of both streams built on the Philox per-trial
slice, the prefetching trial_stream against those slices (with and without the
AWGN loop's in-place Box-Muller transform), the 0 log 0 convention of xlog2x,
and block_sums against a per-block loop."""

import math
import threading
import warnings
from functools import partial

import numpy as np
import pytest

from sebits._kernels import BATCH_DRAWS, block_sums, trial_stream, trial_uniforms, xlog2x
from sebits.core import SynonymousPartition
from sebits.chancode import AWGN_BATCH, _box_muller, _trial_randoms


def test_trial_uniforms_pinned():
    # the stream typicality's joint Monte Carlo draws from
    assert trial_uniforms(3, 7, 2, 5).tolist() == [
        [0.885434299730485, 0.8479332331947514, 0.720212365238304,
         0.058745419183729886, 0.04992421004920955],
        [0.2647457887086194, 0.5670608131282537, 0.5952256810053397,
         0.3542781990324808, 0.3678732532016862],
    ]


def test_awgn_randoms_pinned():
    picks, normals = _trial_randoms(trial_uniforms(60, 5, 2, 1 + 2 * ((7 + 1) // 2)), 7)
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


@pytest.mark.parametrize("per_trial", [1, 5, 800])
@pytest.mark.parametrize("batch", [1, 977, None])
def test_stream_is_the_trial_uniforms_stream(per_trial, batch):
    """Batches start where the last ended, hold `batch` trials (by default as
    many as fit in BATCH_DRAWS uniforms) and concatenate to trial_uniforms."""
    trials = 2000
    size = batch or max(1, BATCH_DRAWS // per_trial)
    starts, parts = [], []
    for start, u in trial_stream(4, trials, per_trial, batch):
        starts.append(start)
        parts.append(u.copy())  # u is only valid until the next iteration
    assert starts == list(range(0, trials, size))
    assert [len(u) for u in parts] == [min(size, trials - s) for s in starts]
    assert np.array_equal(np.vstack(parts), trial_uniforms(4, 0, trials, per_trial))


def test_stream_batch_must_be_positive():
    with pytest.raises(ValueError, match="batch must be at least 1"):
        next(trial_stream(0, 10, 3, batch=0))


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


def _normals_transform(n, batch):
    """The transform simulate_awgn_sweep passes: Box-Muller with one scratch of `batch` rows."""
    return partial(_box_muller, n=n, cosines=np.empty((batch, (n + 1) // 2)))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15])
def test_box_muller_equals_the_separate_arrays_form(n):
    u = trial_uniforms(8, 3, 5000, 1 + 2 * ((n + 1) // 2))
    picks, normals = _trial_randoms(u, n)
    want_picks, want_normals = _separate_arrays_box_muller(u, n)
    assert np.array_equal(picks, want_picks) and np.array_equal(normals, want_normals)
    assert np.array_equal(u, trial_uniforms(8, 3, 5000, 1 + 2 * ((n + 1) // 2)))  # u is left alone


@pytest.mark.parametrize("n", [1, 2, 7, 8])
@pytest.mark.parametrize("batch", [1, 977, AWGN_BATCH, "inline"])
def test_transformed_stream_is_box_muller_of_the_stream(n, batch):
    """With the Box-Muller transform, pick and normals are those of
    _trial_randoms(trial_uniforms(...)) bit for bit, whether the worker or the
    calling thread applied it, on partial last batches too."""
    per_trial = 1 + 2 * ((n + 1) // 2)
    trials = 300 if batch == 1 else 10_000  # 10 000 is not a multiple of 977 or 2^12
    size = trials if batch == "inline" else batch
    transform = _normals_transform(n, size)
    starts, picks, normals = [], [], []
    for start, u in trial_stream(6, trials, per_trial, size, transform):
        assert u.shape == (min(size, trials - start), per_trial)
        starts.append(start)
        picks.append(u[:, 0].copy())
        normals.append(u[:, 1 : 1 + n].copy())
    assert starts == list(range(0, trials, size))
    want_picks, want_normals = _trial_randoms(trial_uniforms(6, 0, trials, per_trial), n)
    assert np.array_equal(np.concatenate(picks), want_picks)
    assert np.array_equal(np.vstack(normals), want_normals)


def test_stream_runs_on_at_most_one_extra_thread():
    """Also when the worker runs the Box-Muller transform after each fill."""
    before = threading.active_count()
    during = []
    for transform in (None, _normals_transform(6, 4), None):
        for _, u in trial_stream(1, 60, 7, 4, transform):
            during.append(threading.active_count())
    assert max(during) <= before + 1
    assert threading.active_count() <= before + 1


def test_breaking_out_early_leaves_the_next_stream_intact():
    """With and without the Box-Muller transform (n = 8 uses all 9 columns), each
    stream with its own scratch, as each simulate_awgn_sweep call has."""
    for boxed in (False, True):
        def stream():
            return trial_stream(2, 100, 9, 8, _normals_transform(8, 8) if boxed else None)

        for start, _ in stream():
            if start >= 16:
                break
        abandoned = stream()
        next(abandoned)
        next(abandoned)  # left suspended with a draw in flight
        got = np.vstack([u.copy() for _, u in stream()])
        want = trial_uniforms(2, 0, 100, 9)
        if boxed:
            want = np.column_stack(_trial_randoms(want, 8))
        assert np.array_equal(got, want)
        abandoned.close()


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
