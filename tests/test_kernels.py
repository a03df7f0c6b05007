"""The shared kernels: pinned draws of both streams built on the Philox per-trial
slice, the 0 log 0 convention of xlog2x, and block_sums against a per-block loop."""

import warnings

import numpy as np
import pytest

from sebits._kernels import block_sums, trial_uniforms, xlog2x
from sebits.core import SynonymousPartition
from sebits.chancode import _trial_randoms


def test_trial_uniforms_pinned():
    # the stream typicality's joint Monte Carlo draws from
    assert trial_uniforms(3, 7, 2, 5).tolist() == [
        [0.885434299730485, 0.8479332331947514, 0.720212365238304,
         0.058745419183729886, 0.04992421004920955],
        [0.2647457887086194, 0.5670608131282537, 0.5952256810053397,
         0.3542781990324808, 0.3678732532016862],
    ]


def test_awgn_randoms_pinned():
    picks, normals = _trial_randoms(60, 5, 2, 7)
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
