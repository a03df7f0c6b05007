"""The shared Philox per-trial slice: pinned draws of both streams built on it."""

import numpy as np
import pytest

from sebits._kernels import trial_uniforms
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
