"""Solver tests: closed-form baselines, grid-search and convex-program oracles,
ordering invariants."""

import itertools
import json
import math

import numpy as np
import pytest

from sebits._kernels import block_sums
from sebits.core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
)
from sebits.errors import BudgetExceeded, Infeasible, NonConvergence
from sebits.measures import down_smi, mutual_information, up_smi
from sebits.optimize import (
    SemanticDistortionMatrix,
    _iterate_to_certificate,
    blahut_arimoto_capacity,
    blahut_arimoto_rd,
    count_ordered_set_partitions,
    expected_semantic_distortion,
    hamming_distortion,
    jscc_feasible,
    maximize_up_smi,
    ordered_set_partitions,
    semantic_capacity,
    semantic_rate_distortion,
)

from _oracles import (
    assignment_partitions,
    bell_number,
    exhaustive_capacity,
    labeled_pair_solve,
    labeled_rate_distortion,
    plain_blahut_arimoto_capacity,
    set_partitions,
)


def h2(x: float) -> float:
    if x <= 0 or x >= 1:
        return 0.0
    return float(-(x * np.log2(x) + (1 - x) * np.log2(1 - x)))


def bsc(p: float) -> ChannelModel:
    return ChannelModel(np.array([[1 - p, p], [p, 1 - p]]))


def convex_program_rd(p: np.ndarray, d: np.ndarray, target: float) -> float:
    """Classic R(D) by SLSQP on the full test channel, independent of the
    Blahut-Arimoto code: min I(X;X^) over row-stochastic q with E d <= target,
    best feasible end point over a few starts q ~ 2^{-s d}."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    n, m = d.shape
    pd = (p[:, None] * d).ravel()

    def rate(v: np.ndarray) -> tuple[float, np.ndarray]:
        q = np.maximum(v.reshape(n, m), 1e-300)
        r = p @ q
        grad = p[:, None] * np.log2(q / r)
        return float(np.sum(np.where(v.reshape(n, m) > 0, q * grad, 0.0))), grad.ravel()

    constraints = [
        {"type": "eq", "fun": lambda v: v.reshape(n, m).sum(axis=1) - 1.0,
         "jac": lambda v: np.kron(np.eye(n), np.ones(m))},
        {"type": "ineq", "fun": lambda v: target - pd @ v, "jac": lambda v: -pd},
    ]
    best = np.inf
    for s in [0.0, 1.0, 5.0, 20.0]:
        q0 = np.exp2(-s * d)
        q0 /= q0.sum(axis=1, keepdims=True)
        res = minimize(rate, q0.ravel(), jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * (n * m),
                       constraints=constraints, options={"ftol": 1e-14, "maxiter": 1000})
        q = np.clip(res.x.reshape(n, m), 0.0, None)
        q /= q.sum(axis=1, keepdims=True)
        if pd @ q.ravel() <= target + 1e-9:
            best = min(best, rate(q.ravel())[0])
    return best


class TestPartitionEnumeration:
    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]

    def test_set_partitions_count_matches_bell(self):
        for n in range(1, 6):
            assert len(list(set_partitions(n))) == bell_number(n)

    def test_partitions_are_canonical_and_distinct(self):
        parts = list(set_partitions(4))
        assert len(set(parts)) == len(parts)
        for blocks in parts:
            firsts = [b[0] for b in blocks]
            assert firsts == sorted(firsts)
            assert sorted(i for b in blocks for i in b) == list(range(4))

    def test_ordered_partitions(self):
        got = list(ordered_set_partitions(3, 2))
        assert len(got) == count_ordered_set_partitions(3, 2) == 6
        assert len(set(got)) == 6

    @pytest.mark.parametrize("n", range(7))
    def test_ordered_partitions_are_the_onto_assignments_in_key_order(self, n):
        """The onto labelings of the k^n assignments, sorted by (block 0,
        block 1, ...), for every k up to n + 1 (none at k = n + 1, and the
        empty partition of nothing at n = k = 0)."""
        for k in range(n + 2):
            got = list(ordered_set_partitions(n, k))
            assert got == sorted(assignment_partitions(n, k))
            assert len(got) == count_ordered_set_partitions(n, k)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "solve",
    [
        lambda tol: blahut_arimoto_capacity(bsc(0.1), tol),
        lambda tol: maximize_up_smi(bsc(0.1), JointSynonymousPartition.identity(2, 2), tol),
        lambda tol: semantic_capacity(bsc(0.1), tol),
        lambda tol: blahut_arimoto_rd(Distribution(np.array([0.5, 0.5])), 1.0 - np.eye(2), 0.1, tol),
        lambda tol: semantic_rate_distortion(Distribution(np.array([0.5, 0.5])), hamming_distortion(2), 0.1,
                                             tol=tol),
    ],
    ids=["ba_capacity", "up_smi", "semantic_capacity", "ba_rd", "semantic_rd"],
)
def test_tol_must_be_positive(solve, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(tol)


class TestBlahutArimotoCapacity:
    def test_bsc_closed_form(self):
        c, r = blahut_arimoto_capacity(bsc(0.11), tol=1e-12)
        assert c == pytest.approx(1 - h2(0.11), abs=1e-9)
        np.testing.assert_allclose(r.probs, [0.5, 0.5], atol=1e-6)

    def test_noiseless_binary(self):
        c, r = blahut_arimoto_capacity(ChannelModel(np.eye(2)))
        assert c == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(r.probs, [0.5, 0.5], atol=1e-6)

    def test_single_input_zero(self):
        c, r = blahut_arimoto_capacity(ChannelModel(np.array([[0.2, 0.0, 0.8]])))
        assert c == 0.0
        np.testing.assert_array_equal(r.probs, [1.0])

    def test_identical_rows_zero(self):
        c, _ = blahut_arimoto_capacity(ChannelModel(np.array([[0.3, 0.7], [0.3, 0.7]])))
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_erasure_channel(self):
        e = 0.25
        ch = ChannelModel(np.array([[1 - e, e, 0.0], [0.0, e, 1 - e]]))
        c, _ = blahut_arimoto_capacity(ch, tol=1e-12)
        assert c == pytest.approx(1 - e, abs=1e-9)


# a solvers-workload channel whose optimal input puts no mass on symbol 0 (its
# divergence falls 0.29 bit short of the capacity), on the simplex boundary
BOUNDARY_OPTIMUM = [
    [0.6634490638607984, 0.17789920231940143, 0.15865173381980024],
    [0.011519950965607977, 0.5930180594914135, 0.39546198954297845],
    [0.7468046402560758, 0.25215560168911316, 0.0010397580548109561],
]
# a solvers-workload channel on which the plain loop makes 584 passes
SLOW_PLAIN = [
    [0.4748023120122528, 0.4422756832202773, 0.08292200476746989],
    [0.10685641982749836, 0.620212239947851, 0.27293134022465054],
    [0.27257657373623323, 0.3344589825863548, 0.39296444367741207],
]


def arimoto_gap(w: np.ndarray, r: np.ndarray) -> float:
    """max_x d_x - r.d for d_x = D(w[x] || r w), from the raw sums."""
    nx, ny = w.shape
    q = [sum(r[x] * w[x, y] for x in range(nx)) for y in range(ny)]
    d = [sum(w[x, y] * math.log2(w[x, y] / q[y]) for y in range(ny) if w[x, y] > 0) for x in range(nx)]
    return max(d) - sum(r[x] * d[x] for x in range(nx))


def oracle_channels():
    rng = np.random.default_rng(17)
    shapes = [(n, m) for n in range(3, 9) for m in (3, 5, 8)]
    chans = [rng.dirichlet(0.7 * np.ones(m), size=n) for n, m in shapes]
    zero_column = np.insert(rng.dirichlet(np.ones(4), size=5), 2, 0.0, axis=1)
    return [np.array(BOUNDARY_OPTIMUM), np.array(SLOW_PLAIN), zero_column, *chans]


class TestBlahutArimotoCapacityOracle:
    @pytest.fixture
    def steps(self, monkeypatch):
        """Counts the steps the SQUAREM driver takes."""
        import sebits.optimize as opt

        count = [0]
        driver = opt._iterate_to_certificate

        def counted(step, x, done, rounds):
            def tally(v):
                count[0] += 1
                return step(v)

            return driver(tally, x, done, rounds)

        monkeypatch.setattr(opt, "_iterate_to_certificate", counted)
        return count

    @pytest.mark.parametrize("i", range(len(oracle_channels())))
    def test_matches_the_plain_loop(self, i, steps):
        w = oracle_channels()[i]
        tol = 1e-10
        c, r = blahut_arimoto_capacity(ChannelModel(w), tol)
        c_plain, _, passes = plain_blahut_arimoto_capacity(ChannelModel(w), tol)
        assert abs(c - c_plain) <= tol
        assert arimoto_gap(w, r.probs) < tol
        assert steps[0] <= passes

    def test_boundary_optimum(self):
        _, r = blahut_arimoto_capacity(ChannelModel(np.array(BOUNDARY_OPTIMUM)))
        assert r.probs[0] < 1e-9

    def test_boundary_optimum_keeps_the_acceleration(self, steps):
        """107 driver steps when every extrapolation that leaves the simplex is
        dropped; 25 when such an extrapolation is shortened toward the plain step."""
        blahut_arimoto_capacity(ChannelModel(np.array(BOUNDARY_OPTIMUM)), 1e-10)
        assert steps[0] <= 30

    def test_fewer_steps_over_the_oracle_channels(self, steps):
        """1 601 driver steps in all when every extrapolation that leaves the
        simplex is dropped; 1 224 when such an extrapolation is shortened."""
        for w in oracle_channels():
            blahut_arimoto_capacity(ChannelModel(w), 1e-10)
        assert steps[0] < 1601

    def test_certifies_within_a_third_of_the_plain_passes(self, monkeypatch):
        import sebits.optimize as opt

        ch = ChannelModel(np.array(SLOW_PLAIN))
        k = 12
        with pytest.raises(NonConvergence):  # the plain loop needs 584 passes
            plain_blahut_arimoto_capacity(ch, 1e-10, max_iter=3 * k)
        monkeypatch.setattr(opt, "MAX_ROUNDS", k)
        _, r = blahut_arimoto_capacity(ch, 1e-10)
        assert arimoto_gap(ch.transition, r.probs) < 1e-10

    def test_round_budget_exhausted(self, monkeypatch):
        import sebits.optimize as opt

        monkeypatch.setattr(opt, "MAX_ROUNDS", 1)
        with pytest.raises(NonConvergence, match="rounds"):
            blahut_arimoto_capacity(ChannelModel(np.array(SLOW_PLAIN)), 1e-10)


class TestIterateToCertificate:
    def test_extrapolation_outside_the_simplex_is_shortened_and_kept(self):
        # a linear map on the simplex toward t, slow along e1 and fast along e2;
        # a start nearly on the slow axis makes the SQUAREM step long enough to
        # carry the fast component past the face x_0 = 0
        t = np.array([0.01, 0.495, 0.495])
        e1 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
        e2 = np.array([-2.0, 1.0, 1.0]) / math.sqrt(6)

        def image(x):
            return t + 0.99 * ((x - t) @ e1) * e1 + 0.5 * ((x - t) @ e2) * e2

        seen = []

        def step(x):
            seen.append(x)
            f = float((x - t) @ (x - t))
            return image(x), f, f

        x0 = t + 0.3 * e1 + 1e-4 * e2
        x1, x2 = image(x0), image(image(x0))
        r, v = x1 - x0, x2 - 2 * x1 + x0
        alpha0 = -float(np.linalg.norm(r) / np.linalg.norm(v))

        def ext(alpha):
            return x0 - 2 * alpha * r + alpha * alpha * v

        assert ext(alpha0).min() < 0

        x, _, _ = _iterate_to_certificate(step, x0, lambda gap, f: False, 1)
        start = seen[2]  # the point the extrapolation step ran from
        # alpha <- (alpha - 1) / 2, k times, is -1 + (alpha0 + 1) / 2^k
        shortened = [ext(-1 + (alpha0 + 1) / 2**k) for k in range(1, 54)]
        assert any(np.allclose(start, e, rtol=0, atol=1e-12) for e in shortened)
        assert start.min() > 0
        np.testing.assert_allclose(x, image(start), rtol=0, atol=1e-15)
        assert (x - t) @ (x - t) < (x2 - t) @ (x2 - t)


def _xlog2x(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    m = a > 0
    out[m] = a[m] * np.log2(a[m])
    return out


def grid_search_up_smi(ch: ChannelModel, fj: JointSynonymousPartition, step: float = 1e-4):
    """Exhaustive oracle over binary input distributions, written from the raw sums."""
    assert ch.input_size == 2
    w = np.asarray(ch.transition)
    p0 = np.arange(0.0, 1.0 + step / 2, step)
    pm = np.stack([p0, 1.0 - p0], axis=1)  # (grid, 2)
    hx = -_xlog2x(pm).sum(axis=1)
    py = pm @ w
    hy = -_xlog2x(py).sum(axis=1)
    hs = np.zeros_like(p0)
    for bu in fj.u_partition.blocks:
        for bv in fj.v_partition.blocks:
            wsub = w[np.ix_(list(bu), list(bv))].sum(axis=1)  # (len(bu),)
            mass = pm[:, list(bu)] @ wsub
            hs -= _xlog2x(mass)
    values = hx + hy - hs
    k = int(np.argmax(values))
    return float(values[k]), float(p0[k])


def frank_wolfe_gap(ch: ChannelModel, fj: JointSynonymousPartition, p: np.ndarray) -> float:
    """max_x g_x - g.p for the gradient g of H(X)+H(Y)-Hs(X~,Y~), from the raw sums."""
    w = np.asarray(ch.transition)
    py = p @ w
    g = -np.log2(p) - w @ np.log2(np.where(py > 0, py, 1.0))
    for bu in fj.u_partition.blocks:
        for bv in fj.v_partition.blocks:
            wsub = w[np.ix_(list(bu), list(bv))].sum(axis=1)
            mass = p[list(bu)] @ wsub
            if mass > 0:
                g[list(bu)] += wsub * np.log2(mass)
    return float(g.max() - g @ p)


class TestMaximizeUpSmi:
    def test_identity_partitions_match_blahut_arimoto(self):
        for p in [0.0, 0.05, 0.11, 0.3, 0.5]:
            ch = bsc(p)
            c, _ = blahut_arimoto_capacity(ch, tol=1e-12)
            fj = JointSynonymousPartition.identity(2, 2)
            v, best = maximize_up_smi(ch, fj, tol=1e-10)
            assert v == pytest.approx(c, abs=1e-6)
            assert frank_wolfe_gap(ch, fj, best.probs) <= 1e-10

    def test_fully_merged_noiseless(self):
        fj = JointSynonymousPartition(
            SynonymousPartition.single_block(2), SynonymousPartition.single_block(2)
        )
        v, p = maximize_up_smi(ChannelModel(np.eye(2)), fj, tol=1e-10)
        assert v == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-5)
        assert frank_wolfe_gap(ChannelModel(np.eye(2)), fj, p.probs) <= 1e-10

    @pytest.mark.parametrize(
        "blocks_x,blocks_y",
        [(((0,), (1,)), ((0, 1),)), (((0, 1),), ((0,), (1,))), (((0,), (1,)), ((0,), (1,)))],
    )
    def test_against_grid_oracle_identical_rows(self, blocks_x, blocks_y):
        ch = ChannelModel(np.array([[0.6, 0.4], [0.6, 0.4]]))
        fj = JointSynonymousPartition(
            SynonymousPartition(blocks_x, 2), SynonymousPartition(blocks_y, 2)
        )
        oracle, _ = grid_search_up_smi(ch, fj)
        v, p = maximize_up_smi(ch, fj, tol=1e-10)
        assert v == pytest.approx(oracle, abs=1e-3)
        assert frank_wolfe_gap(ch, fj, p.probs) <= 1e-10

    def test_against_grid_oracle_random_2x2(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            ch = ChannelModel(rng.dirichlet(np.ones(2), size=2))
            for fu in set_partitions(2):
                for fv in set_partitions(2):
                    fj = JointSynonymousPartition(
                        SynonymousPartition(fu, 2), SynonymousPartition(fv, 2)
                    )
                    oracle, _ = grid_search_up_smi(ch, fj)
                    v, p = maximize_up_smi(ch, fj, tol=1e-9)
                    assert v == pytest.approx(oracle, abs=1e-3)
                    assert frank_wolfe_gap(ch, fj, p.probs) <= 1e-9


class TestSemanticCapacity:
    def test_noiseless_binary_fully_merged(self):
        res = semantic_capacity(ChannelModel(np.eye(2)))
        assert res.c_s == pytest.approx(2.0, abs=1e-8)
        assert res.best_partition.u_partition.semantic_size == 1
        assert res.best_partition.v_partition.semantic_size == 1
        assert res.c_classic == pytest.approx(1.0, abs=1e-9)

    def test_identity_only_equals_classic(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ch = ChannelModel(rng.dirichlet(np.ones(3), size=2))
            res = semantic_capacity(ch, identity_only=True)
            assert res.c_s == pytest.approx(res.c_classic, abs=1e-4)

    def test_identity_only_is_the_blahut_arimoto_solve(self):
        """On the identity pair the up companion is I(X;Y): one solve gives
        both numbers, so they agree bit for bit."""
        rng = np.random.default_rng(23)
        shapes = [(2, 3), (3, 3), (4, 2), (5, 6)]
        chans = [np.array(BOUNDARY_OPTIMUM)] + [rng.dirichlet(np.ones(m), size=n) for n, m in shapes]
        for w in chans:
            ch = ChannelModel(w)
            res = semantic_capacity(ch, identity_only=True)
            c, r = blahut_arimoto_capacity(ch)
            assert res.c_s == res.c_classic == c
            assert np.array_equal(res.best_input.probs, r.probs)

    def test_cs_dominates_classic_on_small_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            ch = ChannelModel(rng.dirichlet(np.ones(3), size=3))
            res = semantic_capacity(ch)
            assert res.c_s >= res.c_classic - 1e-6

    def test_full_merging_degenerates_to_marginal_entropies(self):
        """Merging both alphabets zeroes the joint block entropy, so the outer
        maximum is H(X)+H(Y) for any binary channel: both extremes reach 2.0
        and the classic gap shows up in c_classic only."""
        r0 = semantic_capacity(bsc(0.0))
        r5 = semantic_capacity(bsc(0.5))
        assert r0.c_s == pytest.approx(2.0, abs=1e-6)
        assert r5.c_s == pytest.approx(2.0, abs=1e-6)
        assert r0.c_classic > r5.c_classic

    @staticmethod
    def reached(ch: ChannelModel, res) -> float:
        """The up companion of the returned input on the returned pair."""
        return up_smi(ch.joint_with(res.best_input), res.best_partition)

    def test_pruned_search_matches_exhaustive(self):
        """The single-block ascent gives the C_s of the search over every
        partition pair, and the returned input and pair reach it."""
        rng = np.random.default_rng(5)
        for nx, ny in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 3), (3, 3)]:
            ch = ChannelModel(rng.dirichlet(np.ones(ny), size=nx))
            oracle = exhaustive_capacity(ch)
            res = semantic_capacity(ch)
            assert res.c_s == pytest.approx(oracle, abs=1e-8)
            assert self.reached(ch, res) == pytest.approx(oracle, abs=1e-8)

    def test_unreachable_output_ties(self):
        """An all-zero output column ties the single-block pair with pairs
        that split it off; the returned pair still reaches the maximum."""
        ch = ChannelModel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        oracle = exhaustive_capacity(ch)
        res = semantic_capacity(ch)
        assert res.c_s == pytest.approx(oracle, abs=1e-8)
        assert self.reached(ch, res) == pytest.approx(oracle, abs=1e-8)
        assert res.best_partition.v_partition.blocks == ((0, 1, 2),)

    def test_6x6_channel_needs_no_budget(self):
        """Bell(6)^2 = 41 209 partition pairs, more than an exhaustive search
        at a budget of 10 000 would take on."""
        ch = ChannelModel(np.random.default_rng(6).dirichlet(np.ones(6), 6))
        res = semantic_capacity(ch)
        assert res.c_s == pytest.approx(4.99037, abs=1e-5)
        assert res.c_s >= res.c_classic

    def test_5x5_channel_finishes(self):
        rng = np.random.default_rng(3)
        rng.dirichlet(np.ones(4), 4)
        ch = ChannelModel(rng.dirichlet(np.ones(5), 5))
        res = semantic_capacity(ch)
        assert res.c_s == pytest.approx(4.604359, abs=1e-6)
        assert res.best_partition.u_partition.semantic_size == 1
        assert res.best_partition.v_partition.semantic_size == 1


class TestExpectedSemanticDistortion:
    def test_perfect_copy_is_zero(self):
        j = JointDistribution(np.eye(2) * 0.5)
        f = SynonymousPartition.identity(2)
        assert expected_semantic_distortion(j, f, f, hamming_distortion(2)) == 0.0

    def test_independent_uniform_binary(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        f = SynonymousPartition.identity(2)
        assert expected_semantic_distortion(j, f, f, hamming_distortion(2)) == pytest.approx(0.5)

    def test_table2_against_direct_summation(self, table2_joint, table3_partitions):
        rng = np.random.default_rng(3)
        ds = SemanticDistortionMatrix(rng.uniform(0, 2, size=(2, 4)))
        fx, fv = table3_partitions.u_partition, table3_partitions.v_partition
        # direct summation oracle
        expected = 0.0
        for a, bu in enumerate(fx.blocks):
            for b, bv in enumerate(fv.blocks):
                for i in bu:
                    for k in bv:
                        expected += table2_joint.probs[i, k] * ds.values[a, b]
        got = expected_semantic_distortion(table2_joint, fx, fv, ds)
        assert got == pytest.approx(expected, abs=1e-12)


JUST_BELOW_P = np.array([0.2906622110885117, 0.5042105072306106, 0.20512728168087785])
JUST_BELOW_D = np.array(
    [
        [0.0, 0.38336888078551823, 0.40847320541999865],
        [0.045275193902445166, 0.0, 0.9991761150650714],
        [0.6523691115879877, 0.23451020166982395, 0.0],
    ]
)


class TestBlahutArimotoRd:
    def test_uniform_binary_hamming_values(self):
        src = Distribution(np.array([0.5, 0.5]))
        d = hamming_distortion(2).values
        assert blahut_arimoto_rd(src, d, 0.5)[0] == pytest.approx(0.0, abs=1e-9)
        assert blahut_arimoto_rd(src, d, 0.25)[0] == pytest.approx(1 - h2(0.25), abs=1e-6)
        assert blahut_arimoto_rd(src, d, 0.0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_nonuniform_closed_form(self):
        # binary source with P(1)=0.2, Hamming: R(D) = H(0.2) - H(D) for D <= 0.2
        src = Distribution(np.array([0.8, 0.2]))
        d = hamming_distortion(2).values
        for target in [0.05, 0.1, 0.15]:
            rate, _ = blahut_arimoto_rd(src, d, target)
            assert rate == pytest.approx(h2(0.2) - h2(target), abs=1e-5)

    def test_just_below_zero_rate_distortion(self):
        """Close under D_max = min_j E d(X, j) the rate is small and positive;
        each returned rate is the mutual information of its own channel."""
        p, d = JUST_BELOW_P, JUST_BELOW_D
        d_max = float((p @ d).min())
        rates = []
        for gap in [1e-2, 1e-3, 1e-4]:
            rate, ch = blahut_arimoto_rd(Distribution(p), d, d_max - gap)
            joint = JointDistribution(p[:, None] * ch.transition)
            assert rate == pytest.approx(mutual_information(joint), abs=1e-9)
            assert float(np.sum(joint.probs * d)) <= d_max - gap + 1e-9
            rates.append(rate)
        assert rates[0] > rates[1] > rates[2] > 0.0

    def test_against_convex_program_oracle(self):
        rng = np.random.default_rng(11)
        d_max = float((JUST_BELOW_P @ JUST_BELOW_D).min())
        cases = [(JUST_BELOW_P, JUST_BELOW_D, d_max - gap) for gap in [1e-2, 1e-3]]
        for _ in range(12):
            n, m = rng.integers(2, 5, size=2)
            p = rng.dirichlet(np.ones(n))
            d = rng.random((n, m))
            d_floor, d_max = float(p @ d.min(axis=1)), float((p @ d).min())
            cases.append((p, d, d_floor + rng.random() * (d_max - d_floor)))
        for p, d, target in cases:
            rate, _ = blahut_arimoto_rd(Distribution(p), d, target)
            assert rate == pytest.approx(convex_program_rd(p, d, target), abs=1e-6)

    def test_infeasible(self):
        src = Distribution(np.array([0.5, 0.5]))
        d = np.array([[1.0, 2.0], [2.0, 1.0]])  # minimum achievable distortion 1.0
        with pytest.raises(Infeasible):
            blahut_arimoto_rd(src, d, 0.5)


BIJECTIVE_PROBS = np.array([0.73944253356003, 0.03278964881788739, 0.22776781762208267])
BIJECTIVE_DS = np.array(
    [
        [0.0, 0.8761799441204938, 0.9413849661435876],
        [0.2959188909837117, 0.0, 0.5807728908501884],
        [0.5742797648685671, 0.8714321648081984, 0.0],
    ]
)
BIJECTIVE_TARGET = 0.054289654406150814


class TestSemanticRateDistortion:
    def test_identity_matches_classic(self):
        src = Distribution(np.array([0.5, 0.5]))
        ds = hamming_distortion(2)
        for target in [0.05, 0.15, 0.25, 0.35, 0.45]:
            res = semantic_rate_distortion(src, ds, target)
            assert res.r_s == pytest.approx(1 - h2(target), abs=5e-3)
            assert res.r_s <= res.r_classic + 1e-6
            assert res.distortion_achieved <= target + 1e-6

    def test_lossless_point(self):
        res = semantic_rate_distortion(Distribution(np.array([0.5, 0.5])), hamming_distortion(2), 0.0)
        assert res.r_s == pytest.approx(1.0, abs=1e-6)

    def test_lossless_point_with_small_costs(self):
        """Costs of 1e-4 push the multiplier for D = 0 to about 1e6; the
        certificate must still close, at R_s(0) = H(X)."""
        probs = np.array([0.2, 0.3, 0.5])
        ds = SemanticDistortionMatrix(1e-4 * (1.0 - np.eye(3)))
        res = semantic_rate_distortion(Distribution(probs), ds, 0.0)
        assert res.r_s == pytest.approx(float(-(probs @ np.log2(probs))), abs=1e-6)

    def test_budget_gate(self):
        """The gate counts the solves: labeled source partitions times the
        reconstruction block-size vectors (compositions of n^ into k^ parts),
        and refuses before solving any."""
        src = Distribution(np.array([0.5, 0.3, 0.2]))
        required = count_ordered_set_partitions(3, 2) * math.comb(4 - 1, 2 - 1)
        with pytest.raises(BudgetExceeded) as exc:
            semantic_rate_distortion(
                src, hamming_distortion(2), 0.2, partition_budget=required - 1,
                reconstruction_size=4,
            )
        assert exc.value.required == required == 6 * 3

    def test_merged_source_is_free(self):
        res = semantic_rate_distortion(
            Distribution(np.array([0.5, 0.5])), SemanticDistortionMatrix(np.zeros((1, 1))), 0.0
        )
        assert res.r_s == 0.0

    def test_nonincreasing_in_distortion(self):
        src = Distribution(np.array([0.6, 0.4]))
        ds = hamming_distortion(2)
        rates = [semantic_rate_distortion(src, ds, t).r_s for t in [0.05, 0.1, 0.2, 0.3, 0.39]]
        assert all(a >= b - 1e-6 for a, b in zip(rates, rates[1:]))

    def test_rs_below_classic_with_merging_freedom(self):
        # ternary source, binary semantic alphabet: merging strictly reduces the rate
        src = Distribution(np.array([0.4, 0.35, 0.25]))
        ds = hamming_distortion(2)
        res = semantic_rate_distortion(src, ds, 0.1, reconstruction_size=2)
        assert res.r_s <= res.r_classic + 1e-6
        assert res.best_partitions[0].semantic_size == 2

    def test_grid_oracle_2x2_inner(self):
        """Inner solver vs an exhaustive 1e-3 grid over binary test channels,
        with the objective recomputed from the raw sums."""
        src = Distribution(np.array([0.5, 0.5]))
        ds = hamming_distortion(2)
        target = 0.2
        res = semantic_rate_distortion(src, ds, target)

        g = np.arange(0.0, 1.0 + 5e-4, 1e-3)
        a, b = np.meshgrid(g, g, indexing="ij")
        dist = 0.5 * a + 0.5 * b
        j = np.stack([0.5 * (1 - a), 0.5 * a, 0.5 * b, 0.5 * (1 - b)])  # joint cells
        r0, r1 = j[0] + j[2], j[1] + j[3]  # reconstruction marginal
        # identity partitions: down companion reduces to I(X;X^)
        hxh = -(_xlog2x(r0) + _xlog2x(r1))
        h_joint = -_xlog2x(j).sum(axis=0)
        i_xy = 1.0 + hxh - h_joint
        i_xy[dist > target] = np.inf
        best = float(np.clip(i_xy, 0.0, None).min())
        assert res.r_s == pytest.approx(best, abs=1e-3)

    def test_binary_hamming_closed_form(self):
        src = Distribution(np.array([0.5, 0.5]))
        for target in [0.05, 0.15, 0.25, 0.35]:
            res = semantic_rate_distortion(src, hamming_distortion(2), target)
            assert res.r_s == pytest.approx(1 - h2(target), abs=1e-6)

    def test_bijective_partitions_match_classic_over_relabelings(self):
        """With as many semantic as syntactic symbols every partition pair is a
        relabeling, so R_s(D) is the least classic R(D) over row and column
        permutations of the cost matrix."""
        probs, ds, target = BIJECTIVE_PROBS, BIJECTIVE_DS, BIJECTIVE_TARGET
        src = Distribution(probs)
        res = semantic_rate_distortion(
            src, SemanticDistortionMatrix(ds), target, reconstruction_size=3
        )
        oracle = min(
            blahut_arimoto_rd(src, ds[list(rows)][:, list(cols)], target)[0]
            for rows in itertools.permutations(range(3))
            for cols in itertools.permutations(range(3))
        )
        assert oracle == pytest.approx(0.2610234, abs=1e-7)
        assert res.r_s == pytest.approx(oracle, abs=1e-6)
        assert res.distortion_achieved <= target + 1e-9

    def test_bijective_partitions_match_convex_program_oracle(self):
        res = semantic_rate_distortion(
            Distribution(BIJECTIVE_PROBS), SemanticDistortionMatrix(BIJECTIVE_DS),
            BIJECTIVE_TARGET, reconstruction_size=3,
        )
        oracle = min(
            convex_program_rd(
                BIJECTIVE_PROBS, BIJECTIVE_DS[list(rows)][:, list(cols)], BIJECTIVE_TARGET
            )
            for rows in itertools.permutations(range(3))
            for cols in itertools.permutations(range(3))
        )
        assert res.r_s == pytest.approx(oracle, abs=1e-6)

    def test_source_relabeling_keeps_the_rate(self):
        """Under a symmetric Hamming cost the enumeration covers every labeled source
        partition, so permuting the source symbols leaves R_s(D) in place up to
        rounding (ties go whichever way rounding sends them, so only r_s is compared,
        not the reported pair), and the reported pair's own down companion, clamped
        at zero, is r_s."""
        rng = np.random.default_rng(41)
        positive = 0
        for _ in range(6):
            n = int(rng.integers(3, 5))
            k = int(rng.integers(n - 1, n + 1))
            n_hat = int(rng.integers(k, 6))
            probs, target = rng.dirichlet(np.ones(n)), float(rng.uniform(0.02, 0.15))
            res = semantic_rate_distortion(
                Distribution(probs), hamming_distortion(k), target, reconstruction_size=n_hat
            )
            for perm in (rng.permutation(n), np.arange(n)[::-1]):
                moved = semantic_rate_distortion(
                    Distribution(probs[perm]), hamming_distortion(k), target, reconstruction_size=n_hat
                )
                assert moved.r_s == pytest.approx(res.r_s, abs=1e-12)
            joint = res.best_test_channel.joint_with(Distribution(probs))
            down = down_smi(joint, JointSynonymousPartition(*res.best_partitions), clamp=True)
            assert down == pytest.approx(res.r_s, abs=1e-12)
            positive += res.r_s > 0
        assert positive >= 2

    def test_straight_segment_of_the_curve(self):
        """A reconstruction symbol of constant cost a (an erasure) puts a
        straight segment on R(D): the line from (a, 0) tangent to 1 - h2(D).
        The search must settle on that line, whose slope is a multiplier at
        which every point of the segment is optimal."""
        a = 0.2
        lo, hi = 1e-9, a  # tangent point d0, by bisection on the tangency condition
        for _ in range(200):
            d0 = 0.5 * (lo + hi)
            if 1 - h2(d0) < np.log2((1 - d0) / d0) * (a - d0):
                lo = d0
            else:
                hi = d0
        slope = np.log2((1 - d0) / d0)
        src = Distribution(np.array([0.5, 0.5]))
        ds = SemanticDistortionMatrix(np.array([[0.0, 1.0, a], [1.0, 0.0, a]]))
        for target in [0.05, 0.1, 0.15, 0.19]:
            res = semantic_rate_distortion(src, ds, target)
            assert res.r_s == pytest.approx(slope * (a - target), abs=1e-6)
            assert res.r_classic == pytest.approx(res.r_s, abs=1e-6)

    def test_single_source_block_is_free(self):
        """One source block: a feasible test channel has down companion <= 0."""
        res = semantic_rate_distortion(
            Distribution(np.array([0.0780138848189457, 0.9219861151810542])),
            SemanticDistortionMatrix(np.array([[0.6168075138237781, 0.10538567974837565]])),
            0.30457897296162373,
            reconstruction_size=3,
        )
        assert res.r_s == 0.0
        assert res.distortion_achieved <= 0.30457897296162373 + 1e-9

    def test_infeasible_everywhere(self):
        src = Distribution(np.array([0.5, 0.5]))
        ds = SemanticDistortionMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(Infeasible):
            semantic_rate_distortion(src, ds, 0.5)

    @pytest.mark.parametrize("target", [-0.1, math.nan])
    def test_target_must_be_non_negative(self, target):
        """A NaN target fails the check too, before any partition is enumerated."""
        src = Distribution(np.array([0.5, 0.5]))
        ds = SemanticDistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(Infeasible, match="non-negative"):
            semantic_rate_distortion(src, ds, target)

    @staticmethod
    def random_instances(seed: int, count: int, max_n: int, max_n_hat: int):
        """(source, cost, D, n^) with D between the least distortion any source
        partition can meet and the least at which every one of them can send
        all its mass to one reconstruction block (rate 0), drawn as
        floor + u^2 (max - floor) to favour positive rates.  Half the
        sources and half the reconstructions have one symbol per block:
        merging lowers the down companion, so these carry most of them."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, max_n + 1))
            k = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
            k_hat = int(rng.integers(1, max_n_hat + 1))
            n_hat = k_hat if rng.random() < 0.5 else int(rng.integers(k_hat, max_n_hat + 1))
            p = rng.dirichlet(np.ones(n))
            d = rng.random((k, k_hat))
            masses = [block_sums(p, 0, 1, SynonymousPartition(b, n).block_of, k)[0]
                      for b in ordered_set_partitions(n, k)]
            d_floor = min(float(a @ d.min(axis=1)) for a in masses)
            d_max = max(float((a @ d).min()) for a in masses)
            target = d_floor + rng.random() ** 2 * (d_max - d_floor)
            yield Distribution(p), SemanticDistortionMatrix(d), target, n_hat

    def test_matches_labeled_enumeration_of_the_syntactic_problem(self):
        """One k x k^ solve per (source partition, size vector) gives what one
        n x k^ solve per labeled partition pair gives.  Where pairs tie in
        exact arithmetic (several reach rate 0, say), rounding at 1e-16
        decides which one the tie-break keeps, in either enumeration: a
        differing pair must then tie the reference's value within 1e-12 in
        the reference's own solve."""
        skewed = Distribution(np.array([0.7, 0.1, 0.1, 0.1]))
        instances = [
            (skewed, hamming_distortion(3), 0.05, 3),  # rate > 0 with a merged source pair
            (skewed, hamming_distortion(2), 0.02, 2),  # -H(X|X~) takes the rate to 0
            *self.random_instances(5, 40, 4, 3),
        ]
        positive = ties = 0
        for src, ds, target, n_hat in instances:
            res = semantic_rate_distortion(src, ds, target, reconstruction_size=n_hat)
            ref = labeled_rate_distortion(src, ds, target, n_hat)
            assert res.r_s == pytest.approx(ref.r_s, abs=1e-12)
            pairs = [tuple(f.blocks for f in r.best_partitions) for r in (res, ref)]
            if pairs[0] != pairs[1]:
                value = labeled_pair_solve(src, ds, target, *pairs[0])[0]
                assert max(value, 0.0) == pytest.approx(ref.r_s, abs=1e-12)
                ties += 1
                continue
            assert res.distortion_achieved == pytest.approx(ref.distortion_achieved, abs=1e-12)
            assert res.r_classic == pytest.approx(ref.r_classic, abs=1e-12)
            positive += res.r_s > 0
        assert positive >= 5 and ties <= 5

    def test_json_matches_labeled_enumeration_on_the_block_masses(self):
        """Each size vector's consecutive blocks are the least labeled partition
        with those sizes, so the tie-break, and the JSON, are those of the
        labeled enumeration."""
        instances = list(self.random_instances(7, 24, 3, 4))
        instances.append((Distribution(np.array([0.5, 0.3, 0.2])), hamming_distortion(3), 0.1, 4))
        for src, ds, target, n_hat in instances:
            res = semantic_rate_distortion(src, ds, target, reconstruction_size=n_hat)
            ref = labeled_rate_distortion(src, ds, target, n_hat, reduced=True)
            assert json.dumps(res.to_json()) == json.dumps(ref.to_json())

    @pytest.fixture
    def solves(self, monkeypatch):
        """Counts the calls of the inner down-SMI solver, the r_classic solve included."""
        import sebits.optimize as opt

        count = [0]
        inner = opt._min_down_smi_under_distortion

        def counted(*args):
            count[0] += 1
            return inner(*args)

        monkeypatch.setattr(opt, "_min_down_smi_under_distortion", counted)
        return count

    @pytest.mark.parametrize(
        "probs, k, n_hat, target, calls",
        [
            # 241 calls when every pair is solved
            ([0.4, 0.3, 0.2, 0.1], 4, 6, 0.2, 10),
            # 3 241 calls when every pair is solved
            ([1 / 6] * 6, 3, 5, 0.02, 2),
        ],
        ids=["4x4_n_hat_6", "uniform6_3x3_n_hat_5"],
    )
    def test_first_zero_ends_the_search(self, solves, probs, k, n_hat, target, calls):
        """Pairs are solved least first, so the first pair whose value reaches
        the clamp at 0 is the answer and no later pair is solved."""
        res = semantic_rate_distortion(
            Distribution(np.array(probs)), hamming_distortion(k), target, reconstruction_size=n_hat
        )
        assert res.r_s == 0.0
        assert solves[0] == calls

    def test_positive_rate_solves_every_pair(self, solves):
        """No pair reaches 0 at n^ = 5: all 96 pairs and the r_classic solve
        run, and the least pair of the least value is reported."""
        res = semantic_rate_distortion(
            Distribution(np.array([0.4, 0.3, 0.2, 0.1])), hamming_distortion(4), 0.2, reconstruction_size=5
        )
        assert res.r_s == pytest.approx(0.3038999093445769, abs=1e-9)
        assert solves[0] == 97
        assert res.best_partitions[0].blocks == ((3,), (0,), (2,), (1,))
        assert res.best_partitions[1].blocks == ((0,), (1, 2), (3,), (4,))

    def test_4x4_hamming_beyond_the_old_budget(self):
        """Source [0.4, 0.3, 0.2, 0.1], 4x4 Hamming cost, D = 0.2: the rates
        of the labeled enumeration at n^ = 4 and 5, and 0 at n^ = 6, which the
        labeled enumeration's 37 440 pairs put past the default budget."""
        src = Distribution(np.array([0.4, 0.3, 0.2, 0.1]))
        for n_hat, r_s in [(4, 0.8075187496394216), (5, 0.3038999093445769), (6, 0.0)]:
            res = semantic_rate_distortion(src, hamming_distortion(4), 0.2, reconstruction_size=n_hat)
            assert res.r_s == pytest.approx(r_s, abs=1e-9)
            assert res.distortion_achieved <= 0.2 + 1e-9


class TestJsccFeasible:
    @pytest.fixture()
    def setup(self):
        src = Distribution(np.full(4, 0.25))
        f = SynonymousPartition(((0, 1), (2, 3)), 4)
        ch = ChannelModel(np.eye(2))
        return src, f, ch

    def test_feasible_between_bounds(self, setup):
        src, f, ch = setup
        assert jscc_feasible(1.5, src, f, ch) == "feasible"

    def test_infeasible_below_entropy(self, setup):
        src, f, ch = setup
        assert jscc_feasible(0.5, src, f, ch) == "infeasible"

    def test_boundary(self, setup):
        src, f, ch = setup
        assert jscc_feasible(1.0, src, f, ch) == "boundary"
        assert jscc_feasible(2.0, src, f, ch) == "boundary"

    def test_semantic_widens_the_classic_window(self, setup):
        """H(U) > C makes classic transmission impossible; the merged source still fits."""
        src, f, ch = setup
        from sebits.measures import entropy, semantic_entropy

        c_classic, _ = blahut_arimoto_capacity(ch)
        assert entropy(src) > c_classic  # classic window is empty
        assert semantic_entropy(src, f) < 2.0  # semantic window is not
        assert jscc_feasible(1.5, src, f, ch) == "feasible"

    def test_lossy_mode(self, setup):
        src, f, ch = setup
        ds = hamming_distortion(2)
        verdict = jscc_feasible(
            1.5, src, f, ch, mode="lossy", ds=ds, target_d=0.1, partition_budget=10_000
        )
        assert verdict in ("feasible", "boundary")
