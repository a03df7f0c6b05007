"""Grouped codes: distances vs a direct-formula oracle, decoding vs a
likelihood-sum oracle, bounds, and the AWGN simulation."""

import math
import resource
import time
import tracemalloc

import numpy as np
import pytest

from sebits import chancode
from sebits._kernels import trial_uniforms
from sebits.chancode import (
    AwgnConfig,
    GroupedCodebook,
    build_grouped_codebook,
    classic_distance_spectrum,
    codeword_to_group_distance,
    coset_groups,
    gep_union_bound,
    group_hamming_distance,
    min_group_hamming_distance,
    ml_decode,
    mlg_decode,
    _box_muller,
    _decide,
    simulate_awgn,
    simulate_awgn_sweep,
    singleton_codebook,
    wilson_halfwidth,
)
from sebits.errors import (
    DuplicateCodeword,
    GroupOutOfRange,
    LengthMismatch,
    RaggedLengths,
    UnequalGroupSizes,
    ValidationError,
)


class TestBuild:
    def test_table8_rates(self, hamming_codebook):
        cb = hamming_codebook
        assert cb.n == 7
        assert cb.num_codewords == 16 and cb.num_groups == 8 and cb.group_size == 2
        assert cb.group_rate == pytest.approx(3 / 7)
        assert cb.synonymous_rate == pytest.approx(1 / 7)

    def test_singleton_rate(self, hamming_codebook):
        single = singleton_codebook(hamming_codebook.codewords)
        assert single.synonymous_rate == 0.0
        assert single.group_rate == pytest.approx(4 / 7)

    def test_duplicate_codeword(self):
        with pytest.raises(DuplicateCodeword):
            build_grouped_codebook(["00", "00"], [[0], [1]])

    def test_unequal_groups(self):
        with pytest.raises(UnequalGroupSizes):
            build_grouped_codebook(["00", "01", "10"], [[0, 1], [2]])

    def test_ragged(self):
        with pytest.raises(RaggedLengths):
            build_grouped_codebook(["00", "010"], [[0], [1]])

    def test_groups_must_partition(self):
        with pytest.raises(GroupOutOfRange):
            build_grouped_codebook(["00", "01"], [[0], [0]])

    def test_coset_helper_reproduces_table8(self, hamming_codebook):
        cb = coset_groups([
            "".join(str(b) for b in row) for row in hamming_codebook.codewords
        ], ["1101000"])
        assert {frozenset(g) for g in cb.groups} == {
            frozenset(g) for g in hamming_codebook.groups
        }


def oracle_codeword_to_group(cw: np.ndarray, groups, i: int, j: int) -> float:
    """Direct evaluation with explicit loops, independent of the library path."""
    own = next(k for k, g in enumerate(groups) if i in g)
    x = cw[i]
    cross = sum(int(np.sum(np.abs(x - cw[l]))) for l in groups[j])
    inner = sum(int(np.sum(np.abs(x - cw[l]))) for l in groups[own] if l != i)
    delta = np.zeros(cw.shape[1])
    for a, b in zip(groups[j], groups[own]):
        delta += cw[a] - cw[b]
    den = float(np.dot(delta, delta))
    if den == 0:  # equal group sums: the gap vanishes too, and the 0/0 reads as distance 0
        assert cross == inner
        return 0.0
    return (cross - inner) ** 2 / den


def loop_group_spectrum(cb: GroupedCodebook) -> tuple[float, dict[tuple, float]]:
    """Oracle: the spectrum built from codeword_to_group_distance, group pair by group pair."""
    d_min = math.inf
    counts = {}
    for a in range(cb.num_groups):
        for b in range(cb.num_groups):
            if a != b:
                dists = sorted(codeword_to_group_distance(cb, i, b) for i in cb.groups[a])
                d_min = min(d_min, dists[0])
                key = tuple(round(x, 9) for x in dists)
                counts[key] = counts.get(key, 0.0) + 1.0
    return d_min, {k: v / cb.num_groups for k, v in counts.items()}


class TestGroupDistance:
    def test_table8_oracle_agreement(self, hamming_codebook):
        cb = hamming_codebook
        for i in range(cb.num_codewords):
            own = int(cb.group_of[i])
            for j in range(cb.num_groups):
                if j == own:
                    continue
                got = codeword_to_group_distance(cb, i, j)
                want = oracle_codeword_to_group(cb.codewords, cb.groups, i, j)
                assert got == pytest.approx(want)

    def test_table8_example_value(self, hamming_codebook):
        # all-zero codeword against the second group
        assert codeword_to_group_distance(hamming_codebook, 0, 1) == pytest.approx(2.0)

    def test_singleton_reduces_to_hamming(self, hamming_codebook):
        single = singleton_codebook(hamming_codebook.codewords)
        cw = single.codewords
        for i in [0, 3, 9]:
            for j in [1, 5, 12]:
                if i == j:
                    continue
                d_h = int(np.sum(np.abs(cw[i] - cw[j])))
                assert codeword_to_group_distance(single, i, j) == pytest.approx(d_h)

    def test_zero_denominator_reads_zero(self):
        # the two groups have identical column sums, so the difference vanishes; so do
        # the gaps, and the MLG metrics of the two groups tie on every received vector
        cb = build_grouped_codebook(["00", "11", "01", "10"], [[0, 1], [2, 3]])
        for i in range(4):
            assert codeword_to_group_distance(cb, i, 1 - int(cb.group_of[i])) == 0.0
        assert min_group_hamming_distance(cb) == (0.0, {(0.0, 0.0): 1.0})
        y = np.random.default_rng(3).normal(size=(50, 2))
        group_signals = cb.signals()[np.array(cb.groups)].sum(axis=1)
        np.testing.assert_array_equal(y @ group_signals[0], y @ group_signals[1])

    def test_own_group_rejected(self, hamming_codebook):
        with pytest.raises(GroupOutOfRange):
            codeword_to_group_distance(hamming_codebook, 0, 0)

    def test_min_group_distance_table8(self, hamming_codebook):
        d_min, spectrum = min_group_hamming_distance(hamming_codebook)
        assert d_min == pytest.approx(2.0)
        assert spectrum == {(2.0, 2.0): pytest.approx(6.0), (4.0, 4.0): pytest.approx(1.0)}

    def test_group_pair_symmetry_on_table8(self, hamming_codebook):
        assert group_hamming_distance(hamming_codebook, 0, 7) == pytest.approx(4.0)
        assert group_hamming_distance(hamming_codebook, 7, 0) == pytest.approx(4.0)

    def test_singleton_spectrum_is_classic(self, hamming_codebook):
        single = singleton_codebook(hamming_codebook.codewords)
        d_min, spectrum = min_group_hamming_distance(single)
        assert d_min == pytest.approx(3.0)
        assert spectrum == {
            (3.0,): pytest.approx(7.0),
            (4.0,): pytest.approx(7.0),
            (7.0,): pytest.approx(1.0),
        }

    def test_array_spectrum_equals_the_distance_loop(self):
        """The one-pass spectrum against the per-codeword loop it replaced, on random
        codebooks (short words, so many degenerate pairs at distance 0/0 = 0):
        values, key order and d_min are equal, so the MLG bound sums the same terms
        in the same order and is bit-equal."""
        rng = np.random.default_rng(17)
        degenerate = 0
        for t in range(300):
            n, groups, size = (int(x) for x in rng.integers([2, 2, 1], [7, 6, 5]))
            if t % 4 == 0:  # groups {w, not w}: all column sums match, every distance is 0/0
                size = 2
                half = rng.choice(2 ** (n - 1), size=min(groups, 2 ** (n - 1)), replace=False)
                words = np.column_stack([half, 2**n - 1 - half]).ravel()
                grouping = np.arange(words.size).reshape(-1, 2)
            elif groups * size <= 2**n:
                words = rng.choice(2**n, size=groups * size, replace=False)
                grouping = rng.permutation(groups * size).reshape(groups, size)
            else:
                continue
            if len(grouping) < 2:
                continue
            cb = build_grouped_codebook([format(int(w), f"0{n}b") for w in words], grouping.tolist())
            d_min, spectrum = min_group_hamming_distance(cb)
            want_d_min, want = loop_group_spectrum(cb)
            assert d_min == want_d_min
            assert list(spectrum.items()) == list(want.items())
            col = cb.codewords[np.array(cb.groups)].sum(axis=1)
            degenerate += len(np.unique(col, axis=0)) < len(col)  # two groups with equal sums
            for es_n0 in (0.25, 1.0, 3.7):
                bound = 0.0
                for profile, count in want.items():
                    terms = [math.exp(-d * es_n0) for d in profile]
                    bound += count * float(np.mean(terms))
                assert gep_union_bound(cb, es_n0, "MLG") == bound
        assert degenerate > 60

    def test_classic_spectrum_table8(self, hamming_codebook):
        # the cyclic (7,4) code has 7 weight-3 and 7 weight-4 words; see the
        # acceptance notes for the 8/6 reference variant
        assert classic_distance_spectrum(hamming_codebook) == {
            3: pytest.approx(7.0),
            4: pytest.approx(7.0),
            7: pytest.approx(1.0),
        }

    def test_classic_spectrum_equals_the_pair_loop(self, hamming_codebook):
        """The one-pass classic spectrum against a loop over ordered codeword pairs, on
        Table VIII and random codebooks (one codeword to 40): keys, key order, int keys
        and float counts are equal, so the ML bound sums the same terms in the same order."""
        rng = np.random.default_rng(19)
        books = [hamming_codebook]
        for _ in range(300):
            n = int(rng.integers(1, 12))
            words = rng.choice(2**n, size=int(rng.integers(1, min(2**n, 40) + 1)), replace=False)
            books.append(singleton_codebook([format(int(w), f"0{n}b") for w in words]))
        for cb in books:
            cw, m = cb.codewords, cb.num_codewords
            counts: dict[int, float] = {}
            for i in range(m):
                for j in range(m):
                    if i != j:
                        d = int(np.sum(cw[i] != cw[j]))
                        counts[d] = counts.get(d, 0.0) + 1.0
            want = {d: c / m for d, c in sorted(counts.items())}
            spectrum = classic_distance_spectrum(cb)
            assert list(spectrum.items()) == list(want.items())
            assert all(type(d) is int and type(c) is float for d, c in spectrum.items())


class TestUnionBounds:
    def test_spectra_computed_once_per_codebook(self, hamming_codebook, monkeypatch):
        cb = build_grouped_codebook(hamming_codebook.codewords, hamming_codebook.groups)
        calls = []

        def counted(name):
            spectrum_of = getattr(chancode, name)

            def wrapper(codebook):
                if codebook is cb:
                    calls.append(name)
                return spectrum_of(codebook)

            return wrapper

        for name in ("_group_spectrum_of", "_classic_spectrum_of"):
            monkeypatch.setattr(chancode, name, counted(name))
        grid = [(x, mode) for x in (0.5, 1.0, 3.7) for mode in ("MLG", "ML")]
        first = [gep_union_bound(cb, x, mode) for x, mode in grid]
        assert sorted(calls) == ["_classic_spectrum_of", "_group_spectrum_of"]
        # callers get copies: changing them does not reach the cached spectra
        min_group_hamming_distance(cb)[1].clear()
        classic_distance_spectrum(cb).clear()
        assert [gep_union_bound(cb, x, mode) for x, mode in grid] == first
        assert min_group_hamming_distance(cb) == min_group_hamming_distance(hamming_codebook)
        assert classic_distance_spectrum(cb) == classic_distance_spectrum(hamming_codebook)
        assert sorted(calls) == ["_classic_spectrum_of", "_group_spectrum_of"]

    def test_decode_signals_built_once_per_codebook(self, hamming_codebook, monkeypatch):
        cb = build_grouped_codebook(hamming_codebook.codewords, hamming_codebook.groups)
        awgn_chunk(monkeypatch, cb, 64)
        calls = []
        signals_of = GroupedCodebook.signals

        def counted(codebook):
            if codebook is cb:
                calls.append(1)
            return signals_of(codebook)

        monkeypatch.setattr(GroupedCodebook, "signals", counted)
        simulate_awgn_sweep(cb, [0.5, 1.0, 2.0], trials=500, seed=4)  # 8 chunks
        assert len(calls) == 1
        mlg_decode(np.ones(cb.n), cb)
        assert len(calls) == 1
        # callers of signals() still get a fresh, writable array
        fresh = cb.signals()
        fresh[0, 0] = 7.0
        assert not cb._decode_signals[0].flags.writeable
        assert cb._decode_signals[0][0, 0] != 7.0

    def test_mlg_at_unit_snr(self, hamming_codebook):
        want = 6 * math.exp(-2) + math.exp(-4)
        assert gep_union_bound(hamming_codebook, 1.0, "MLG") == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.8303, abs=1e-4)

    def test_ml_follows_computed_spectrum(self, hamming_codebook):
        want = 7 * math.exp(-3) + 7 * math.exp(-4) + math.exp(-7)
        assert gep_union_bound(hamming_codebook, 1.0, "ML") == pytest.approx(want, abs=1e-12)

    def test_monotone_in_snr(self, hamming_codebook):
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        for mode in ("MLG", "ML"):
            vals = [gep_union_bound(hamming_codebook, x, mode) for x in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tied_groups_contribute_a_term_of_one(self):
        # one group pair at distance 0/0 = 0, on which the MLG decoder always ties
        cb = build_grouped_codebook(["00", "11", "01", "10"], [[0, 1], [2, 3]])
        assert gep_union_bound(cb, 1.0, "MLG") == 1.0

    @pytest.mark.parametrize("mode", ["MLG", "ML"])
    def test_nan_es_n0_refused(self, hamming_codebook, mode):
        with pytest.raises(ValueError, match="Es/N0 must be positive"):
            gep_union_bound(hamming_codebook, math.nan, mode)


def oracle_group_loglik(y: np.ndarray, cb: GroupedCodebook, sigma2: float) -> int:
    """argmax over groups of sum_l ln p(y | codeword l), evaluated longhand."""
    best, best_g = -math.inf, -1
    for g, members in enumerate(cb.groups):
        total = 0.0
        for l in members:
            s = 1.0 - 2.0 * cb.codewords[l].astype(float)
            total += float(
                np.sum(-0.5 * np.log(2 * math.pi * sigma2) - (y - s) ** 2 / (2 * sigma2))
            )
        if total > best + 1e-12:
            best, best_g = total, g
    return best_g


class TestDecoding:
    def test_noiseless_signals_decode_to_their_group(self, hamming_codebook):
        cb = hamming_codebook
        for i in range(cb.num_codewords):
            y = cb.signals()[i]
            assert ml_decode(y, cb) == i
            assert mlg_decode(y, cb) == cb.group_of[i]

    def test_group1_partner_codeword(self, hamming_codebook):
        # 1101000 shares group 0 with the all-zero codeword
        y = hamming_codebook.signals()[1]
        assert mlg_decode(y, hamming_codebook) == 0

    def test_all_zero_received_ties_to_lowest(self, hamming_codebook):
        y = np.zeros(7)
        assert ml_decode(y, hamming_codebook) == 0
        assert mlg_decode(y, hamming_codebook) == 0

    def test_length_mismatch(self, hamming_codebook):
        with pytest.raises(LengthMismatch):
            ml_decode(np.zeros(6), hamming_codebook)
        with pytest.raises(LengthMismatch):
            mlg_decode(np.zeros(8), hamming_codebook)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("decode", [ml_decode, mlg_decode])
    def test_non_finite_received_vector_refused(self, hamming_codebook, decode, bad):
        """A NaN or infinite entry has no nearest codeword: it is refused, not decoded to 0."""
        y = np.zeros(7)
        y[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            decode(y, hamming_codebook)

    def test_mlg_matches_likelihood_sum_oracle(self, hamming_codebook):
        """10^4 random vectors: the distance rule equals brute-force log-likelihood sums."""
        rng = np.random.default_rng(21)
        cb = hamming_codebook
        sigma2 = 0.5
        ys = rng.normal(0.0, 2.0, size=(10_000, 7))
        for y in ys:
            assert mlg_decode(y, cb) == oracle_group_loglik(y, cb, sigma2)

    def test_singleton_mlg_equals_ml(self, hamming_codebook):
        rng = np.random.default_rng(22)
        single = singleton_codebook(hamming_codebook.codewords)
        for y in rng.normal(0.0, 1.5, size=(10_000, 7)):
            assert mlg_decode(y, single) == ml_decode(y, single)

    def test_scale_invariance(self, hamming_codebook):
        rng = np.random.default_rng(23)
        for y in rng.normal(0.0, 1.0, size=(200, 7)):
            assert mlg_decode(3.7 * y, hamming_codebook) == mlg_decode(y, hamming_codebook)

    def test_hard_decision_corner(self, hamming_codebook):
        # single flipped coordinate lands on the transmitted codeword under ML
        cb = singleton_codebook(hamming_codebook.codewords)
        for i in [0, 5, 15]:
            y = cb.signals()[i].copy()
            y[3] = -y[3]
            assert ml_decode(y, cb) == i  # d_min 3 corrects one flip


class TestSimulation:
    def test_deterministic_given_seed(self, hamming_codebook):
        cfg = AwgnConfig(es_n0=2.0, trials=50_000, seed=99)
        a = simulate_awgn(hamming_codebook, cfg)
        b = simulate_awgn(hamming_codebook, cfg)
        assert a == b

    def test_batching_does_not_change_results(self, hamming_codebook, monkeypatch):
        cfg = AwgnConfig(es_n0=2.0, trials=30_000, seed=5)
        awgn_chunk(monkeypatch, hamming_codebook, 1 << 15)
        a = simulate_awgn(hamming_codebook, cfg)
        awgn_chunk(monkeypatch, hamming_codebook, 977)
        b = simulate_awgn(hamming_codebook, cfg)
        assert a.group_error_rate == b.group_error_rate

    def test_high_snr_is_error_free(self, hamming_codebook):
        res = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=100.0, trials=20_000, seed=1))
        assert res.group_error_rate == 0.0
        assert res.codeword_error_rate == 0.0

    def test_group_rate_within_mlg_bound(self, hamming_codebook):
        for es_n0 in (1.0, 2.0, 4.0):
            res = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=es_n0, trials=100_000, seed=3))
            bound = gep_union_bound(hamming_codebook, es_n0, "MLG")
            sigma = res.ci95 / 1.959963984540054
            assert res.group_error_rate <= bound + 3 * sigma

    def test_product_rule_vs_ml_induced_groups(self, hamming_codebook):
        """On this short code the product-form group rule pays for its reduced
        minimum group distance: the group decision read off the single best
        codeword is strictly better at moderate SNR; the reduced minimum group
        distance (2 against 3) points the same way."""
        res = simulate_awgn(hamming_codebook, AwgnConfig(es_n0=2.0, trials=200_000, seed=8))
        assert res.ml_group_error_rate < res.group_error_rate

    def test_memory_does_not_scale_with_codewords_times_length(self, hamming_codebook):
        cfg = AwgnConfig(es_n0=2.0, trials=1 << 15, seed=1)
        simulate_awgn(hamming_codebook, cfg)  # one-time set-up stays out of the peak
        tracemalloc.start()
        try:
            simulate_awgn(hamming_codebook, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        broadcast = np.dtype(float).itemsize * (1 << 15) * 16 * 7  # one (2^15, M, n) array
        assert peak < broadcast / 2

    def test_wilson_halfwidth(self):
        assert wilson_halfwidth(0.5, 10_000) == pytest.approx(0.0098, abs=2e-4)
        assert wilson_halfwidth(0.0, 100) > 0.0

    @pytest.mark.parametrize(
        "p_hat, n",
        [(0.1, math.nan), (0.1, 0), (0.1, 0.5), (math.nan, 100), (-0.1, 100), (1.1, 100)],
        ids=["nan_n", "zero_n", "fractional_n", "nan_p_hat", "negative_p_hat", "p_hat_above_1"],
    )
    def test_wilson_halfwidth_refuses(self, p_hat, n):
        """A count below 1 or NaN, and a proportion outside [0, 1] or NaN, are refused."""
        with pytest.raises(ValueError):
            wilson_halfwidth(p_hat, n)


def awgn_chunk(monkeypatch, cb: GroupedCodebook, trials: int) -> None:
    """Set AWGN_WORK so that simulate_awgn_sweep runs cb in chunks of `trials` trials."""
    monkeypatch.setattr(chancode, "AWGN_WORK", trials * cb.num_codewords * cb.n)


def broadcast_counts(cb: GroupedCodebook, cfg: AwgnConfig, batch: int = 1 << 13) -> list[int]:
    """Group, codeword and ML-group error counts from the squared-distance decoder
    simulate_awgn used before the correlation rule: a (b, M, n) broadcast per batch."""
    signals = cb.signals()
    m, n = signals.shape
    sigma = math.sqrt(1.0 / (2.0 * cfg.es_n0))
    group_idx = np.array([list(g) for g in cb.groups])
    counts = [0, 0, 0]
    for done in range(0, cfg.trials, batch):
        u = trial_uniforms(cfg.seed, done, min(batch, cfg.trials - done), 1 + 2 * ((n + 1) // 2))
        _box_muller(u, n)
        sent = np.minimum((u[:, 0] * m).astype(int), m - 1)
        normals = u[:, 1 : 1 + n]
        y = signals[sent] + sigma * normals
        d2 = ((y[:, None, :] - signals[None, :, :]) ** 2).sum(axis=2)
        ml = d2.argmin(axis=1)
        mlg = d2[:, group_idx].sum(axis=2).argmin(axis=1)
        true_group = cb.group_of[sent]
        counts[0] += int((mlg != true_group).sum())
        counts[1] += int((ml != sent).sum())
        counts[2] += int((cb.group_of[ml] != true_group).sum())
    return counts


def brute_force_decisions(y: np.ndarray, cb: GroupedCodebook) -> tuple[np.ndarray, np.ndarray]:
    """argmin ||y - s_i||^2 and argmin_g sum_{i in g} ||y - s_i||^2 row by row, ties to the lowest."""
    ml, mlg = [], []
    for row in y:
        d2 = [float(np.sum((row - s) ** 2)) for s in cb.signals()]
        ml.append(min(range(len(d2)), key=lambda i: (d2[i], i)))
        group_d2 = [sum(d2[i] for i in g) for g in cb.groups]
        mlg.append(min(range(len(group_d2)), key=lambda g: (group_d2[g], g)))
    return np.array(ml), np.array(mlg)


def random_grouped_codebook(seed: int) -> GroupedCodebook:
    """12 distinct length-9 words in 4 groups of 3."""
    rng = np.random.default_rng(seed)
    words = rng.choice(1 << 9, size=12, replace=False)
    return build_grouped_codebook(
        [format(int(w), "09b") for w in words], rng.permutation(12).reshape(4, 3).tolist()
    )


class TestCorrelationDecoder:
    @pytest.mark.parametrize("singleton", [False, True])
    @pytest.mark.parametrize("batch", [1 << 15, 977, 4096, 1, None])
    def test_counts_equal_broadcast_decoder(self, hamming_codebook, singleton, batch, monkeypatch):
        """batch None is the default (2925 trials on this code): 20 000 trials span seven chunks."""
        cb = singleton_codebook(hamming_codebook.codewords) if singleton else hamming_codebook
        kw = {} if batch is None else {"batch": batch}
        if batch is not None:
            awgn_chunk(monkeypatch, cb, batch)
        for seed in (0, 7, 60):
            for db in (-2.0, 0.0, 2.0, 4.0, 6.0):
                cfg = AwgnConfig(es_n0=10 ** (db / 10), trials=300 if batch == 1 else 20_000, seed=seed)
                res = simulate_awgn(cb, cfg)
                group, cw, ml_group = broadcast_counts(cb, cfg, **kw)
                assert res.group_error_rate == group / cfg.trials
                assert res.codeword_error_rate == cw / cfg.trials
                assert res.ml_group_error_rate == ml_group / cfg.trials

    @pytest.mark.parametrize("which", ["table8", "singleton", "random"])
    def test_batch_decoder_equals_brute_force(self, hamming_codebook, which):
        cb = {
            "table8": hamming_codebook,
            "singleton": singleton_codebook(hamming_codebook.codewords),
            "random": random_grouped_codebook(31),
        }[which]
        rng = np.random.default_rng(32)
        s = cb.signals()
        pairs = [(i, j) for i in range(cb.num_codewords) for j in range(i + 1, cb.num_codewords)]
        ties = np.vstack([np.zeros(cb.n)] + [(s[i] + s[j]) / 2 for i, j in pairs])
        for y in (rng.normal(0.0, 1.5, size=(2000, cb.n)), ties):
            ml, mlg = _decide(y, cb)
            want_ml, want_mlg = brute_force_decisions(y, cb)
            assert np.array_equal(ml, want_ml) and np.array_equal(mlg, want_mlg)
            assert [ml_decode(row, cb) for row in y[:50]] == want_ml[:50].tolist()
            assert [mlg_decode(row, cb) for row in y[:50]] == want_mlg[:50].tolist()

    def test_decisions_beyond_one_byte(self):
        """300 singleton groups: a decision index and its tie weights need more than uint8."""
        rng = np.random.default_rng(33)
        words = rng.choice(1 << 9, size=300, replace=False)
        cb = singleton_codebook([format(int(w), "09b") for w in words])
        s = cb.signals()
        pairs = rng.choice(300, size=(400, 2))
        ties = (s[pairs[:, 0]] + s[pairs[:, 1]]) / 2
        for y in (rng.normal(0.0, 1.5, size=(500, cb.n)), ties):
            ml, mlg = _decide(y, cb)
            want_ml, want_mlg = brute_force_decisions(y, cb)
            assert np.array_equal(ml, want_ml) and np.array_equal(mlg, want_mlg)
            assert [ml_decode(row, cb) for row in y[:50]] == want_ml[:50].tolist()
            assert [mlg_decode(row, cb) for row in y[:50]] == want_mlg[:50].tolist()
        assert want_ml.max() > 255


SWEEP_DB = (4.0, -2.0, 6.0, 0.0, 1.5, 4.0, -1.0)  # unsorted, 4 dB twice


class TestSweep:
    @pytest.mark.parametrize("singleton", [False, True])
    @pytest.mark.parametrize("batch", [1 << 15, 977, 4096, 1, None])
    def test_sweep_equals_per_point_simulation(self, hamming_codebook, singleton, batch, monkeypatch):
        """batch None is the default (2925 trials on this code), whose five chunks
        must give the one-chunk run bit for bit."""
        cb = singleton_codebook(hamming_codebook.codewords) if singleton else hamming_codebook
        es_n0s = [10 ** (db / 10) for db in SWEEP_DB]
        trials = 300 if batch == 1 else 12_345  # 12 345 is not a multiple of any batch above 1
        if batch is not None:
            awgn_chunk(monkeypatch, cb, batch)
        for seed in (0, 7, 60):
            swept = simulate_awgn_sweep(cb, es_n0s, trials, seed)
            assert len(swept) == len(es_n0s)
            for es_n0, got in zip(es_n0s, swept):
                assert got == simulate_awgn(cb, AwgnConfig(es_n0, trials, seed))
            assert swept[0] == swept[5]
            assert swept[0] != swept[1]
            if batch is None:
                with monkeypatch.context() as one_chunk:
                    awgn_chunk(one_chunk, cb, trials)
                    assert swept == simulate_awgn_sweep(cb, es_n0s, trials, seed)

    @pytest.mark.parametrize("es_n0, trials, seed", [(0.5, 1, 0), (2.0, 40_000, 99), (10.0, 977, 3)])
    def test_one_point_sweep_equals_simulate_awgn(self, hamming_codebook, es_n0, trials, seed):
        cfg = AwgnConfig(es_n0, trials, seed)
        assert simulate_awgn_sweep(hamming_codebook, [es_n0], trials, seed) == [
            simulate_awgn(hamming_codebook, cfg)
        ]

    @pytest.mark.parametrize(
        "es_n0s, trials",
        [([], 100), ([1.0, 0.0], 100), ([-1.0], 100), ([1.0, 2.0], 0), ([1.0], -3), ([math.nan], 100),
         ([1.0], math.nan)],
    )
    def test_invalid_sweep_rejected_before_any_draw(self, hamming_codebook, monkeypatch, es_n0s, trials):
        def no_draw(*args):
            raise AssertionError("drew randoms for an invalid sweep")

        monkeypatch.setattr(chancode, "trial_map", no_draw)
        with pytest.raises(ValueError):
            simulate_awgn_sweep(hamming_codebook, es_n0s, trials)

    def test_memory_does_not_grow_with_points(self, hamming_codebook):
        es_n0s = [10 ** (db / 10) for db in (-2.0, 0.0, 2.0, 4.0, 6.0)]
        simulate_awgn_sweep(hamming_codebook, es_n0s, 1 << 15, 1)
        tracemalloc.start()
        try:
            simulate_awgn_sweep(hamming_codebook, es_n0s, 1 << 15, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        broadcast = np.dtype(float).itemsize * (1 << 15) * 16 * 7  # the one-point bound's base
        assert peak < broadcast / 2

    @pytest.mark.parametrize("batch, bound", [(None, 6e6), (1 << 15, 12e6)])
    def test_sweep_peak(self, hamming_codebook, batch, bound, monkeypatch):
        """The benchmark's 3-point 2^15-trial sweep.  The default is twelve chunks of
        up to 2925 trials, two decoding at a time (1.9-2.0 MB traced, against 10.8 MB for one
        2^15-trial chunk).  One inline chunk holds its uniform block, which Box-Muller
        turned into the normals, while it decodes; Box-Muller's cosine scratch must be
        freed first: held, it reads 11.8 MB, just under the 12 MB bound."""
        es_n0s = [10 ** (db / 10) for db in (0.0, 1.5, 3.0)]
        if batch is not None:
            awgn_chunk(monkeypatch, hamming_codebook, batch)
        simulate_awgn_sweep(hamming_codebook, es_n0s, 1 << 15, 1)
        tracemalloc.start()
        try:
            simulate_awgn_sweep(hamming_codebook, es_n0s, 1 << 15, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_default_chunks_leave_no_spinning_blas_thread(self, hamming_codebook):
        """On the n = 8 parity extension of Table VIII (M n = 128), 2^12-trial chunks
        reach b M n = 524 288, where OpenBLAS wakes its thread pool, whose threads
        then spin for about 0.15 s after the job: 133 ms of CPU in the 0.3 s after
        the sweep.  Chunks sized by AWGN_WORK keep the decode GEMMs on one thread."""
        words = ["".join(map(str, w)) for w in hamming_codebook.codewords.tolist()]
        cb = build_grouped_codebook([w + str(w.count("1") % 2) for w in words], hamming_codebook.groups)
        es_n0s = [10 ** (db / 10) for db in (0.0, 1.5, 3.0)]

        def cpu_s():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        simulate_awgn_sweep(cb, es_n0s, 1 << 15, 1)
        time.sleep(0.3)  # a pool that earlier tests' larger GEMMs woke has stopped spinning
        after = []
        for _ in range(3):
            simulate_awgn_sweep(cb, es_n0s, 1 << 15, 1)
            start = cpu_s()
            time.sleep(0.3)
            after.append(cpu_s() - start)
        assert max(after) < 0.010
