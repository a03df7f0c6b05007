"""Closed-form checks: Shannon reductions at S=1, limiting values, curve ordering."""

import math

import numpy as np
import pytest

from sebits.core import (
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
)
from sebits.gaussian import (
    bandlimited_semantic_capacity,
    db_to_linear,
    emit_curves,
    gaussian_semantic_capacity,
    gaussian_semantic_entropy,
    gaussian_semantic_rd,
    min_energy_per_sebit,
    spectral_efficiency,
    uniform_semantic_entropy,
)
from sebits.measures import semantic_entropy, up_smi


class TestClosedForms:
    def test_uniform_entropy(self):
        assert uniform_semantic_entropy(0.0, 1.0, 8) == 3.0
        assert uniform_semantic_entropy(0.0, 1.0, 1) == 0.0
        assert uniform_semantic_entropy(-3.0, 5.0, 2) == 1.0  # interval length drops out

    def test_gaussian_entropy(self):
        assert gaussian_semantic_entropy(1.0, 1.0) == pytest.approx(
            0.5 * math.log2(2 * math.pi * math.e), abs=1e-12
        )
        assert gaussian_semantic_entropy(1.0, 2.0) == pytest.approx(1.0471, abs=1e-4)
        assert gaussian_semantic_entropy(1.0, math.sqrt(2 * math.pi * math.e)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_capacity(self):
        assert gaussian_semantic_capacity(1.0, 1.0, 1.0) == (0.5, 0.5)
        c_s, lower = gaussian_semantic_capacity(1.0, 1.0, 2.0)
        assert c_s == pytest.approx(2.5, abs=1e-12)
        assert lower == pytest.approx(0.5 * math.log2(17), abs=1e-12)
        assert lower <= c_s

    def test_bandlimited_shannon_reduction(self):
        c_s, lower = bandlimited_semantic_capacity(1.0, 1.0, 1.0, 1.0)
        assert c_s == lower == pytest.approx(1.0, abs=1e-12)

    def test_min_energy(self):
        assert min_energy_per_sebit(1.0, 1.0) == 1.0
        assert min_energy_per_sebit(2.0, 1.0) == 1.5
        assert min_energy_per_sebit(1e-9, 2.0) == pytest.approx(math.log(2) / 16, rel=1e-6)

    def test_rd(self):
        assert gaussian_semantic_rd(1.0, 0.25, 1.0) == 1.0
        s = math.sqrt(2.0)  # S^4 = 4
        assert gaussian_semantic_rd(1.0, 0.125, s) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_semantic_rd(1.0, 0.5, s) == 0.0
        # continuity at the cutoff P / S^4
        cut = 1.0 / s**4
        assert gaussian_semantic_rd(1.0, cut * (1 - 1e-9), s) == pytest.approx(0.0, abs=1e-8)


class TestLimitingValues:
    def test_wideband_lower_bound_limit(self):
        """B -> infinity limit of the lower bound approaches S^4 P / (N0 ln 2)."""
        for s in (1.0, 2.0, 4.0):
            _, lower = bandlimited_semantic_capacity(1.0, 1.0, 1e8, s)
            assert lower == pytest.approx(s**4 / math.log(2), rel=0.01)

    def test_energy_limit_at_vanishing_efficiency(self):
        for s in (1.0, 2.0, 4.0):
            assert min_energy_per_sebit(1e-6, s) == pytest.approx(
                math.log(2) / s**4, rel=0.01
            )

    def test_rd_cutoff(self):
        for s in (1.5, 2.0):
            cut = 1.0 / s**4
            assert gaussian_semantic_rd(1.0, cut * 1.0001, s) == 0.0
            assert gaussian_semantic_rd(1.0, cut * 0.9999, s) > 0.0


class TestShannonReductionGrid:
    def test_s1_equals_shannon_on_dense_grid(self):
        rng = np.random.default_rng(41)
        p = rng.uniform(0.1, 10.0, size=1000)
        sigma2 = rng.uniform(0.1, 10.0, size=1000)
        for pi, si in zip(p, sigma2):
            c_s, lower = gaussian_semantic_capacity(pi, si, 1.0)
            shannon = 0.5 * math.log2(1 + pi / si)
            assert abs(c_s - shannon) < 1e-12
            assert abs(lower - shannon) < 1e-12

    def test_monotone_in_s(self):
        grid = [1.0, 1.5, 2.0, 3.0, 4.0]
        caps = [gaussian_semantic_capacity(1.0, 1.0, s)[0] for s in grid]
        lows = [gaussian_semantic_capacity(1.0, 1.0, s)[1] for s in grid]
        energies = [min_energy_per_sebit(1.0, s) for s in grid]
        rates = [gaussian_semantic_rd(1.0, 0.01, s) for s in grid]
        assert all(a <= b for a, b in zip(caps, caps[1:]))
        assert all(a <= b for a, b in zip(lows, lows[1:]))
        assert all(a >= b for a, b in zip(energies, energies[1:]))
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_lower_never_exceeds_capacity_form(self):
        rng = np.random.default_rng(43)
        for _ in range(10_000):
            p = float(rng.uniform(0.01, 100))
            sigma2 = float(rng.uniform(0.01, 100))
            s = float(rng.uniform(1.0, 8.0))
            c_s, lower = gaussian_semantic_capacity(p, sigma2, s)
            assert lower <= c_s + 1e-12

    def test_energy_increasing_in_mu(self):
        mus = np.linspace(0.05, 6.0, 200)
        vals = [min_energy_per_sebit(m, 2.0) for m in mus]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCurves:
    def test_capacity_curve_ordering(self):
        header, rows = emit_curves(
            "capacity_vs_ebn0", {"s_values": [2, 4, 8]}, np.linspace(-1.5, 20, 40)
        )
        assert header[0] == "eb_n0_db" and header[1] == "classic"
        for row in rows:
            classic = row[1]
            for k in range(2, len(row)):
                assert row[k] >= classic - 1e-9  # semantic at or above classic

    def test_capacity_curve_s1_matches_classic(self):
        _, rows = emit_curves("capacity_vs_ebn0", {"s_values": [1.0]}, np.linspace(0, 10, 20))
        for row in rows:
            assert row[2] == pytest.approx(row[1], abs=1e-9)
            assert row[3] == pytest.approx(row[1], abs=1e-9)

    def test_energy_curve_ordering(self):
        _, rows = emit_curves("min_energy_vs_mu", {"s_values": [2, 4]}, np.linspace(0.2, 4, 30))
        for row in rows:
            assert row[2] < row[1] and row[3] < row[2]  # semantic strictly below classic

    def test_rd_curve_ordering(self):
        _, rows = emit_curves("rd_vs_d", {"p": 1.0, "s_values": [1.5, 2]}, np.linspace(0.02, 0.98, 49))
        for row in rows:
            assert row[2] < row[1] and row[3] <= row[2] + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            emit_curves("rd_vs_d", {"p": 1.0}, [])

    def test_spectral_efficiency_limit(self):
        # below the energy limit the efficiency collapses to zero, above it grows
        for s in (1.0, 2.0):
            lim = math.log(2) / s**4
            assert spectral_efficiency(lim * 0.99, s, lower_bound=True) < 1e-6
            assert spectral_efficiency(lim * 1.2, s, lower_bound=True) > 1e-3


def _bisect_200(eb_n0_linear, s, lower_bound=False):
    """Oracle: the fixed 200-step bisection that spectral_efficiency stops early."""

    def g(eta):
        if lower_bound:
            return math.log2(1.0 + s**4 * eta * eb_n0_linear) - eta
        return math.log2(s**4 * (1.0 + eta * eb_n0_linear)) - eta

    hi = 1.0
    while g(hi) > 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBisectionFixedPoint:
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 4.0])
    def test_early_stop_is_bit_identical(self, s):
        limit_db = 10.0 * math.log10(math.log(2) / s**4)
        grid = np.concatenate(
            [np.linspace(-30.0, 30.0, 121), limit_db + np.linspace(-0.2, 0.2, 41), [limit_db]]
        )
        for db in grid:
            lin = db_to_linear(float(db))
            for lower_bound in (False, True):
                got = spectral_efficiency(lin, s, lower_bound=lower_bound)
                want = _bisect_200(lin, s, lower_bound=lower_bound)
                assert got.hex() == want.hex(), (s, db, lower_bound)


_normal_cdf = np.vectorize(lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))


class TestQuantizationBridge:
    """The closed forms as limits of the discrete measures (Cover & Thomas 8.3).

    Quantize at step delta and put S = 2 consecutive cells in each block: the
    block width is S delta, so Hs + log2 delta -> h - log2 S and the up
    companion -> I + 2 log2 S, with an O(delta^2) error.
    """

    S = 2

    @staticmethod
    def _cells(half_width: float, delta: float) -> np.ndarray:
        return np.linspace(-half_width, half_width, int(round(2 * half_width / delta)) + 1)

    def _blocks(self, n: int) -> SynonymousPartition:
        return SynonymousPartition(tuple(tuple(range(i, i + self.S)) for i in range(0, n, self.S)), n)

    def test_gaussian_entropy_is_the_limit(self):
        target = gaussian_semantic_entropy(1.0, self.S)
        errors = []
        for delta in (0.2, 0.1, 0.05, 0.025):
            p = np.diff(_normal_cdf(self._cells(8.0, delta)))
            hs = semantic_entropy(Distribution(p / p.sum()), self._blocks(p.size))
            errors.append(hs + math.log2(delta) - target)
        assert errors[0] == pytest.approx(1.05665 - 1.047096, abs=1e-5)
        assert all(e > 0 for e in errors)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5
        assert errors[-1] < 2e-4

    def test_gaussian_capacity_is_the_limit_of_the_up_companion(self):
        # N(0, P) input on the AWGN channel at P = sigma^2 = 1; the up
        # companion at the capacity-achieving input tends to C_s
        target, _ = gaussian_semantic_capacity(1.0, 1.0, self.S)
        errors = []
        for delta in (0.4, 0.2, 0.1):
            x_edges, y_edges = self._cells(8.0, delta), self._cells(12.0, delta)
            px = np.diff(_normal_cdf(x_edges))
            x_mid = 0.5 * (x_edges[1:] + x_edges[:-1])
            w = np.diff(_normal_cdf(y_edges[None, :] - x_mid[:, None]), axis=1)
            joint = (px / px.sum())[:, None] * (w / w.sum(axis=1, keepdims=True))
            fj = JointSynonymousPartition(self._blocks(px.size), self._blocks(y_edges.size - 1))
            errors.append(target - up_smi(JointDistribution(joint), fj))
        assert target - errors[-1] == pytest.approx(2.4946, abs=1e-4)
        assert all(e > 0 for e in errors)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5
        assert errors[-1] < 0.01

    @pytest.mark.parametrize("n_tilde", [1, 2, 5, 8, 13])
    def test_uniform_entropy_is_exact(self, n_tilde):
        # U[-3, 5] at step 8 / (S n_tilde): every cell, so every block, has the
        # same mass, and Hs is log2 n_tilde with no discretization error
        n = self.S * n_tilde
        hs = semantic_entropy(Distribution(np.full(n, 1.0 / n)), self._blocks(n))
        assert hs == pytest.approx(uniform_semantic_entropy(-3.0, 5.0, n_tilde), abs=1e-14)
