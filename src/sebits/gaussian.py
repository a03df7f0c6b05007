"""Closed-form continuous-case calculators and figure-data emission.

The average synonymous length S >= 1 measures how much resolution the mapping
gives up; S = 1 recovers every classic Shannon quantity exactly.  Everything
here is a pure formula; curve emission produces deterministic CSV rows for
external plotting.
"""

from __future__ import annotations

import math


def uniform_semantic_entropy(a: float, b: float, n_tilde: int) -> float:
    """Uniform density on [a, b] under an even partition into n_tilde intervals: log2 n_tilde."""
    if not b > a:
        raise ValueError("interval must have positive length")
    if not n_tilde >= 1:
        raise ValueError("need at least one synonymous interval")
    return math.log2(n_tilde)


def gaussian_semantic_entropy(sigma2: float, s: float) -> float:
    """(1/2) log2(2 pi e sigma^2 / S^2); equals the differential entropy at S = 1."""
    if not sigma2 > 0:
        raise ValueError("variance must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")
    return 0.5 * math.log2(2.0 * math.pi * math.e * sigma2 / (s * s))


def gaussian_semantic_capacity(p: float, sigma2: float, s: float) -> tuple[float, float]:
    """Per-use capacity (1/2) log2(1 + P/sigma^2) + log2(S^2) and its lower bound
    (1/2) log2(1 + S^4 P/sigma^2)."""
    if not (p > 0 and sigma2 > 0):
        raise ValueError("power and noise variance must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")
    snr = p / sigma2
    c_s = 0.5 * math.log2(1.0 + snr) + math.log2(s * s)
    lower = 0.5 * math.log2(1.0 + s**4 * snr)
    return c_s, lower


def bandlimited_semantic_capacity(p: float, n0: float, b: float, s: float) -> tuple[float, float]:
    """Per-second capacity B log2[S^4 (1 + P/(N0 B))] and lower bound B log2(1 + S^4 P/(N0 B))."""
    if not (p > 0 and n0 > 0 and b > 0):
        raise ValueError("power, noise density, and bandwidth must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")
    snr = p / (n0 * b)
    c_s = b * math.log2(s**4 * (1.0 + snr))
    lower = b * math.log2(1.0 + s**4 * snr)
    return c_s, lower


def min_energy_per_sebit(mu: float, s: float) -> float:
    """(2^mu - 1) / (S^4 mu) with N0 = 1; increasing in mu with limit ln2 / S^4 at mu -> 0."""
    if not mu > 0:
        raise ValueError("spectral efficiency must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")
    return (2.0**mu - 1.0) / (s**4 * mu)


def gaussian_semantic_rd(p: float, d: float, s: float) -> float:
    """(1/2) log2(P / (S^4 D)) for 0 <= D <= P / S^4, else 0."""
    if not p > 0:
        raise ValueError("source power must be positive")
    if not d > 0:
        raise ValueError("distortion must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")
    if d > p / s**4:
        return 0.0
    return 0.5 * math.log2(p / (s**4 * d))


def spectral_efficiency(eb_n0_linear: float, s: float, lower_bound: bool = False) -> float:
    """Largest eta with eta = log2[S^4 (1 + eta Eb/N0)] (capacity form) or
    eta = log2(1 + S^4 eta Eb/N0) (lower-bound form), found by bisection.

    This is the per-hertz rate at which the energy per sebit equals Eb/N0.
    The lower-bound form, and the capacity form at S = 1, have no positive root
    below the Eb/N0 limit ln2 / S^4.  There the result is not exactly 0 but a
    rounding residue of g(eta) = log2(...) - eta near eta = 0: 9.6e-16 at
    -2 dB and S = 1, growing to about 1e-8 within 1e-9 dB of the limit.
    """
    if not eb_n0_linear > 0:
        raise ValueError("Eb/N0 must be positive")
    if not s >= 1:
        raise ValueError("average synonymous length must be at least 1")

    s4 = s**4
    log2 = math.log2
    # g(eta) > 0 is written out in both loops as log2(...) > eta, with no call per step:
    # a difference of two doubles is positive exactly when the first is the larger
    hi = 1.0
    while (log2(1.0 + s4 * hi * eb_n0_linear) if lower_bound
           else log2(s4 * (1.0 + hi * eb_n0_linear))) > hi:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("spectral efficiency diverged")
    # bisection for sup{eta > 0 : g(eta) > 0}; once mid rounds to lo or hi, a step
    # keeps the state or sets lo == hi == mid, so 0.5 * (lo + hi) is already final
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (log2(1.0 + s4 * mid * eb_n0_linear) if lower_bound
                else log2(s4 * (1.0 + mid * eb_n0_linear))) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


CURVE_KINDS = ("capacity_vs_ebn0", "min_energy_vs_mu", "rd_vs_d")


def emit_curves(kind: str, params: dict, grid) -> tuple[list[str], list[list[float]]]:
    """Header and rows for one figure-style CSV.

    capacity_vs_ebn0: grid of Eb/N0 in dB; classic spectral efficiency plus,
    per S, the capacity-form and lower-bound-form efficiencies.
    min_energy_vs_mu: grid of spectral efficiencies; classic minimum energy
    plus one column per S.
    rd_vs_d: grid of distortions; classic Gaussian R(D) plus one column per S
    (params: p).
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    s_values = list(params.get("s_values", [2.0]))
    if kind == "capacity_vs_ebn0":
        header = ["eb_n0_db", "classic"]
        for s in s_values:
            header += [f"cs_S{s:g}", f"lower_S{s:g}"]
        rows = []
        for db in grid:
            lin = db_to_linear(db)
            row = [db, spectral_efficiency(lin, 1.0)]
            for s in s_values:
                row.append(spectral_efficiency(lin, s))
                row.append(spectral_efficiency(lin, s, lower_bound=True))
            rows.append(row)
        return header, rows
    if kind == "min_energy_vs_mu":
        header = ["mu", "classic"] + [f"energy_S{s:g}" for s in s_values]
        rows = [[mu] + [min_energy_per_sebit(mu, s) for s in (1.0, *s_values)] for mu in grid]
        return header, rows
    if kind == "rd_vs_d":
        p = float(params.get("p", 1.0))
        header = ["d", "classic"] + [f"rate_S{s:g}" for s in s_values]
        rows = [[d] + [gaussian_semantic_rd(p, d, s) for s in (1.0, *s_values)] for d in grid]
        return header, rows
    raise ValueError(f"kind must be one of {CURVE_KINDS}, got {kind!r}")
