"""Grouped channel codes, group Hamming distance, ML/MLG decoding, AWGN simulation.

A grouped codebook partitions binary codewords into equal-size groups; all
codewords of a group carry the same message, so decoding only has to identify
the right group.  The MLG rule picks the group with the smallest summed
squared Euclidean distance, which over AWGN with BPSK maximizes the product
of the member likelihoods (not their sum).  Signals use s = sqrt(Es) * (1 - 2x)
with Es normalized to 1 and the symbol SNR carried entirely by the noise
variance N0/2 = 1 / (2 Es/N0).

Both rules are decided by correlation: every BPSK signal has the same energy,
so the nearest codeword maximizes y.s_i, and with equal group sizes the MLG
group maximizes y.(sum of its members' signals).  A batch of b received words
costs two matrix products and O(b (M + G)) memory for M codewords in G groups,
not O(b M n).  The scores are laid out one column per trial, (M, b) and
(G, b), and each trial's decision is its column's first maximum: a column max,
then the first row that matches it, so ties go to the lowest index.  Every
pass runs along whole rows of b trials, where argmax over each trial's short
row of scores would run one inner loop per trial.  The distance spectra are
computed once per codebook.

An SNR sweep (`simulate_awgn_sweep`) draws each chunk's codeword picks and
Box-Muller noise once and decodes them at every Es/N0 point: common random
numbers, so the error-rate curve is paired across SNR and every point equals
the one-point simulation with the same seed.  The trials run through
`_kernels.trial_map`, the map the joint typicality Monte Carlo uses too: the
calling thread and one helper thread each draw a chunk's Philox slices, turn
them into normals in place (Box-Muller on a transposed contiguous copy,
written back with a second transposing copy), decode them as the columns of
an (n, b) array and return integer error counts, which are summed, so the
result does not depend on the chunking.  A chunk holds AWGN_WORK / (M n)
trials, which keeps its decode GEMMs off OpenBLAS's thread pool, so the
simulation runs on those two threads alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import trial_map
from .core import _index_blocks
from .errors import (
    DuplicateCodeword,
    GroupOutOfRange,
    LengthMismatch,
    RaggedLengths,
    SizeMismatch,
    UnequalGroupSizes,
    ValidationError,
)

_SPECTRUM_DECIMALS = 9  # rounding for spectrum dictionary keys
# b M n per AWGN chunk of b trials: under OpenBLAS's threading threshold (its pool
# wakes from b M n = 524 288), so each chunk's decode GEMMs stay on one thread, and
# small enough that the two trial_map threads' decode temporaries keep peak RSS at
# the one-thread loop's (2925-trial chunks on Table VIII)
AWGN_WORK = 327_680
WILSON_Z = 1.959963984540054  # the standard normal 0.975 quantile: 95% intervals
_CHAR_BITS = {"0": 0, "1": 1}


def _bit_row(w) -> list:
    """One codeword's bits; 2 stands for anything but a '0'/'1' character or a 0/1 number."""
    if isinstance(w, str):
        return [_CHAR_BITS.get(c, 2) for c in w]
    if isinstance(w, (list, tuple, np.ndarray)):
        return [2 if isinstance(b, (bool, np.bool_)) or b not in (0, 1) else b for b in w]
    raise ValidationError(f"codeword {w!r} is neither a string nor an array of bits")


def _as_bit_matrix(codewords) -> np.ndarray:
    """Codewords as an int64 0/1 matrix, one row each.

    A codeword is a '0'/'1' string or a sequence of the numbers 0 and 1; a
    bool, 1.5 or "1" among the numbers is refused, not rounded or parsed.  An
    integer matrix is checked without a Python loop over its bits.
    """
    if isinstance(codewords, np.ndarray) and codewords.dtype.kind in "iu":
        rows = codewords
    elif isinstance(codewords, (list, tuple)):
        rows = [_bit_row(w) for w in codewords]
        if len({len(r) for r in rows}) > 1:
            raise RaggedLengths("codewords have differing lengths")
    else:
        raise ValidationError("codewords must be an array of '0'/'1' strings or 0/1 sequences")
    cw = np.array(rows, dtype=np.int64)
    if cw.ndim != 2 or cw.size == 0:
        raise SizeMismatch("codebook must contain non-empty codewords")
    if np.any((cw != 0) & (cw != 1)):
        raise ValidationError("codewords must be binary")
    return cw


def codeword_matrix(codewords) -> np.ndarray:
    """Distinct binary codewords as an int64 matrix (see `_as_bit_matrix` for the forms accepted)."""
    cw = _as_bit_matrix(codewords)
    seen = {}
    for i, row in enumerate(map(bytes, cw)):
        if row in seen:
            raise DuplicateCodeword(f"codewords {seen[row]} and {i} are identical")
        seen[row] = i
    return cw


@dataclass(frozen=True, eq=False)
class GroupedCodebook:
    """Binary codewords split into equal-size synonymous groups."""

    codewords: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    _group_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cw = codeword_matrix(self.codewords)
        m = cw.shape[0]
        groups = _index_blocks(self.groups)
        if not groups:
            raise SizeMismatch("codebook needs at least one group")
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            raise UnequalGroupSizes(f"group sizes differ: {sorted(len(g) for g in groups)}")
        flat = [i for g in groups for i in g]
        if sorted(flat) != list(range(m)):
            raise GroupOutOfRange("groups must partition the codeword indices exactly")
        group_of = np.empty(m, dtype=int)
        for k, g in enumerate(groups):
            for i in g:
                group_of[i] = k
        cw.setflags(write=False)
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_group_of", group_of)

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[0]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0])

    @property
    def group_rate(self) -> float:
        """R = log2(number of groups) / n."""
        return math.log2(self.num_groups) / self.n

    @property
    def synonymous_rate(self) -> float:
        """R_s = log2(group size) / n."""
        return math.log2(self.group_size) / self.n

    @property
    def group_of(self) -> np.ndarray:
        return self._group_of

    def signals(self) -> np.ndarray:
        """BPSK map s = 1 - 2x (Es = 1) for every codeword."""
        return 1.0 - 2.0 * self.codewords.astype(float)

    @cached_property
    def _decode_signals(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only BPSK signals (M, n) and group sum signals (groups, n), built once."""
        signals = self.signals()
        group_signals = signals[np.array(self.groups)].sum(axis=1)
        signals.setflags(write=False)
        group_signals.setflags(write=False)
        return signals, group_signals

    @cached_property
    def _group_spectrum(self) -> tuple[float, dict[tuple, float]]:
        return _group_spectrum_of(self)

    @cached_property
    def _classic_spectrum(self) -> dict[int, float]:
        return _classic_spectrum_of(self)


def build_grouped_codebook(codewords, groups) -> GroupedCodebook:
    """Validate codewords and grouping; computes R and R_s."""
    return GroupedCodebook(codewords, groups)


def singleton_codebook(codewords) -> GroupedCodebook:
    """Each codeword alone in its group (classic code, R_s = 0)."""
    cw = codeword_matrix(codewords)
    return GroupedCodebook(cw, tuple((i,) for i in range(cw.shape[0])))


def coset_groups(codewords, subcode_generators) -> GroupedCodebook:
    """Group a linear code's codewords into cosets of the subcode spanned by `subcode_generators`.

    Convenience for building groupings like a subcode-plus-coset structure;
    groups are ordered by their smallest member index.
    """
    cw = _as_bit_matrix(codewords)
    gens = _as_bit_matrix(subcode_generators)
    if gens.shape[1] != cw.shape[1]:
        raise LengthMismatch("generator length differs from codeword length")
    span = {tuple(np.zeros(cw.shape[1], dtype=np.int64))}
    for g in gens:
        span |= {tuple((np.array(v) + g) % 2) for v in span}
    index = {tuple(row): i for i, row in enumerate(cw)}
    remaining = set(range(cw.shape[0]))
    groups = []
    while remaining:
        lead = min(remaining)
        coset = set()
        for v in span:
            member = tuple((cw[lead] + np.array(v)) % 2)
            if member not in index:
                raise SizeMismatch("subcode does not partition the codebook into cosets")
            coset.add(index[member])
        if not coset <= remaining:
            raise SizeMismatch("cosets overlap; generators are inconsistent with the code")
        groups.append(tuple(sorted(coset)))
        remaining -= coset
    return GroupedCodebook(cw, tuple(groups))


# ---------------------------------------------------------------------------
# group Hamming distance
# ---------------------------------------------------------------------------

def codeword_to_group_distance(cb: GroupedCodebook, codeword_index: int, target_group: int) -> float:
    """Squared distance-gap ratio governing the pairwise codeword-to-group error.

    [sum_l d_H(x, x(j_s,l)) - sum_{l != self} d_H(x, x(i_s,l))]^2
    divided by || sum_l (x(j_s,l) - x(i_s,l)) ||^2 over integer vectors.
    The denominator vanishes only when the two groups' sum signals are equal,
    and then so does the gap: the MLG metrics tie for every received vector,
    and the 0/0 reads as distance 0.
    """
    m = cb.num_codewords
    if not 0 <= codeword_index < m:
        raise GroupOutOfRange(f"codeword index {codeword_index} outside [0, {m})")
    own = int(cb.group_of[codeword_index])
    if not 0 <= target_group < cb.num_groups or target_group == own:
        raise GroupOutOfRange(f"target group must differ from the codeword's own group {own}")
    x = cb.codewords[codeword_index]
    others = cb.codewords[list(cb.groups[target_group])]
    own_members = cb.codewords[list(cb.groups[own])]
    cross = int(np.abs(others - x).sum())
    inner = int(np.abs(own_members - x).sum())  # the codeword itself adds 0
    delta = others.sum(axis=0) - own_members.sum(axis=0)
    den = float(delta @ delta)
    return (cross - inner) ** 2 / den if den else 0.0


def group_hamming_distance(cb: GroupedCodebook, group_a: int, group_b: int) -> float:
    """min over members of group_a of their codeword-to-group distance to group_b."""
    return min(
        codeword_to_group_distance(cb, i, group_b) for i in cb.groups[group_a]
    )


def min_group_hamming_distance(cb: GroupedCodebook) -> tuple[float, dict[tuple, float]]:
    """Minimum group Hamming distance and the group distance spectrum.

    The spectrum maps a sorted tuple of per-member codeword-to-group distances
    to its average multiplicity per transmitted group (ordered pair count
    divided by the number of groups), matching how a classic weight enumerator
    counts codewords at each distance from one transmitted codeword.  It is
    computed once per codebook; each call returns a fresh copy.
    """
    d_min, spectrum = cb._group_spectrum
    return d_min, dict(spectrum)


def _group_spectrum_of(cb: GroupedCodebook) -> tuple[float, dict[tuple, float]]:
    """Every codeword-to-group distance in one integer array pass.

    With C[g] the column sums of group g (s members), the cross distance of
    codeword x to group b is sum(C[b]) + x.(s - 2 C[b]), the inner one is the
    same sum at x's own group, and the denominator is ||C[b] - C[a]||^2, so
    each distance is the one `codeword_to_group_distance` returns, 0/0 read
    as 0.  Group pairs are visited in (a, b) order, as a loop over them would.
    """
    if cb.num_groups < 2:
        raise SizeMismatch("need at least two groups")
    cw, members, own = cb.codewords, np.array(cb.groups), cb.group_of
    col = cw[members].sum(axis=1)  # (G, n)
    cross = col.sum(axis=1) + cw @ (cb.group_size - 2 * col).T  # (M, G)
    gap2 = (cross - cross[np.arange(len(cw)), own][:, None]) ** 2
    gram = col @ col.T
    den = (np.diag(gram)[:, None] + np.diag(gram) - 2 * gram)[own]  # ||C[b] - C[own]||^2, (M, G)
    # den is 0 only where the group sums are equal, and the gap is 0 there too
    dist = np.divide(gap2, den, out=np.zeros(gap2.shape), where=den != 0)
    dist[np.arange(len(cw)), own] = math.inf
    # (a, b, member) with each pair's member distances sorted
    pairs = np.sort(dist[members].transpose(0, 2, 1), axis=2).tolist()
    counts: dict[tuple, float] = {}
    for a, row in enumerate(pairs):
        for b, dists in enumerate(row):
            if a != b:
                key = tuple(round(x, _SPECTRUM_DECIMALS) for x in dists)
                counts[key] = counts.get(key, 0.0) + 1.0
    spectrum = {k: v / cb.num_groups for k, v in counts.items()}
    return float(dist.min()), spectrum  # a codeword's own group reads inf


def classic_distance_spectrum(cb: GroupedCodebook) -> dict[int, float]:
    """Average number of codewords at each Hamming distance from a transmitted codeword.

    Computed once per codebook; each call returns a fresh copy.
    """
    return dict(cb._classic_spectrum)


def _classic_spectrum_of(cb: GroupedCodebook) -> dict[int, float]:
    cw = cb.codewords
    m = cw.shape[0]
    weight = cw.sum(axis=1)
    dist = weight[:, None] + weight - 2 * (cw @ cw.T)  # Hamming distances, (M, M)
    counts = np.bincount(dist[~np.eye(m, dtype=bool)])  # over the M (M - 1) ordered pairs
    return {d: c / m for d, c in enumerate(counts.tolist()) if c}


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _first_max(scores: np.ndarray) -> np.ndarray:
    """Row index of each column's maximum of scores (k, b), ties to the lowest: argmax(axis=0).

    The entries equal to their column's max are weighted k, k - 1, ..., 1 down
    the rows, so the lowest tied row carries the largest weight, and the
    column max of the weights gives it back.  Every pass runs along whole
    rows, where argmax(axis=0) loops once per column.  The weights' dtype
    holds k.  A column holding a NaN matches no row and reads k, so
    `_received` refuses a received vector that is not finite.
    """
    k = len(scores)
    weights = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    marks = scores == scores.max(axis=0)
    return k - (marks * weights[:, None]).max(axis=0)


def _decide(y: np.ndarray, cb: GroupedCodebook) -> tuple[np.ndarray, np.ndarray]:
    """ML codeword and MLG group of each row of y (b, n), by correlation.

    The scores are laid out one column per trial, signals @ y.T (M, b) and
    group_signals @ y.T (G, b), and each column's decision is its first
    maximum (`_first_max`): a column max and a first match, so ties go to the
    lowest index, as argmax gives them.
    """
    signals, group_signals = cb._decode_signals
    return _first_max(signals @ y.T), _first_max(group_signals @ y.T)


def _received(y, cb: GroupedCodebook) -> np.ndarray:
    """y as a one-trial batch (1, n); a wrong length or a NaN or infinite entry is refused."""
    y = np.asarray(y, dtype=float)
    if y.shape != (cb.n,):
        raise LengthMismatch(f"received vector has length {y.size}, code length is {cb.n}")
    if not np.isfinite(y).all():
        raise ValidationError("received vector must be finite")
    return y[None]


def ml_decode(y, cb: GroupedCodebook) -> int:
    """Nearest-codeword rule: argmin ||y - s_i||^2, ties to the lowest index.

    Any Es > 0 scales every signal alike and gives the same decision, so the
    signals are taken at Es = 1.
    """
    return int(_decide(_received(y, cb), cb)[0][0])


def mlg_decode(y, cb: GroupedCodebook) -> int:
    """Maximum-likelihood-group rule: argmin over groups of the summed squared distance.

    Ties go to the lowest group index; any Es > 0 gives the same decision.
    """
    return int(_decide(_received(y, cb), cb)[1][0])


# ---------------------------------------------------------------------------
# union bounds and simulation
# ---------------------------------------------------------------------------

def gep_union_bound(cb: GroupedCodebook, es_n0: float, mode: str = "MLG") -> float:
    """Exponential union bound on the decoding error probability.

    mode "MLG": sum over group-distance-spectrum entries of the averaged
    exp(-d Es/N0) terms; mode "ML": classic bound from the average distance
    spectrum.  A group pair with equal sum signals, on which the MLG decoder
    always ties, has distance 0 and contributes a term of 1.
    """
    if not es_n0 > 0:
        raise ValueError("Es/N0 must be positive")
    if mode == "MLG":
        _, spectrum = min_group_hamming_distance(cb)
        total = 0.0
        for profile, count in spectrum.items():
            total += count * float(np.mean([math.exp(-d * es_n0) for d in profile]))
        return total
    if mode == "ML":
        spectrum = classic_distance_spectrum(cb)
        return sum(count * math.exp(-d * es_n0) for d, count in spectrum.items())
    raise ValueError(f"mode must be 'ML' or 'MLG', got {mode!r}")


@dataclass(frozen=True)
class AwgnConfig:
    """Simulation settings: linear symbol SNR Es/N0, trial count, RNG seed."""

    es_n0: float
    trials: int
    seed: int = 0

    def __post_init__(self):
        if not self.es_n0 > 0:
            raise ValueError("Es/N0 must be positive")
        if not self.trials >= 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class SimulationResult:
    group_error_rate: float
    codeword_error_rate: float
    ci95: float
    ci95_codeword: float
    ml_group_error_rate: float  # wrong-group rate when groups are read off the ML decision


def wilson_halfwidth(p_hat: float, n: int) -> float:
    """Half-width of the 95% Wilson score interval (z = WILSON_Z) for a proportion."""
    if not n >= 1:  # a NaN count is refused too
        raise ValueError("need at least one observation")
    if not 0.0 <= p_hat <= 1.0:  # so is a NaN proportion
        raise ValueError("p_hat must lie in [0, 1]")
    z = WILSON_Z
    denom = 1.0 + z * z / n
    return (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))


def _box_muller(u: np.ndarray, n: int) -> None:
    """Turn a block of trial slices into n standard normals per trial, in place.

    Each row of u is one trial's Philox slice: one uniform for the codeword
    pick, then h = ceil(n/2) radius uniforms and h angle uniforms.  One
    transposing copy puts the 2h columns in a (2h, len(u)) scratch array, so
    every pass runs on contiguous rows, not on column views whose elements lie
    a trial apart.  Normal j < h is r_j cos(theta_j) and lands in radius row j,
    normal h + j is r_j sin(theta_j) and lands in angle row j, so sin runs only
    on the n - h angles used; a second transposing copy writes the first n rows
    back as u[:, 1:1+n].  The scratch and one (h, len(u)) array of cosines are
    freed before returning.
    """
    half = (u.shape[1] - 1) // 2
    rows = u[:, 1 : 1 + 2 * half].T.copy()
    radius, angle = rows[:half], rows[half:]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    cos = np.cos(angle)
    sines = angle[: n - half]
    np.sin(sines, out=sines)
    sines *= radius[: n - half]
    radius *= cos
    u[:, 1 : 1 + n] = rows[:n].T


def _error_counts(
    y: np.ndarray, cb: GroupedCodebook, sent: np.ndarray, true_group: np.ndarray
) -> list[int]:
    """Group, codeword and ML-group decision errors over the rows of y.

    A function of its own so the decisions are freed before the next point
    decodes; held across points they raised the awgn benchmark's peak RSS.
    """
    ml_choice, mlg_choice = _decide(y, cb)
    return [
        int((mlg_choice != true_group).sum()),
        int((ml_choice != sent).sum()),
        int((cb.group_of[ml_choice] != true_group).sum()),
    ]


def simulate_awgn(cb: GroupedCodebook, cfg: AwgnConfig) -> SimulationResult:
    """Monte Carlo over uniform codewords through BPSK + AWGN, decoded both ways.

    Trial t draws its randomness from a dedicated slice of the Philox counter
    space keyed by the seed, so results are reproducible and independent of
    chunk size or execution order.  Both decoders see the same noise, which
    makes the MLG-vs-ML group-error comparison a paired one.  Equal to the
    one-point `simulate_awgn_sweep`; calls with the same seed and trial count
    at other Es/N0 reuse the same picks and noise.
    """
    return simulate_awgn_sweep(cb, [cfg.es_n0], cfg.trials, cfg.seed)[0]


def simulate_awgn_sweep(cb: GroupedCodebook, es_n0s, trials: int, seed: int = 0) -> list[SimulationResult]:
    """`simulate_awgn` at every linear Es/N0 in `es_n0s`, in that order, from one noise draw.

    Every point decodes the same trials: the same codeword picks and the same
    standard normals, scaled by that point's sigma (common random numbers).
    Each result equals the separate `simulate_awgn` call with the same seed,
    and the error-rate curve is paired across SNR.  Each chunk's picks and
    normals are drawn once; memory does not grow with the number of points.

    Trials run through `_kernels.trial_map` in chunks of max(1, AWGN_WORK //
    (M n)) trials: the calling thread and one helper thread each fill a
    chunk's Philox slices, turn them into normals in place (`_box_muller`),
    decode the chunk at every point and return its (points, 3) error counts,
    which are summed.  At each point y is an (n, b) array, one column per
    trial: sigma times the strided view of the normals, plus the clean signal
    columns taken from a contiguous (n, M) copy of the signals made once per
    call.  `_decide` scores it as signals @ y, (M, b), and group_signals @ y,
    (G, b), and takes each column's first maximum.  A trial holds several
    times its uniforms while it decodes (its clean signal, y and the two
    correlation products), and with both threads decoding, each chunk's
    larger decode GEMM (b x M x n) must stay under OpenBLAS's threading
    threshold: larger ones wake its thread pool, which then spins on the
    cores the two threads use.
    """
    configs = [AwgnConfig(es_n0, trials, seed) for es_n0 in es_n0s]
    if not configs:
        raise ValueError("need at least one Es/N0 point")
    sigmas = [math.sqrt(1.0 / (2.0 * c.es_n0)) for c in configs]
    # built here, before the trial_map threads read them
    signals_t = np.ascontiguousarray(cb._decode_signals[0].T)  # (n, M): a clean trial is one column
    n, m = signals_t.shape

    def score(u: np.ndarray) -> np.ndarray:
        _box_muller(u, n)
        sent = np.minimum((u[:, 0] * m).astype(int), m - 1)
        normals = u[:, 1 : 1 + n].T
        true_group = cb.group_of[sent]
        y = np.empty((n, len(sent)))  # one column per trial
        counts = np.zeros((len(sigmas), 3), dtype=np.int64)
        for k, sigma in enumerate(sigmas):
            np.multiply(normals, sigma, out=y)
            y += np.take(signals_t, sent, axis=1)  # bit-identical to clean + sigma * normals
            counts[k] = _error_counts(y.T, cb, sent, true_group)
        return counts

    counts = trial_map(seed, trials, 1 + 2 * ((n + 1) // 2), score, max(1, AWGN_WORK // (m * n)))
    results = []
    for group_err, cw_err, ml_group_err in counts.tolist():
        ger = group_err / trials
        cer = cw_err / trials
        results.append(
            SimulationResult(
                group_error_rate=ger,
                codeword_error_rate=cer,
                ci95=wilson_halfwidth(ger, trials),
                ci95_codeword=wilson_halfwidth(cer, trials),
                ml_group_error_rate=ml_group_err / trials,
            )
        )
    return results
