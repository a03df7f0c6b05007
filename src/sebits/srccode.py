"""Lossless source coding over synonymous partitions.

Codewords are assigned to semantic symbols (blocks), not syntactic ones, so a
source with N symbols needs only one codeword per block.  Decoding restores a
block representative; the round-trip guarantee is blockwise, not symbolwise.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import Distribution, SynonymousPartition, induced_semantic_distribution
from .errors import IndexOutOfRange, InvalidPrefix, SizeMismatch, TruncatedStream, ValidationError


def code_arity(arity: int) -> int:
    """`arity` if it is an integer (not a bool) of at least 2; raises ValidationError otherwise."""
    if isinstance(arity, bool) or not isinstance(arity, Integral):
        raise ValidationError(f"{arity!r} is not an integer")
    if arity < 2:
        raise ValidationError("code alphabet size must be at least 2")
    return arity


def semantic_kraft_check(lengths, arity: int = 2) -> bool:
    """True iff sum of F^-l over the semantic codeword lengths is at most 1.

    Decided exactly in integers, as sum of F^(L-l) <= F^L for the longest
    length L: in floats a complete code's sum can round above 1.
    """
    arity = int(code_arity(arity))
    lengths = list(lengths)
    if not lengths or any(isinstance(l, bool) or not isinstance(l, Integral) or l < 1 for l in lengths):
        raise ValidationError("lengths must be a non-empty list of positive integers")
    lengths = [int(l) for l in lengths]  # numpy integers would overflow arity**top
    top = max(lengths)
    return sum(arity ** (top - l) for l in lengths) <= arity**top


@dataclass(frozen=True)
class SemanticPrefixCode:
    """One F-ary codeword per semantic symbol, prefix-free (so its Kraft sum is <= 1)."""

    codewords: tuple[str, ...]
    arity: int = 2

    def __post_init__(self):
        code_arity(self.arity)
        if not (isinstance(self.codewords, (list, tuple)) and all(isinstance(w, str) for w in self.codewords)):
            raise ValidationError("must be an array of strings")
        object.__setattr__(self, "codewords", tuple(self.codewords))
        if not self.codewords:
            raise ValidationError("code must have at least one codeword")
        digits = set("0123456789")
        for w in self.codewords:
            if not w or any(c not in digits or int(c) >= self.arity for c in w):
                raise ValidationError(f"codeword {w!r} is not a base-{self.arity} digit string")
        words = sorted(self.codewords)
        for a, b in zip(words, words[1:]):
            if b.startswith(a):
                raise ValidationError(f"{a!r} is a prefix of {b!r}; code is not prefix-free")

    @property
    def lengths(self) -> list[int]:
        return [len(w) for w in self.codewords]


def build_semantic_huffman(
    d: Distribution, f: SynonymousPartition, arity: int = 2
) -> SemanticPrefixCode:
    """Huffman code on the block-mass distribution induced by the partition.

    Deterministic: merges always take the lowest-probability nodes, ties broken
    by the smallest original block index, and pop order fixes digit assignment.
    A single-block source gets the one-digit codeword "0".  For arity > 2 the
    symbol list is padded with zero-probability dummies so every merge is full.
    Codeword digits are the characters 0-9, so the arity must be an integer
    (not a bool) in [2, 10]; anything else raises ValidationError.
    """
    if isinstance(arity, bool) or not isinstance(arity, Integral) or not 2 <= arity <= 10:
        raise ValidationError(f"arity must be in [2, 10] (one character per digit), got {arity}")
    sem = induced_semantic_distribution(d, f)
    n = sem.alphabet_size
    if n == 1:
        return SemanticPrefixCode(("0",), arity)

    # nodes: (probability, smallest constituent block index, leaf indices, children)
    heap: list[tuple[float, int, tuple]] = [
        (float(sem.probs[i]), i, (i,)) for i in range(n)
    ]
    n_padded = n
    if arity > 2:
        while (n_padded - 1) % (arity - 1) != 0:
            heap.append((0.0, n_padded, (n_padded,)))
            n_padded += 1
    heapq.heapify(heap)

    codes: dict[int, list[str]] = {i: [] for i in range(n_padded)}
    while len(heap) > 1:
        merged: list[tuple[float, int, tuple]] = []
        for digit in range(min(arity, len(heap))):
            node = heapq.heappop(heap)
            for leaf in node[2]:
                codes[leaf].append(str(digit))
            merged.append(node)
        heapq.heappush(
            heap,
            (
                sum(m[0] for m in merged),
                min(m[1] for m in merged),
                tuple(l for m in merged for l in m[2]),
            ),
        )
    words = tuple("".join(reversed(codes[i])) for i in range(n))
    return SemanticPrefixCode(words, arity)


def average_length(code: SemanticPrefixCode, d: Distribution, f: SynonymousPartition) -> float:
    """Expected codeword length under the induced semantic distribution."""
    sem = induced_semantic_distribution(d, f)
    if sem.alphabet_size != len(code.codewords):
        raise SizeMismatch("code has a different number of codewords than semantic symbols")
    # rounded once (fsum): a complete code on a uniform source averages exactly its length,
    # not an ulp below its own lower bound
    return math.fsum(p * len(w) for p, w in zip(sem.probs.tolist(), code.codewords))


def optimal_length_bounds(
    d: Distribution, f: SynonymousPartition, arity: int = 2
) -> tuple[float, float]:
    """(Hs / log2 F, Hs / log2 F + 1); the optimal average length lies in [lower, upper).

    A zero-entropy semantic source is the one exception: codewords must have
    at least one digit, so its average length sits exactly at the upper edge.
    """
    from .measures import semantic_entropy

    hs = float(semantic_entropy(d, f) / np.log2(arity))
    return hs, hs + 1.0


def encode_sequence(symbols, code: SemanticPrefixCode, f: SynonymousPartition) -> str:
    """Concatenate the codeword of each symbol's block, one dict lookup per symbol.

    The dict maps the N valid indices to codewords, so any symbol equal to a
    valid index (an int, a bool, 2.0, a numpy integer) is coded by lookup.
    Only a sequence holding some other symbol (2.5, "3", -1, N, an unhashable
    value) takes the slow path: int() of every symbol and one range check,
    which reports the first symbol outside [0, N) as IndexOutOfRange.
    """
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    symbols = list(symbols)  # a one-shot iterable must survive for the slow path
    word_of = dict(enumerate(code.codewords[k] for k in f.block_of.tolist()))
    try:
        return "".join(map(word_of.__getitem__, symbols))
    except (KeyError, TypeError):
        pass
    symbols = list(map(int, symbols))
    bad = next((u for u in symbols if u not in word_of), None)
    if bad is not None:
        raise IndexOutOfRange(f"symbol index {bad} outside [0, {f.alphabet_size})")
    return "".join(map(word_of.__getitem__, symbols))


def decode_sequence(
    stream: str,
    code: SemanticPrefixCode,
    f: SynonymousPartition,
    policy: str = "lowest",
    seed: int | None = None,
) -> list[int]:
    """Parse a codeword stream and emit one block representative per symbol.

    Parsing runs in the regex engine, not in a Python loop over symbols: one
    findall of w1|w2|... splits the stream into codewords, and one dict maps
    each to its representative.  The code is prefix-free, so the stream
    parses exactly when those codewords, joined, give the stream back.  When
    they do not, the parse breaks where the run of codewords contiguous from
    position 0 ends; a bisection over joined prefixes of the findall list
    finds that position without a backtracking match.  Decoding raises there:
    TruncatedStream when the rest of the stream is a proper prefix of a
    codeword, InvalidPrefix otherwise.  policy "lowest" picks the smallest
    index in the block; "random" draws uniformly from the block (seeded, one
    draw per symbol).  Blockwise round trip is exact:
    block(decode(encode(s))[k]) == block(s[k]) for every k.
    """
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    if policy not in ("lowest", "random"):
        raise ValueError(f"policy must be 'lowest' or 'random', got {policy!r}")
    rng = np.random.default_rng(seed) if policy == "random" else None
    # codewords are digit strings, so none needs escaping; re caches the pattern by its text
    words = re.findall("|".join(code.codewords), stream)
    if "".join(words) != stream:
        pos = _parsed_prefix_length(words, stream)
        tail = stream[pos:]
        if any(w.startswith(tail) for w in code.codewords):
            raise TruncatedStream(f"stream ends inside a codeword after position {pos}")
        raise InvalidPrefix(f"no codeword starts with {tail[:max(code.lengths)]!r} at position {pos}")
    if rng is None:
        lowest = {w: min(b) for w, b in zip(code.codewords, f.blocks)}
        return list(map(lowest.__getitem__, words))
    # members[rng.integers(len(members))] draws what rng.choice(members) does,
    # without converting the block to an array for every symbol
    members_of = dict(zip(code.codewords, f.blocks))
    return [members[rng.integers(len(members))] for members in map(members_of.__getitem__, words)]


def _parsed_prefix_length(words: list[str], stream: str) -> int:
    """Length of the run of findall `words` that lies contiguous from position 0.

    "The first k words, joined, start the stream" holds for every k up to
    that run's length and for none beyond it: no codeword starts where the
    run ends, or findall would have matched it there.  So the test is
    monotone in k and a bisection finds the run in O(log len(words)) joins.
    """
    lo, hi = 0, len(words)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if stream.startswith("".join(words[:mid])):
            lo = mid
        else:
            hi = mid - 1
    return sum(map(len, words[:lo]))
