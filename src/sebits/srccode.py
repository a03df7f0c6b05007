"""Lossless source coding over synonymous partitions.

Codewords are assigned to semantic symbols (blocks), not syntactic ones, so a
source with N symbols needs only one codeword per block.  Decoding restores a
block representative; the round-trip guarantee is blockwise, not symbolwise.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

import numpy as np

from .core import Distribution, SynonymousPartition, induced_semantic_distribution
from .errors import IndexOutOfRange, InvalidPrefix, SizeMismatch, TruncatedStream

KRAFT_TOL = 1e-12


def semantic_kraft_check(lengths, arity: int = 2) -> bool:
    """True iff sum of F^-l over the semantic codeword lengths is at most 1."""
    if arity < 2:
        raise ValueError("code alphabet size must be at least 2")
    lengths = list(lengths)
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("lengths must be a non-empty list of positive integers")
    return sum(float(arity) ** -l for l in lengths) <= 1.0 + KRAFT_TOL


@dataclass(frozen=True)
class SemanticPrefixCode:
    """One F-ary codeword per semantic symbol; prefix-free with Kraft sum <= 1."""

    codewords: tuple[str, ...]
    arity: int = 2

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("code alphabet size must be at least 2")
        if not self.codewords:
            raise ValueError("code must have at least one codeword")
        digits = set("0123456789")
        for w in self.codewords:
            if not w or any(c not in digits or int(c) >= self.arity for c in w):
                raise ValueError(f"codeword {w!r} is not a base-{self.arity} digit string")
        words = sorted(self.codewords)
        for a, b in zip(words, words[1:]):
            if b.startswith(a):
                raise ValueError(f"{a!r} is a prefix of {b!r}; code is not prefix-free")
        if not semantic_kraft_check(self.lengths, self.arity):
            raise ValueError("codeword lengths violate the Kraft inequality")

    @property
    def lengths(self) -> list[int]:
        return [len(w) for w in self.codewords]

    def to_json(self) -> dict:
        return {"codewords": list(self.codewords), "arity": self.arity}


def build_semantic_huffman(
    d: Distribution, f: SynonymousPartition, arity: int = 2
) -> SemanticPrefixCode:
    """Huffman code on the block-mass distribution induced by the partition.

    Deterministic: merges always take the lowest-probability nodes, ties broken
    by the smallest original block index, and pop order fixes digit assignment.
    A single-block source gets the one-digit codeword "0".  For arity > 2 the
    symbol list is padded with zero-probability dummies so every merge is full.
    Codeword digits are the characters 0-9, so the arity must lie in [2, 10].
    """
    if not 2 <= arity <= 10:
        raise ValueError(f"arity must be in [2, 10] (one character per digit), got {arity}")
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
    return float(np.dot(sem.probs, [len(w) for w in code.codewords]))


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
    """Concatenate the codeword of each symbol's block: one range check, which
    reports the first symbol outside [0, N), then one table lookup per symbol."""
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    symbols = list(map(int, symbols))
    n = f.alphabet_size
    if symbols and (min(symbols) < 0 or max(symbols) >= n):
        bad = next(u for u in symbols if not 0 <= u < n)
        raise IndexOutOfRange(f"symbol index {bad} outside [0, {n})")
    word_of = [code.codewords[k] for k in f.block_of.tolist()]
    return "".join(map(word_of.__getitem__, symbols))


def decode_sequence(
    stream: str,
    code: SemanticPrefixCode,
    f: SynonymousPartition,
    policy: str = "lowest",
    seed: int | None = None,
) -> list[int]:
    """Parse a codeword stream and emit one block representative per symbol.

    Parsing is one linear scan.  A stream that does not parse raises at the
    first position no codeword matches: TruncatedStream when the rest of the
    stream is a proper prefix of a codeword, InvalidPrefix otherwise.
    policy "lowest" picks the smallest index in the block; "random" draws
    uniformly from the block (seeded, one draw per symbol).  Blockwise round
    trip is exact: block(decode(encode(s))[k]) == block(s[k]) for every k.
    """
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    if policy not in ("lowest", "random"):
        raise ValueError(f"policy must be 'lowest' or 'random', got {policy!r}")
    rng = np.random.default_rng(seed) if policy == "random" else None
    # group k + 1 matches codeword k; re.compile caches the pattern by its text
    token = re.compile("|".join(f"({w})" for w in code.codewords))
    blocks = []
    pos = 0
    for m in token.finditer(stream):
        if m.start() != pos:
            break
        blocks.append(m.lastindex - 1)
        pos = m.end()
    if pos != len(stream):
        tail = stream[pos:]
        if any(w.startswith(tail) for w in code.codewords):
            raise TruncatedStream(f"stream ends inside a codeword after position {pos}")
        raise InvalidPrefix(f"no codeword starts with {tail[:max(code.lengths)]!r} at position {pos}")
    if rng is None:
        lowest = [min(b) for b in f.blocks]
        return list(map(lowest.__getitem__, blocks))
    return [int(rng.choice(f.blocks[k])) for k in blocks]
