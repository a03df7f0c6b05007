"""Source coding: Kraft checks, Huffman goldens, round trips, optimality."""

import itertools

import numpy as np
import pytest

from sebits.core import Distribution, SynonymousPartition, induced_semantic_distribution
from sebits.errors import IndexOutOfRange, InvalidPrefix, SizeMismatch, TruncatedStream
from sebits.measures import semantic_entropy
from sebits.srccode import (
    SemanticPrefixCode,
    average_length,
    build_semantic_huffman,
    decode_sequence,
    encode_sequence,
    optimal_length_bounds,
    semantic_kraft_check,
)

from conftest import random_distribution, random_partition

SEQ = [0, 0, 2, 3, 1, 2, 1]  # the worked seven-symbol example sequence


class TestKraft:
    def test_tight_binary(self):
        assert semantic_kraft_check([1, 2, 2])
        assert semantic_kraft_check([2, 2, 2, 2])

    def test_overfull(self):
        assert not semantic_kraft_check([1, 1, 1])

    def test_ternary(self):
        assert semantic_kraft_check([1, 1, 1], arity=3)
        assert not semantic_kraft_check([1, 1, 1, 1], arity=3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            semantic_kraft_check([])
        with pytest.raises(ValueError):
            semantic_kraft_check([1, 0])
        with pytest.raises(ValueError):
            semantic_kraft_check([1], arity=1)


class TestPrefixCodeValidation:
    def test_prefix_violation(self):
        with pytest.raises(ValueError):
            SemanticPrefixCode(("0", "01"))

    def test_kraft_violation(self):
        with pytest.raises(ValueError):
            SemanticPrefixCode(("0", "1", "00"))

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            SemanticPrefixCode(("0", "2"))


class TestHuffmanGoldens:
    def test_classic_codebook(self, huffman_dist):
        code = build_semantic_huffman(huffman_dist, SynonymousPartition.identity(4))
        assert code.codewords == ("0", "10", "110", "111")
        assert average_length(code, huffman_dist, SynonymousPartition.identity(4)) == 1.75

    def test_semantic_codebook(self, huffman_dist, huffman_partition):
        code = build_semantic_huffman(huffman_dist, huffman_partition)
        assert code.codewords == ("0", "10", "11")
        assert average_length(code, huffman_dist, huffman_partition) == 1.5

    def test_single_block(self, huffman_dist):
        code = build_semantic_huffman(huffman_dist, SynonymousPartition.single_block(4))
        assert code.codewords == ("0",)
        assert average_length(code, huffman_dist, SynonymousPartition.single_block(4)) == 1.0

    def test_encoding_lengths(self, huffman_dist, huffman_partition):
        classic = build_semantic_huffman(huffman_dist, SynonymousPartition.identity(4))
        semantic = build_semantic_huffman(huffman_dist, huffman_partition)
        x = encode_sequence(SEQ, classic, SynonymousPartition.identity(4))
        xs = encode_sequence(SEQ, semantic, huffman_partition)
        assert x == "001101111011010" and len(x) == 15
        assert xs == "001111101110" and len(xs) == 12

    def test_decode_keeps_blocks(self, huffman_dist, huffman_partition):
        semantic = build_semantic_huffman(huffman_dist, huffman_partition)
        decoded = decode_sequence("001111101110", semantic, huffman_partition)
        assert decoded == [0, 0, 2, 2, 1, 2, 1]
        blocks = huffman_partition.block_of
        assert [blocks[s] for s in decoded] == [blocks[s] for s in SEQ]

    def test_identity_round_trip_is_exact(self, huffman_dist):
        f = SynonymousPartition.identity(4)
        code = build_semantic_huffman(huffman_dist, f)
        assert decode_sequence(encode_sequence(SEQ, code, f), code, f) == SEQ

    def test_length_bounds(self, huffman_dist, huffman_partition, table1_dist, table1_partition):
        lo, hi = optimal_length_bounds(huffman_dist, huffman_partition)
        assert (lo, hi) == (1.5, 2.5)
        lo1, hi1 = optimal_length_bounds(table1_dist, table1_partition)
        assert lo1 == pytest.approx(1.971, abs=1e-3)
        assert hi1 == pytest.approx(2.971, abs=1e-3)
        lo_b, hi_b = optimal_length_bounds(huffman_dist, SynonymousPartition.single_block(4))
        assert (lo_b, hi_b) == (0.0, 1.0)


class TestHuffmanArity:
    """Digits are the characters 0-9: arities outside [2, 10] are refused up front."""

    @pytest.mark.parametrize("arity", [1, 12])
    def test_out_of_range_rejected(self, huffman_dist, huffman_partition, arity):
        # arity 1 used to loop forever; 12 failed with a misleading prefix error
        with pytest.raises(ValueError, match=r"\[2, 10\]"):
            build_semantic_huffman(huffman_dist, huffman_partition, arity=arity)

    def test_arity_ten_builds(self):
        d = Distribution(np.full(14, 1.0 / 14))
        f = SynonymousPartition.identity(14)
        code = build_semantic_huffman(d, f, arity=10)
        assert code.arity == 10
        assert len(code.codewords) == 14
        assert "9" in "".join(code.codewords)
        assert decode_sequence(encode_sequence(range(14), code, f), code, f) == list(range(14))


class TestStreamErrors:
    def test_truncated(self, huffman_dist, huffman_partition):
        code = build_semantic_huffman(huffman_dist, huffman_partition)
        with pytest.raises(TruncatedStream):
            decode_sequence("1", code, huffman_partition)

    def test_invalid_prefix(self):
        code = SemanticPrefixCode(("0", "10"))  # "11" starts no codeword
        f = SynonymousPartition.identity(2)
        with pytest.raises(InvalidPrefix):
            decode_sequence("011", f=f, code=code)

    def test_empty_stream(self, huffman_dist, huffman_partition):
        code = build_semantic_huffman(huffman_dist, huffman_partition)
        assert decode_sequence("", code, huffman_partition) == []
        assert encode_sequence([], code, huffman_partition) == ""

    def test_encode_out_of_range(self, huffman_dist, huffman_partition):
        code = build_semantic_huffman(huffman_dist, huffman_partition)
        with pytest.raises(IndexOutOfRange):
            encode_sequence([0, 9], code, huffman_partition)


def exhaustive_optimal_average(probs: np.ndarray, arity: int = 2) -> float:
    """Minimum average length over all Kraft-feasible length vectors (lengths <= k)."""
    k = probs.size
    best = np.inf
    for lengths in itertools.product(range(1, k + 1), repeat=k):
        if sum(arity**-l for l in lengths) <= 1.0 + 1e-12:
            best = min(best, float(np.dot(sorted(lengths), sorted(probs)[::-1])))
    return best


class TestHuffmanOptimality:
    def test_matches_exhaustive_search_up_to_five_symbols(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            d = random_distribution(rng, n)
            f = random_partition(rng, n)
            sem_size = f.semantic_size
            if sem_size > 5 or sem_size < 2:
                continue
            code = build_semantic_huffman(d, f)
            avg = average_length(code, d, f)
            sem = induced_semantic_distribution(d, f)
            assert avg == pytest.approx(exhaustive_optimal_average(sem.probs), abs=1e-12)

    def test_average_within_entropy_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = random_distribution(rng, n)
            f = random_partition(rng, n)
            code = build_semantic_huffman(d, f)
            lo, hi = optimal_length_bounds(d, f)
            avg = average_length(code, d, f)
            if lo == 0.0:  # degenerate source sits at the edge: codewords need a digit
                assert avg == 1.0
            else:
                assert lo - 1e-9 <= avg < hi

    def test_kraft_always_satisfied(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            arity = int(rng.integers(2, 5))
            code = build_semantic_huffman(
                random_distribution(rng, n), random_partition(rng, n), arity=arity
            )
            assert semantic_kraft_check(code.lengths, arity)

    def test_semantic_never_longer_than_classic(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = random_distribution(rng, n)
            f = random_partition(rng, n)
            sem_avg = average_length(build_semantic_huffman(d, f), d, f)
            f_id = SynonymousPartition.identity(n)
            classic_avg = average_length(build_semantic_huffman(d, f_id), d, f_id)
            assert sem_avg <= classic_avg + 1e-9


def _loop_encode(symbols, code, f):
    """Oracle: the symbol-at-a-time encoder the table lookup replaced."""
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    out = []
    for u in symbols:
        u = int(u)
        if not 0 <= u < f.alphabet_size:
            raise IndexOutOfRange(f"symbol index {u} outside [0, {f.alphabet_size})")
        out.append(code.codewords[f.block_of[u]])
    return "".join(out)


def _loop_decode(stream, code, f, policy="lowest", seed=None):
    """Oracle: the slice-and-lookup decoder the single regex scan replaced."""
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    if policy not in ("lowest", "random"):
        raise ValueError(f"policy must be 'lowest' or 'random', got {policy!r}")
    rng = np.random.default_rng(seed) if policy == "random" else None
    word_to_block = {w: k for k, w in enumerate(code.codewords)}
    max_len = max(len(w) for w in code.codewords)
    out = []
    pos = 0
    while pos < len(stream):
        match = None
        for ln in range(1, max_len + 1):
            if pos + ln > len(stream):
                break
            block = word_to_block.get(stream[pos : pos + ln])
            if block is not None:
                match = (block, ln)
                break
        if match is None:
            tail = stream[pos:]
            if any(w.startswith(tail) for w in code.codewords):
                raise TruncatedStream(f"stream ends inside a codeword after position {pos}")
            raise InvalidPrefix(f"no codeword starts with {tail[:max_len]!r} at position {pos}")
        block, ln = match
        members = f.blocks[block]
        out.append(min(members) if rng is None else int(rng.choice(members)))
        pos += ln
    return out


def _outcome(fn, *args, **kw):
    try:
        return "ok", fn(*args, **kw)
    except Exception as e:  # the exception type and message are part of the contract
        return type(e).__name__, str(e)


class TestCodecsMatchLoopOracles:
    """encode/decode give the loop oracles' outputs, or their exceptions word for word."""

    def _streams(self, rng, code, f):
        n = f.alphabet_size
        seq = rng.integers(0, n, size=int(rng.integers(0, 60))).tolist()
        valid = encode_sequence(seq, code, f)
        yield valid
        if valid:
            cut = int(rng.integers(0, len(valid)))
            yield valid[:cut]  # truncated, often inside a codeword
            yield valid[:-1]
            digit = str(int(rng.integers(0, code.arity)))
            yield valid[:cut] + digit + valid[cut + 1 :]  # one digit replaced
            yield valid[:cut] + digit + valid[cut:]  # one digit inserted
            yield valid[:cut] + str(code.arity) + valid[cut:]  # a digit outside the alphabet
            yield valid[:cut] + "x" + valid[cut:]

    def test_decode_matches_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(300):
            arity = int(rng.integers(2, 8))
            n = int(rng.integers(1, 12))
            d, f = random_distribution(rng, n), random_partition(rng, n)
            code = build_semantic_huffman(d, f, arity=arity)
            for stream in self._streams(rng, code, f):
                for policy in ("lowest", "random"):
                    got = _outcome(decode_sequence, stream, code, f, policy=policy, seed=5)
                    want = _outcome(_loop_decode, stream, code, f, policy=policy, seed=5)
                    assert got == want, (code, stream, policy)

    def test_encode_matches_oracle(self):
        rng = np.random.default_rng(92)
        for _ in range(300):
            arity = int(rng.integers(2, 8))
            n = int(rng.integers(1, 12))
            d, f = random_distribution(rng, n), random_partition(rng, n)
            code = build_semantic_huffman(d, f, arity=arity)
            seq = rng.integers(0, n, size=int(rng.integers(0, 40))).tolist()
            cases = [seq, np.array(seq, dtype=np.int64)]
            if seq:
                k = int(rng.integers(0, len(seq)))
                cases += [seq[:k] + [n] + seq[k:], seq[:k] + [-1] + seq[k:] + [n + 3]]
            for symbols in cases:
                assert _outcome(encode_sequence, symbols, code, f) == _outcome(
                    _loop_encode, symbols, code, f
                )


class TestRoundTripProperty:
    def test_blockwise_round_trip_random(self):
        """Decoded blocks equal original blocks on 10^4 random triples."""
        rng = np.random.default_rng(16)
        for _ in range(10_000):
            n = int(rng.integers(2, 7))
            d = random_distribution(rng, n)
            f = random_partition(rng, n)
            code = build_semantic_huffman(d, f)
            seq = rng.integers(0, n, size=int(rng.integers(0, 12))).tolist()
            policy = "lowest" if rng.uniform() < 0.5 else "random"
            decoded = decode_sequence(
                encode_sequence(seq, code, f), code, f, policy=policy, seed=7
            )
            assert [f.block_of[s] for s in decoded] == [f.block_of[s] for s in seq]

    def test_fary_round_trip(self):
        rng = np.random.default_rng(17)
        for arity in (3, 4, 7):
            d = random_distribution(rng, 9)
            f = random_partition(rng, 9)
            code = build_semantic_huffman(d, f, arity=arity)
            seq = rng.integers(0, 9, size=40).tolist()
            decoded = decode_sequence(encode_sequence(seq, code, f), code, f)
            assert [f.block_of[s] for s in decoded] == [f.block_of[s] for s in seq]

    def test_entropy_consistency(self, table1_dist, table1_partition):
        code = build_semantic_huffman(table1_dist, table1_partition)
        avg = average_length(code, table1_dist, table1_partition)
        hs = semantic_entropy(table1_dist, table1_partition)
        assert hs <= avg < hs + 1
