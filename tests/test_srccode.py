"""Source coding: Kraft checks, Huffman goldens, round trips, optimality."""

import itertools
import re

import numpy as np
import pytest

from sebits.core import Distribution, SynonymousPartition, induced_semantic_distribution
from sebits.errors import IndexOutOfRange, InvalidPrefix, SizeMismatch, TruncatedStream, ValidationError
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

    def test_integer_lengths_decided_exactly(self):
        # numpy integers are summed as Python ints, where F^40 does not overflow
        assert semantic_kraft_check(np.array([40, 40]), np.int64(5))
        assert not semantic_kraft_check(np.array([1, 1, 1, 1, 1, 40]), np.int64(5))
        with pytest.raises(ValidationError):
            semantic_kraft_check([1, 1.5])

    @pytest.mark.parametrize("arity, length", [(5, 7), (6, 7), (10, 6)])
    def test_complete_code_whose_float_sum_rounds_above_one(self, arity, length):
        """F^L words of length L sum to exactly 1; in floats these three sums
        come to 1 + 1.0e-12, 1 + 3.8e-12 and 1 + 7.9e-12."""
        assert semantic_kraft_check([length] * arity**length, arity)
        assert not semantic_kraft_check([length] * (arity**length + 1), arity)

    def test_complete_five_ary_code_of_length_seven(self):
        words = ["".join(w) for w in itertools.product("01234", repeat=7)]
        assert SemanticPrefixCode(words, 5).lengths == [7] * 5**7

    def test_huffman_on_a_uniform_five_ary_source(self):
        n = 5**7
        code = build_semantic_huffman(
            Distribution(np.full(n, 1.0 / n)), SynonymousPartition.identity(n), arity=5
        )
        assert code.lengths == [7] * n


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

    @pytest.mark.parametrize(
        "codewords, arity", [(("0", "01"), 2), (("0", "1", "00"), 2), (("0", "2"), 2), (("0",), 1), ((), 2)]
    )
    def test_errors_share_the_validation_contract(self, codewords, arity):
        with pytest.raises(ValidationError):
            SemanticPrefixCode(codewords, arity)


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

    @pytest.mark.parametrize("size, arity, want", [(6, 6, 1.0), (9, 3, 2.0)])
    def test_complete_uniform_code_average_length_is_exact(self, size, arity, want):
        """Summed by np.dot these read 0.9999999999999999, below the lower length
        bound 1.0, and 2.0000000000000004."""
        d = Distribution(np.full(size, 1 / size))
        f = SynonymousPartition.identity(size)
        code = build_semantic_huffman(d, f, arity=arity)
        assert average_length(code, d, f) == want == optimal_length_bounds(d, f, arity=arity)[0]

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

    @pytest.mark.parametrize("arity", [1, 12, 2.5, 3.0])
    def test_out_of_range_rejected(self, huffman_dist, huffman_partition, arity):
        # arity 1 used to loop forever; 12 failed with a misleading prefix error;
        # 2.5 and 3.0 passed the range check and failed with a TypeError in the merge loop
        with pytest.raises(ValidationError, match=r"\[2, 10\]"):
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

    def test_error_path_memory_stays_near_the_parse(self):
        """A 200 000-codeword stream with one invalid digit appended peaks at
        most 1.2x the traced memory of the same stream decoded whole: locating
        the error keeps no backtracking record per codeword."""
        import tracemalloc

        code = SemanticPrefixCode(("0", "10", "11"))
        f = SynonymousPartition.identity(3)
        stream = encode_sequence(np.random.default_rng(0).integers(0, 3, 200_000).tolist(), code, f)

        def peak(s):
            tracemalloc.start()
            try:
                outcome = _outcome(decode_sequence, s, code, f)
                return outcome[0], tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ok, ok_peak = peak(stream)
        bad, bad_peak = peak(stream + "2")
        assert (ok, bad) == ("ok", "InvalidPrefix")
        assert bad_peak <= 1.2 * ok_peak, (bad_peak, ok_peak)

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


def _finditer_decode(stream, code, f, policy="lowest", seed=None):
    """Oracle: the decoder that walked a finditer over the codewords, one symbol a step."""
    if len(code.codewords) != f.semantic_size:
        raise SizeMismatch("code does not match the partition's semantic alphabet")
    if policy not in ("lowest", "random"):
        raise ValueError(f"policy must be 'lowest' or 'random', got {policy!r}")
    rng = np.random.default_rng(seed) if policy == "random" else None
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
        return [min(f.blocks[k]) for k in blocks]
    return [f.blocks[k][rng.integers(len(f.blocks[k]))] for k in blocks]


def random_prefix_code(rng: np.random.Generator, k: int, arity: int) -> SemanticPrefixCode:
    """k codewords in random order, chosen among the leaves of a random F-ary tree,
    so the code is often incomplete (its Kraft sum below 1)."""
    leaves = [""]
    while len(leaves) < k + int(rng.integers(0, 3)) or leaves == [""]:
        leaf = leaves.pop(int(rng.integers(len(leaves))))
        leaves += [leaf + str(digit) for digit in range(arity)]
    return SemanticPrefixCode(tuple(rng.choice(leaves, size=k, replace=False).tolist()), arity)


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

    def test_decode_matches_the_finditer_loop_on_random_prefix_codes(self):
        """The regex match and findall give the symbols of the finditer loop they
        replaced, or its exception class and message, on random prefix codes."""
        rng = np.random.default_rng(94)
        outcomes = set()
        for _ in range(300):
            arity = int(rng.integers(2, 5))
            n = int(rng.integers(1, 12))
            f = random_partition(rng, n)
            code = random_prefix_code(rng, f.semantic_size, arity)
            for stream in self._streams(rng, code, f):
                for policy in ("lowest", "random"):
                    got = _outcome(decode_sequence, stream, code, f, policy=policy, seed=5)
                    want = _outcome(_finditer_decode, stream, code, f, policy=policy, seed=5)
                    assert got == want, (code, stream, policy)
                    outcomes.add(got[0])
        assert outcomes == {"ok", "TruncatedStream", "InvalidPrefix"}

    def test_random_policy_draws_the_choice_stream(self):
        """The random policy's picks equal one `rng.choice(members)` per symbol,
        the loop it replaced, on 200 random codes at several seeds, with
        singleton blocks (where neither form may consume a draw differently)."""
        rng = np.random.default_rng(93)
        singletons = 0
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d, f = random_distribution(rng, n), random_partition(rng, n)
            singletons += sum(len(b) == 1 for b in f.blocks)
            code = build_semantic_huffman(d, f, arity=int(rng.integers(2, 8)))
            stream = encode_sequence(rng.integers(0, n, size=int(rng.integers(0, 200))).tolist(), code, f)
            blocks = [f.block_of[s] for s in decode_sequence(stream, code, f)]
            for seed in (0, 5, 9, 2**40):
                choice = np.random.default_rng(seed)
                want = [int(choice.choice(f.blocks[k])) for k in blocks]
                got = decode_sequence(stream, code, f, policy="random", seed=seed)
                assert got == want, (f.blocks, seed)
        assert singletons > 100

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
                cases += [seq[:k] + [10**30] + seq[k:]]
            # symbols equal to a valid index hit the lookup table; the rest (2.5, "3", 10**30,
            # an unhashable list) take the int() path: either way the oracle's outcome
            cases += [tuple(seq), [True, False], [2.0], [2.5], [float(u) for u in seq],
                      [u + 0.5 for u in seq], ["3"], list(map(str, seq)), np.array(seq) % 2 == 1, [[0]]]
            for symbols in cases:
                assert _outcome(encode_sequence, symbols, code, f) == _outcome(
                    _loop_encode, symbols, code, f
                )
            # a one-shot iterable is read once, by the table lookup or by the int() path
            for symbols in (seq, seq + [n]):
                assert _outcome(encode_sequence, (u for u in symbols), code, f) == _outcome(
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
