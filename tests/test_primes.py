"""PRNG and prime stream tests, including the frozen cross-implementation
test vectors that pin the wire contract down to the bit."""

import math
import random

import pytest

from cubecipher import CipherError, PRIME_LIMIT, Xorshift64Star, is_prime, prime_stream
from cubecipher.primes import PRIME_COUNT_BELOW_LIMIT, _PRIME_TABLE

MASK64 = (1 << 64) - 1


def xorshift_reference(seed, count):
    """Independent transcription of the xorshift64* recurrence."""
    state = seed if seed != 0 else 0x9E3779B97F4A7C15
    outputs = []
    for _ in range(count):
        state ^= state >> 12
        state ^= (state << 25) & MASK64
        state ^= state >> 27
        outputs.append((state * 0x2545F4914F6CDD1D) & MASK64)
    return outputs


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# Frozen vectors: any conforming implementation must reproduce these exactly.
XORSHIFT_VECTORS = {
    1: [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
        1036278371763004928,
    ],
    42: [
        6255019084209693600,
        14430073426741505498,
        14575455857230217846,
        17414512882241728735,
        14100574548354140678,
    ],
    0: [
        973819730272012410,
        6108091081255984487,
        12125365036566318712,
    ],
}

PRIME_STREAM_SEED_5198_FIRST_4 = [13, 63587, 13063, 57373]


def test_xorshift_frozen_vectors():
    for seed, expected in XORSHIFT_VECTORS.items():
        rng = Xorshift64Star(seed)
        assert [rng.next_u64() for _ in range(len(expected))] == expected
        assert xorshift_reference(seed, len(expected)) == expected


def test_xorshift_zero_seed_is_remapped():
    a = Xorshift64Star(0)
    b = Xorshift64Star(0x9E3779B97F4A7C15)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_xorshift_seed_validation():
    with pytest.raises(ValueError):
        Xorshift64Star(-1)
    with pytest.raises(ValueError):
        Xorshift64Star(1 << 64)
    with pytest.raises(TypeError):
        Xorshift64Star("7")


def test_xorshift_below():
    rng = Xorshift64Star(9)
    for _ in range(100):
        assert 0 <= rng.below(13) < 13
    with pytest.raises(ValueError):
        rng.below(0)


def test_prime_stream_empty():
    assert prime_stream(1, 0) == []


def test_prime_stream_is_deterministic():
    assert prime_stream(42, 200) == prime_stream(42, 200)
    # a stream is a prefix of any longer stream under the same seed
    assert prime_stream(42, 50) == prime_stream(42, 200)[:50]


def test_prime_stream_frozen_prefix():
    assert prime_stream(5198, 4) == PRIME_STREAM_SEED_5198_FIRST_4


def test_prime_stream_distinct_prime_bounded():
    stream = prime_stream(42, 1000)
    assert len(stream) == 1000
    assert len(set(stream)) == 1000
    for p in stream:
        assert 2 <= p < PRIME_LIMIT
        assert trial_division_is_prime(p)


def test_prime_stream_count_limit():
    with pytest.raises(CipherError):
        prime_stream(1, 6543)
    with pytest.raises(ValueError):
        prime_stream(1, -1)


def test_is_prime_against_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**64 - 1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def reference_prime_stream(seed, count):
    """The rejection loop prime_stream used before its sieve table:
    Miller-Rabin on every candidate, a set for repeats."""
    rng = Xorshift64Star(seed)
    out = []
    seen = set()
    while len(out) < count:
        candidate = rng.next_u64() & (PRIME_LIMIT - 1)
        if candidate in seen or not is_prime(candidate):
            continue
        seen.add(candidate)
        out.append(candidate)
    return out


_rng = random.Random(6542)
DIFFERENTIAL_SEEDS = [0, 1, 5198, MASK64] + [_rng.randrange(1 << 64) for _ in range(20)]


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_prime_stream_matches_reference_loop(seed):
    expected = reference_prime_stream(seed, PRIME_COUNT_BELOW_LIMIT)
    assert prime_stream(seed, PRIME_COUNT_BELOW_LIMIT) == expected
    for length in (0, 1, 7, 256, 1024, 4096):
        assert prime_stream(seed, length) == expected[:length]


def test_sieve_table_agrees_with_is_prime():
    assert len(_PRIME_TABLE) == PRIME_LIMIT
    assert [n for n in range(PRIME_LIMIT) if _PRIME_TABLE[n]] == [
        n for n in range(PRIME_LIMIT) if is_prime(n)
    ]
    assert sum(_PRIME_TABLE) == PRIME_COUNT_BELOW_LIMIT
