"""Trapdoor encoding layer: cubic encode/decode, root finding."""

import random

import pytest

from cubecipher import (
    CorruptValueError,
    NoIntegerRootError,
    SymbolRangeError,
    decode_symbol,
    encode_symbol,
    integer_cube_root,
    solve_depressed_cubic,
)
from cubecipher.primes import PRIME_COUNT_BELOW_LIMIT, PRIME_LIMIT
from spec import is_prime, reference_integer_cube_root, reference_solve_depressed_cubic


def linear_scan_root(t):
    """Oracle: find n >= 2 with n^3 - n = 6t by stepping upward."""
    n = 2
    while n * n * n - n < 6 * t:
        n += 1
    return n if n * n * n - n == 6 * t else None


def first_primes(count):
    """Oracle prime list by trial division, in natural order."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_encode_symbol_worked_example():
    # 'A' (65) with prime 13: t = 77 * 78 * 79 / 6
    assert encode_symbol(65, 13) == 79079


def test_encode_symbol_minimum():
    assert encode_symbol(0, 2) == 1


def test_encode_symbol_validation():
    with pytest.raises(ValueError):
        encode_symbol(-1, 13)
    with pytest.raises(ValueError):
        encode_symbol(65, 1)


def test_decode_symbol_worked_example():
    assert decode_symbol(79079, 13) == 65
    assert solve_depressed_cubic(79079) == 78


def test_decode_symbol_minimum():
    assert decode_symbol(1, 2) == 0


def test_encode_decode_round_trip():
    for prime in first_primes(50):
        for code in range(128):
            t = encode_symbol(code, prime)
            assert t >= 1
            assert decode_symbol(t, prime) == code


def test_decode_rejects_wrong_range():
    # valid cubic root but the recovered code is negative
    with pytest.raises(SymbolRangeError):
        decode_symbol(1, 5)  # n = 2, code would be -3
    # a too-large wrong prime pushes the code below 0
    with pytest.raises(SymbolRangeError):
        decode_symbol(79079, 101)  # n = 78, code would be -23
    # code 200 is out of range in strict mode but fine in byte mode
    t = encode_symbol(200, 13)
    with pytest.raises(SymbolRangeError):
        decode_symbol(t, 13)
    assert decode_symbol(t, 13, max_code=255) == 200


def test_decode_rejects_non_encodings():
    with pytest.raises(CorruptValueError):
        decode_symbol(2, 13)  # n^3 - n = 12 has no integer root
    with pytest.raises(CorruptValueError):
        decode_symbol(0, 13)


def test_solve_depressed_cubic_basics():
    assert solve_depressed_cubic(1) == 2
    with pytest.raises(NoIntegerRootError):
        solve_depressed_cubic(2)
    with pytest.raises(NoIntegerRootError):
        solve_depressed_cubic(0)
    with pytest.raises(NoIntegerRootError):
        solve_depressed_cubic(-5)


def test_solve_depressed_cubic_matches_linear_scan():
    for n in range(2, 1001):
        t = (n * n * n - n) // 6
        assert solve_depressed_cubic(t) == n == linear_scan_root(t)


def test_cubic_monotonicity():
    # n^3 - n strictly increases for n >= 1, the fact that makes the
    # root unique
    previous = 0
    for n in range(1, 1001):
        value = n * n * n - n
        assert value > previous or n == 1
        previous = value


def test_discriminant_never_vanishes():
    for prime in first_primes(20):
        for code in (0, 1, 64, 127):
            t = encode_symbol(code, prime)
            assert 243 * t * t - 1 != 0


def test_exact_division_by_six():
    for prime in first_primes(100):
        for code in range(0, 128, 7):
            n = code + prime
            assert (n - 1) * n * (n + 1) % 6 == 0


def test_integer_cube_root():
    assert integer_cube_root(0) == 0
    assert integer_cube_root(1) == 1
    assert integer_cube_root(7) == 1
    assert integer_cube_root(8) == 2
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(0, 10**30)
        r = integer_cube_root(n)
        assert r**3 <= n < (r + 1) ** 3
    for exact in (5, 12, 10**10):
        assert integer_cube_root(exact**3) == exact
        assert integer_cube_root(exact**3 - 1) == exact - 1
        assert integer_cube_root(exact**3 + 1) == exact
    with pytest.raises(ValueError):
        integer_cube_root(-1)


def test_integer_cube_root_matches_bisection_exhaustively():
    for n in range(1 << 17):
        assert integer_cube_root(n) == reference_integer_cube_root(n)


def test_integer_cube_root_at_cube_boundaries():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.getrandbits(rng.randint(16, 5000)) | 1 << 15
        cube = k**3
        assert integer_cube_root(cube - 1) == k - 1
        assert integer_cube_root(cube) == k
        assert integer_cube_root(cube + 1) == k
    # the bisection is slow at this size, so it checks a few of them
    for bits in (16, 17, 100, 1000, 5000):
        k = rng.getrandbits(bits) | 1 << (bits - 1)
        for n in (k**3 - 1, k**3, k**3 + 1):
            assert integer_cube_root(n) == reference_integer_cube_root(n)


def test_integer_cube_root_around_the_float_seam():
    """The float-seeded start near 2**53, where float(n) stops being exact,
    and across the sizes on either side of it."""
    rng = random.Random(53)
    for bits in range(15, 21):  # k**3 of 43 to 60 bits
        for k in [1 << (bits - 1), (1 << bits) - 1] + [rng.getrandbits(bits) | 1 << (bits - 1)
                                                       for _ in range(50)]:
            for n in (k**3 - 1, k**3, k**3 + 1):
                assert integer_cube_root(n) == reference_integer_cube_root(n), n
    for bits in range(40, 71):
        for n in [1 << (bits - 1), (1 << bits) - 1] + [rng.getrandbits(bits) | 1 << (bits - 1)
                                                       for _ in range(50)]:
            assert integer_cube_root(n) == reference_integer_cube_root(n), n


def test_decode_symbol_round_trips_the_extreme_codes_for_every_prime():
    every_prime = [n for n in range(PRIME_LIMIT) if is_prime(n)]
    assert len(every_prime) == PRIME_COUNT_BELOW_LIMIT
    for prime in every_prime:
        for code in (0, 127, 255):
            assert decode_symbol(encode_symbol(code, prime), prime, max_code=255) == code


def _outcome(t):
    try:
        return solve_depressed_cubic(t)
    except NoIntegerRootError:
        return None


def test_solve_depressed_cubic_matches_binary_search():
    rng = random.Random(17)
    ts = list(range(-3, 2000))
    for _ in range(2000):
        # genuine encodings (n up to 2**16 + 255), their neighbours, and noise
        n = rng.randint(2, 65791)
        genuine = (n * n * n - n) // 6
        ts += [genuine - 1, genuine, genuine + 1, rng.randrange(1, 10**15)]
    for t in ts:
        assert _outcome(t) == reference_solve_depressed_cubic(t)


def test_solve_depressed_cubic_on_hostile_sizes():
    # un-mixed values from crafted ciphertexts: thousands of digits
    rng = random.Random(19)
    for bits in (64, 500, 3000, 14300):
        n = rng.getrandbits(bits // 3) | 1 << (bits // 3 - 1)
        genuine = (n * n * n - n) // 6
        for t in (genuine - 1, genuine, genuine + 1, -genuine, rng.getrandbits(bits)):
            assert _outcome(t) == reference_solve_depressed_cubic(t)
        assert solve_depressed_cubic(genuine) == n


def test_huge_values_are_described_by_size():
    # str() of an int over 4,300 digits raises ValueError, so the messages
    # must name the size, never the digits
    n = 10**5000 + 1
    genuine = (n * n * n - n) // 6
    with pytest.raises(CorruptValueError) as excinfo:
        decode_symbol(genuine + 1, 13)
    assert "%d-bit" % (genuine + 1).bit_length() in str(excinfo.value)
    with pytest.raises(NoIntegerRootError):
        solve_depressed_cubic(-genuine)
    with pytest.raises(SymbolRangeError) as excinfo:
        decode_symbol(genuine, 13)
    assert "of %d bits" % (n - 13).bit_length() in str(excinfo.value)
    # small codes are still printed
    with pytest.raises(SymbolRangeError, match="decoded code -3 "):
        decode_symbol(1, 5)

