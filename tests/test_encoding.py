"""Trapdoor encoding layer: cubic encode/decode, root finding."""

import random
from array import array
from unittest import mock

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
from cubecipher import encoding as encoding_module
from cubecipher.encoding import _decode_all, _encode_all
from cubecipher.primes import PRIME_COUNT_BELOW_LIMIT, PRIME_LIMIT
from spec import (is_prime, reference_encode_symbol, reference_integer_cube_root,
                  reference_solve_depressed_cubic)


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
    with pytest.raises(ValueError, match=r"^symbol code must be at least 0, got -1$"):
        encode_symbol(-1, 13)
    with pytest.raises(ValueError, match=r"^prime must be at least 2, got 1$"):
        encode_symbol(65, 1)
    with pytest.raises(ValueError, match=r"^prime must be at least 2, got 1$"):
        decode_symbol(79079, 1)


def test_bulk_encode_matches_the_per_symbol_formula():
    rng = random.Random(30)
    every_prime = [n for n in range(PRIME_LIMIT) if is_prime(n)]
    spread = (every_prime[:40] + every_prime[-40:] + rng.sample(every_prime, 120)
              + [2**61 - 1, 2**127 - 1, 10**400 + 267])  # exact far past 16 bits
    for prime in spread:
        expected = [reference_encode_symbol(code, prime) for code in range(256)]
        assert _encode_all(range(256), [prime] * 256) == expected
        assert [encode_symbol(code, prime) for code in range(256)] == expected
    # the pipeline's own argument types: message bytes and the key's kept primes
    message = bytes(rng.randrange(256) for _ in range(500))
    primes = array("H", rng.choices(every_prime, k=500))
    assert _encode_all(message, primes) == list(map(reference_encode_symbol, message, primes))
    assert _encode_all(b"", array("H")) == []


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
    with pytest.raises(ValueError, match=r"^integer_cube_root's n must be at least 0, got -1$"):
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
    """Cubes and other values of 43 to 70 bits, on either side of 2**53,
    where float(n) stops being exact."""
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
    # 208064**3 is the first cube past 2**53
    for n in [(1 << 53) + d for d in range(-3, 4)] + [k**3 + d for k in (208063, 208064, 208065)
                                                      for d in (-1, 0, 1)]:
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
    assert "decoded code a %d-bit int is outside" % (n - 13).bit_length() in str(excinfo.value)
    # small codes are still printed
    with pytest.raises(SymbolRangeError, match="decoded code -3 "):
        decode_symbol(1, 5)


def _genuine(n):
    return (n * n * n - n) // 6


@pytest.mark.parametrize(
    "code, shown",
    [
        (2**64 - 1, "18446744073709551615"),
        # read "of 65 bits" and "of 167 bits" before errors._shown showed them
        (2**64, "18446744073709551616"),
        (10**50, "1%s... (51 characters)" % ("0" * 39)),
    ],
    ids=["64-bit", "65-bit", "51-digit"],
)
def test_the_range_message_shows_the_code(code, shown):
    with pytest.raises(SymbolRangeError) as excinfo:
        decode_symbol(_genuine(code + 13), 13)
    assert str(excinfo.value) == (
        "decoded code %s is outside [0, 127] (wrong prime or corrupted value)" % shown
    )


@pytest.mark.parametrize(
    "max_code, shown",
    [
        # "%d" of this bound raised the interpreter's int/str-limit ValueError
        (-(10**5000), "a negative 16610-bit int"),
        # other bounds print whole; a bound that is not an int is refused
        # (tests/test_errors.py)
        (-(1 << 64) + 1, "-18446744073709551615"),
    ],
    ids=["huge", "64-bit"],
)
def test_the_range_message_shows_the_bound(max_code, shown):
    with pytest.raises(SymbolRangeError) as excinfo:
        decode_symbol(79079, 13, max_code)
    assert str(excinfo.value) == (
        "decoded code 65 is outside [0, %s] (wrong prime or corrupted value)" % shown
    )


# the largest genuine n: the largest prime below 2**16 plus the largest byte
_LARGEST_PRIME = 65521
_N_MAX = _LARGEST_PRIME + 255


def test_bulk_decode_takes_every_genuine_root_from_its_float_candidate():
    assert is_prime(_LARGEST_PRIME)
    assert not any(is_prime(n) for n in range(_LARGEST_PRIME + 1, PRIME_LIMIT))
    ns = range(2, _N_MAX + 1)
    ts = [(n * n * n - n) // 6 for n in ns]
    # with prime 2 the codes are n - 2; a call of decode_symbol would mean
    # the float candidate missed some n and the bulk pass fell back
    counted = mock.patch.object(encoding_module, "decode_symbol", wraps=decode_symbol)
    with counted as spy:
        assert _decode_all(ts, [2] * len(ts), _N_MAX - 2) == [n - 2 for n in ns]
        assert _decode_all([], [], 127) == []
    assert spy.call_count == 0


def _decode_outcome(t, prime, max_code, i=0):
    """decode_symbol's outcome as _decode_all reports it for symbol i: the
    code in a list, or the error's class and text after "symbol i: "."""
    try:
        return [decode_symbol(t, prime, max_code)]
    except (CorruptValueError, SymbolRangeError) as exc:
        return type(exc), "symbol %d: %s" % (i, exc)


def _bulk_outcome(ts, primes, max_code):
    """_decode_all's codes, or the class and text of the error it raises."""
    try:
        return _decode_all(ts, primes, max_code)
    except (CorruptValueError, SymbolRangeError) as exc:
        return type(exc), str(exc)


def test_bulk_decode_fails_exactly_where_decode_symbol_raises():
    limit = 1 << 50  # the bulk pass's float bound on t
    top = integer_cube_root(6 * limit) + 1  # the first n whose t reaches it
    ts = [0, -1, -(10**6), limit - 1, limit, limit + 1, 10**4000, -(10**4000)]
    for n in (2, 3, 100, 141, 396, 65776, top - 1, top, top + 1, 10**1333):
        genuine = (n * n * n - n) // 6
        ts += [genuine - 1, genuine, genuine + 1]
    for t in ts:
        for prime, max_code in ((2, 127), (13, 127), (141, 255), (65521, 255)):
            assert _bulk_outcome([t], [prime], max_code) == _decode_outcome(t, prime, max_code)


def test_bulk_decode_fails_on_any_bad_symbol():
    rng = random.Random(29)
    primes = first_primes(40)
    codes = [rng.randrange(128) for _ in primes]
    ts = [encode_symbol(c, p) for c, p in zip(codes, primes)]
    assert _decode_all(ts, primes, 127) == codes
    for i in (0, 17, 39):
        for bad in (ts[i] - 1, ts[i] + 1, 0, -ts[i], encode_symbol(128, primes[i])):
            refusal = _decode_outcome(bad, primes[i], 127, i)
            assert isinstance(refusal, tuple)
            assert _bulk_outcome(ts[:i] + [bad] + ts[i + 1:], primes, 127) == refusal
