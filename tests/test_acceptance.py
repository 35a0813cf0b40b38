"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact (zero tolerance) unless stated otherwise, and
each criterion carries a wall-time budget that is asserted as well.

This module imports no pytest, so an interpreter without it runs the
criteria as plain calls (see the README's "Install and test"); keep it so.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from cubecipher import (
    InsufficientPairsError,
    IntMatrix,
    apply_composite,
    avalanche_test,
    benchmark,
    decode_symbol,
    decrypt,
    encode_symbol,
    encrypt,
    encrypt_block,
    fibonacci_q,
    growth_exponent,
    keygen,
    known_plaintext_attack,
    parse_ciphertext,
    parse_key,
    rotation,
    serialize_ciphertext,
    serialize_key,
    solve_depressed_cubic,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(number, name, ok, elapsed, limit):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(
        "ACCEPTANCE %02d %-34s %s (%.3fs, limit %gs)"
        % (number, name, status, elapsed, limit)
    )
    assert ok, "criterion %d (%s) failed its checks" % (number, name)
    assert in_time, "criterion %d (%s) exceeded its %gs budget: %.3fs" % (
        number,
        name,
        limit,
        elapsed,
    )


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_criterion_01_worked_example_fidelity():
    start = time.perf_counter()
    ok = (
        encode_symbol(65, 13) == 79079
        and solve_depressed_cubic(79079) == 78
        and decode_symbol(79079, 13) == 65
    )
    _report(1, "worked-example-fidelity", ok, time.perf_counter() - start, 0.001)


def test_criterion_02_exhaustive_encode_decode():
    start = time.perf_counter()
    ok = True
    for prime in first_primes(500):
        for code in range(128):
            if decode_symbol(encode_symbol(code, prime), prime) != code:
                ok = False
                break
        if not ok:
            break
    _report(2, "exhaustive-encode-decode-64000", ok, time.perf_counter() - start, 10.0)


def test_criterion_03_end_to_end_round_trip():
    start = time.perf_counter()
    rng = random.Random(20240301)
    ok = True
    for _ in range(1000):
        key = keygen(rng.randrange(2**64))
        length = rng.randrange(0, 257)
        message = bytes(rng.randrange(0, 128) for _ in range(length))
        if decrypt(encrypt(message, key), key) != message:
            ok = False
            break
    _report(3, "end-to-end-round-trip-1000", ok, time.perf_counter() - start, 60.0)


def test_criterion_04_cassini_orthogonality_determinants():
    start = time.perf_counter()
    rng = random.Random(20240304)
    ok = all(fibonacci_q(n).det() == (-1) ** n for n in range(1, 201))
    for k in range(-8, 9):
        r = rotation(k)
        ok = ok and r.transpose() @ r == IntMatrix.identity(2) and r.det() == 1
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        a = IntMatrix(n, n, tuple(rng.randint(-50, 50) for _ in range(n * n)))
        ok = ok and a.det() == a.transpose().det()
        m = rng.choice((2, 3))
        b = IntMatrix(m, m, tuple(rng.randint(-50, 50) for _ in range(m * m)))
        c = rng.randint(-9, 9)
        ok = ok and (c * b).det() == c**m * b.det()
    for n in (3, 5):
        for _ in range(100):
            entries = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randint(-50, 50)
                    entries[i][j] = v
                    entries[j][i] = -v
            ok = ok and IntMatrix.from_rows(entries).det() == 0
    _report(4, "cassini-orthogonality-dets", ok, time.perf_counter() - start, 10.0)


def test_criterion_05_consecutive_product_divisibility():
    start = time.perf_counter()
    rng = random.Random(20240305)
    ok = True
    for _ in range(1000):
        begin = rng.randint(-10**6, 10**6)
        n = rng.randint(1, 100)
        product = 1
        for i in range(n):
            product *= begin + i
        if product % n != 0:
            ok = False
            break
    _report(5, "consecutive-product-divisible", ok, time.perf_counter() - start, 5.0)


def test_criterion_06_known_plaintext_attack():
    start = time.perf_counter()
    rng = random.Random(20240306)
    ok = True
    generic_trials = 0
    while generic_trials < 50:
        key = keygen(rng.randrange(2**64))
        pairs = []
        for _ in range(6):
            block = IntMatrix(2, 2, tuple(rng.randrange(0, 10**6) for _ in range(4)))
            pairs.append((block, encrypt_block(block, key)))
        try:
            result = known_plaintext_attack(pairs)
        except InsufficientPairsError:
            continue  # non-generic draw; only rank-4 trials count
        generic_trials += 1
        ok = ok and result.verified
        for _ in range(100):
            fresh = IntMatrix(2, 2, tuple(rng.randrange(0, 10**6) for _ in range(4)))
            if apply_composite(result.composite_map, fresh) != encrypt_block(fresh, key):
                ok = False
                break
        if not ok:
            break
    _report(6, "known-plaintext-attack-50-keys", ok, time.perf_counter() - start, 30.0)


def test_criterion_07_avalanche_locality():
    start = time.perf_counter()
    report = avalanche_test(keygen(20240307), message_length=40, trials=1000, rng_seed=7)
    ok = (
        report.locality_histogram == {1: 1000}
        and report.mean_changed_block_fraction == Fraction(1, 10)
        and "deviation" in report.finding
    )
    _report(7, "avalanche-single-block-locality", ok, time.perf_counter() - start, 30.0)


def test_criterion_08_monotonic_root_uniqueness():
    start = time.perf_counter()
    ok = True
    for n in range(2, 10**4 + 1):
        if solve_depressed_cubic((n**3 - n) // 6) != n:
            ok = False
            break
    _report(8, "monotonic-root-uniqueness", ok, time.perf_counter() - start, 5.0)


def test_criterion_09_runtime_scaling():
    start = time.perf_counter()
    report = benchmark([64, 128, 256, 512, 1024], keygen(20240309), repetitions=3)
    slope = growth_exponent(report)
    ok = slope < 2.0
    print("  measured encrypt growth exponent: %.3f" % slope)
    _report(9, "runtime-scaling-subquadratic", ok, time.perf_counter() - start, 120.0)


def test_criterion_10_wire_format_stability():
    start = time.perf_counter()
    key_text = (FIXTURES / "golden_key.json").read_text(encoding="utf-8")
    ct_text = (FIXTURES / "golden_ciphertext.json").read_text(encoding="utf-8")
    ok = (
        serialize_key(parse_key(key_text)) == key_text
        and serialize_ciphertext(parse_ciphertext(ct_text)) == ct_text
    )
    _report(10, "wire-format-stability", ok, time.perf_counter() - start, 5.0)
