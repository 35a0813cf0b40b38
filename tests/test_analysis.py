"""Cryptanalysis harness: avalanche locality, known-plaintext recovery,
and the benchmark scaffolding."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from cubecipher import (
    MAX_FIB_INDEX,
    AttackResult,
    BenchReport,
    BenchRow,
    CipherError,
    FormatError,
    InsufficientPairsError,
    IntMatrix,
    InvalidKeyError,
    KeyMaterial,
    NonIntegralResultError,
    analysis,
    apply_composite,
    avalanche_test,
    benchmark,
    block_map,
    decode_symbol,
    decrypt,
    decrypt_block,
    encode_symbol,
    encrypt,
    encrypt_block,
    fibonacci_q,
    growth_exponent,
    keygen,
    known_plaintext_attack,
    prime_stream,
    rotation,
    serialize_ciphertext,
    serialize_pairs,
    solve_depressed_cubic,
)
from spec import outcome, reference_apply_composite, reference_attack, reference_avalanche_test


def random_block(rng, span=10**6):
    return IntMatrix(2, 2, tuple(rng.randrange(0, span) for _ in range(4)))


def pairs_for_key(key, count, rng):
    return [(b, encrypt_block(b, key)) for b in (random_block(rng) for _ in range(count))]


def swapped(pairs):
    return [(cipher, plain) for plain, cipher in pairs]


def test_avalanche_single_block_message():
    report = avalanche_test(keygen(1), message_length=4, trials=50, rng_seed=9)
    assert report.locality_histogram == {1: 50}
    assert report.mean_changed_block_fraction == Fraction(1)


def test_avalanche_ten_block_message_stays_local():
    report = avalanche_test(keygen(2), message_length=40, trials=200, rng_seed=10)
    assert report.locality_histogram == {1: 200}
    assert report.mean_changed_block_fraction == Fraction(1, 10)
    assert 0 < report.mean_changed_bit_fraction < 1
    assert sum(report.locality_histogram.values()) == report.trials
    assert "deviation" in report.finding and "block" in report.finding


def test_avalanche_is_deterministic():
    a = avalanche_test(keygen(3), 12, 30, rng_seed=77)
    b = avalanche_test(keygen(3), 12, 30, rng_seed=77)
    assert a.to_json_text() == b.to_json_text()


def test_avalanche_report_is_pinned():
    # the exact report text, so a change in the bit counting shows
    expected = (
        '{\n  "version": 1,\n  "trials": 50,\n  "message_length": 40,\n'
        '  "mean_changed_block_fraction": "1/10",\n'
        '  "mean_changed_bit_fraction": "4181/482000",\n'
        '  "locality_histogram": {\n    "1": 50\n  },\n'
        '  "finding": "every single-character change stayed inside its own 2x2 block; '
        "this is the measured deviation from the full-diffusion ideal, under which one "
        'changed character should unpredictably alter the entire ciphertext"\n}\n'
    )
    assert avalanche_test(keygen(7), 40, 50, 11).to_json_text() == expected


@pytest.mark.parametrize(
    "length, trials, block_fraction, bit_fraction",
    [
        (1, 1, "1", "11/152"),
        (1, 7, "1", "11/171"),
        (3, 1, "1", "113/1368"),
        (3, 7, "1", "73/1064"),
        (5, 1, "1/2", "87/2272"),
        (5, 7, "1/2", "297/7952"),
        (257, 1, "1/65", "45/30232"),
        (257, 7, "1/65", "60635520387823/7614857190588480"),
    ],
)
def test_avalanche_reports_are_pinned_across_lengths(length, trials, block_fraction, bit_fraction):
    # one-block, padded and many-block messages, over one and several trials
    expected = (
        '{\n  "version": 1,\n  "trials": %d,\n  "message_length": %d,\n'
        '  "mean_changed_block_fraction": "%s",\n'
        '  "mean_changed_bit_fraction": "%s",\n'
        '  "locality_histogram": {\n    "1": %d\n  },\n'
        '  "finding": "every single-character change stayed inside its own 2x2 block; '
        "this is the measured deviation from the full-diffusion ideal, under which one "
        'changed character should unpredictably alter the entire ciphertext"\n}\n'
    ) % (trials, length, block_fraction, bit_fraction, trials)
    assert avalanche_test(keygen(7), length, trials, 11).to_json_text() == expected


@pytest.mark.parametrize(
    "key",
    [keygen(1), keygen(2718281828), dataclasses.replace(keygen(99), fib_index=MAX_FIB_INDEX)],
    ids=["keygen-1", "keygen-2718281828", "max-fib-index"],
)
def test_avalanche_equals_the_reference(key):
    # lengths 1-9 cover every pad count on one and on several blocks; the
    # max-fib-index key's ciphertext entries are ~7,000 bits
    for length in (*range(1, 10), 40):
        for trials, rng_seed in ((1, length), (8, 1000 + length)):
            expected = reference_avalanche_test(key, length, trials, rng_seed).to_json_text()
            assert avalanche_test(key, length, trials, rng_seed).to_json_text() == expected


def test_avalanche_validates_arguments():
    with pytest.raises(ValueError):
        avalanche_test(keygen(1), message_length=4, trials=0, rng_seed=1)
    with pytest.raises(ValueError):
        avalanche_test(keygen(1), message_length=0, trials=5, rng_seed=1)
    singular = KeyMaterial(IntMatrix.from_rows([[1, 2], [2, 4]]), 1, 0, 0)
    with pytest.raises(InvalidKeyError):
        avalanche_test(singular, 4, 1, 1)


def test_avalanche_report_serialization():
    report = avalanche_test(keygen(4), 8, 10, rng_seed=5)
    doc = json.loads(report.to_json_text())
    assert doc["trials"] == 10
    assert doc["locality_histogram"] == {"1": 10}
    csv = report.to_csv_text()
    assert csv.splitlines()[0] == "changed_blocks,count"
    assert csv.splitlines()[1] == "1,10"


def test_attack_on_identity_like_key():
    key = KeyMaterial(IntMatrix.identity(2), 1, 0, 0)
    rng = random.Random(31)
    result = known_plaintext_attack(pairs_for_key(key, 6, rng))
    assert result.verified
    assert result.pairs_used == 6
    for _ in range(100):
        fresh = random_block(rng)
        assert apply_composite(result.composite_map, fresh) == encrypt_block(fresh, key)


def test_attack_on_random_keys():
    rng = random.Random(37)
    for seed in range(10):
        key = keygen(seed)
        pairs = pairs_for_key(key, 6, rng)
        result = known_plaintext_attack(pairs)
        assert result.verified
        # the same attack on swapped pairs recovers the inverse map
        inverse = known_plaintext_attack(swapped(pairs))
        assert inverse.verified
        inverse_map = inverse.composite_map
        for _ in range(20):
            fresh = random_block(rng)
            ct = encrypt_block(fresh, key)
            assert apply_composite(result.composite_map, fresh) == ct
            # the inverted map reaches the t-value layer, matching decrypt_block
            assert apply_composite(inverse_map, ct) == fresh == decrypt_block(ct, key)


def test_attack_recovers_exactly_the_block_map():
    rng = random.Random(103)
    for seed in range(50):
        key = keygen(seed)
        pairs = pairs_for_key(key, 6, rng)
        result = known_plaintext_attack(pairs)
        assert result.verified
        assert result.composite_map == block_map(key).entries
        # the inverse map, recovered from swapped pairs, undoes block_map
        m = block_map(key).entries
        inverse = known_plaintext_attack(swapped(pairs)).composite_map
        product = tuple(
            sum(inverse[4 * i + k] * m[4 * k + j] for k in range(4))
            for i in range(4)
            for j in range(4)
        )
        assert product == IntMatrix.identity(4).entries


def test_attack_matches_reference_solve():
    rng = random.Random(107)

    def block(span):
        return IntMatrix(2, 2, tuple(rng.randint(-span, span) for _ in range(4)))

    cases = []
    for _ in range(400):
        # arbitrary pairs: small spans make dependent and zero blocks common
        span = rng.choice((1, 2, 10, 10**6))
        cases.append([(block(span), block(span)) for _ in range(rng.randint(0, 7))])
    for _ in range(200):
        # plaintexts drawn from a space of rank below 4
        base = [block(10**3) for _ in range(rng.randint(1, 3))]
        cases.append([
            (IntMatrix(2, 2, tuple(
                sum(rng.randint(-3, 3) * b.entries[k] for b in base) for k in range(4)
            )), block(10**3))
            for _ in range(rng.randint(1, 7))
        ])
    for seed in range(100):
        # genuine pairs, every tenth set with one pair from another key
        pairs = pairs_for_key(keygen(seed), 6, rng)
        if seed % 10 == 0:
            rogue = random_block(rng)
            pairs.insert(rng.randrange(7), (rogue, encrypt_block(rogue, keygen(seed + 1))))
        cases.append(pairs)

    outcomes = set()
    for pairs in cases:
        expected = reference_attack(pairs)
        if isinstance(expected, int):
            with pytest.raises(InsufficientPairsError) as excinfo:
                known_plaintext_attack(pairs)
            assert excinfo.value.rank == expected
            outcomes.add("rank %d" % expected)
            continue
        result = known_plaintext_attack(pairs)
        assert (result.composite_map, result.verified, result.to_json_text()) == expected
        outcomes.add(result.verified)
    # every kind of outcome was exercised
    assert outcomes == {"rank 0", "rank 1", "rank 2", "rank 3", True, False}


def test_apply_composite_requires_an_integral_result():
    half = Fraction(1, 2)
    composite = (half,) + (0,) * 4 + (1,) + (0,) * 4 + (1,) + (0,) * 4 + (1,)
    assert apply_composite(composite, IntMatrix(2, 2, (4, 5, 6, 7))) == IntMatrix(2, 2, (2, 5, 6, 7))
    with pytest.raises(NonIntegralResultError, match=r"^entry \(0, 0\) is not an integer$"):
        apply_composite(composite, IntMatrix(2, 2, (3, 5, 6, 7)))
    with pytest.raises(ValueError):
        apply_composite(composite[:15], IntMatrix(2, 2, (4, 5, 6, 7)))


@pytest.mark.parametrize("block", [(1, 2, 3, 4), [1, 2, 3, 4], IntMatrix(4, 1, (1, 2, 3, 4))])
def test_apply_composite_raises_value_error_for_any_bad_block(block):
    """Pinned: a block that is not a 2x2 IntMatrix is a ValueError here,
    even where encrypt_block would raise TypeError. Error classes are part
    of the interface, so changing this must be a deliberate change."""
    identity = tuple(int(i == j) for i in range(4) for j in range(4))
    with pytest.raises(ValueError, match=r"^block must be 2x2$") as excinfo:
        apply_composite(identity, block)
    assert type(excinfo.value) is ValueError


@pytest.mark.parametrize("entry, shown", [
    (1.0, "1.0"), (0.5, "0.5"), ("1", "'1'"), (None, "None"), (True, "True"),
    (IntMatrix(2, 2, (1, 0, 0, 1)), "IntMatrix(rows=2, cols=2, entries=(1, 0,... (47 characters)"),
])
def test_apply_composite_refuses_an_entry_that_is_not_an_int_or_fraction(entry, shown):
    # a float entry raised a raw AttributeError (no .denominator), and a
    # bool passed as an int
    identity = [int(i == j) for i in range(4) for j in range(4)]
    for at in (0, 15):
        composite = identity[:at] + [entry] + identity[at + 1:]
        with pytest.raises(TypeError) as excinfo:
            apply_composite(composite, IntMatrix(2, 2, (4, 5, 6, 7)))
        assert str(excinfo.value) == "composite map entries must be ints or Fractions, got %s" % shown
    # the size and block refusals come first, unchanged
    with pytest.raises(ValueError, match=r"^composite map must be 4x4$"):
        apply_composite([entry] * 15, IntMatrix(2, 2, (4, 5, 6, 7)))
    with pytest.raises(ValueError, match=r"^block must be 2x2$"):
        apply_composite([entry] * 16, (4, 5, 6, 7))


def test_apply_composite_matches_the_reference():
    rng = random.Random(109)
    cases = []
    for seed in range(60):
        key = keygen(seed)
        pairs = pairs_for_key(key, 6, rng)
        genuine = random_block(rng, 10**12)
        ct = encrypt_block(genuine, key)
        arbitrary = IntMatrix(2, 2, tuple(rng.randint(-(10**30), 10**30) for _ in range(4)))
        # integral maps: the key's own and the one the attack recovers
        for m in (block_map(key).entries, known_plaintext_attack(pairs).composite_map):
            cases += [(m, genuine), (m, arbitrary)]
        # the inverse map, recovered from swapped pairs, has det K denominators
        inverse = known_plaintext_attack(swapped(pairs)).composite_map
        wrong = encrypt_block(genuine, keygen(seed + 1000))
        cases += [(inverse, ct), (inverse, wrong), (inverse, arbitrary)]
    for _ in range(300):
        # arbitrary Fractions, applied to blocks that clear some of their
        # denominators, all of them, or none
        m = tuple(Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 3, 12, 10**9 + 7)))
                  for _ in range(16))
        scale = rng.choice((1, 2, 6, 12 * (10**9 + 7)))
        cases.append((m, IntMatrix(2, 2, tuple(scale * rng.randint(-99, 99) for _ in range(4)))))

    kinds = set()
    for m, block in cases:
        expected = outcome(reference_apply_composite, m, block)
        assert outcome(apply_composite, m, block) == expected
        kinds.add(expected[1] if isinstance(expected, tuple) else "block")
    # integral results and a failure at every entry were all exercised
    assert kinds == {"block"} | {"entry (%d, %d) is not an integer" % rc
                                 for rc in ((0, 0), (0, 1), (1, 0), (1, 1))}


def test_attack_result_too_long_to_print_raises_format_error():
    huge = Fraction(10**5000, 3)
    result = AttackResult(composite_map=(1,) * 6 + (huge,) + (1,) * 9, pairs_used=4, verified=True)
    with pytest.raises(FormatError, match=r"composite_map\[1\]\[2\] is a 16610-bit number"):
        result.to_json_text()


def test_attack_needs_four_independent_pairs():
    rng = random.Random(41)
    key = keygen(5)
    with pytest.raises(InsufficientPairsError) as excinfo:
        known_plaintext_attack(pairs_for_key(key, 3, rng))
    assert excinfo.value.rank <= 3

    base = random_block(rng)
    scaled = [(c * base, encrypt_block(c * base, key)) for c in (1, 2, 3, 4, 5)]
    with pytest.raises(InsufficientPairsError) as excinfo:
        known_plaintext_attack(scaled)
    assert excinfo.value.rank == 1


@pytest.mark.parametrize("pair", [((1, 2, 3, 4), IntMatrix.identity(2)),
                                  (IntMatrix.identity(2), IntMatrix(4, 1, (1, 2, 3, 4)))])
def test_attack_pairs_must_be_blocks(pair):
    with pytest.raises(TypeError, match="attack pairs must be 2x2 IntMatrix values"):
        known_plaintext_attack([pair] * 4)


@pytest.mark.parametrize("function", [known_plaintext_attack, serialize_pairs])
@pytest.mark.parametrize("pairs", ["x", [1], [(IntMatrix.identity(2),)], ["ab"],
                                   [(IntMatrix.identity(2),) * 3]],
                         ids=["str", "int-item", "one-block", "str-item", "three-blocks"])
def test_a_malformed_pair_list_is_refused_before_unpacking(function, pairs):
    # these raised Python's own unpacking ValueError or TypeError
    with pytest.raises(TypeError) as excinfo:
        function(pairs)
    assert str(excinfo.value) == "attack pairs must be 2x2 IntMatrix values"


@pytest.mark.parametrize("function", [known_plaintext_attack, serialize_pairs])
@pytest.mark.parametrize("pairs, shown", [(5, "5"), (None, "None"), (2.5, "2.5")],
                         ids=["int", "none", "float"])
def test_a_pair_list_that_is_not_iterable_is_refused_in_the_documented_form(function, pairs,
                                                                            shown):
    # these raised Python's own "'int' object is not iterable"
    with pytest.raises(TypeError) as excinfo:
        function(pairs)
    assert str(excinfo.value) == "attack pairs must be 2x2 IntMatrix values, got " + shown


@pytest.mark.parametrize("composite, shown", [
    (5, "5"), (None, "None"), (iter(range(16)), "<range_iterator object at"),
], ids=["int", "none", "iterator"])
def test_apply_composite_refuses_a_map_that_has_no_length(composite, shown):
    # these raised Python's own "object of type 'int' has no len()"
    with pytest.raises(TypeError) as excinfo:
        apply_composite(composite, IntMatrix(2, 2, (4, 5, 6, 7)))
    assert str(excinfo.value).startswith(
        "composite map must be a sequence of 16 ints or Fractions, got " + shown)


@pytest.mark.parametrize("composite, shown", [
    (dict.fromkeys(range(16), 1), "{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: "),
    (set(range(16)), "{0, 1, 2,"),
], ids=["dict", "set"])
def test_apply_composite_refuses_a_map_that_is_not_a_sequence(composite, shown):
    # a dict of 16 int keys was applied as the map of its keys
    with pytest.raises(TypeError) as excinfo:
        apply_composite(composite, IntMatrix.identity(2))
    assert str(excinfo.value).startswith(
        "composite map must be a sequence of 16 ints or Fractions, got " + shown)


def test_attack_flags_inconsistent_pairs():
    rng = random.Random(43)
    good = pairs_for_key(keygen(6), 4, rng)
    rogue_block = random_block(rng)
    good.append((rogue_block, encrypt_block(rogue_block, keygen(7))))
    result = known_plaintext_attack(good)
    assert not result.verified


def test_attack_result_serialization():
    rng = random.Random(47)
    result = known_plaintext_attack(pairs_for_key(keygen(8), 5, rng))
    doc = json.loads(result.to_json_text())
    assert doc["verified"] is True
    assert doc["pairs_used"] == 5
    assert len(doc["composite_map"]) == 4
    assert all(len(row) == 4 for row in doc["composite_map"])


def test_attack_does_not_reveal_characters_without_the_prime_stream():
    # recovering t-values is not the same as recovering text: decoding with
    # a prime from the wrong seed fails the range check almost always
    rng = random.Random(53)
    key = keygen(11)
    true_primes = prime_stream(key.prime_seed, 200)
    failures = 0
    trials = 500
    for _ in range(trials):
        code = rng.randrange(0, 128)
        true_prime = true_primes[rng.randrange(len(true_primes))]
        value = encode_symbol(code, true_prime)
        wrong_prime = prime_stream(rng.randrange(2**32), 1)[0]
        try:
            recovered = decode_symbol(value, wrong_prime)
        except CipherError:
            failures += 1
            continue
        if recovered != code:
            failures += 1
    assert failures >= trials * 99 // 100


def _rearranged(composite):
    """The 4x4 rearrangement of a block map: row 2b + i, column 2a + j holds
    M[4(2i + j) + 2a + b], which is P[2b + i] * K[2a + j] for M = map(P, K)."""
    return [[composite[4 * (2 * i + j) + 2 * a + b] for a in (0, 1) for j in (0, 1)]
            for b in (0, 1) for i in (0, 1)]


def test_the_recovered_map_fixes_the_chain_and_the_key_up_to_one_sign():
    # the map is the outer product vec(P) vec(K)^T, rank 1; (-K, n, r + 2)
    # is a twin key, since rotation(r + 2) == -rotation(r)
    rng = random.Random(59)
    for _ in range(60):
        key = keygen(rng.getrandbits(64))
        k = key.key_matrix.entries
        p = (fibonacci_q(key.fib_index) @ rotation(key.quarter_turns)).entries
        recovered = known_plaintext_attack(pairs_for_key(key, 4, rng)).composite_map
        assert _rearranged(recovered) == [[pq * ks for ks in k] for pq in p]

        twin = KeyMaterial(IntMatrix(2, 2, tuple(-e for e in k)), key.fib_index,
                           (key.quarter_turns + 2) % 4, key.prime_seed)
        assert twin != key
        assert block_map(twin) == block_map(key)
        message = bytes(rng.randrange(128) for _ in range(rng.randrange(1, 40)))
        envelope = encrypt(message, key)
        assert serialize_ciphertext(encrypt(message, twin)) == serialize_ciphertext(envelope)
        assert decrypt(envelope, twin) == message


def test_known_plaintext_gives_the_prime_at_each_position_it_covers():
    # the inverse map gives every t; its root n and the known byte x give p = n - x
    rng = random.Random(61)
    key = keygen(12)
    inverse = known_plaintext_attack(swapped(pairs_for_key(key, 4, rng))).composite_map
    message = bytes(rng.randrange(128) for _ in range(64))
    ts = [t for block in encrypt(message, key).blocks for t in apply_composite(inverse, block).entries]
    primes = [solve_depressed_cubic(t) - x for t, x in zip(ts, message)]
    assert primes == prime_stream(key.prime_seed, len(message))


def test_benchmark_single_length():
    report = benchmark([4], keygen(1), repetitions=2)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.message_length == 4
    assert row.encrypt_seconds >= 0
    assert row.ciphertext_bytes > 0


def test_benchmark_draws_the_prime_stream_in_every_timed_call():
    """Each timed encrypt and decrypt runs under its own copy of the key,
    so a key object's kept primes never leave the draw out of a median."""
    from unittest import mock

    from cubecipher import cipher

    key = keygen(1)
    with mock.patch.object(cipher, "prime_stream", wraps=cipher.prime_stream) as drawn:
        benchmark([4, 40], key, repetitions=3)
    assert [c.args for c in drawn.call_args_list] == [(key.prime_seed, 4)] * 6 + [(key.prime_seed, 40)] * 6


def test_benchmark_argument_validation():
    key = keygen(1)
    with pytest.raises(ValueError):
        benchmark([], key, 1)
    with pytest.raises(ValueError):
        benchmark([8, 8], key, 1)
    with pytest.raises(ValueError):
        benchmark([16, 8], key, 1)
    with pytest.raises(ValueError):
        benchmark([8, 16], key, 0)
    with pytest.raises(ValueError, match="^every length must be at least 1, got 0$"):
        benchmark([0, 8], key, 1)


def test_benchmark_ciphertext_bytes_grow_linearly():
    report = benchmark([32, 64, 128, 256], keygen(2), repetitions=1)
    lengths = [r.message_length for r in report.rows]
    sizes = [r.ciphertext_bytes for r in report.rows]
    assert lengths == sorted(lengths)
    # least-squares affine fit; residuals should be tiny relative to size
    n = len(lengths)
    mean_x = sum(lengths) / n
    mean_y = sum(sizes) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(lengths, sizes)) / sum(
        (x - mean_x) ** 2 for x in lengths
    )
    intercept = mean_y - slope * mean_x
    for x, y in zip(lengths, sizes):
        assert abs(y - (slope * x + intercept)) <= 0.1 * y


def test_benchmark_report_serialization():
    report = benchmark([4, 8], keygen(3), repetitions=1)
    doc = json.loads(report.to_json_text())
    assert [row["message_length"] for row in doc["rows"]] == [4, 8]
    csv = report.to_csv_text()
    assert csv.splitlines()[0] == "message_length,encrypt_seconds,decrypt_seconds,ciphertext_bytes"
    assert len(csv.splitlines()) == 3


def test_growth_exponent_on_synthetic_data():
    linear = BenchReport(repetitions=1)
    quadratic = BenchReport(repetitions=1)
    for length in (64, 128, 256, 512):
        linear.rows.append(BenchRow(length, length * 1e-6, length * 1e-6, length))
        quadratic.rows.append(BenchRow(length, length**2 * 1e-9, length**2 * 1e-9, length))
    assert abs(growth_exponent(linear) - 1.0) < 1e-9
    assert abs(growth_exponent(quadratic) - 2.0) < 1e-9
    # a timer can read 0, which is taken as 1e-9 s
    zero = BenchReport(1, [BenchRow(4, 0, 0, 0), BenchRow(8, 2e-9, 0, 0)])
    assert abs(growth_exponent(zero) - 1.0) < 1e-9
    # no rows, or one, give no slope either, with the same refusal
    for rows in ([], [BenchRow(5, 1e-6, 2e-6, 5)]):
        with pytest.raises(ValueError) as excinfo:
            growth_exponent(BenchReport(1, rows))
        assert str(excinfo.value) == "need at least two distinct message lengths to fit a growth exponent"
    # rows of one length give no slope; this divided by zero before
    one_length = BenchReport(repetitions=1)
    one_length.rows += [BenchRow(5, 1e-6, 2e-6, 5), BenchRow(5, 3e-6, 4e-6, 5)]
    with pytest.raises(ValueError, match="^need at least two distinct message lengths"):
        growth_exponent(one_length)


@pytest.mark.parametrize("rows, text", [
    ([5, 6], "report row 0 must be a BenchRow, got 5"),
    ([BenchRow(4, 1e-6, 1e-6, 4), (8, 2e-6, 2e-6, 8)],
     "report row 1 must be a BenchRow, got (8, 2e-06, 2e-06, 8)"),
    (5, "report rows must be an iterable of BenchRow values, got 5"),
], ids=["ints", "a-tuple-row", "not-iterable"])
def test_growth_exponent_refuses_a_row_that_is_not_a_bench_row(rows, text):
    # [5, 6] raised a raw AttributeError: 'int' object has no attribute 'message_length'
    with pytest.raises(TypeError) as excinfo:
        growth_exponent(BenchReport(1, rows))
    assert str(excinfo.value) == text


@pytest.mark.parametrize("row, error, text", [
    (BenchRow(0, 1e-6, 1e-6, 4), ValueError, "report row 1's message_length must be at least 1, got 0"),
    (BenchRow("8", 1e-6, 1e-6, 4), TypeError, "report row 1's message_length must be an int, got '8'"),
    (BenchRow(8.0, 1e-6, 1e-6, 4), TypeError, "report row 1's message_length must be an int, got 8.0"),
    (BenchRow(8, "x", 1e-6, 4), TypeError, "report row 1's encrypt_seconds must be an int or float, got 'x'"),
    (BenchRow(8, True, 1e-6, 4), TypeError, "report row 1's encrypt_seconds must be an int or float, got True"),
    (BenchRow(8, float("nan"), 1e-6, 4), ValueError, "report row 1's encrypt_seconds must be finite, got nan"),
    (BenchRow(8, float("inf"), 1e-6, 4), ValueError, "report row 1's encrypt_seconds must be finite, got inf"),
    (BenchRow(8, -5.0, 0, 0), ValueError, "report row 1's encrypt_seconds must be at least 0, got -5.0"),
], ids=["length-0", "length-str", "length-float", "seconds-str", "seconds-bool", "seconds-nan", "seconds-inf",
        "seconds-negative"])
def test_growth_exponent_refuses_a_bad_row_field(row, error, text):
    # these raised math's "math domain error", its "must be real number,
    # not str" and a raw comparison TypeError, a NaN time returned nan, and
    # a negative time was clamped to 1e-9 before its log
    with pytest.raises(error) as excinfo:
        growth_exponent(BenchReport(1, [BenchRow(4, 1e-6, 1e-6, 4), row]))
    assert str(excinfo.value) == text


def test_avalanche_refuses_messages_over_the_length_limit():
    with pytest.raises(CipherError, match="^message is 6543 bytes, longer than the 6542-byte limit"):
        avalanche_test(keygen(1), 6543, 1, 1)
    with pytest.raises(InvalidKeyError):
        avalanche_test(KeyMaterial(IntMatrix.identity(2), 30000, 0, 0), 6543, 1, 1)


def test_a_huge_message_length_is_shown_short():
    # each used to raise the interpreter's int/str-limit ValueError, not CipherError
    message = ("message is a 16610-bit int bytes, longer than the 6542-byte limit "
               "(one distinct prime below 2**16 per byte)")
    for call in (lambda: avalanche_test(keygen(1), 10**5000, 1, 0),
                 lambda: benchmark([5, 10**5000], keygen(1), 1)):
        with pytest.raises(CipherError) as excinfo:
            call()
        assert type(excinfo.value) is CipherError and str(excinfo.value) == message


def test_benchmark_refuses_an_over_limit_length_before_timing(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "encrypt", lambda *args: calls.append(args))
    with pytest.raises(CipherError, match="^message is 6543 bytes, longer than the 6542-byte limit"):
        benchmark([4, 6543], keygen(1), 1)
    with pytest.raises(InvalidKeyError):
        benchmark([4, 6543], KeyMaterial(IntMatrix.identity(2), 30000, 0, 0), 1)
    assert calls == []
