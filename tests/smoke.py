"""Library smoke check for interpreters that have no pytest.

    PYTHONPATH=src python tests/smoke.py

Encrypts and decrypts the golden fixture through cli.main, checks the
ciphertext byte for byte, that cli.main refuses keygen --seed -1 with the
library's one error line and writes no key file, checks that a prime chunk from each of four
states, read at its even halfwords, gives the generator's draws in order
and ends where they end, checks prime_stream against the scalar reference
loop at lengths 0 to 6,542 for four seeds, and at 16 and 6,542 primes
after the draw-table cache is cleared, and so the primes that one key
object keeps over encrypt and decrypt of 4,000, 16 and 6,542 bytes,
integer_cube_root against bisection around 2**53, serialize_ciphertext
against its reference on 200 keygen envelopes, that an envelope's fields
are its pad count and blocks and one of 1,700 blocks is refused when
built, that a key, an envelope, a below() modulus, a pair list, a
bench report, a trapdoor argument (decode_symbol's max_code included), a
rotation's k or a composite map entry of the wrong type raises TypeError
naming the value, that a 12x12 determinant is exact within 1 s, that
a trial or repetition count over its cap is refused, that a matrix's
entries or rows, an envelope's blocks, benchmark's lengths or an encrypt
message that is not iterable (or not bytes-like), a dict as a composite
map and a byte_mode that is not a bool raise TypeError naming the value,
as do a parser given a value that is not str, bytes or bytearray, a bench
report row that is not a BenchRow, and a dict as benchmark's lengths, a
matrix's rows or a pair list, while benchmark still takes a generator,
that two values
past the int/str limit (a prime count, a Fibonacci index) are refused
with their documented classes and short messages, that validate_key names
a huge negative Fibonacci index by its sign and size, that encrypt refuses
an int message, known_plaintext_attack
against its reference on 200 pair sets and on two sets of ~4,000-digit
blocks (one genuine, one arbitrary), and
decrypt_block and apply_composite (with the map and the inverse map the
attack recovers) against theirs under 200 keygen keys, each on a genuine
ciphertext block and on one from a wrong key, decrypt's bulk decode
(which takes a float cube root) on every genuine root, and decrypt
against its reference under 200 keygen keys on a genuine envelope and on
one with a tampered encoded value, and checks one pinned avalanche
report. Prints one line and exits 0 on success.
"""

import contextlib
import dataclasses
import io
import random
import sys
import tempfile
import time
from pathlib import Path

from cubecipher import (
    CipherError,
    CiphertextEnvelope,
    BenchReport,
    CorruptCiphertextError,
    IntMatrix,
    KeyMaterial,
    Xorshift64Star,
    apply_composite,
    avalanche_test,
    benchmark,
    cli,
    decrypt,
    decode_symbol,
    decrypt_block,
    encode_symbol,
    encrypt,
    encrypt_block,
    fibonacci_q,
    growth_exponent,
    integer_cube_root,
    keygen,
    known_plaintext_attack,
    parse_ciphertext,
    parse_key,
    parse_pairs,
    prime_stream,
    rotation,
    serialize_ciphertext,
    serialize_pairs,
    validate_key,
)
from cubecipher.cipher import _primes
from cubecipher.encoding import _decode_all
from cubecipher.primes import _CHUNK_DRAWS, _draw_table, _fill_chunk
from spec import (
    attack_outcome,
    outcome,
    permuted_lu,
    reference_apply_composite,
    reference_attack,
    reference_decrypt,
    reference_decrypt_block,
    reference_encrypt,
    reference_integer_cube_root,
    reference_prime_stream,
    reference_serialize_ciphertext,
)

FIXTURES = Path(__file__).parent / "fixtures"
STREAM_LENGTHS = (0, 1, 16, 136, 256, 1024, 6542)
STREAM_SEEDS = (5198, 0, 1, (1 << 64) - 1)
CHUNK_STATES = (1, 3, 1 << 63, (1 << 64) - 1)
REUSED_KEY_LENGTHS = (4000, 16, 6542)


def check(ok, what):
    # not assert: the check must also run under python -O
    if not ok:
        sys.exit("smoke failed: %s" % what)


def refusal(error, function, *args):
    """The text of the error of class error that function(*args) raises,
    or None."""
    try:
        function(*args)
    except error as exc:
        return str(exc)
    return None


# avalanche_test(keygen(7), 257, 7, 11), as pinned in test_analysis.py
AVALANCHE_REPORT = (
    '{\n  "version": 1,\n  "trials": 7,\n  "message_length": 257,\n'
    '  "mean_changed_block_fraction": "1/65",\n'
    '  "mean_changed_bit_fraction": "60635520387823/7614857190588480",\n'
    '  "locality_histogram": {\n    "1": 7\n  },\n'
    '  "finding": "every single-character change stayed inside its own 2x2 block; '
    "this is the measured deviation from the full-diffusion ideal, under which one "
    'changed character should unpredictably alter the entire ciphertext"\n}\n'
)


def pair_set(rng, seed):
    """Arbitrary pairs, plaintexts of rank below 4, or genuine pairs under
    keygen(seed), one of them forged when seed is odd."""
    def block(span):
        return IntMatrix(2, 2, tuple(rng.randint(-span, span) for _ in range(4)))

    kind = seed % 3
    if kind == 0:
        span = rng.choice((1, 2, 10, 10**6))
        return [(block(span), block(span)) for _ in range(rng.randint(0, 7))]
    if kind == 1:
        base = [block(10**3) for _ in range(rng.randint(1, 3))]
        return [
            (IntMatrix(2, 2, tuple(sum(rng.randint(-3, 3) * b.entries[k] for b in base)
                                   for k in range(4))), block(10**3))
            for _ in range(rng.randint(1, 7))
        ]
    key = keygen(seed)
    pairs = [(b, encrypt_block(b, key)) for b in (block(10**6) for _ in range(rng.randint(4, 7)))]
    if seed % 2:
        pairs[rng.randrange(len(pairs))] = (block(10**6), block(10**6))
    return pairs


def tampered_envelope(rng, message, key, byte_mode):
    """The envelope of message under key with one encoded value replaced,
    mixed through the key's own map so that decoding meets the damage."""
    primes = prime_stream(key.prime_seed, len(message))
    ts = [encode_symbol(b, p) for b, p in zip(message, primes)]
    ts += [0] * (-len(ts) % 4)
    i = rng.randrange(len(ts))
    n = rng.choice((2, 65776, 189038, 189039, 10**1333))  # t(189039) is the first past 2**50
    ts[i] = rng.choice((ts[i] - 1, ts[i] + 1, 0, -ts[i] - 1, (1 << 50) - 1, 1 << 50,
                        (n * n * n - n) // 6, rng.randint(-(10**4000), 10**4000),
                        encode_symbol(rng.randrange(256), primes[i % len(primes)])))
    vectors = iter(ts)
    return CiphertextEnvelope(-len(message) % 4, [
        encrypt_block(IntMatrix(2, 2, v), key) for v in zip(vectors, vectors, vectors, vectors)
    ])


def main():
    with tempfile.TemporaryDirectory() as tmp:
        ct, out = Path(tmp) / "ct.json", Path(tmp) / "out.txt"
        key, message = FIXTURES / "golden_key.json", FIXTURES / "golden_message.txt"
        code = cli.main(["encrypt", "--key", str(key), "--in", str(message), "--out", str(ct)])
        check(code == 0, "encrypt exited %d" % code)
        check(ct.read_bytes() == (FIXTURES / "golden_ciphertext.json").read_bytes(),
              "golden ciphertext differs")
        code = cli.main(["decrypt", "--key", str(key), "--in", str(ct), "--out", str(out)])
        check(code == 0, "decrypt exited %d" % code)
        check(out.read_bytes() == message.read_bytes(), "golden message differs")
        # a seed's range is the library's rule, refused in its one line
        refused_key, err = Path(tmp) / "refused.json", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["keygen", "--seed", "-1", "--out", str(refused_key)])
        check(code == 2 and not refused_key.exists() and err.getvalue()
              == "cubecipher: error: seed must be in [0, 18446744073709551615], got -1\n",
              "keygen --seed -1 exited %d with %r" % (code, err.getvalue()))
    # a chunk's even halfwords are its draws in order
    for state in CHUNK_STATES:
        walker = Xorshift64Star(state)
        end, halfwords = _fill_chunk(state)
        draws = [walker.next_u64() & 0xFFFF for _ in range(_CHUNK_DRAWS)]
        check(list(halfwords[::2]) == draws and end == walker._state,
              "the chunk from state %d is not %d draws in order" % (state, _CHUNK_DRAWS))
    for seed in STREAM_SEEDS:
        expected = reference_prime_stream(seed, STREAM_LENGTHS[-1])
        for length in STREAM_LENGTHS:
            check(prime_stream(seed, length) == expected[:length],
                  "prime stream of seed %d, length %d, differs from the reference"
                  % (seed, length))
    # from an empty draw-table cache: a short stream, then one at the ceiling
    _draw_table.cache_clear()
    for length in (16, STREAM_LENGTHS[-1]):
        check(prime_stream(STREAM_SEEDS[-1], length) == expected[:length],
              "prime stream of length %d from an empty draw-table cache differs" % length)
    # one key object keeps the primes it draws: long, short, then longer
    key = dataclasses.replace(keygen(3), prime_seed=STREAM_SEEDS[-1])
    rng = random.Random(3)
    for length in REUSED_KEY_LENGTHS:
        message = bytes(rng.randrange(128) for _ in range(length))
        envelope = encrypt(message, key)
        check(list(_primes(key, length)) == expected[:length],
              "primes kept by a key, length %d, differ from the reference" % length)
        check(envelope == reference_encrypt(message, key) and decrypt(envelope, key) == message,
              "encrypt and decrypt under a reused key, length %d, differ from the reference"
              % length)
    # around 2**53, where float(n) stops being exact
    for n in [(1 << 53) + d for d in range(-3, 4)] + [k**3 + d for k in (208063, 208064, 208065)
                                                      for d in (-1, 0, 1)]:
        check(integer_cube_root(n) == reference_integer_cube_root(n),
              "integer_cube_root(%d) differs from bisection" % n)
    rng = random.Random(200)
    for seed in range(200):
        envelope = encrypt(bytes(rng.randrange(128) for _ in range(rng.randrange(0, 80))), keygen(seed))
        check(serialize_ciphertext(envelope) == reference_serialize_ciphertext(envelope),
              "envelope of keygen(%d) serializes differently" % seed)
    check([field.name for field in dataclasses.fields(CiphertextEnvelope)] == ["pad_count", "blocks"],
          "an envelope's fields are not its pad count and blocks")
    check(outcome(CiphertextEnvelope, 0, (IntMatrix(2, 2, (1, 2, 3, 4)),) * 1700)
          == (CorruptCiphertextError,
              "ciphertext carries 6800 symbols, more than the 6542-byte message limit"),
          "an envelope of 1,700 blocks is not refused when built")
    for function, args, text in (
            (encrypt, (b"a", "x"), "key must be a KeyMaterial, got 'x'"),
            (decrypt, ("x", keygen(1)), "envelope must be a CiphertextEnvelope, got 'x'"),
            (serialize_ciphertext, ("x",), "envelope must be a CiphertextEnvelope, got 'x'"),
            (Xorshift64Star(1).below, (2.5,), "below's n must be an int, got 2.5"),
            (known_plaintext_attack, ("x",), "attack pairs must be 2x2 IntMatrix values"),
            (serialize_pairs, ("x",), "attack pairs must be 2x2 IntMatrix values"),
            (known_plaintext_attack, (5,), "attack pairs must be 2x2 IntMatrix values, got 5"),
            (serialize_pairs, (5,), "attack pairs must be 2x2 IntMatrix values, got 5"),
            (apply_composite, (5, IntMatrix(2, 2, (1, 2, 3, 4))),
             "composite map must be a sequence of 16 ints or Fractions, got 5"),
            (growth_exponent, ("x",), "report must be a BenchReport, got 'x'"),
            (encode_symbol, (2.5, 3), "symbol code must be an int, got 2.5"),
            (decode_symbol, (79079, 13, 64.9), "max_code must be an int, got 64.9"),
            (integer_cube_root, (float("nan"),), "integer_cube_root's n must be an int, got nan"),
            (rotation, (2.0,), "rotation's k must be an int, got 2.0"),
            (apply_composite, ((0.5,) * 16, IntMatrix(2, 2, (1, 2, 3, 4))),
             "composite map entries must be ints or Fractions, got 0.5"),
            (apply_composite, (dict.fromkeys(range(16), 1), IntMatrix(2, 2, (1, 2, 3, 4))),
             "composite map must be a sequence of 16 ints or Fractions, got {0: 1, 1: 1, 2: 1, 3: 1, "
             "4: 1, 5: 1, 6: ... (102 characters)"),
            (IntMatrix, (2, 2, 5), "integer matrix entries must be an iterable of ints, got 5"),
            (IntMatrix.from_rows, (5,), "matrix rows must be an iterable of rows, got 5"),
            (IntMatrix.from_rows, ([5],), "matrix row 0 must be an iterable of ints, got 5"),
            (CiphertextEnvelope, (0, 5),
             "envelope blocks must be an iterable of 2x2 IntMatrix values, got 5"),
            (benchmark, (5, keygen(1), 1), "lengths must be an iterable of ints, got 5"),
            (benchmark, (None, keygen(1), 1), "lengths must be an iterable of ints, got None"),
            (encrypt, (None, keygen(1)), "encrypt takes bytes or a bytes-like value, got None"),
            (encrypt, ([65, 66], keygen(1)), "encrypt takes bytes or a bytes-like value, got [65, 66]"),
            (encrypt, (b"a", keygen(1), "no"), "byte_mode must be a bool, got 'no'"),
            (decrypt, (encrypt(b"a", keygen(1)), keygen(1), "no"),
             "byte_mode must be a bool, got 'no'"),
            (parse_key, (5,), "key file must be str, bytes or bytearray, got 5"),
            (parse_ciphertext, (None,), "ciphertext file must be str, bytes or bytearray, got None"),
            (parse_pairs, (5,), "pair file must be str, bytes or bytearray, got 5"),
            (growth_exponent, (BenchReport(1, [5, 6]),), "report row 0 must be a BenchRow, got 5"),
            (benchmark, ({4: 1}, keygen(1), 1), "lengths must be an iterable of ints, got {4: 1}"),
            (IntMatrix.from_rows, ({(1, 2): 0},),
             "matrix rows must be an iterable of rows, got {(1, 2): 0}"),
            (known_plaintext_attack, ({},), "attack pairs must be 2x2 IntMatrix values, got {}"),
            (serialize_pairs, ({},), "attack pairs must be 2x2 IntMatrix values, got {}")):
        check(refusal(TypeError, function, *args) == text,
              "%s%r does not raise TypeError(%r)" % (function.__name__, args, text))
    check([r.message_length for r in benchmark((x for x in (4, 8)), keygen(1), 1).rows] == [4, 8],
          "benchmark does not take its lengths from a generator")
    # cofactor expansion, which det used before, would take minutes here
    matrix, det = permuted_lu(random.Random(12), 12)
    start = time.perf_counter()
    check(matrix.det() == det and time.perf_counter() - start < 1.0,
          "a 12x12 determinant is wrong or takes over 1 s")
    check(outcome(prime_stream, 1, 10**5000)
          == (CipherError, "cannot emit a 16610-bit int distinct primes below 65536 "
              "(only 6542 exist)"),
          "a prime count past the int/str limit is not refused with a short CipherError")
    check(refusal(ValueError, fibonacci_q, -(10**5000))
          == "fibonacci_q's n must be in [1, 10000], got a negative 16610-bit int",
          "a Fibonacci index past the int/str limit is not refused with a short ValueError")
    # these counts ran until killed; the caps refuse them before any work
    for function, args, text in (
            (avalanche_test, (keygen(1), 8, 2**64, 0),
             "trials must be in [1, 1000000], got 18446744073709551616"),
            (benchmark, ([8], keygen(1), 10**4 + 1), "repetitions must be in [1, 10000], got 10001")):
        check(refusal(ValueError, function, *args) == text,
              "%s does not refuse an unbounded count with ValueError(%r)" % (function.__name__, text))
    check(validate_key(KeyMaterial(IntMatrix(2, 2, (1, 0, 0, 1)), -(10**5000), 0, 0))
          == (False, ["fib_index must be in [1, 10000], got a negative 16610-bit int"]),
          "validate_key does not name a huge negative Fibonacci index by its sign and size")
    check(refusal(TypeError, encrypt, 7, keygen(1)) == "encrypt takes bytes, not an int",
          "encrypt does not refuse an int message")
    for seed in range(200):
        pairs = pair_set(rng, seed)
        check(attack_outcome(pairs) == reference_attack(pairs),
              "attack on pair set %d differs from the reference" % seed)
    # entries where the elimination's exact divisions work on the largest numbers
    big = [IntMatrix(2, 2, tuple(rng.randint(-10**4000, 10**4000) for _ in range(4)))
           for _ in range(19)]
    for what, pairs in (("genuine", [(b, encrypt_block(b, keygen(5))) for b in big[:5]]),
                        ("arbitrary", list(zip(big[5:12], big[12:])))):
        check(attack_outcome(pairs) == reference_attack(pairs),
              "attack on %s ~4,000-digit pairs differs from the reference" % what)
    for seed in range(200):
        key, wrong = keygen(seed), keygen(seed + 200)
        # genuine encodings are (n^3 - n) / 6 with n up to 2**16 + 255
        plain = [IntMatrix(2, 2, tuple((n - 1) * n * (n + 1) // 6
                                       for n in (rng.randint(2, 65791) for _ in range(4))))
                 for _ in range(5)]
        pairs = [(b, encrypt_block(b, key)) for b in plain[:4]]
        forward = known_plaintext_attack(pairs).composite_map
        inverse = known_plaintext_attack([(c, b) for b, c in pairs]).composite_map
        for block in (encrypt_block(plain[4], key), encrypt_block(plain[4], wrong)):
            for k in (key, wrong):
                check(outcome(decrypt_block, block, k) == outcome(reference_decrypt_block, block, k),
                      "decrypt_block under keygen(%d) differs from the reference" % seed)
            for m, b in ((forward, plain[4]), (inverse, block)):
                check(outcome(apply_composite, m, b) == outcome(reference_apply_composite, m, b),
                      "apply_composite for keygen(%d) differs from the reference" % seed)
    # the bulk decode must take every genuine root from its float candidate
    ns = range(2, 65521 + 256)
    check(_decode_all([(n * n * n - n) // 6 for n in ns], [2] * len(ns), 65521 + 253)
          == [n - 2 for n in ns], "bulk decode misses a genuine root")
    for seed in range(200):
        key, byte_mode = keygen(seed), seed % 2 == 1
        top = 256 if byte_mode else 128
        message = bytes(rng.randrange(top) for _ in range(rng.randint(1, 80)))
        envelope = encrypt(message, key, byte_mode)
        check(decrypt(envelope, key, byte_mode) == reference_decrypt(envelope, key, byte_mode)
              == message, "decrypt under keygen(%d) differs from the reference" % seed)
        envelope = tampered_envelope(rng, message, key, byte_mode)
        check(outcome(decrypt, envelope, key, byte_mode)
              == outcome(reference_decrypt, envelope, key, byte_mode),
              "decrypt of a tampered envelope under keygen(%d) differs from the reference" % seed)
    check(avalanche_test(keygen(7), 257, 7, 11).to_json_text() == AVALANCHE_REPORT,
          "avalanche report differs")
    print("smoke ok: Python %s, golden fixture through cli.main, %d prime chunks, "
          "%d prime streams (2 from an empty draw-table cache), 3 round trips under one key, 16 cube roots, 200 envelopes, "
          "an envelope's two fields, a one-line CLI seed refusal, 38 refusals, lengths from a generator, a 12x12 determinant, "
          "202 attack pair sets (2 of ~4,000 digits), "
          "200 keys' un-mix and composite maps, 65,775 genuine roots, "
          "400 decrypts (200 tampered), 1 avalanche report"
          % (sys.version.split()[0], len(CHUNK_STATES), len(STREAM_SEEDS) * len(STREAM_LENGTHS) + 2))


if __name__ == "__main__":
    main()
