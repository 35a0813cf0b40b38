"""Executable references for the program's fast paths.

Each reference_* function here writes out a documented behaviour in its
plainest form; the tests check the fast path against it, byte for byte.
attack_outcome puts the fast attack's result in reference_attack's terms,
outcome puts any call's result or CipherError in comparable terms, and
permuted_lu builds a matrix whose determinant is known without computing it.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

from cubecipher import (
    PRIME_LIMIT,
    AvalancheReport,
    CipherError,
    CiphertextEnvelope,
    CorruptCiphertextError,
    CorruptValueError,
    FormatError,
    InsufficientPairsError,
    IntMatrix,
    NonIntegralResultError,
    SymbolRangeError,
    Xorshift64Star,
    decode_symbol,
    fibonacci_q,
    known_plaintext_attack,
    prime_stream,
    rotation,
)
from cubecipher.formats import (
    _format_decimal,
    _load_document,
    _parse_block_entries,
    dumps_canonical,
)

MASK64 = (1 << 64) - 1

# Witness set sufficient for a deterministic answer on every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**64: the
    reference the sieve table behind prime_stream is checked against."""
    if n >= 1 << 64:
        raise ValueError("deterministic witness set only covers n < 2**64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _xorshift_outputs(seed):
    """Independent transcription of the xorshift64* recurrence: its
    outputs under seed, without end."""
    state = seed if seed != 0 else 0x9E3779B97F4A7C15
    while True:
        state ^= state >> 12
        state ^= (state << 25) & MASK64
        state ^= state >> 27
        yield (state * 0x2545F4914F6CDD1D) & MASK64


def xorshift_reference(seed, count):
    """The first count xorshift64* outputs under seed."""
    return list(itertools.islice(_xorshift_outputs(seed), count))


@functools.cache
def _miller_rabin_verdicts():
    """is_prime of every candidate below PRIME_LIMIT, one Miller-Rabin test
    per value, made once per process: a ceiling stream draws ~650,000
    candidates, each value about ten times."""
    return bytes(map(is_prime, range(PRIME_LIMIT)))


def reference_prime_stream(seed, count):
    """The scalar rejection loop, one draw at a time, as prime_stream ran
    before its sieve table and its draw table: Miller-Rabin's verdict on
    every candidate, a set for repeats. It steps its own state, as
    xorshift_reference does; Xorshift64Star only checks the seed."""
    Xorshift64Star(seed)
    prime = _miller_rabin_verdicts()
    out = []
    seen = set()
    outputs = _xorshift_outputs(seed)
    while len(out) < count:
        candidate = next(outputs) & (PRIME_LIMIT - 1)
        if candidate in seen or not prime[candidate]:
            continue
        seen.add(candidate)
        out.append(candidate)
    return out


def reference_encode_symbol(code, prime):
    """encode_symbol as one call per symbol computed it before the bulk
    _encode_all."""
    if code < 0:
        raise ValueError("symbol code must be nonnegative")
    if prime < 2:
        raise ValueError("prime must be at least 2")
    n = code + prime
    return (n - 1) * n * (n + 1) // 6


def reference_integer_cube_root(n):
    """The bisection integer_cube_root used before the Newton iteration."""
    if n < 8:
        return 0 if n == 0 else 1
    lo = 0
    hi = 1 << (n.bit_length() // 3 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def reference_solve_depressed_cubic(t):
    """The binary-search solve_depressed_cubic used before the closed form,
    returning None where it raised NoIntegerRootError."""
    if t < 1:
        return None
    target = 6 * t
    lo = 2
    hi = reference_integer_cube_root(target) + 2
    while lo <= hi:
        mid = (lo + hi) // 2
        value = mid * mid * mid - mid
        if value == target:
            return mid
        if value < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def reference_encrypt_block(block, key):
    """The block chain spelled out with IntMatrix products, as encrypt_block
    computed it before the per-key map."""
    q = fibonacci_q(key.fib_index)
    r = rotation(key.quarter_turns)
    return ((block @ q) @ r).transpose() @ key.key_matrix


def reference_encrypt(message, key):
    """encrypt before the per-key map: encode, zero-pad to whole 2x2
    blocks, chain per block."""
    primes = prime_stream(key.prime_seed, len(message))
    ts = [reference_encode_symbol(b, p) for b, p in zip(message, primes)]
    pad_count = -len(ts) % 4
    ts += [0] * pad_count
    blocks = [IntMatrix(2, 2, ts[i : i + 4]) for i in range(0, len(ts), 4)]
    return CiphertextEnvelope(pad_count, tuple(reference_encrypt_block(b, key) for b in blocks))


def _mul(a, b):
    """Product of two 2x2 matrices given as row-major 4-tuples."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _transpose(m):
    return (m[0], m[2], m[1], m[3])


def _inverse(m):
    """Exact rational inverse of a 2x2 row-major 4-tuple."""
    a, b, c, d = m
    det = Fraction(a * d - b * c)
    return (d / det, -b / det, -c / det, a / det)


def reference_decrypt_block(block, key):
    """The un-mix decrypt_block used before its integer form: the chain of
    exact rational inverses, transpose(E @ K^-1) @ R^-1 @ Q^-n, then the
    integrality check, in plain Fraction arithmetic."""
    q = fibonacci_q(key.fib_index).entries
    r = rotation(key.quarter_turns).entries
    x = _transpose(_mul(block.entries, _inverse(key.key_matrix.entries)))
    x = _mul(_mul(x, _transpose(r)), _inverse(q))
    for idx, value in enumerate(x):
        if value.denominator != 1:
            raise NonIntegralResultError("entry (%d, %d) is not an integer" % divmod(idx, 2))
    return IntMatrix(2, 2, tuple(value.numerator for value in x))


def reference_decrypt(envelope, key, byte_mode=False):
    """decrypt of an envelope within the length limit, with every
    block un-mixed by reference_decrypt_block and every error prefixed by
    the block or symbol it names."""
    blocks = []
    for i, block in enumerate(envelope.blocks):
        try:
            blocks.append(reference_decrypt_block(block, key))
        except NonIntegralResultError as exc:
            raise NonIntegralResultError("block %d: %s" % (i, exc)) from None
    ts = [e for block in blocks for e in block.entries]
    for slot in range(4 - envelope.pad_count, 4):
        value = blocks[-1].entries[slot]
        if value != 0:
            raise CorruptCiphertextError(
                "pad slot %d in block %d holds a nonzero %d-bit value, expected 0"
                % (slot, len(blocks) - 1, value.bit_length()))
    del ts[len(ts) - envelope.pad_count:]
    out = bytearray()
    for i, (t, p) in enumerate(zip(ts, prime_stream(key.prime_seed, len(ts)))):
        try:
            out.append(decode_symbol(t, p, 255 if byte_mode else 127))
        except (CorruptValueError, SymbolRangeError) as exc:
            raise type(exc)("symbol %d: %s" % (i, exc)) from None
    return bytes(out)


def _apply(m, v):
    """The 4x4 row-major map m applied to the 4-vector v."""
    return tuple(sum(m[4 * i + k] * v[k] for k in range(4)) for i in range(4))


def reference_apply_composite(composite, block):
    """apply_composite before its integer kernel: the map applied in
    Fraction arithmetic, then every entry of the result checked for a
    denominator."""
    if len(composite) != 16:
        raise ValueError("composite map must be 4x4")
    if not isinstance(block, IntMatrix) or (block.rows, block.cols) != (2, 2):
        raise ValueError("block must be 2x2")
    out = []
    for idx, value in enumerate(_apply(composite, block.entries)):
        if value.denominator != 1:
            raise NonIntegralResultError("entry (%d, %d) is not an integer" % divmod(idx, 2))
        out.append(value.numerator)
    return IntMatrix(2, 2, tuple(out))


def outcome(function, *args):
    """function(*args), or the class and message of the CipherError it
    raised."""
    try:
        return function(*args)
    except CipherError as exc:
        return type(exc), str(exc)


def reference_serialize_ciphertext(envelope):
    """The ciphertext file as its definition states it: dumps_canonical of
    the {"version", "pad_count", "blocks"} object, each block entry written
    by _format_decimal (so an entry too long for str() raises its
    FormatError, first entry first), with version 1."""
    obj = {
        "version": 1,
        "pad_count": envelope.pad_count,
        "blocks": [
            [_format_decimal(e, "ciphertext file: blocks", i, j) for j, e in enumerate(b.entries)]
            for i, b in enumerate(envelope.blocks)
        ],
    }
    return dumps_canonical(obj)


def reference_parse_ciphertext(text):
    """parse_ciphertext before its bulk pass: every block entry checked
    and converted one at a time by _parse_block_entries, so the first bad
    block or entry raises its FormatError."""
    obj = _load_document(text, "ciphertext file", ("pad_count", "blocks"))
    pad_count = obj["pad_count"]
    if not isinstance(pad_count, int) or isinstance(pad_count, bool) or not 0 <= pad_count <= 3:
        raise FormatError("ciphertext file: pad_count must be an integer in [0, 3]")
    blocks_raw = obj["blocks"]
    if not isinstance(blocks_raw, list):
        raise FormatError("ciphertext file: blocks must be a list")
    if not blocks_raw and pad_count != 0:
        raise FormatError("ciphertext file: an empty block list cannot carry padding")
    return CiphertextEnvelope(
        pad_count,
        [IntMatrix(2, 2, _parse_block_entries(raw, "ciphertext file: blocks", i))
         for i, raw in enumerate(blocks_raw)],
    )


def reference_avalanche_test(key, message_length, trials, rng_seed):
    """avalanche_test as it reads in its documentation: each trial
    encrypts both messages into full envelopes, counts the blocks whose
    entries differ, and compares the bits of the two ciphertext files,
    the shorter zero-padded to the longer; each mean is a sum of
    Fractions. Envelopes and files come from reference_encrypt and
    reference_serialize_ciphertext, so a fault shared by encrypt and
    avalanche_test still shows."""
    rng = Xorshift64Star(rng_seed)
    histogram = {}
    block_fraction = bit_fraction = Fraction(0)
    for _ in range(trials):
        message = rng.below_many(128, message_length)
        position = rng.below(message_length)
        bump = 1 + rng.below(127)
        flipped = message.copy()
        flipped[position] = (flipped[position] + bump) % 128
        env_a, env_b = reference_encrypt(message, key), reference_encrypt(flipped, key)
        changed = sum(1 for x, y in zip(env_a.blocks, env_b.blocks) if x.entries != y.entries)
        histogram[changed] = histogram.get(changed, 0) + 1
        block_fraction += Fraction(changed, len(env_a.blocks))
        text_a = reference_serialize_ciphertext(env_a).encode()
        text_b = reference_serialize_ciphertext(env_b).encode()
        n = max(len(text_a), len(text_b))
        bits = bin(int.from_bytes(text_a.ljust(n, b"\0"), "big")
                   ^ int.from_bytes(text_b.ljust(n, b"\0"), "big")).count("1")
        bit_fraction += Fraction(bits, 8 * n)
    if max(histogram) <= 1:
        finding = (
            "every single-character change stayed inside its own 2x2 block; "
            "this is the measured deviation from the full-diffusion ideal, "
            "under which one changed character should unpredictably alter "
            "the entire ciphertext"
        )
    else:
        finding = "single-character changes touched at most %d blocks" % max(histogram)
    return AvalancheReport(
        trials=trials,
        message_length=message_length,
        mean_changed_block_fraction=block_fraction / trials,
        mean_changed_bit_fraction=bit_fraction / trials,
        locality_histogram=histogram,
        finding=finding,
    )


def reference_det(rows):
    """Determinant of a square matrix given as a list of rows, by cofactor
    expansion along the first row: exact, and factorial in the size."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * entry * reference_det(minor)
    return total


def permuted_lu(rng, n):
    """(A, det A) for a random n x n A = P @ L @ U: P a permutation, L unit
    lower triangular, U upper triangular, so det A = sign(P) * prod(diag U)."""
    diagonal = [rng.choice((-1, 1)) * rng.randint(1, 99) for _ in range(n)]
    lower = IntMatrix(n, n, tuple(1 if i == j else rng.randint(-99, 99) if j < i else 0
                                  for i in range(n) for j in range(n)))
    upper = IntMatrix(n, n, tuple(diagonal[i] if i == j else rng.randint(-99, 99) if j > i else 0
                                  for i in range(n) for j in range(n)))
    order = rng.sample(range(n), n)
    permutation = IntMatrix(n, n, tuple(int(j == order[i]) for i in range(n) for j in range(n)))
    sign = (-1) ** sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    return permutation @ lower @ upper, sign * math.prod(diagonal)


def _gram_independent(vectors):
    """True iff the integer vectors are linearly independent: their Gram
    determinant det(V V^T) is nonzero."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    return reference_det(gram) != 0


def _adjugate_inverse(rows):
    """Exact inverse of an integer 4x4 matrix as adj / det, by cofactors."""
    det = reference_det(rows)

    def cofactor(i, j):
        minor = [[rows[r][c] for c in range(4) if c != j] for r in range(4) if r != i]
        return (-1) ** (i + j) * reference_det(minor)

    return [[Fraction(cofactor(j, i), det) for j in range(4)] for i in range(4)]


def reference_attack(pairs):
    """The attack restated without elimination: keep a pair when its
    plaintext vector is independent of those kept, then M = C @ P^-1 for
    the 4x4 matrices P, C whose columns are the kept vec(B), vec(E).
    Returns (M as a 16-tuple, verified, JSON text), the text None when an
    entry is too long for str(), or the rank reached when it stays below
    4."""
    kept = []
    for plain, cipher in pairs:
        if _gram_independent([p.entries for p, _ in kept] + [plain.entries]):
            kept.append((plain, cipher))
            if len(kept) == 4:
                break
    if len(kept) < 4:
        return len(kept)
    p_inv = _adjugate_inverse([[kept[c][0].entries[r] for c in range(4)] for r in range(4)])
    m = [
        [sum(kept[k][1].entries[i] * p_inv[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    verified = all(
        [sum(m[i][k] * plain.entries[k] for k in range(4)) for i in range(4)]
        == list(cipher.entries)
        for plain, cipher in pairs
    )
    try:
        text = json.dumps(
            {
                "version": 1,
                "pairs_used": len(pairs),
                "verified": verified,
                "composite_map": [[str(e) for e in row] for row in m],
            },
            indent=2,
        ) + "\n"
    except ValueError:  # an entry past Python's int/str conversion limit
        text = None
    return tuple(e for row in m for e in row), verified, text


def attack_outcome(pairs):
    """known_plaintext_attack in reference_attack's terms."""
    try:
        result = known_plaintext_attack(pairs)
    except InsufficientPairsError as exc:
        return exc.rank
    try:
        text = result.to_json_text()
    except FormatError:
        text = None
    return result.composite_map, result.verified, text
