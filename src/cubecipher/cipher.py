"""The block cipher pipeline: key material, zero-padded 2x2 blocks, and the
Fibonacci / rotation / key-matrix mixing chain with its exact inverse.

Encryption of one 2x2 block B of trapdoor-encoded values computes

    E = transpose(B @ Q^n @ R) @ K

where Q^n is the Fibonacci matrix for the key's index, R the quarter-turn
rotation, and K the invertible secret key matrix. The chain is linear in
the entries of B: with vec() flattening a block row-major,

    vec(E) = M @ vec(B),    M = map(P, K),    P = Q^n @ R

where map(U, V) (_map_of) is the 4x4 map of X -> transpose(X @ U) @ V, with
map(U, V)[2i + j][2a + b] = U[b][i] * V[a][j]. This is the Hill-cipher
view of the scheme, and M is exactly what the analysis module's
known-plaintext attack recovers.

Decryption is the same kind of map: B = transpose(E @ K^-1) @ P^-1. P has
determinant (-1)^n, so P^-1 = (-1)^n adj(P) is an integer matrix, and
K^-1 = adj(K) / det(K) leaves one division:

    det(K) vec(B) = D @ vec(E),    D = map(adj K, P^-1)

Each call builds its integer map once (block_map is M) and one kernel
applies it to every block with plain integer multiply-adds. Decryption
divides all the mapped entries by det(K) in one pass checked by one sum,
so a wrong key is refused after the whole un-mix, not at its first bad
block. The quotient is the exact value of the chain of rational inverses,
so this accepts and rejects exactly the blocks that the rational chain
would, and fails at the same entry.

Everything is per block: there is no mixing across blocks, a property the
analysis module measures and reports as the scheme's diffusion limit.

Messages are processed as their byte sequences. The default mode is strict
7-bit ASCII and rejects bytes above 127; byte mode widens the symbol range
to [0, 255] so arbitrary binary data round-trips.

This cipher is a linear map per block and is NOT secure for real use; see
the README and the analysis module's known-plaintext attack.
"""

from array import array
from dataclasses import dataclass
from itertools import chain

from .encoding import ASCII_MAX, BYTE_MAX, _decode_all, _encode_all
from .errors import (
    CipherError,
    CorruptCiphertextError,
    InvalidKeyError,
    NonIntegralResultError,
    SymbolRangeError,
    _iterate,
    _require_instance,
    _require_int,
    _shown,
)
from .matrices import MAX_FIB_INDEX, IntMatrix, _set_field, fibonacci_q, rotation
from .primes import MAX_U64, PRIME_COUNT_BELOW_LIMIT, Xorshift64Star, prime_stream

__all__ = [
    "MAX_MESSAGE_BYTES",
    "KeyMaterial",
    "CiphertextEnvelope",
    "keygen",
    "validate_key",
    "block_map",
    "encrypt_block",
    "decrypt_block",
    "encrypt",
    "decrypt",
]

BLOCK_SYMBOLS = 4  # each 2x2 block carries four encoded values

# Longest message: each byte takes its own distinct prime below 2**16, and
# there are 6542 of those.
MAX_MESSAGE_BYTES = PRIME_COUNT_BELOW_LIMIT

_KEYGEN_MAX_TRIES = 10**6
_KEYGEN_ENTRY_SPAN = 199  # entries drawn from [-99, 99]
_KEYGEN_FIB_SPAN = 40  # fib_index drawn from [1, 40]


def _require_block(value, name):
    if not isinstance(value, IntMatrix):
        raise TypeError("%s must be an IntMatrix" % name)
    if (value.rows, value.cols) != (2, 2):
        raise ValueError("%s must be 2x2" % name)


@dataclass(frozen=True)
class KeyMaterial:
    """The composite private key.

    key_matrix: 2x2 invertible integer matrix (the mixing key K)
    fib_index: exponent of the Fibonacci matrix, at least 1
    quarter_turns: rotation count, stored mod 4
    prime_seed: unsigned 64-bit seed of the per-symbol prime stream

    All four fields are secret; decryption needs every one of them.
    Construction checks shapes and ranges only; value-level validity
    (invertibility, positive index) is validate_key's job so that invalid
    keys can be represented and diagnosed.

    A key keeps the primes drawn under it: encrypt, decrypt and
    avalanche_test draw the prime stream once per key object, up to the
    longest message seen, and reuse that prefix, at most 13 KiB (2 bytes
    per prime). The prefix is not a field, so equality, hash, repr and the
    key file are those of the four fields alone; copies and pickles carry
    it, and dataclasses.replace starts a key without one.
    """

    key_matrix: IntMatrix
    fib_index: int
    quarter_turns: int
    prime_seed: int

    def __post_init__(self):
        _require_block(self.key_matrix, "key_matrix")
        _require_int(self.fib_index, "fib_index")
        _require_int(self.quarter_turns, "quarter_turns")
        _require_int(self.prime_seed, "prime_seed", 0, MAX_U64)
        object.__setattr__(self, "quarter_turns", self.quarter_turns % 4)


@dataclass(frozen=True, init=False)
class CiphertextEnvelope:
    """A message's ciphertext: its pad count and its ordered 2x2 blocks.

    The original message length is 4 * len(blocks) - pad_count. The
    constructor checks all framing, so decrypt and serialize_ciphertext
    accept every envelope: more than MAX_MESSAGE_BYTES symbols raises
    CorruptCiphertextError. The version tag belongs to the file formats.
    """

    pad_count: int
    blocks: tuple

    def __init__(self, pad_count, blocks):
        if type(blocks) is not tuple:  # a tuple is kept, not copied
            blocks = tuple(_iterate(blocks, "envelope blocks must be an iterable of 2x2 IntMatrix values"))
        _require_int(pad_count, "pad_count", 0, BLOCK_SYMBOLS - 1)
        if not blocks and pad_count != 0:
            raise ValueError("an empty envelope cannot carry padding")
        for b in blocks:
            if not isinstance(b, IntMatrix) or b.rows != 2 or b.cols != 2:
                raise TypeError("envelope blocks must be 2x2 IntMatrix values")
        _require_symbol_count(BLOCK_SYMBOLS * len(blocks) - pad_count)
        # each field set once, as IntMatrix sets its own
        _set_field(self, "pad_count", pad_count)
        _set_field(self, "blocks", blocks)


def validate_key(key: KeyMaterial):
    """Check key material, returning (ok, problems).

    ok is True iff the key matrix is invertible and the Fibonacci index is
    in [1, MAX_FIB_INDEX]; problems lists a message naming each failed
    check. A key that is not a KeyMaterial raises TypeError.
    """
    _require_instance(key, KeyMaterial, "key")
    problems = []
    if key.key_matrix.det() == 0:
        problems.append("key matrix is singular (determinant 0), it has no inverse")
    n = key.fib_index
    if not 1 <= n <= MAX_FIB_INDEX:
        problems.append("fib_index must be in [1, %d], got %s" % (MAX_FIB_INDEX, _shown(n)))
    return (not problems, problems)


def _require_valid(key):
    ok, problems = validate_key(key)
    if not ok:
        raise InvalidKeyError("; ".join(problems))


def keygen(rng_seed: int) -> KeyMaterial:
    """Deterministically derive a valid key from a 64-bit seed.

    Draws 2x2 matrices with entries in [-99, 99] (row-major draw order)
    and rejects until the determinant is nonzero, then draws fib_index
    from [1, 40], quarter_turns from [0, 3], and a fresh 64-bit prime
    seed, in that order. Same seed, same key, on every platform.
    """
    rng = Xorshift64Star(rng_seed)
    for _ in range(_KEYGEN_MAX_TRIES):
        entries = tuple(e - 99 for e in rng.below_many(_KEYGEN_ENTRY_SPAN, 4))
        matrix = IntMatrix(2, 2, entries)
        if matrix.det() != 0:
            break
    else:
        raise RuntimeError("keygen failed to find an invertible matrix in 10^6 draws")
    fib_index = rng.below(_KEYGEN_FIB_SPAN) + 1
    quarter_turns = rng.below(4)
    prime_seed = rng.next_u64()
    return KeyMaterial(matrix, fib_index, quarter_turns, prime_seed)


def _require_symbol_count(count):
    """Refuse a ciphertext of more symbols than the longest message."""
    if count > MAX_MESSAGE_BYTES:
        raise CorruptCiphertextError(
            "ciphertext carries %d symbols, more than the %d-byte message limit"
            % (count, MAX_MESSAGE_BYTES)
        )


def _require_length(length):
    if length > MAX_MESSAGE_BYTES:
        raise CipherError(
            "message is %s bytes, longer than the %d-byte limit (one distinct prime "
            "below 2**16 per byte)" % (_shown(length), MAX_MESSAGE_BYTES)
        )


def _primes(key, count):
    """The first count primes of key's stream, drawn once per key object.

    The key keeps the longest prefix drawn so far, as an array of 16-bit
    primes, set in one assignment; a longer request draws the stream anew,
    which gives the same primes draw for draw at any count. Two threads
    may both draw, and whichever prefix is kept is correct, so no lock is
    needed.
    """
    drawn = getattr(key, "_drawn_primes", ())
    if count > len(drawn):
        drawn = array("H", prime_stream(key.prime_seed, count))
        object.__setattr__(key, "_drawn_primes", drawn)
    return drawn[:count]


def _strip_pad(flat, pad_count):
    """flat, the row-major entries of whole blocks, with its last
    pad_count entries removed in place. Each pad slot must hold 0: a
    nonzero one (tampering or a wrong key) raises CorruptCiphertextError
    naming the slot, the block and the value's bit length, not its digits."""
    if pad_count:
        for offset, value in enumerate(flat[-pad_count:]):
            if value != 0:
                position = len(flat) - pad_count + offset
                raise CorruptCiphertextError(
                    "pad slot %d in block %d holds a nonzero %d-bit value, expected 0"
                    % (position % BLOCK_SYMBOLS, position // BLOCK_SYMBOLS, value.bit_length())
                )
        del flat[-pad_count:]
    return flat


def _map_of(u, v):
    """Row-major entries of the 4x4 map of X -> transpose(X @ U) @ V on
    row-major flattened 2x2 blocks, for U, V given as row-major 4-tuples."""
    # transpose(X @ U) @ V [i][j] = sum over (a, b) of X[a][b] * U[b][i] * V[a][j]
    return tuple(
        u[2 * b + i] * v[2 * a + j] for i in (0, 1) for j in (0, 1) for a in (0, 1) for b in (0, 1)
    )


def _chain(key):
    """Row-major entries of P = Q^n @ R."""
    return (fibonacci_q(key.fib_index) @ rotation(key.quarter_turns)).entries


def _block_map(key):
    """Row-major entries of the 4x4 M with vec(E) = M @ vec(B)."""
    return _map_of(_chain(key), key.key_matrix.entries)


def _unmix_map(key):
    """(D, det K), D the integer map with D @ vec(E) = det K * vec(B): the
    map of X -> transpose(X @ adj K) @ P^-1, P^-1 = (-1)^n adj P."""
    s = (-1) ** key.fib_index
    p00, p01, p10, p11 = _chain(key)
    k00, k01, k10, k11 = key.key_matrix.entries
    d = _map_of((k11, -k01, -k10, k00), (s * p11, -s * p01, -s * p10, s * p00))
    return d, key.key_matrix.det()


def _map_blocks(m, vectors):
    """Lazily, m @ v for each row-major 4-tuple v of vectors, m the
    row-major entries of a 4x4 integer map."""
    (m00, m01, m02, m03, m10, m11, m12, m13,
     m20, m21, m22, m23, m30, m31, m32, m33) = m
    return (
        (
            m00 * b0 + m01 * b1 + m02 * b2 + m03 * b3,
            m10 * b0 + m11 * b1 + m12 * b2 + m13 * b3,
            m20 * b0 + m21 * b1 + m22 * b2 + m23 * b3,
            m30 * b0 + m31 * b1 + m32 * b2 + m33 * b3,
        )
        for b0, b1, b2, b3 in vectors
    )


def _divide_exactly(values, d, name_block=False):
    """The flat row-major entries of one or more 2x2 blocks, each divided
    by d, as a list. Floor remainders share d's sign, so one compare of
    sums finds whether any is nonzero; then NonIntegralResultError names
    the first such entry, "entry (r, c) is not an integer", after "block
    b: " when name_block is set. The value is left out: it can be too long
    to print, and it would leak a divisor of d."""
    quotients = [v // d for v in values]
    if sum(values) != d * sum(quotients):
        i = next(i for i, (v, q) in enumerate(zip(values, quotients)) if v != d * q)
        block, entry = divmod(i, BLOCK_SYMBOLS)
        text = "entry (%d, %d) is not an integer" % divmod(entry, 2)
        raise NonIntegralResultError("block %d: %s" % (block, text) if name_block else text)
    return quotients


def block_map(key: KeyMaterial) -> IntMatrix:
    """The 4x4 integer map M of the block layer: vec(E) = M @ vec(B), with
    vec() flattening a 2x2 block row-major."""
    _require_valid(key)
    return IntMatrix(4, 4, _block_map(key))


def encrypt_block(block: IntMatrix, key: KeyMaterial) -> IntMatrix:
    """Encrypt one 2x2 block: transpose(block @ Q^n @ R) @ K, all exact."""
    _require_block(block, "block")
    _require_valid(key)
    return IntMatrix(2, 2, next(_map_blocks(_block_map(key), (block.entries,))))


def decrypt_block(block: IntMatrix, key: KeyMaterial) -> IntMatrix:
    """Invert encrypt_block; raises NonIntegralResultError under a wrong key."""
    _require_block(block, "block")
    _require_valid(key)
    d, det_k = _unmix_map(key)
    return IntMatrix(2, 2, _divide_exactly(next(_map_blocks(d, (block.entries,))), det_k))


def _mix(message, m, primes):
    """(pad_count, the mixed row-major 4-tuple of each block) of message,
    given the key's block map m and prime stream."""
    ts = _encode_all(message, primes)
    pad_count = (-len(ts)) % BLOCK_SYMBOLS
    ts += [0] * pad_count  # a genuine t is >= 1, so a pad 0 never collides with data
    it = iter(ts)
    return pad_count, list(_map_blocks(m, zip(it, it, it, it)))


def encrypt(message: bytes, key: KeyMaterial, byte_mode: bool = False) -> CiphertextEnvelope:
    """Encrypt a byte string under the composite key.

    message is taken through the buffer protocol: bytes, bytearray,
    memoryview or array, never a list or iterator of ints (TypeError).
    Strict mode (the default) rejects bytes above 127 and names the first
    offending index; byte mode accepts the full [0, 255] range, and
    byte_mode must be a bool (TypeError). One prime
    is drawn per byte position from the key's seeded stream, so a message
    longer than MAX_MESSAGE_BYTES raises CipherError, after the key check
    and before any other work. The key object keeps the primes it draws
    (see KeyMaterial), so later calls under it draw the stream again only
    for a longer message.
    """
    if isinstance(message, str):
        raise TypeError("encrypt takes bytes; encode the string first")
    if isinstance(message, int):
        raise TypeError("encrypt takes bytes, not an int")
    try:
        message = memoryview(message).tobytes()
    except TypeError:
        raise TypeError("encrypt takes bytes or a bytes-like value, got %s" % _shown(message)) from None
    _require_instance(byte_mode, bool, "byte_mode")
    _require_valid(key)
    _require_length(len(message))
    if not byte_mode and not message.isascii():
        i = next(i for i, b in enumerate(message) if b > ASCII_MAX)
        raise SymbolRangeError(
            "byte 0x%02x at index %d is not 7-bit ASCII; enable byte mode" % (message[i], i)
        )
    pad_count, vectors = _mix(message, _block_map(key), _primes(key, len(message)))
    return CiphertextEnvelope(pad_count, [IntMatrix(2, 2, v) for v in vectors])


def decrypt(envelope: CiphertextEnvelope, key: KeyMaterial, byte_mode: bool = False) -> bytes:
    """Invert encrypt. Errors name the failing block or symbol index.

    Raises NonIntegralResultError (wrong key), CorruptCiphertextError
    (nonzero padding; the envelope checked its framing when built),
    CorruptValueError or SymbolRangeError (per-symbol decode failure),
    and TypeError for a byte_mode that is not a bool. As in encrypt, the
    key object keeps the primes it draws (see KeyMaterial), so a decrypt
    after an encrypt of the same message under one key object draws no
    primes.
    """
    _require_valid(key)
    _require_instance(envelope, CiphertextEnvelope, "envelope")
    _require_instance(byte_mode, bool, "byte_mode")
    d, det_k = _unmix_map(key)
    mapped = list(chain.from_iterable(_map_blocks(d, (b.entries for b in envelope.blocks))))
    ts = _strip_pad(_divide_exactly(mapped, det_k, name_block=True), envelope.pad_count)
    return bytes(_decode_all(ts, _primes(key, len(ts)), BYTE_MAX if byte_mode else ASCII_MAX))
