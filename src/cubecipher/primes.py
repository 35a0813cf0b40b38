"""Seeded, reproducible prime streams for the cipher's per-symbol primes.

The generator is pinned down to the bit so that independent implementations
of the wire format, in any language, derive identical prime sequences from
the same seed. Two pieces make that work:

* Xorshift64Star, the xorshift64* generator with its published constants.
  State is a single unsigned 64-bit word; one step is

      state ^= state >> 12
      state ^= (state << 25) mod 2**64
      state ^= state >> 27
      output = (state * 0x2545F4914F6CDD1D) mod 2**64

  A seed of 0 (a fixed point of the raw recurrence) is replaced by the
  constant 0x9E3779B97F4A7C15. Test vectors live in the test suite and in
  the README appendix.

* A sieve of Eratosthenes over [0, 2**16), built once at import as a
  64 KiB lookup table. prime_stream keeps a copy of it per call, clears
  each prime's slot as the prime is emitted, and so rejects composites and
  repeats with one table lookup per draw.

prime_stream's candidates are the low 16 bits of successive outputs, and
those depend only on the low 16 bits of the state: low16(low16(state) *
0xDD1D). The step is linear over GF(2), a 64x64 bit matrix A, so the
states of a chunk of 512 draws from state s are XORs, over the set bits b
of s, of A**k * e_b, e_b the unit vector of bit b. One draw table, built
on first use by stepping the 64 unit vectors (64 lanes of one int, all
advanced at once by masked shifts) and cached, holds row b, low16(A**k *
e_b) for k = 1..512 in 32-bit lanes, and jump b, A**512 * e_b (~141 KiB
in all). A chunk XORs the rows and jumps of its start state's set bits,
multiplies the rows' XOR once by 0xDD1D (each lane's product stays below
2**32, in its lane) and writes it as one little-endian array of 16-bit
halfwords, byte-swapped once on a big-endian host: the chunk's draw k,
counted from 0, is halfword 2 k on every host, and the jumps' XOR is the
state the next chunk starts from. prime_stream filters the even halfwords
against the per-call sieve copy. The stream is the one the scalar loop
gives, draw for draw; the test suite keeps that loop as its reference,
with a Miller-Rabin test to check the sieve against.

This generator is NOT cryptographically secure and is not meant to be; the
contract here is cross-platform determinism, not unpredictability.
"""

import functools
import sys
from array import array
from math import isqrt

from .errors import CipherError, _require_int, _shown

__all__ = ["Xorshift64Star", "prime_stream", "PRIME_LIMIT"]

# 2**64 - 1: the largest seed, and the mask of one generator step
MAX_U64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_MULTIPLIER_LOW16 = _MULTIPLIER & 0xFFFF  # 0xDD1D, all that a candidate needs of it
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15

# Primes are drawn from [2, 2**16); there are exactly 6542 of them.
PRIME_LIMIT = 1 << 16
PRIME_COUNT_BELOW_LIMIT = 6542

# A chunk of prime_stream is _CHUNK_DRAWS draws, 4 bytes each in the draw table.
_CHUNK_DRAWS = 512


def _sieve(limit):
    """bytes of length limit whose entry n is 1 iff n is prime."""
    table = bytearray([1]) * limit
    table[0] = table[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return bytes(table)


_PRIME_TABLE = _sieve(PRIME_LIMIT)


def _pack(words):
    """64-bit words packed as lanes of one int, the first word lowest."""
    return int.from_bytes(b"".join(w.to_bytes(8, "little") for w in words), "little")


# Lane masks for up to 64 lanes, built once. They serve any width:
# & of two nonnegative ints is as long as the shorter one, and the bits a
# left shift by 25 pushes out of the top lane land in bits 0-24 of the
# lane above it, which _LEFT25 clears.
_RIGHT12 = _pack([MAX_U64 >> 12] * 64)
_LEFT25 = _pack([MAX_U64 << 25 & MAX_U64] * 64)
_RIGHT27 = _pack([MAX_U64 >> 27] * 64)
_LOW16 = _pack([0xFFFF] * 64)


def _xorshift(state):
    """One xorshift64* state step of every 64-bit lane of state (at most
    64 lanes; a scalar state is one lane)."""
    state ^= (state >> 12) & _RIGHT12
    state ^= (state << 25) & _LEFT25
    state ^= (state >> 27) & _RIGHT27
    return state


class Xorshift64Star:
    """xorshift64* PRNG with the published shift triple (12, 25, 27)."""

    def __init__(self, seed: int):
        _require_int(seed, "seed", 0, MAX_U64)
        self._state = seed if seed != 0 else _ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        self._state = s = _xorshift(self._state)
        return (s * _MULTIPLIER) & MAX_U64

    def below(self, n: int) -> int:
        """Next value reduced mod n (n >= 1). Deterministic, mildly biased."""
        _require_int(n, "below's n", 1)
        return self.next_u64() % n

    def below_many(self, n: int, count: int) -> list:
        """The next count values of below(n), as a list; one loop with
        _xorshift's step inlined, the same values and the same end state."""
        _require_int(n, "below's n", 1)
        _require_int(count, "below_many's count", 0)
        s = self._state
        mask, multiplier = MAX_U64, _MULTIPLIER  # locals: read once per call
        out = []
        append = out.append
        for _ in range(count):
            s ^= s >> 12
            s ^= (s << 25) & mask
            s ^= s >> 27
            append((s * multiplier & mask) % n)
        self._state = s
        return out


@functools.cache
def _draw_table():
    """The draw table (rows, jump), one entry each per unit vector e_b:
    lane k - 1 of rows[b], 32 bits wide, is low16(A**k * e_b) for k = 1..
    _CHUNK_DRAWS, and jump[b] is A**_CHUNK_DRAWS * e_b. Each step's low
    halves go into one buffer, from which whole 4-byte words move into the
    rows, so the host byte order cancels. A concurrent first use at worst
    builds the table twice, with equal results."""
    x = _pack(1 << bit for bit in range(64))
    steps = bytearray()
    for _ in range(_CHUNK_DRAWS):
        x = _xorshift(x)
        steps += (x & _LOW16).to_bytes(8 * 64, "little")
    words = memoryview(steps).cast("I")  # lane b of step k starts at word 2 (64 k + b)
    rows = tuple(int.from_bytes(words[2 * bit :: 2 * 64], "little") for bit in range(64))
    jump = tuple(x >> (64 * bit) & MAX_U64 for bit in range(64))
    return rows, jump


def _fill_chunk(state):
    """Draw a chunk of _CHUNK_DRAWS draws after state.

    Returns the state after the chunk's last draw and the chunk's
    candidates as one array of 16-bit halfwords, little-endian: the
    candidate of draw k, counted from 0, is halfword 2 k on every host.
    """
    rows, jump = _draw_table()
    lanes = end = 0
    for row, step, bit in zip(rows, jump, bin(state)[:1:-1]):  # bits from the lowest
        if bit == "1":
            lanes ^= row
            end ^= step
    # each lane's product stays in its lane and its low halfword is the candidate
    halfwords = array("H", (lanes * _MULTIPLIER_LOW16).to_bytes(4 * _CHUNK_DRAWS, "little"))
    if sys.byteorder == "big":
        halfwords.byteswap()
    return end, halfwords


def prime_stream(seed: int, count: int) -> list:
    """Deterministic list of `count` distinct primes in [2, 2**16).

    Candidates are the low 16 bits of successive xorshift64* outputs;
    composites and repeats are rejected and redrawn. The result is a pure
    function of the seed, so the decrypting side can regenerate the exact
    primes the encrypting side used without ever transmitting them.
    """
    _require_int(count, "prime_stream's count", 0)
    if count > PRIME_COUNT_BELOW_LIMIT:
        raise CipherError(
            "cannot emit %s distinct primes below %d (only %d exist)"
            % (_shown(count), PRIME_LIMIT, PRIME_COUNT_BELOW_LIMIT)
        )
    state = Xorshift64Star(seed)._state
    unused = bytearray(_PRIME_TABLE)  # 1 at each prime not yet emitted
    out = []
    append = out.append
    while len(out) < count:
        state, halfwords = _fill_chunk(state)
        for candidate in halfwords[::2]:
            if unused[candidate]:
                unused[candidate] = 0
                append(candidate)
                if len(out) == count:
                    return out
    return out
