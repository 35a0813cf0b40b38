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
0xDD1D). It draws them in chunks of lanes x 32 steps, lane j taking draws
[32 j, 32 (j + 1)) of the chunk. All lanes sit in one Python int, 64 bits
each, and one step of the recurrence advances every lane at once with
masked shifts; one set of masks, built at import for 256 lanes, serves
every width up to 256 lanes, a single state included. The step is linear
over GF(2), a 64x64 bit matrix A, so a lane's start state A**(32 j) *
state is the XOR, over the set bits b of the state, of A**(32 j) * e_b,
e_b the unit vector of bit b. prime_stream reads those vectors from a
start table: 64 columns, column b holding A**(32 j) * e_b in lane j. A
chunk reads the table as wide as the next power of two at or above its
lanes, at most 256 lanes (128 KiB). Each width is built on first use from
lane 0, the 64 unit vectors packed as 64 lanes, stepped 32 steps per
further lane, the rows so made transposed into columns, and cached;
nothing is stepped at import. A chunk holds at most 256 lanes, 8,192
draws; its candidates go into one array of 16-bit halfwords, at most
64 KiB, laid out little-endian and byte-swapped once on a big-endian
host, so that lane j's candidate at step s is halfword 4 (lanes s + j)
on every host. The array is read lane by lane, in draw order, at a
stride of 4 * lanes halfwords, and filtered against the per-call sieve
copy. The stream is the one the scalar loop gives, draw for draw; the
test suite keeps that loop as its reference, with a Miller-Rabin test to
check the sieve against.

This generator is NOT cryptographically secure and is not meant to be; the
contract here is cross-platform determinism, not unpredictability.
"""

import functools
import sys
from array import array
from math import isqrt, log

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

# Lane geometry of prime_stream: a chunk is at most _MAX_LANES lanes of
# _LANE_STEPS draws, 4 halfwords each (64 KiB).
_LANE_STEPS = 32
_MAX_LANES = 256
# A chunk draws _SLACK times the expected draws still needed plus
# _SPARE_DRAWS, within _MAX_LANES lanes, so that the chunk meant to be a
# stream's last rarely falls short.
_SLACK = 1.15
_SPARE_DRAWS = 64


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


# Lane masks for up to _MAX_LANES lanes, built once. They serve any width:
# & of two nonnegative ints is as long as the shorter one, and the bits a
# left shift by 25 pushes out of the top lane land in bits 0-24 of the
# lane above it, which _LEFT25 clears.
_RIGHT12 = _pack([MAX_U64 >> 12] * _MAX_LANES)
_LEFT25 = _pack([MAX_U64 << 25 & MAX_U64] * _MAX_LANES)
_RIGHT27 = _pack([MAX_U64 >> 27] * _MAX_LANES)
_LOW16 = _pack([0xFFFF] * _MAX_LANES)


def _xorshift(state):
    """One xorshift64* state step of every 64-bit lane of state (at most
    _MAX_LANES lanes; a scalar state is one lane)."""
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
def _start_table(width):
    """The 64 columns of the start table `width` (a power of two, at most
    _MAX_LANES) lanes wide: lane j of column b is A**(32 j) * e_b.

    Lane 0 is the unit vectors, packed as 64 lanes in one row; each further
    row steps the one before _LANE_STEPS steps. Word b of row j becomes lane
    j of column b; the words move whole, so the host byte order cancels.
    The cache holds at most 9 tables, widths 1, 2, 4, ..., 256 (256 KiB
    in all), as immutable tuples; a concurrent first use at worst builds
    one width twice, with equal results.
    """
    row = _pack(1 << bit for bit in range(64))
    rows = [row]
    for _ in range(width - 1):
        for _ in range(_LANE_STEPS):
            row = _xorshift(row)
        rows.append(row)
    words = memoryview(b"".join(row.to_bytes(8 * 64, "little") for row in rows)).cast("Q")
    return tuple(int.from_bytes(words[bit::64], "little") for bit in range(64))


def _lane_starts(state, lanes):
    """`lanes` states packed 64 bits each, lane j being state advanced by
    32 j steps: A**(32 j) applied to state, one XOR of a start table
    column per set bit of state."""
    x = 0
    for bit, column in enumerate(_start_table(1 << (lanes - 1).bit_length())):
        if state >> bit & 1:
            x ^= column
    return x & ((1 << (64 * lanes)) - 1)


def _fill_chunk(state, lanes):
    """Draw a chunk of `lanes` lanes x _LANE_STEPS steps, starting at state.

    Returns the state after the chunk's last draw and the chunk's
    candidates as one array of 16-bit halfwords: step s writes the lanes'
    low16(state) * 0xDD1D products, 4 halfwords per lane, little-endian,
    so lane j's candidate at step s is halfword 4 * (lanes * s + j) on
    every host.
    """
    x = _lane_starts(state, lanes)
    width = 8 * lanes
    halfwords = array("H")
    for _ in range(_LANE_STEPS):
        x = _xorshift(x)
        # the product stays in its lane and its low halfword is the candidate
        halfwords.frombytes(((x & _LOW16) * _MULTIPLIER_LOW16).to_bytes(width, "little"))
    if sys.byteorder == "big":
        halfwords.byteswap()
    return x >> (64 * (lanes - 1)), halfwords  # the last lane ends where the next chunk starts


def _chunk_lanes(emitted, count):
    """Lanes of the next chunk: enough draws for the primes still needed,
    by the coupon-collector estimate, within _MAX_LANES."""
    left = PRIME_COUNT_BELOW_LIMIT - emitted
    need = count - emitted
    draws = PRIME_LIMIT * log((left + 0.5) / (left - need + 0.5)) * _SLACK + _SPARE_DRAWS
    return min(_MAX_LANES, -(-int(draws) // _LANE_STEPS))


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
        lanes = _chunk_lanes(len(out), count)
        state, halfwords = _fill_chunk(state, lanes)
        stride = 4 * lanes
        for first in range(0, stride, 4):
            for candidate in halfwords[first::stride]:
                if unused[candidate]:
                    unused[candidate] = 0
                    append(candidate)
                    if len(out) == count:
                        return out
    return out
