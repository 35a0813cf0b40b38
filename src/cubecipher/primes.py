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

* A sieve of Eratosthenes over [0, 2**16), run on the first draw of a
  prime, not at import, and kept only as the draw sieve below.

prime_stream's candidates are the low 16 bits of successive outputs, and
those depend only on the low 16 bits of the state, u = low16(state): the
candidate is low16(u * 0xDD1D). Since 0xDD1D is odd, u -> low16(u *
0xDD1D) is a bijection of [0, 2**16), so the draw sieve has entry u set
iff low16(u * 0xDD1D) is prime: each prime n found by the sieve sets the
entry at low16(n * 0xDD1D**-1). prime_stream keeps a per-call copy of it
and tests u itself: it clears each emitted prime's slot, and so rejects
composites and repeats with one table lookup per draw and multiplies
only the draws it emits.

The step is linear over GF(2), a 64x64 bit matrix A, so the states of a
chunk of 1,024 draws from state s are XORs, over the set bits b of s, of
A**k * e_b, e_b the unit vector of bit b. One draw table, built on first
use and cached, holds entry b: low16(A**k * e_b) for k = 1..1024 in
16-bit lanes and, above them, A**1024 * e_b (~128 KiB in all). Entry b
starts from one step, A * e_b, and doubles ten times: lanes n + 1..2 n
of e_b are the first n lanes of A**n * e_b, the XOR of the entries at
its set bits. The table and the draw sieve take ~2 ms each, once per
process that draws a prime. A chunk XORs the entries at its start
state's set bits and writes the XOR's lanes as one array of 16-bit
halfwords, byte-swapped once on a big-endian host: the chunk's draw k,
counted from 0, is halfword k on every host, and the 64 bits above the
lanes are the state the next chunk starts from.

Near the ceiling the stream is a coupon collector: with r primes left a
draw emits one with probability r / 2**16, and the last few hundred
primes take most of a 6,542-prime stream's ~614,000 draws. prime_stream
runs one draw loop: it looks up every draw of a chunk until at most
_TAIL primes are left, and from the next chunk on only the draws that
_screen yields, found at C speed. Each unemitted u sits in one of 2,048
cells, its high byte and the top 3 bits of its low byte; a per-high-byte
mask holds a bit for each of its 8 cells that still holds an unemitted
u. bytes.translate maps the chunk's high bytes through the masks and its
low bytes to their one-hot cell bit, one AND of the two as ints flags
every draw that may emit, and bytes.find walks the flags. A chunk with
no flag yields nothing. The stream is the one the scalar loop gives,
draw for draw; the test suite keeps that loop as its reference, with a
Miller-Rabin test to check the draw sieve against.

This generator is NOT cryptographically secure and is not meant to be; the
contract here is cross-platform determinism, not unpredictability.
"""

import functools
import sys
from array import array
from itertools import compress
from math import isqrt
from operator import xor

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

# A chunk of prime_stream is _CHUNK_DRAWS draws, 2 bytes each in the draw table
_CHUNK_DRAWS = 1024
_LANES = (1 << 16 * _CHUNK_DRAWS) - 1  # the lanes of a draw table entry

# prime_stream screens chunks once at most _TAIL primes are left unemitted
_TAIL = 256

# the offset of a halfword's low byte in a chunk's bytes on this host
_LOW_BYTE = int(sys.byteorder == "big")
# a low byte's cell bit: one of 8, by its top 3 bits
_CELL_BIT = bytes(1 << (low >> 5) for low in range(256))
_NONZERO = bytes([0]) + bytes([1]) * 255
# a binary digit's value
_BIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")


def _xorshift(state):
    """One xorshift64* state step of a 64-bit word."""
    state ^= state >> 12
    state ^= (state << 25) & MAX_U64
    state ^= state >> 27
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


def _ahead(state, table):
    """The XOR of table's entries at the set bits of state."""
    selectors = bin(state)[:1:-1].encode().translate(_BIT_VALUE)  # 0 or 1, from the lowest bit
    return functools.reduce(xor, compress(table, selectors), 0)


@functools.cache
def _draw_table():
    """The draw table, one entry per unit vector e_b: lane k - 1 of entry
    b, 16 bits wide, is low16(A**k * e_b) for k = 1.._CHUNK_DRAWS, and the
    64 bits above the lanes are A**_CHUNK_DRAWS * e_b. Entry b starts as
    one step of e_b, one lane with A * e_b above it. Each doubling puts
    above entry b's lanes the entries' XOR at the set bits of the state
    above them: the lanes and the state as far again. A concurrent first
    use at worst builds the table twice, with equal results."""
    table = [s & 0xFFFF | s << 16 for s in (_xorshift(1 << b) for b in range(64))]
    width = 16
    while width < 16 * _CHUNK_DRAWS:
        below = (1 << width) - 1  # the lanes so far
        table = [entry & below | _ahead(entry >> width, table) << width for entry in table]
        width *= 2
    return tuple(table)


@functools.cache
def _draw_sieve():
    """bytes of length PRIME_LIMIT whose entry u is 1 iff low16(u * 0xDD1D)
    is prime. A sieve of Eratosthenes over [0, PRIME_LIMIT) finds the
    primes, then each prime n sets entry u = low16(n * inverse), inverse =
    0xDD1D**-1 mod 2**16, the one u whose candidate is n. A concurrent
    first use at worst builds it twice, with equal results."""
    sieve = bytearray([1]) * PRIME_LIMIT
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(PRIME_LIMIT - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, PRIME_LIMIT, p)))
    inverse = pow(_MULTIPLIER_LOW16, -1, PRIME_LIMIT)
    table = bytearray(PRIME_LIMIT)
    for n in compress(range(PRIME_LIMIT), sieve):
        table[n * inverse & 0xFFFF] = 1
    return bytes(table)


def _fill_chunk(state):
    """Draw a chunk of _CHUNK_DRAWS draws after state.

    Returns the state after the chunk's last draw and the chunk's u =
    low16(state) values as one array of 16-bit halfwords, in the host's
    byte order: the u of draw k, counted from 0, is halfword k on every
    host.
    """
    drawn = _ahead(state, _draw_table())
    halfwords = array("H", (drawn & _LANES).to_bytes(2 * _CHUNK_DRAWS, "little"))
    if sys.byteorder == "big":
        halfwords.byteswap()
    return drawn >> (16 * _CHUNK_DRAWS), halfwords


def _cell_masks(unused):
    """Mask h of 256 holds bit j iff some u with unused[u] has high byte h
    and low byte in cell j (its top 3 bits); found with bytearray.find,
    one find per unemitted prime."""
    masks = bytearray(256)
    u = unused.find(1)
    while u >= 0:
        masks[u >> 8] |= 1 << (u >> 5 & 7)
        u = unused.find(1, u + 1)
    return masks


def _screen(halfwords, masks):
    """Yield the u of each draw of the chunk that falls in a cell masks
    marks, in draw order and with repeats kept. A handful of bytes
    operations flag the draws, and bytes.find walks the flags: no Python
    step for a draw that is not flagged, none at all when no draw is."""
    data = halfwords.tobytes()
    high = int.from_bytes(data[1 - _LOW_BYTE :: 2].translate(masks), "little")
    hits = high & int.from_bytes(data[_LOW_BYTE::2].translate(_CELL_BIT), "little")
    flags = hits.to_bytes(len(halfwords), "little").translate(_NONZERO)
    k = flags.find(1)
    while k >= 0:
        yield halfwords[k]
        k = flags.find(1, k + 1)


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
    unused = bytearray(_draw_sieve())  # 1 at each u whose prime is not yet emitted
    masks = None  # the cell masks, once at most _TAIL primes are left
    out = []
    append = out.append
    while len(out) < count:
        if not masks and len(out) >= PRIME_COUNT_BELOW_LIMIT - _TAIL:
            masks = _cell_masks(unused)
        state, halfwords = _fill_chunk(state)
        for u in _screen(halfwords, masks) if masks else halfwords:
            if unused[u]:
                unused[u] = 0
                append(u * _MULTIPLIER_LOW16 & 0xFFFF)
                if len(out) == count:
                    return out
                if masks:  # clear u's cell once its last prime is out
                    cell = u & 0xFFE0  # its 32 u's
                    if unused.find(1, cell, cell + 32) < 0:
                        masks[u >> 8] &= ~(1 << (u >> 5 & 7))
    return out
