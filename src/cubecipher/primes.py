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
0xDD1D). It draws them in chunks of lanes x steps, lane j taking draws
[j * steps, (j + 1) * steps) of the chunk. All lanes sit in one Python
int, 64 bits each, and one step of the recurrence advances every lane at
once with masked shifts. The step is linear over GF(2), a 64x64 bit
matrix A, so the lanes' start states A**(j * steps) * state are the XOR,
over the set bits b of the state, of column b of A**(j * steps). For each
lane length prime_stream keeps those columns, 64 ints holding every lane
j, in a start table; a table is built on first use and grown when a chunk
needs more lanes, by doubling its lanes with the jump tables A**(2**k),
and never shrinks. Nothing is built at import; at most ~230 KB of start
tables (64, 128 and 256 lanes of 2**5, 2**6 and 2**7 steps) are ever
kept. Each step's candidates go into one bytearray, capped at 256 KiB
per chunk, in the host's byte order, which is then read lane by lane, in
draw order, through a strided memoryview of its native 16-bit halfwords
and filtered against the per-call sieve copy. Where a lane's candidate
sits in the buffer depends on the byte order; the stream does not. The
stream is the one the scalar loop gives, draw for draw; the test suite
keeps that loop as its reference.

is_prime, a deterministic Miller-Rabin test using the base set that is
known sufficient for every input below 2**64, is kept as a tested utility;
the test suite checks the sieve against it on every n below 2**16.

This generator is NOT cryptographically secure and is not meant to be; the
contract here is cross-platform determinism, not unpredictability.
"""

import sys
import threading
from math import isqrt, log, log2

from .errors import CipherError

__all__ = [
    "Xorshift64Star",
    "is_prime",
    "prime_stream",
    "MAX_U64",
    "PRIME_LIMIT",
    "PRIME_COUNT_BELOW_LIMIT",
]

# 2**64 - 1: the largest seed, and the mask of one generator step
MAX_U64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15

# Primes are drawn from [2, 2**16); there are exactly 6542 of them.
PRIME_LIMIT = 1 << 16
PRIME_COUNT_BELOW_LIMIT = 6542

# Lane geometry of prime_stream. A chunk holds at most _CHUNK_DRAWS draws,
# 8 buffer bytes each (256 KiB), in lanes of 2**5 to 2**7 steps.
_CHUNK_DRAWS = 1 << 15
_MIN_STEPS_LOG = 5
_MAX_STEPS_LOG = 7
# A chunk draws _SLACK times the expected draws plus _SPARE_DRAWS, so that a
# second chunk, and its jump-ahead, is rarely needed.
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


def _repeat(word, lanes):
    """The 64-bit word repeated in each of `lanes` 64-bit lanes."""
    return int.from_bytes(word.to_bytes(8, "little") * lanes, "little")


def _step_masks(lanes):
    """Masks that keep each lane's shifted bits inside its own lane."""
    return (_repeat(MAX_U64 >> 12, lanes), _repeat(MAX_U64 << 25 & MAX_U64, lanes),
            _repeat(MAX_U64 >> 27, lanes))


def _xorshift(state, right12=MAX_U64 >> 12, left25=MAX_U64 << 25 & MAX_U64,
              right27=MAX_U64 >> 27):
    """One xorshift64* state step of every 64-bit lane of state, given the
    lanes' _step_masks; the defaults are those of a single lane."""
    state ^= (state >> 12) & right12
    state ^= (state << 25) & left25
    state ^= (state >> 27) & right27
    return state


class Xorshift64Star:
    """xorshift64* PRNG with the published shift triple (12, 25, 27)."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError("seed must be an int")
        if not 0 <= seed <= MAX_U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed if seed != 0 else _ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        self._state = s = _xorshift(self._state)
        return (s * _MULTIPLIER) & MAX_U64

    def below(self, n: int) -> int:
        """Next value reduced mod n (n >= 1). Deterministic, mildly biased."""
        if n < 1:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n

    def below_many(self, n: int, count: int) -> list:
        """The next count values of below(n), as a list; one loop with
        _xorshift's step inlined, the same values and the same end state."""
        if n < 1:
            raise ValueError("below() requires n >= 1")
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


# Witness set sufficient for a deterministic answer on every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**64."""
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


def _apply_matrix(columns, x, lanes):
    """The 64x64 bit matrix with the given columns applied to each lane of x."""
    ones = _repeat(1, lanes)
    out = 0
    for bit, column in enumerate(columns):
        out ^= ((x >> bit) & ones) * column  # each lane adds column or 0, no carries
    return out


def _unpack(x, lanes):
    return tuple((x >> (64 * j)) & MAX_U64 for j in range(lanes))


def _pack(words):
    return sum(w << (64 * j) for j, w in enumerate(words))


_JUMPS = []  # _JUMPS[k]: the columns of A**(2**k)
# _STARTS[steps_log]: (width, columns), width a power of two and lane j of
# columns[b] the column b of A**(j * 2**steps_log), for j < width
_STARTS = {}
_TABLES_LOCK = threading.RLock()  # _start_table holds it while it calls _jump_table


def _jump_table(power):
    """Columns of A**(2**power), A the bit matrix of one state step.

    Tables are squared one from the next on first use and never change
    afterwards, so concurrent callers see the same values.
    """
    if len(_JUMPS) <= power:
        with _TABLES_LOCK:
            if not _JUMPS:
                basis = _pack(1 << bit for bit in range(64))
                _JUMPS.append(_unpack(_xorshift(basis, *_step_masks(64)), 64))
            while len(_JUMPS) <= power:
                last = _JUMPS[-1]
                _JUMPS.append(_unpack(_apply_matrix(last, _pack(last), 64), 64))
    return _JUMPS[power]


def _rows(columns, width):
    """A start table's rows as one int: word 64 * j + b is lane j of columns[b]."""
    buf = bytearray(8 * 64 * width)
    words = memoryview(buf).cast("Q")
    for bit, column in enumerate(columns):
        words[bit::64] = memoryview(column.to_bytes(8 * width, "little")).cast("Q")
    return int.from_bytes(buf, "little")


def _columns(rows, width):
    """Inverse of _rows. The words move whole, so the host byte order cancels."""
    words = memoryview(rows.to_bytes(8 * 64 * width, "little")).cast("Q")
    return tuple(int.from_bytes(words[bit::64], "little") for bit in range(64))


def _start_table(steps_log, lanes):
    """The columns of _STARTS[steps_log], at least `lanes` lanes wide.

    On first use, and whenever a chunk needs more lanes, the table's rows
    are doubled, rows [h, 2h) being A**(h * 2**steps_log) applied to rows
    [0, h), up to the next power of two >= lanes. Grown tables only gain
    lanes, so concurrent callers see the same values.
    """
    width, columns = _STARTS.get(steps_log, (0, ()))
    if width < lanes:
        with _TABLES_LOCK:
            width, columns = _STARTS.get(steps_log, (0, ()))
            if width < lanes:
                if width:
                    rows = _rows(columns, width)
                else:  # lane 0 of column b is the unit vector e_b
                    width, rows = 1, _pack(1 << bit for bit in range(64))
                while width < lanes:
                    jump = _jump_table(steps_log + width.bit_length() - 1)
                    rows |= _apply_matrix(jump, rows, 64 * width) << (64 * 64 * width)
                    width *= 2
                columns = _columns(rows, width)
                _STARTS[steps_log] = width, columns
    return columns


def _lane_starts(state, lanes, steps_log):
    """`lanes` states packed 64 bits each, lane j being state advanced by
    j * 2**steps_log steps: A**(j * 2**steps_log) applied to state, one
    XOR of a start table column per set bit of state."""
    x = 0
    for bit, column in enumerate(_start_table(steps_log, lanes)):
        if state >> bit & 1:
            x ^= column
    return x & ((1 << (64 * lanes)) - 1)


def _fill_chunk(buf, state, lanes, steps_log, byteorder=sys.byteorder):
    """Draw a chunk of `lanes` lanes x 2**steps_log steps, starting at state.

    Step s of the chunk fills buf[8 * lanes * s : 8 * lanes * (s + 1)] with
    the lanes' low16(state) * 0xDD1D products as one integer in byteorder,
    so that a lane's candidate is one 16-bit halfword of buf in byteorder.
    Returns the state after the chunk's last draw and the halfword offsets
    of the lanes' candidates within a step, lane 0 first.
    """
    x = _lane_starts(state, lanes, steps_log)
    masks = _step_masks(lanes)
    low16 = _repeat(0xFFFF, lanes)
    width = 8 * lanes
    for at in range(0, width << steps_log, width):
        x = _xorshift(x, *masks)
        # the product stays in its lane and its low halfword is the candidate
        buf[at : at + width] = ((x & low16) * (_MULTIPLIER & 0xFFFF)).to_bytes(width, byteorder)
    stride = 4 * lanes
    if byteorder == "little":
        firsts = range(0, stride, 4)
    else:  # the lanes come highest first, each with its low halfword last
        firsts = range(stride - 1, 0, -4)
    return x >> (64 * (lanes - 1)), firsts  # the last lane ends where the next chunk starts


def _chunk_shape(emitted, count):
    """(steps_log, lanes) of the next chunk: enough draws for the primes
    still needed, by the coupon-collector estimate, within _CHUNK_DRAWS."""
    left = PRIME_COUNT_BELOW_LIMIT - emitted
    need = count - emitted
    draws = PRIME_LIMIT * log((left + 0.5) / (left - need + 0.5)) * _SLACK + _SPARE_DRAWS
    steps_log = min(_MAX_STEPS_LOG, max(_MIN_STEPS_LOG, round(log2(draws) / 2)))
    lanes = min(_CHUNK_DRAWS >> steps_log, -(-int(draws) >> steps_log))
    return steps_log, lanes


def prime_stream(seed: int, count: int) -> list:
    """Deterministic list of `count` distinct primes in [2, 2**16).

    Candidates are the low 16 bits of successive xorshift64* outputs;
    composites and repeats are rejected and redrawn. The result is a pure
    function of the seed, so the decrypting side can regenerate the exact
    primes the encrypting side used without ever transmitting them.
    """
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError("count must be an int")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > PRIME_COUNT_BELOW_LIMIT:
        raise CipherError(
            "cannot emit %d distinct primes below %d (only %d exist)"
            % (count, PRIME_LIMIT, PRIME_COUNT_BELOW_LIMIT)
        )
    state = Xorshift64Star(seed)._state
    unused = bytearray(_PRIME_TABLE)  # 1 at each prime not yet emitted
    out = []
    append = out.append
    buf = bytearray()
    while len(out) < count:
        steps_log, lanes = _chunk_shape(len(out), count)
        stride = 4 * lanes
        end = stride << steps_log
        if len(buf) < 2 * end:
            buf = bytearray(2 * end)
        # buf is in the host's byte order, so the native halfwords are the candidates
        state, firsts = _fill_chunk(buf, state, lanes, steps_log)
        halfwords = memoryview(buf).cast("H")
        for first in firsts:
            for candidate in halfwords[first:end:stride]:
                if unused[candidate]:
                    unused[candidate] = 0
                    append(candidate)
                    if len(out) == count:
                        return out
    return out
