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

is_prime, a deterministic Miller-Rabin test using the base set that is
known sufficient for every input below 2**64, is kept as a tested utility;
the test suite checks the sieve against it on every n below 2**16.

This generator is NOT cryptographically secure and is not meant to be; the
contract here is cross-platform determinism, not unpredictability.
"""

from math import isqrt

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


def _sieve(limit):
    """bytes of length limit whose entry n is 1 iff n is prime."""
    table = bytearray([1]) * limit
    table[0] = table[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return bytes(table)


_PRIME_TABLE = _sieve(PRIME_LIMIT)


class Xorshift64Star:
    """xorshift64* PRNG with the published shift triple (12, 25, 27)."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError("seed must be an int")
        if not 0 <= seed <= MAX_U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed if seed != 0 else _ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & MAX_U64
        s ^= s >> 27
        self._state = s
        return (s * _MULTIPLIER) & MAX_U64

    def below(self, n: int) -> int:
        """Next value reduced mod n (n >= 1). Deterministic, mildly biased."""
        if n < 1:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n


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


def prime_stream(seed: int, count: int) -> list:
    """Deterministic list of `count` distinct primes in [2, 2**16).

    Candidates are the low 16 bits of successive xorshift64* outputs;
    composites and repeats are rejected and redrawn. The result is a pure
    function of the seed, so the decrypting side can regenerate the exact
    primes the encrypting side used without ever transmitting them.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > PRIME_COUNT_BELOW_LIMIT:
        raise CipherError(
            "cannot emit %d distinct primes below %d (only %d exist)"
            % (count, PRIME_LIMIT, PRIME_COUNT_BELOW_LIMIT)
        )
    draw = Xorshift64Star(seed).next_u64
    unused = bytearray(_PRIME_TABLE)  # 1 at each prime not yet emitted
    mask = PRIME_LIMIT - 1
    out = []
    while len(out) < count:
        candidate = draw() & mask
        if unused[candidate]:
            unused[candidate] = 0
            out.append(candidate)
    return out
