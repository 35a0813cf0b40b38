"""Cubic trapdoor layer: map (symbol, prime) pairs to integers and back.

Encoding a symbol code x with a prime y sets n = x + y and produces

    t = (n - 1) * n * (n + 1) / 6

The division is exact: among three consecutive integers one is divisible
by 3 and at least one by 2, so their product is divisible by 6 (a special
case of "the product of n consecutive integers is divisible by n", which
acceptance criterion 05 checks directly).

Decoding solves n^3 - n = 6t for its unique integer root n >= 2 and
returns x = n - y. For n >= 2 the cubic sits strictly between two
consecutive cubes, (n - 1)^3 < n^3 - n < n^3, so the only candidate is
n = icbrt(6t) + 1, where icbrt is the exact integer cube root (integer
Newton iteration from a power of two above the root), and one exact
check n^3 - n = 6t accepts or rejects it. The whole round trip stays
bit-exact at any size. Without y the root n only reveals the sum x + y,
which is what makes the prime stream the trapdoor knowledge.

Each direction runs in bulk over a whole message: _encode_all, the one
place the formula is written, and _decode_all, which takes every
candidate n from a float cube root and checks them all exactly at once.
Neither checks its arguments. The public per-symbol functions check
theirs through errors._require_int, and _decode_all calls decode_symbol
only when its bulk pass fails, to raise the error for the first bad value
after "symbol i: ".

Every result here is exact: a float only ever proposes a candidate that
exact integer arithmetic then accepts or rejects. Error messages give the
bit length of a value too long to print, never its digits.
"""

from operator import add, sub

from .errors import CorruptValueError, NoIntegerRootError, SymbolRangeError, _require_int, _shown

__all__ = [
    "ASCII_MAX",
    "BYTE_MAX",
    "encode_symbol",
    "decode_symbol",
    "solve_depressed_cubic",
    "integer_cube_root",
]

ASCII_MAX = 127
BYTE_MAX = 255

# Below this bound 6t < 2**53, so float(6t) is exact (see _decode_all).
# The bound only moves work between the bulk decode and the per-symbol
# decode it falls back to, as every candidate is checked exactly: any
# bound that keeps float(6t) finite gives the same outputs, so it bounds
# speed, not correctness.
_FLOAT_T_LIMIT = 1 << 50


def _encode_all(codes, primes):
    """encode_symbol of each (code, prime) pair, unchecked, in one pass."""
    return [(n - 1) * n * (n + 1) // 6 for n in map(add, codes, primes)]


def encode_symbol(code: int, prime: int) -> int:
    """Trapdoor-encode a symbol code with its prime: t = (n^3 - n)/6, n = code + prime.

    Exact integer arithmetic throughout; the division by 6 never truncates.
    """
    _require_int(code, "symbol code", 0)
    _require_int(prime, "prime", 2)
    return _encode_all((code,), (prime,))[0]


def integer_cube_root(n: int) -> int:
    """Largest integer r with r**3 <= n, for n >= 0. Exact integer Newton.

    Starts at x = 2**ceil(bits / 3), so x**3 >= 2**bits > n: the start is
    above the root. Newton then steps x -> (2x + n // x^2) // 3. By the
    AM-GM inequality no step lands below the root, and every step from
    above it strictly decreases, so the first step that does not decrease
    is taken from the root itself.
    """
    _require_int(n, "integer_cube_root's n", 0)
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


def solve_depressed_cubic(t: int) -> int:
    """Unique integer n >= 2 with n^3 - n = 6t, by one exact check.

    (n - 1)^3 < n^3 - n < n^3 for n >= 2, so a root can only be
    integer_cube_root(6t) + 1. Raises NoIntegerRootError when that
    candidate fails (corrupted or non-genuine t). The message gives t's
    bit length, not its digits, which can be too long to print.
    """
    _require_int(t, "t")
    if t < 1:
        raise NoIntegerRootError("no integer n >= 2 satisfies n^3 - n = 6t for t < 1")
    target = 6 * t
    n = integer_cube_root(target) + 1
    if n * n * n - n != target:
        raise NoIntegerRootError(
            "no integer n >= 2 satisfies n^3 - n = 6t for this %d-bit t" % t.bit_length()
        )
    return n


def _decode_all(ts, primes, max_code):
    """The codes decode_symbol gives for each (t, prime) pair, as a list,
    in one pass; [] when ts is empty. A pair decode_symbol refuses raises
    its error, CorruptValueError or SymbolRangeError, for the first such
    pair i, with "symbol i: " before decode_symbol's text.

    Each candidate is n = int(float(6t) ** (1/3)) + 1, for 1 <= t < 2**50,
    where 6t < 2**53 converts to a float exactly. For a genuine t,
    6t = n^3 - n and its real cube root lies in (n - 1, n), at least
    1/(3n) below n: n - (n^3 - n)^(1/3) = n(1 - (1 - 1/n^2)^(1/3)) and
    (1 - x)^(1/3) <= 1 - x/3. For n < 2**18 that gap is above 2**-20,
    while the float root (a rounded pow with a rounded exponent 1/3) is
    off by less than 2**-30, so the candidate is n exactly. The candidates
    are then accepted only if n^3 - n = 6t holds exactly for every symbol:
    the integer root is unique, so no input, genuine or not, can pass with
    a wrong n. When any t is outside [1, 2**50), not a genuine encoding,
    or decodes outside [0, max_code], the pairs go one by one through
    decode_symbol, which raises the error at the right index.
    """
    if ts and min(ts) >= 1 and max(ts) < _FLOAT_T_LIMIT:
        ns = [int((6 * t) ** (1 / 3)) + 1 for t in ts]
        # a list of bools, not of ints: True and False are shared objects,
        # so the check keeps no int per symbol
        if all([n * n * n - n == 6 * t for n, t in zip(ns, ts)]):
            codes = list(map(sub, ns, primes))
            if min(codes) >= 0 and max(codes) <= max_code:
                return codes
    codes = []
    for i, (t, p) in enumerate(zip(ts, primes)):
        try:
            codes.append(decode_symbol(t, p, max_code))
        except (CorruptValueError, SymbolRangeError) as exc:
            raise type(exc)("symbol %d: %s" % (i, exc)) from None
    return codes


def decode_symbol(t: int, prime: int, max_code: int = ASCII_MAX) -> int:
    """Invert encode_symbol given the prime: solve for n, return x = n - prime.

    Raises CorruptValueError when t has no integer root structure at all,
    and SymbolRangeError when the recovered code falls outside
    [0, max_code], which is how a wrong prime (or tampered t) shows up.
    max_code may be any int; a negative one refuses every code.
    """
    _require_int(prime, "prime", 2)
    _require_int(max_code, "max_code")
    try:
        n = solve_depressed_cubic(t)
    except NoIntegerRootError as exc:
        raise CorruptValueError("value is not a valid encoding: %s" % exc) from exc
    code = n - prime
    if not 0 <= code <= max_code:
        raise SymbolRangeError(
            "decoded code %s is outside [0, %s] (wrong prime or corrupted value)"
            % (_shown(code), _shown(max_code))
        )
    return code

