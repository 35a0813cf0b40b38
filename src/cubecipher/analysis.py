"""Cryptanalysis harness: avalanche measurement, known-plaintext recovery
of the composite linear layer, and runtime scaling measurements.

The block pipeline is linear in the block entries: with vec() flattening a
2x2 block row-major,

    vec(E) = M @ vec(B)

for a fixed 4x4 integer matrix M determined entirely by the key's three
mixing matrices (cipher.block_map). Four plaintext/ciphertext block pairs
whose vec(B) vectors span all of Q^4 therefore determine M exactly, and
with it every future block's encryption. The same attack on swapped
(ciphertext, plaintext) pairs recovers the inverse map, which decrypts
any block down to the encoded t-values.

M also gives the key's matrices away. By cipher._map_of,
M[4(2i + j) + 2a + b] = P[2b + i] * K[2a + j] with P = Q^n @ R, so M
rearranged, row 2b + i and column 2a + j, is the outer product
vec(P) vec(K)^T, of rank 1. It fixes P and K up to one common sign, and
that sign is all the map cannot tell: rotation(r + 2) = -rotation(r), so
(-K, n, r + 2) is a twin key with the same map and the same ciphertexts.

known_plaintext_attack finds M by one incremental Gauss-Jordan pass over
integer rows [vec(B) | vec(E)]: since vec(E)^T = vec(B)^T M^T, rows whose
left halves are reduced to a diagonal carry the rows of M^T, scaled by
their pivots. The pass is matrices._bareiss_jordan, the fraction-free
elimination that IntMatrix.det runs too, so no row is ever normalised by
a gcd. The map comes back as a flat row-major 16-tuple of Fractions,
directly comparable with block_map(key).entries. The attack's pair check
and apply_composite run maps through the cipher's own integer block
kernel.

Reading characters from those t-values needs the prime at each
position, which the map does not hold. Known plaintext gives it, though:
a t-value's root n and the known byte x give p = n - x at every position
the known text covers.

The avalanche harness quantifies the flip side of per-block linearity:
a single changed character can never influence any block but its own.
"""

import math
import operator
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from fractions import Fraction
from statistics import linear_regression, median

from .cipher import (
    BLOCK_SYMBOLS,
    _block_map,
    _divide_exactly,
    _map_blocks,
    _mix,
    _primes,
    _require_length,
    _require_valid,
    decrypt,
    encrypt,
)
from .errors import (InsufficientPairsError, _is_int, _iterate, _require_instance, _require_int,
                     _shown)
from .formats import _attack_pairs, _ciphertext_text, _document, _format_decimal, serialize_ciphertext
from .matrices import IntMatrix, _bareiss_jordan
from .primes import Xorshift64Star

__all__ = [
    "AvalancheReport",
    "AttackResult",
    "BenchRow",
    "BenchReport",
    "avalanche_test",
    "known_plaintext_attack",
    "apply_composite",
    "benchmark",
    "growth_exponent",
]

# Largest trial and repetition counts: the work is linear in trials x
# message length and in repetitions x lengths, so a bound keeps every
# request finite.
_MAX_TRIALS = 10**6
_MAX_REPETITIONS = 10**4


def _differing_bits(a: bytes, b: bytes) -> int:
    """Number of differing bits between two byte strings, the shorter one
    zero-padded at the end to the longer one's length."""
    n = max(len(a), len(b))
    return (int.from_bytes(a.ljust(n, b"\x00"), "big")
            ^ int.from_bytes(b.ljust(n, b"\x00"), "big")).bit_count()


@dataclass
class AvalancheReport:
    """Outcome of single-character-flip trials against one key.

    locality_histogram maps "number of ciphertext blocks changed" to the
    count of trials with that spread; its counts sum to trials. finding is
    a human-readable label of the measured diffusion behaviour.
    """

    trials: int
    message_length: int
    mean_changed_block_fraction: Fraction
    mean_changed_bit_fraction: Fraction
    locality_histogram: dict
    finding: str = ""

    def to_json_text(self) -> str:
        return _document(
            trials=self.trials,
            message_length=self.message_length,
            mean_changed_block_fraction=str(self.mean_changed_block_fraction),
            mean_changed_bit_fraction=str(self.mean_changed_bit_fraction),
            locality_histogram={
                str(k): self.locality_histogram[k] for k in sorted(self.locality_histogram)
            },
            finding=self.finding,
        )

    def to_csv_text(self) -> str:
        """Flat table of the locality histogram: changed_blocks,count."""
        lines = ["changed_blocks,count"]
        for k in sorted(self.locality_histogram):
            lines.append("%d,%d" % (k, self.locality_histogram[k]))
        return "\n".join(lines) + "\n"


def avalanche_test(key, message_length: int, trials: int, rng_seed: int) -> AvalancheReport:
    """Flip one character per trial and measure how far the change spreads.

    Each trial draws a random ASCII message of the given length, changes
    one position to a different ASCII value, encrypts both under the same
    key, and records the number of ciphertext blocks that differ plus the
    fraction of differing bits over the canonical serializations (the
    shorter one zero-padded to the longer one's length). Every message has
    the same length and key, so the key's block map is built once per
    call, and its primes come from the key object, which draws them once
    for all calls under it (see KeyMaterial). A trial builds no block or
    envelope: it compares the mixed blocks' entry tuples and renders the canonical text from
    them directly. The sums run in ints, differing bits grouped by
    serialization length, and the bit mean adds one exact Fraction per
    distinct length. trials is at most _MAX_TRIALS, and rng_seed follows
    Xorshift64Star's rule (ValueError, before any work). Deterministic
    given (key, message_length, trials, rng_seed).
    """
    _require_int(message_length, "message_length", 1)
    _require_int(trials, "trials", 1, _MAX_TRIALS)
    rng = Xorshift64Star(rng_seed)
    _require_valid(key)
    _require_length(message_length)
    m = _block_map(key)
    primes = _primes(key, message_length)
    histogram = Counter()
    changed_blocks = 0
    bits_by_length = Counter()  # serialization length -> differing bits
    for _ in range(trials):
        message = rng.below_many(128, message_length)
        position = rng.below(message_length)
        bump = 1 + rng.below(127)  # never maps a byte to itself
        flipped = message.copy()
        flipped[position] = (flipped[position] + bump) % 128
        pad_count, a = _mix(message, m, primes)
        _, b = _mix(flipped, m, primes)
        changed = sum(map(operator.ne, a, b))
        histogram[changed] += 1
        changed_blocks += changed
        text_a = _ciphertext_text(pad_count, a).encode()
        text_b = _ciphertext_text(pad_count, b).encode()
        bits_by_length[max(len(text_a), len(text_b))] += _differing_bits(text_a, text_b)
    max_spread = max(histogram)
    if max_spread <= 1:
        finding = (
            "every single-character change stayed inside its own 2x2 block; "
            "this is the measured deviation from the full-diffusion ideal, "
            "under which one changed character should unpredictably alter "
            "the entire ciphertext"
        )
    else:
        finding = (
            "single-character changes touched at most %d blocks" % max_spread
        )
    total_blocks = -(-message_length // BLOCK_SYMBOLS)
    bit_fraction = sum(Fraction(bits, 8 * n) for n, bits in bits_by_length.items()) / trials
    return AvalancheReport(
        trials=trials,
        message_length=message_length,
        mean_changed_block_fraction=Fraction(changed_blocks, total_blocks * trials),
        mean_changed_bit_fraction=bit_fraction,
        locality_histogram=dict(histogram),
        finding=finding,
    )


@dataclass
class AttackResult:
    """A recovered composite linear map and its verification status.

    composite_map is the 4x4 map as a row-major 16-tuple of Fractions,
    acting on row-major flattened blocks: vec(E) = map @ vec(B). For pairs
    from one key it equals block_map(key).entries. verified is True iff
    the map reproduces every supplied pair exactly.
    """

    composite_map: tuple
    pairs_used: int
    verified: bool

    def to_json_text(self) -> str:
        m = self.composite_map
        return _document(
            pairs_used=self.pairs_used,
            verified=self.verified,
            composite_map=[
                [_format_decimal(m[4 * i + j], "attack result: composite_map", i, j)
                 for j in range(4)]
                for i in range(4)
            ],
        )


def known_plaintext_attack(pairs) -> AttackResult:
    """Recover the composite 4x4 map from plaintext/ciphertext block pairs.

    Walks the pairs in order and keeps each one whose flattened plaintext
    block is independent of those already kept, until four are kept, by one
    matrices._bareiss_jordan pass over the integer rows [vec(B) | vec(E)],
    pivoting in the plaintext half. Four kept rows are [d*I | d*M^T], and
    the map reproduces a pair iff N @ vec(B) == d*vec(E) for the integer
    map N = d*M. Raises InsufficientPairsError, carrying the achieved rank,
    when the pairs cannot pin the map down.
    """
    pairs = _attack_pairs(pairs)
    d, kept = _bareiss_jordan((p.entries + c.entries for p, c in pairs), 4)
    if len(kept) < 4:
        raise InsufficientPairsError(
            "plaintext blocks only span a rank-%d space; rank 4 is required" % len(kept),
            rank=len(kept),
        )

    # the kept row with pivot j holds column j of N = d * M
    n = tuple(kept[j][4 + i] for i in range(4) for j in range(4))
    products = _map_blocks(n, (plain.entries for plain, _ in pairs))
    verified = all(v == tuple(d * e for e in c.entries) for v, (_, c) in zip(products, pairs))
    composite = tuple(Fraction(x, d) for x in n)
    return AttackResult(composite_map=composite, pairs_used=len(pairs), verified=verified)


def apply_composite(composite, block: IntMatrix) -> IntMatrix:
    """Apply a 4x4 composite map (row-major 16 entries, ints or Fractions)
    to a 2x2 block.

    With s the lcm of the entries' denominators, the int map
    N = s * composite goes through the cipher's block kernel and every
    entry of the result is divided exactly by s. Raises
    NonIntegralResultError naming the first entry of the result that is
    not an integer; the message leaves the value out, as decryption's does.

    A block that is not a 2x2 IntMatrix raises ValueError("block must be
    2x2"), whatever its type: unlike encrypt_block and decrypt_block, this
    raises no TypeError for a block that is not an IntMatrix. The error
    classes are part of the interface and stay as they are. A map entry
    that is not an int (a bool is not one) or a Fraction raises TypeError,
    and so does a map that is not a Sequence (a dict, a set, an iterator).
    """
    if not isinstance(composite, Sequence):
        raise TypeError("composite map must be a sequence of 16 ints or Fractions, got %s"
                        % _shown(composite))
    if len(composite) != 16:
        raise ValueError("composite map must be 4x4")
    if not isinstance(block, IntMatrix) or (block.rows, block.cols) != (2, 2):
        raise ValueError("block must be 2x2")
    for e in composite:
        if not _is_int(e) and not isinstance(e, Fraction):
            raise TypeError("composite map entries must be ints or Fractions, got %s" % _shown(e))
    s = math.lcm(*(e.denominator for e in composite))
    n = tuple(e.numerator * (s // e.denominator) for e in composite)
    return IntMatrix(2, 2, _divide_exactly(next(_map_blocks(n, (block.entries,))), s))


@dataclass
class BenchRow:
    message_length: int
    encrypt_seconds: float
    decrypt_seconds: float
    ciphertext_bytes: int


@dataclass
class BenchReport:
    """Median-of-repetitions wall times per message length."""

    repetitions: int
    rows: list = field(default_factory=list)

    def to_json_text(self) -> str:
        return _document(repetitions=self.repetitions, rows=[asdict(r) for r in self.rows])

    def to_csv_text(self) -> str:
        lines = [",".join(f.name for f in fields(BenchRow))]
        lines += ["%d,%.9f,%.9f,%d" % astuple(r) for r in self.rows]
        return "\n".join(lines) + "\n"


def benchmark(lengths, key, repetitions: int, rng_seed: int = 0) -> BenchReport:
    """Measure encrypt/decrypt wall time and ciphertext size per length.

    lengths must be a non-empty, strictly increasing iterable of ints
    (TypeError when it is not iterable), the longest at most
    MAX_MESSAGE_BYTES (else CipherError, before any timing), and
    repetitions at most _MAX_REPETITIONS (else ValueError); rng_seed is
    checked by Xorshift64Star's rule before the key is. Message
    contents are drawn deterministically from rng_seed; the timing fields
    are the only machine-dependent part of the report. Every timed call
    runs under its own copy of the key, made before the timer starts, so
    each one draws the prime stream as a key used once does (see
    KeyMaterial).
    """
    lengths = list(_iterate(lengths, "lengths must be an iterable of ints"))
    if not lengths:
        raise ValueError("lengths must be non-empty")
    for length in lengths:
        _require_int(length, "every length", 1)
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly increasing")
    _require_int(repetitions, "repetitions", 1, _MAX_REPETITIONS)
    rng = Xorshift64Star(rng_seed)
    _require_valid(key)
    _require_length(lengths[-1])
    report = BenchReport(repetitions=repetitions)
    for length in lengths:
        message = bytes(rng.below_many(128, length))
        encrypt_times = []
        envelope = None
        for _ in range(repetitions):
            fresh = replace(key)
            start = time.perf_counter()
            envelope = encrypt(message, fresh)
            encrypt_times.append(time.perf_counter() - start)
        decrypt_times = []
        for _ in range(repetitions):
            fresh = replace(key)
            start = time.perf_counter()
            recovered = decrypt(envelope, fresh)
            decrypt_times.append(time.perf_counter() - start)
        if recovered != message:
            raise RuntimeError("benchmark round trip produced a different message")
        report.rows.append(
            BenchRow(
                message_length=length,
                encrypt_seconds=median(encrypt_times),
                decrypt_seconds=median(decrypt_times),
                ciphertext_bytes=len(serialize_ciphertext(envelope).encode()),
            )
        )
    return report


def growth_exponent(report: BenchReport) -> float:
    """Least-squares slope of log(encrypt time) against log(length).

    Up to ~1 KiB, the range the acceptance suite measures, the pipeline is
    linear in the block count and lands near 1.0; anything clearly below
    2.0 rules out quadratic-or-worse growth over the measured range.
    Nearer the 6,542-byte ceiling it is not linear: the prime stream is a
    coupon collector (see the README's "Runtime scaling"), so a 6,542-byte
    encrypt takes ~7x the time of a 4,096-byte one. Every row must be a
    BenchRow whose message_length is an int of at least 1 and whose
    encrypt_seconds is a finite int or float of at least 0; a refusal
    names the first row that is not. A time of 0, which a coarse timer
    can read, is taken as 1e-9 s before its log.
    """
    _require_instance(report, BenchReport, "report")
    rows = list(_iterate(report.rows, "report rows must be an iterable of BenchRow values"))
    for i, row in enumerate(rows):
        name = "report row %d" % i
        _require_instance(row, BenchRow, name)
        _require_int(row.message_length, name + "'s message_length", 1)
        seconds = row.encrypt_seconds
        if not _is_int(seconds) and not isinstance(seconds, float):
            raise TypeError("%s's encrypt_seconds must be an int or float, got %s"
                            % (name, _shown(seconds)))
        if isinstance(seconds, float) and not math.isfinite(seconds):
            raise ValueError("%s's encrypt_seconds must be finite, got %s" % (name, _shown(seconds)))
        if seconds < 0:
            raise ValueError("%s's encrypt_seconds must be at least 0, got %s" % (name, _shown(seconds)))
    if len(rows) < 2:
        raise ValueError("need at least two rows to fit a growth exponent")
    if len({r.message_length for r in rows}) < 2:
        raise ValueError("need at least two distinct message lengths to fit a growth exponent")
    xs = [math.log(r.message_length) for r in rows]
    ys = [math.log(max(r.encrypt_seconds, 1e-9)) for r in rows]
    return linear_regression(xs, ys).slope
