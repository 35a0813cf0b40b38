"""PRNG and prime stream tests, including the frozen cross-implementation
test vectors that pin the wire contract down to the bit."""

import functools
import math
import random
import sys
import threading
import types
from array import array

import pytest

from cubecipher import CipherError, PRIME_LIMIT, Xorshift64Star, prime_stream, primes
from cubecipher.primes import (
    _CHUNK_DRAWS,
    _PRIME_TABLE,
    _TAIL,
    PRIME_COUNT_BELOW_LIMIT,
    _ahead,
    _cell_masks,
    _draw_sieve,
    _draw_table,
    _fill_chunk,
    _screen,
    _xorshift,
)
from spec import MASK64, is_prime, reference_prime_stream, xorshift_reference


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# Frozen vectors: any conforming implementation must reproduce these exactly.
XORSHIFT_VECTORS = {
    1: [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
        1036278371763004928,
    ],
    42: [
        6255019084209693600,
        14430073426741505498,
        14575455857230217846,
        17414512882241728735,
        14100574548354140678,
    ],
    0: [
        973819730272012410,
        6108091081255984487,
        12125365036566318712,
    ],
}

PRIME_STREAM_SEED_5198_FIRST_4 = [13, 63587, 13063, 57373]


def test_xorshift_frozen_vectors():
    for seed, expected in XORSHIFT_VECTORS.items():
        rng = Xorshift64Star(seed)
        assert [rng.next_u64() for _ in range(len(expected))] == expected
        assert xorshift_reference(seed, len(expected)) == expected


def test_xorshift_zero_seed_is_remapped():
    a = Xorshift64Star(0)
    b = Xorshift64Star(0x9E3779B97F4A7C15)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_xorshift_seed_validation():
    with pytest.raises(ValueError):
        Xorshift64Star(-1)
    with pytest.raises(ValueError):
        Xorshift64Star(1 << 64)
    with pytest.raises(TypeError):
        Xorshift64Star("7")


def test_xorshift_below():
    rng = Xorshift64Star(9)
    for _ in range(100):
        assert 0 <= rng.below(13) < 13
    with pytest.raises(ValueError):
        rng.below(0)


def _scalar_step(state):
    state ^= state >> 12
    state ^= (state << 25) & MASK64
    state ^= state >> 27
    return state


def test_xorshift_is_the_scalar_step():
    # 2**38 and 2**39 - 1 have set bits on both sides of the << 25 mask's edge
    rng = random.Random(64)
    words = [1, 1 << 38, (1 << 39) - 1, 1 << 63, MASK64] + [rng.getrandbits(64) for _ in range(16)]
    for _ in range(3):
        assert [_xorshift(w) for w in words] == [_scalar_step(w) for w in words]
        words = [_scalar_step(w) for w in words]


@pytest.mark.parametrize("lanes", [1, 2, 63, 64])
def test_packed_xorshift_steps_each_lane_as_the_scalar_step(lanes):
    # the draw table packs a state's steps as 16-bit lanes, grown by doubling
    # from one step: 1, 2, 63 and 64 lanes sit at and beside doubling edges
    rng = random.Random(lanes)
    words = [rng.getrandbits(64) for _ in range(lanes)]
    words[0] = words[-1] = MASK64  # all bits set: every entry is in the XOR
    table = _draw_table()
    for word in words:
        packed = _ahead(word, table) & ((1 << 16 * lanes) - 1)
        states = _scalar_states(word, lanes)
        assert packed == sum((s & 0xFFFF) << (16 * k) for k, s in enumerate(states)), word


@pytest.mark.parametrize("n", [1, 127, 128, 199, 2**64 - 1])
def test_below_many_is_repeated_below(n):
    for count in range(301):
        seed = (count * 0x9E3779B97F4A7C15 + n) % 2**64
        fast, slow = Xorshift64Star(seed), Xorshift64Star(seed)
        assert fast.below_many(n, count) == [slow.below(n) for _ in range(count)]
        assert fast._state == slow._state
        assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_below_many_rejects_what_below_rejects(n):
    with pytest.raises(ValueError) as slow:
        Xorshift64Star(9).below(n)
    for count in (0, 5):
        rng = Xorshift64Star(9)
        with pytest.raises(ValueError) as fast:
            rng.below_many(n, count)
        assert str(fast.value) == str(slow.value)
        assert rng.next_u64() == Xorshift64Star(9).next_u64()  # no draw was spent


def test_prime_stream_empty():
    assert prime_stream(1, 0) == []


def test_prime_stream_is_deterministic():
    assert prime_stream(42, 200) == prime_stream(42, 200)
    # a stream is a prefix of any longer stream under the same seed
    assert prime_stream(42, 50) == prime_stream(42, 200)[:50]


def test_prime_stream_frozen_prefix():
    assert prime_stream(5198, 4) == PRIME_STREAM_SEED_5198_FIRST_4


def test_prime_stream_distinct_prime_bounded():
    stream = prime_stream(42, 1000)
    assert len(stream) == 1000
    assert len(set(stream)) == 1000
    for p in stream:
        assert 2 <= p < PRIME_LIMIT
        assert trial_division_is_prime(p)


def test_prime_stream_count_limit():
    with pytest.raises(CipherError):
        prime_stream(1, 6543)
    with pytest.raises(ValueError):
        prime_stream(1, -1)


def test_prime_stream_shows_a_huge_count_short():
    # the count used to raise the interpreter's int/str-limit ValueError
    with pytest.raises(CipherError) as excinfo:
        prime_stream(1, 10**5000)
    assert str(excinfo.value) == (
        "cannot emit a 16610-bit int distinct primes below 65536 (only 6542 exist)"
    )


@pytest.mark.parametrize("count", [2.5, True, False, "3", None])
def test_prime_stream_rejects_a_count_that_is_not_an_int(count):
    with pytest.raises(TypeError):
        prime_stream(1, count)


def test_is_prime_against_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**64 - 1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    with pytest.raises(ValueError):
        is_prime(1 << 64)


_rng = random.Random(6542)
DIFFERENTIAL_SEEDS = [0, 1, 5198, MASK64] + [_rng.randrange(1 << 64) for _ in range(20)]


@functools.lru_cache(maxsize=None)
def _full_reference(seed):
    return reference_prime_stream(seed, PRIME_COUNT_BELOW_LIMIT)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_prime_stream_matches_reference_loop(seed):
    expected = _full_reference(seed)
    assert prime_stream(seed, PRIME_COUNT_BELOW_LIMIT) == expected
    for length in (0, 1, 7, 256, 1024, 4096):
        assert prime_stream(seed, length) == expected[:length]


def test_sieve_table_agrees_with_is_prime():
    assert len(_PRIME_TABLE) == PRIME_LIMIT
    assert [n for n in range(PRIME_LIMIT) if _PRIME_TABLE[n]] == [
        n for n in range(PRIME_LIMIT) if is_prime(n)
    ]
    assert sum(_PRIME_TABLE) == PRIME_COUNT_BELOW_LIMIT


_rng = random.Random(65536)
PREFIX_SEEDS = [0, 1, MASK64, _rng.randrange(1 << 64)]
# every short length, then lengths up to the ceiling, so that the streams
# end in every part of a chunk
PREFIX_LENGTHS = list(range(301)) + sorted(
    _rng.randrange(301, PRIME_COUNT_BELOW_LIMIT + 1) for _ in range(64)
) + [511, 512, 513, 1023, 1024, 1025] + [
    PRIME_COUNT_BELOW_LIMIT - _TAIL + d for d in (-1, 0, 1)  # the first screened chunk
] + [PRIME_COUNT_BELOW_LIMIT - 1, PRIME_COUNT_BELOW_LIMIT]


@pytest.mark.parametrize("seed", PREFIX_SEEDS)
def test_prime_stream_is_the_reference_prefix_at_every_length(seed):
    expected = _full_reference(seed)
    for n in PREFIX_LENGTHS:
        assert prime_stream(seed, n) == expected[:n], n


SCREEN_LENGTHS = [0, 1, 100, 1024, 4096, 6000, PRIME_COUNT_BELOW_LIMIT - 1, PRIME_COUNT_BELOW_LIMIT]


@pytest.mark.parametrize("tail", [PRIME_COUNT_BELOW_LIMIT, 0])
@pytest.mark.parametrize("seed", PREFIX_SEEDS)
def test_prime_stream_is_the_reference_with_every_or_no_chunk_screened(seed, tail, monkeypatch):
    """With _TAIL at 6542 every chunk is screened once before its lookups,
    and with _TAIL at 0 none is: the stream is the reference either way.
    At the default _TAIL a stream of 6542 - _TAIL primes screens nothing,
    and a full stream screens only chunks after the one that emits prime
    6542 - _TAIL, at least one of them."""
    fills, screens = [], []  # screens: the chunks drawn when each screen began

    def filled(state):
        fills.append(state)
        return _fill_chunk(state)

    def screened(halfwords, masks):
        screens.append(len(fills))
        return _screen(halfwords, masks)

    monkeypatch.setattr(primes, "_fill_chunk", filled)
    monkeypatch.setattr(primes, "_screen", screened)
    prime_stream(seed, PRIME_COUNT_BELOW_LIMIT - _TAIL)
    head_chunks = len(fills)  # the last of them emits prime 6542 - _TAIL
    assert screens == []
    fills.clear()
    prime_stream(seed, PRIME_COUNT_BELOW_LIMIT)
    assert screens and min(screens) > head_chunks
    monkeypatch.setattr(primes, "_TAIL", tail)
    expected = _full_reference(seed)
    for n in SCREEN_LENGTHS:
        fills.clear()
        screens.clear()
        assert prime_stream(seed, n) == expected[:n], n
        assert screens == (list(range(1, len(fills) + 1)) if tail else []), n


def _cell_of(u):
    """The 32 u's that share u's high byte and the top 3 bits of its low byte."""
    return range(u & 0xFFE0, (u & 0xFFE0) + 32)


@pytest.mark.parametrize("left", [1, 2, 7, 64, 256, 2000])
def test_screen_flags_every_draw_whose_cell_holds_an_unemitted_prime(left, monkeypatch):
    """A brute-force check on random chunks: the screen yields, in draw
    order, the draws whose cell holds some unemitted u, so it never drops
    a draw that can emit. The chunks repeat an unemitted u and end on one,
    hold draws beside an unemitted u in its cell and in the next cell, and
    one holds no draw that can emit. The same bytes laid out by a host of
    the other byte order yield the draws at the same positions."""
    rng = random.Random(left)
    sieve = _draw_sieve()
    unused = bytearray(PRIME_LIMIT)
    for u in rng.sample([u for u in range(PRIME_LIMIT) if sieve[u]], left):
        unused[u] = 1
    masks = _cell_masks(unused)
    unemitted = [u for u in range(PRIME_LIMIT) if unused[u]]
    cold = [u for u in range(PRIME_LIMIT) if not any(unused[v] for v in _cell_of(u))]
    screened = []
    for trial in range(20):
        if trial == 0:
            draws = rng.choices(cold, k=_CHUNK_DRAWS)
        else:
            draws = [rng.randrange(PRIME_LIMIT) for _ in range(_CHUNK_DRAWS)]
            repeated = rng.choice(unemitted)
            for k in rng.sample(range(_CHUNK_DRAWS), 3):
                draws[k] = repeated
            for k in rng.sample(range(_CHUNK_DRAWS), 8):
                draws[k] = rng.choice(unemitted) ^ rng.choice([0, 1, 31, 32])  # same or next cell
            draws[-1] = rng.choice(unemitted)
        flagged = list(_screen(array("H", draws), masks))
        positions = [k for k, u in enumerate(draws) if any(unused[v] for v in _cell_of(u))]
        assert flagged == [draws[k] for k in positions], trial
        assert [u for u in flagged if unused[u]] == [u for u in draws if unused[u]], trial
        if trial == 0:
            assert flagged == []
        screened.append((draws, positions))
    # a host of the other byte order keeps each halfword's two bytes swapped
    monkeypatch.setattr(primes, "_LOW_BYTE", 1 - primes._LOW_BYTE)
    for draws, positions in screened:
        swapped = array("H", [(u >> 8) | (u & 0xFF) << 8 for u in draws])
        assert list(_screen(swapped, masks)) == [swapped[k] for k in positions]


def test_cell_masks_mark_exactly_the_cells_that_hold_an_unemitted_u():
    rng = random.Random(2048)
    unused = bytearray(PRIME_LIMIT)
    for u in rng.sample(range(PRIME_LIMIT), 300) + [0, PRIME_LIMIT - 1]:
        unused[u] = 1
    masks = _cell_masks(unused)
    for high in range(256):
        for cell in range(8):
            start = high << 8 | cell << 5
            assert (masks[high] >> cell & 1) == any(unused[start : start + 32]), (high, cell)
    assert _cell_masks(bytearray(PRIME_LIMIT)) == bytearray(256)


def _scalar_states(state, steps):
    """The states after 1, 2, ..., steps scalar steps from state."""
    states = []
    for _ in range(steps):
        state = _scalar_step(state)
        states.append(state)
    return states


def test_draw_table_rows_and_jumps_are_the_scalar_steps():
    """For every bit b, lane k - 1 of entry b (16 bits wide) is the low 16
    bits of e_b after k scalar steps, and the 64 bits above the lanes are
    e_b after a chunk's steps."""
    table = _draw_table()
    assert len(table) == 64
    for bit in range(64):
        states = _scalar_states(1 << bit, _CHUNK_DRAWS)
        assert table[bit].to_bytes(2 * _CHUNK_DRAWS + 8, "little") == b"".join(
            (s & 0xFFFF).to_bytes(2, "little") for s in states
        ) + states[-1].to_bytes(8, "little"), bit


_rng = random.Random(512)
CHUNK_STATES = [1, 3, 16, 256, 1 << 63, MASK64] + [_rng.randrange(1, 1 << 64) for _ in range(4)]


@pytest.mark.parametrize("state", CHUNK_STATES)
def test_chunk_layout_gives_draw_order_on_every_host(state):
    """Halfword k of the chunk is u = low16(state) after draw k, in draw
    order; low16(u * 0xDD1D) is the scalar loop's candidate; and the chunk
    ends in the state that a chunk's draws reach."""
    end, halfwords = _fill_chunk(state)
    states = _scalar_states(state, _CHUNK_DRAWS)
    assert halfwords == array("H", [s & 0xFFFF for s in states])
    assert [u * 0xDD1D & 0xFFFF for u in halfwords] == [
        o & (PRIME_LIMIT - 1) for o in xorshift_reference(state, _CHUNK_DRAWS)
    ]
    assert end == states[-1]


@pytest.mark.parametrize("state", [1, 3, 16, 256])
def test_chunk_made_for_the_other_byte_order_is_byte_swapped(state, monkeypatch):
    """Faking the other byte order (big-endian on a little-endian host)
    gives every u halfword with its two bytes swapped: the swap runs on a
    big-endian host and only there."""
    end, halfwords = _fill_chunk(state)
    assert len(halfwords) == _CHUNK_DRAWS
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(primes, "sys", types.SimpleNamespace(byteorder=other))
    swapped = array("H", [(h >> 8) | (h & 0xFF) << 8 for h in halfwords])
    assert _fill_chunk(state) == (end, swapped)


def test_draw_sieve_is_the_sieve_permuted_by_the_candidate_map():
    """Entry u of the draw sieve is the sieve's entry at low16(u * 0xDD1D),
    the candidate of a draw whose state ends in u."""
    sieve = _draw_sieve()
    assert len(sieve) == PRIME_LIMIT
    assert all(sieve[u] == _PRIME_TABLE[u * 0xDD1D & 0xFFFF] for u in range(PRIME_LIMIT))


def _draws_to_emit(seed, count):
    """Draws the scalar loop takes to emit count primes under seed."""
    wanted = set(_full_reference(seed)[:count])
    for draws, output in enumerate(xorshift_reference(seed, 16 * _CHUNK_DRAWS), 1):
        wanted.discard(output & (PRIME_LIMIT - 1))
        if not wanted:
            return draws
    raise AssertionError("%d primes take over 16 chunks" % count)


@pytest.mark.parametrize("count", [1, 16, 511, 512, 513])
def test_prime_stream_draws_its_chunks_and_no_more(count, monkeypatch):
    """A stream whose last prime is draw d draws ceil(d / 1024) chunks,
    each from where the one before ended: draw d is chunk (d - 1) // 1024
    at position (d - 1) % 1024. So does a stream screened from its first
    chunk, with _TAIL at 6542."""
    seed = 5198
    needed = -(-_draws_to_emit(seed, count) // _CHUNK_DRAWS)
    start = Xorshift64Star(seed)._state
    states = [start] + _scalar_states(start, _CHUNK_DRAWS * needed)
    starts = []

    def counted(state):
        starts.append(state)
        assert len(starts) <= needed, "a chunk drawn past the stream's last prime"
        return _fill_chunk(state)

    monkeypatch.setattr(primes, "_fill_chunk", counted)
    for tail in (_TAIL, PRIME_COUNT_BELOW_LIMIT):
        monkeypatch.setattr(primes, "_TAIL", tail)
        starts.clear()
        assert prime_stream(seed, count) == _full_reference(seed)[:count], tail
        assert starts == states[:: _CHUNK_DRAWS][:needed], tail


_COLLECTOR_SEEDS = 20
_COLLECTOR_Z = 4  # standard errors of the model's mean that the measured mean may stray


def _collector_model(count):
    """Mean and variance of the draws that emit count primes, taking each
    draw's candidate as uniform on [0, 2**16): with i primes out, a draw
    emits a new one with probability q_i = (6542 - i) / 65536, so the
    draws are a sum of geometric waits, mean sum 1 / q_i and variance
    sum (1 - q_i) / q_i**2."""
    qs = [(PRIME_COUNT_BELOW_LIMIT - i) / PRIME_LIMIT for i in range(count)]
    return sum(1 / q for q in qs), sum((1 - q) / q**2 for q in qs)


@pytest.mark.parametrize("count", [136, 1024, 4096, PRIME_COUNT_BELOW_LIMIT])
def test_chunk_count_follows_the_coupon_collector(count, monkeypatch):
    """The mean chunk count over 20 fixed seeds is E(n) / 1024 within 4
    standard errors of the model's mean, sqrt(V(n) / 20) / 1024 chunks,
    plus up to one chunk above for each stream rounding its last draw up
    to a whole chunk. The bound comes from the model alone; at 6,542
    primes E(n) is ~614,000 draws, ~94 per prime."""
    chunks = []

    def counted(state):
        chunks[-1] += 1
        return _fill_chunk(state)

    monkeypatch.setattr(primes, "_fill_chunk", counted)
    rng = Xorshift64Star(13)
    for _ in range(_COLLECTOR_SEEDS):
        chunks.append(0)
        prime_stream(rng.next_u64(), count)
    mean, variance = _collector_model(count)
    slack = _COLLECTOR_Z * math.sqrt(variance / _COLLECTOR_SEEDS)
    measured = sum(chunks) / _COLLECTOR_SEEDS
    assert (mean - slack) / _CHUNK_DRAWS <= measured <= (mean + slack) / _CHUNK_DRAWS + 1


@pytest.mark.parametrize(
    "seed, error", [(-1, ValueError), (1 << 64, ValueError), ("7", TypeError), (True, TypeError)]
)
@pytest.mark.parametrize("count", [0, 5])
def test_prime_stream_rejects_a_bad_seed(seed, error, count):
    with pytest.raises(error):
        Xorshift64Star(seed)
    with pytest.raises(error):
        prime_stream(seed, count)


def test_draw_table_built_by_concurrent_first_use():
    """Threads that each need the draw table and the draw sieve, from empty
    caches, get the reference streams, and the one table and sieve left
    cached are the ones a fresh build gives."""
    _draw_table.cache_clear()
    _draw_sieve.cache_clear()
    # references cached above
    jobs = [(s, n) for s in PREFIX_SEEDS for n in (16, 300, 4000, PRIME_COUNT_BELOW_LIMIT)]
    results = {}
    threads = [
        threading.Thread(target=lambda s=s, n=n: results.__setitem__((s, n), prime_stream(s, n)))
        for s, n in jobs
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert _draw_table.cache_info().currsize == _draw_sieve.cache_info().currsize == 1
    assert _draw_table() == _draw_table.__wrapped__()
    assert _draw_sieve() == _draw_sieve.__wrapped__()
    for s, n in jobs:
        assert results[(s, n)] == _full_reference(s)[:n]
