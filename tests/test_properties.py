"""Property-based checks of the wire formats, the cipher and the attack
(skipped when hypothesis is absent).

Every parser must turn any text, and any JSON document, into either a
value or a FormatError; nothing else may escape, so the CLI always maps a
bad file to its documented exit code. The ciphertext serializer must write
exactly what its reference writes; encrypt and decrypt, under genuine and
wrong keys, must match the block chain spelled out in the spec, down to
the class and message of the error; and the known-plaintext attack must
reach its reference's map, verdict, JSON text and rank.
"""

import dataclasses
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cubecipher import (  # noqa: E402
    MAX_FIB_INDEX,
    CiphertextEnvelope,
    FormatError,
    IntMatrix,
    KeyMaterial,
    decrypt,
    encrypt,
    encrypt_block,
    keygen,
    parse_ciphertext,
    parse_key,
    parse_pairs,
    serialize_ciphertext,
)
from spec import (  # noqa: E402
    attack_outcome,
    outcome,
    reference_attack,
    reference_decrypt,
    reference_encrypt,
    reference_serialize_ciphertext,
)

PARSERS = (parse_key, parse_ciphertext, parse_pairs)

# decimal-looking strings, canonical or not, next to arbitrary text
_decimals = st.from_regex(r"-?[0-9]{1,30}", fullmatch=True)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _decimals,
    st.text(max_size=20),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=12), inner, max_size=5),
    ),
    max_leaves=25,
)
_block = st.one_of(st.lists(_decimals, min_size=4, max_size=4), _json)
# documents with the right field names, so parsing gets past the first checks
_shaped = st.one_of(
    st.fixed_dictionaries(
        {
            "version": st.one_of(st.just(1), _json),
            "k": _block,
            "fib_index": st.one_of(_decimals, _json),
            "quarter_turns": st.one_of(_decimals, _json),
            "prime_seed": st.one_of(_decimals, _json),
        }
    ),
    st.fixed_dictionaries(
        {
            "version": st.one_of(st.just(1), _json),
            "pad_count": st.one_of(st.integers(-1, 4), _json),
            "blocks": st.lists(_block, max_size=3),
        }
    ),
    st.fixed_dictionaries(
        {
            "version": st.one_of(st.just(1), _json),
            "pairs": st.one_of(
                st.lists(
                    st.one_of(
                        st.fixed_dictionaries({"plaintext": _block, "ciphertext": _block}),
                        _json,
                    ),
                    max_size=3,
                ),
                _json,
            ),
        }
    ),
)


def _parse_all(text):
    for parse in PARSERS:
        try:
            parse(text)
        except FormatError:
            pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text())
def test_parsers_raise_only_format_error_on_arbitrary_text(text):
    _parse_all(text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_json, _shaped))
def test_parsers_raise_only_format_error_on_arbitrary_json(doc):
    _parse_all(json.dumps(doc))


class _Tagged(int):
    pass


# block entries from small to past the int/str limit (~4,300 digits)
_entries = st.one_of(
    st.integers(),
    st.integers(-(10**4400), 10**4400),
    st.builds(_Tagged, st.integers(-(10**12), 10**12)),
)
_blocks = st.lists(st.tuples(_entries, _entries, _entries, _entries), max_size=4)


@st.composite
def _envelopes(draw):
    blocks = draw(_blocks)
    pad_count = draw(st.integers(0, 3)) if blocks else 0
    version = draw(st.one_of(st.just(1), st.integers(), st.booleans(), st.text(max_size=8)))
    return CiphertextEnvelope(version, pad_count, tuple(IntMatrix(2, 2, b) for b in blocks))


def _outcome(serialize, envelope):
    try:
        return serialize(envelope)
    except FormatError as exc:
        return FormatError, str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_envelopes())
def test_serialize_ciphertext_matches_the_reference(envelope):
    assert _outcome(serialize_ciphertext, envelope) == _outcome(
        reference_serialize_ciphertext, envelope
    )


def _invertible(entries):
    a, b, c, d = entries
    return a * d != b * c


# key matrices: |det K| = 1 (so a wrong key passes the un-mix and fails
# later), entries in keygen's range, and entries up to 10**30 (large |det K|)
_key_matrices = st.one_of(
    st.sampled_from(((1, 0, 0, 1), (2, 1, 1, 1), (0, 1, -1, 0), (1, 10**6, 0, -1),
                     (-(10**9), 10**9 + 1, 1, -1))),
    st.tuples(*[st.integers(-99, 99)] * 4).filter(_invertible),
    st.tuples(*[st.integers(-(10**30), 10**30)] * 4).filter(_invertible),
)
_hostile_keys = st.builds(
    KeyMaterial,
    _key_matrices.map(lambda entries: IntMatrix(2, 2, entries)),
    st.one_of(st.integers(1, 40), st.integers(MAX_FIB_INDEX - 2, MAX_FIB_INDEX)),
    st.integers(-4, 7),  # every rotation, stored mod 4
    st.integers(0, 2**64 - 1),
)
_keys = st.one_of(st.builds(keygen, st.integers(0, 2**64 - 1)), _hostile_keys)


@st.composite
def _wrong_keys(draw, key):
    """Another key, or key with one field changed: the same K passes the
    un-mix under any fib_index and rotation, so those fail at a pad slot
    or a symbol."""
    kind = draw(st.sampled_from(("other", "fib_index", "quarter_turns", "prime_seed")))
    if kind == "other":
        return draw(_keys)
    fields = {
        "fib_index": st.integers(1, MAX_FIB_INDEX),
        "quarter_turns": st.integers(0, 3),
        "prime_seed": st.integers(0, 2**64 - 1),
    }
    return dataclasses.replace(key, **{kind: draw(fields[kind])})


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_encrypt_and_decrypt_match_the_spec(data):
    key = data.draw(_keys)
    byte_mode = data.draw(st.booleans())
    top = 255 if byte_mode else 127
    message = bytes(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=24)))
    envelope = encrypt(message, key, byte_mode)
    assert envelope == reference_encrypt(message, key)
    assert decrypt(envelope, key, byte_mode) == reference_decrypt(envelope, key, byte_mode) == message
    wrong = data.draw(_wrong_keys(key))
    assert outcome(decrypt, envelope, wrong, byte_mode) == outcome(
        reference_decrypt, envelope, wrong, byte_mode
    )


# attack block entries from -2 to 2, so that dependent and zero blocks are
# common, and up to 10**6
_attack_blocks = st.builds(
    lambda entries: IntMatrix(2, 2, entries),
    st.tuples(*[st.one_of(st.integers(-2, 2), st.integers(-(10**6), 10**6))] * 4),
)


@st.composite
def _pair_lists(draw):
    """0-7 pairs: fewer than four, plaintexts from a space of rank below
    4, or four or more arbitrary or genuine pairs, one of the genuine ones
    forged at times. The last two kinds take their blocks, of up to ~4,000
    digits, where the map's entries pass the int/str limit, from a seeded
    Random, since blocks drawn one by one repeat too often to reach rank 4."""
    kind = draw(st.sampled_from(("genuine", "arbitrary", "low rank", "short")))
    if kind == "short":
        return draw(st.lists(st.tuples(_attack_blocks, _attack_blocks), max_size=3))
    if kind == "low rank":
        base = [b.entries for b in draw(st.lists(_attack_blocks, min_size=1, max_size=3))]
        pairs = []
        for _ in range(draw(st.integers(1, 7))):
            scales = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            plain = tuple(sum(c * b[k] for c, b in zip(scales, base)) for k in range(4))
            pairs.append((IntMatrix(2, 2, plain), draw(_attack_blocks)))
        return pairs
    rnd = draw(st.randoms(use_true_random=True))
    span = 10 ** draw(st.sampled_from((1, 6, 30, 4000)))

    def block():
        return IntMatrix(2, 2, tuple(rnd.randint(-span, span) for _ in range(4)))

    count = draw(st.integers(4, 7))
    if kind == "arbitrary":
        return [(block(), block()) for _ in range(count)]
    key = keygen(rnd.getrandbits(64))
    pairs = [(b, encrypt_block(b, key)) for b in (block() for _ in range(count))]
    if draw(st.booleans()):
        pairs[rnd.randrange(count)] = (block(), block())
    return pairs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_pair_lists())
def test_attack_matches_the_reference(pairs):
    assert attack_outcome(pairs) == reference_attack(pairs)
