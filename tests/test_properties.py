"""Property-based checks of the wire formats, the cipher and the attack
(skipped when hypothesis is absent).

Every parser must turn any text, and any JSON document, into either a
value or a FormatError; nothing else may escape, so the CLI always maps a
bad file to its documented exit code. The ciphertext serializer must write
exactly what its reference writes, or refuse what it refuses; encrypt and decrypt, under genuine and
wrong keys, must match the block chain spelled out in the spec, down to
the class and message of the error; and the known-plaintext attack must
reach its reference's map, verdict, JSON text and rank. Encrypt, decrypt
and avalanche_test under one key object, which keeps the primes it
draws, must give what the same calls give under fresh equal keys. Run in
process on damaged key, ciphertext and pair files, the command line must
keep its error contract: a documented exit code, one short error line,
and no output or temp file left behind. IntMatrix.det must equal the
cofactor expansion up to 7x7, singular matrices and zero pivots included.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cubecipher import (  # noqa: E402
    MAX_FIB_INDEX,
    MAX_MESSAGE_BYTES,
    CiphertextEnvelope,
    FormatError,
    IntMatrix,
    KeyMaterial,
    avalanche_test,
    cli,
    decrypt,
    encode_symbol,
    encrypt,
    encrypt_block,
    integer_cube_root,
    keygen,
    parse_ciphertext,
    parse_key,
    parse_pairs,
    prime_stream,
    serialize_ciphertext,
    serialize_pairs,
)
from spec import (  # noqa: E402
    attack_outcome,
    outcome,
    reference_attack,
    reference_decrypt,
    reference_encrypt,
    reference_det,
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
    """The fields of an envelope, (pad_count, blocks)."""
    blocks = draw(_blocks)
    pad_count = draw(st.integers(0, 3)) if blocks else 0
    return pad_count, tuple(IntMatrix(2, 2, b) for b in blocks)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_envelopes())
def test_serialize_ciphertext_matches_the_reference(fields):
    """Each drawn envelope's file is the reference's, or the reference
    refuses to write it with the same error, for an entry too long, and
    the file parses back to the envelope."""
    built = CiphertextEnvelope(*fields)
    text = outcome(serialize_ciphertext, built)
    assert text == outcome(reference_serialize_ciphertext, built)
    if isinstance(text, str):
        assert parse_ciphertext(text) == built


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


def _cubic(n):
    return (n * n * n - n) // 6


_T_BOUND = 1 << 50  # decrypt's bulk decode takes a float root below this t
_N_AT_BOUND = integer_cube_root(6 * _T_BOUND) + 1  # the first n with t(n) >= _T_BOUND


def _tampered_values(t, prime):
    """Values to put in place of the encoded value t of a symbol keyed by
    prime: its neighbours, 0 and negatives, values around the float bound
    (genuine roots among them), another symbol's genuine encoding, and
    4,000-digit values, genuine or not."""
    return st.one_of(
        st.sampled_from((t - 1, t + 1, 0)),
        st.integers(-(10**6), -1),
        st.integers(_T_BOUND - 3, _T_BOUND + 3),
        st.integers(_N_AT_BOUND - 2, _N_AT_BOUND + 2).map(_cubic),
        st.integers(0, 255).map(lambda code: encode_symbol(code, prime)),
        st.integers(2, 65521 + 255).map(_cubic),
        st.integers(-(10**4000), 10**4000),
        st.integers(10**1333, 10**1334).map(_cubic),
    )


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
    # tampered encoded values, mixed through the key's own map so that the
    # un-mix passes and decoding or the pad check meets them
    primes = prime_stream(key.prime_seed, len(message))
    ts = [encode_symbol(b, p) for b, p in zip(message, primes)]
    ts += [0] * envelope.pad_count
    for i in data.draw(st.lists(st.integers(0, len(ts) - 1), min_size=1, max_size=3)):
        ts[i] = data.draw(_tampered_values(ts[i], primes[i] if i < len(primes) else 2))
    vectors = iter(ts)
    tampered = CiphertextEnvelope(envelope.pad_count, [
        encrypt_block(IntMatrix(2, 2, v), key) for v in zip(vectors, vectors, vectors, vectors)
    ])
    assert outcome(decrypt, tampered, key, byte_mode) == outcome(
        reference_decrypt, tampered, key, byte_mode
    )


# attack block entries from -2 to 2, so that dependent and zero blocks are
# common, and up to 10**6
_attack_blocks = st.builds(
    lambda entries: IntMatrix(2, 2, entries),
    st.tuples(*[st.one_of(st.integers(-2, 2), st.integers(-(10**6), 10**6))] * 4),
)


def _call(call, key):
    """A digest of the outcome, output or error, of one encrypt, decrypt or
    avalanche_test call of the given length under key (pytest's diff of
    two long outputs that differ can take minutes)."""
    kind, length, byte_mode, decrypt_mode, seed = call
    rng = random.Random(seed)
    message = bytes(rng.randrange(256 if byte_mode else 128) for _ in range(length))
    if kind == "encrypt":
        result = serialize_ciphertext(encrypt(message, key, byte_mode))
    elif kind == "decrypt":
        # a byte-mode message read in strict mode fails at its first high byte
        envelope = encrypt(message, dataclasses.replace(key), byte_mode)
        result = outcome(decrypt, envelope, key, decrypt_mode)
    else:
        result = avalanche_test(key, max(length, 1), 1 + seed % 2, seed).to_json_text()
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _calls(lengths=st.integers(0, MAX_MESSAGE_BYTES)):
    return st.tuples(
        st.sampled_from(("encrypt", "decrypt", "avalanche")),
        lengths,
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32),
    )


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.data())
def test_a_reused_key_gives_what_fresh_keys_give(seed, data):
    """Calls under one key object, which keeps the primes it draws, match
    the same calls each under a fresh equal key, which draws anew. The
    first three lengths run middle, short, long: a short request after a
    long one and a long one after a short one, past the kept prefix."""
    key = keygen(seed)
    short = data.draw(st.integers(0, MAX_MESSAGE_BYTES - 2))
    middle = data.draw(st.integers(short + 1, MAX_MESSAGE_BYTES - 1))
    longest = data.draw(st.integers(middle + 1, MAX_MESSAGE_BYTES))
    calls = [data.draw(_calls(st.just(length))) for length in (middle, short, longest)]
    calls += data.draw(st.lists(_calls(), max_size=3))
    for call in calls:
        # replace builds an equal key through the constructor, with no primes kept
        assert _call(call, key) == _call(call, dataclasses.replace(key))


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


FIXTURES = Path(__file__).parent / "fixtures"
_KEY = (FIXTURES / "golden_key.json").read_bytes()
_rng = random.Random(15)
# four pairs under the golden key: dropping one leaves rank 3
_plain = [IntMatrix(2, 2, tuple(_rng.randint(-(10**6), 10**6) for _ in range(4))) for _ in range(4)]
_pairs = [(b, encrypt_block(b, parse_key(_KEY.decode()))) for b in _plain]
_GOLDEN = {
    "KEY": _KEY,
    "CIPHERTEXT": (FIXTURES / "golden_ciphertext.json").read_bytes(),
    "MESSAGE": (FIXTURES / "golden_message.txt").read_bytes(),
    "PAIRS": serialize_pairs(_pairs).encode(),
}

# (command with the damaged file as DAMAGED, the golden file it damages,
# the exit codes other than 0 that damage to that file may give); "-" is
# stdin, which carries the damaged file
_RUNS = (
    (("encrypt", "--key", "DAMAGED", "--in", "MESSAGE"), "KEY", {3, 4}),
    (("decrypt", "--key", "DAMAGED", "--in", "CIPHERTEXT"), "KEY", {3, 4}),
    (("decrypt", "--key", "KEY", "--in", "DAMAGED"), "CIPHERTEXT", {4}),
    (("decrypt", "--key", "KEY", "--in", "-"), "CIPHERTEXT", {4}),
    (("attack", "--pairs", "DAMAGED"), "PAIRS", {2, 4}),
)
_LONGEST_ERROR = 240  # characters in the one stderr line, newline and paths not counted
_SLOWEST_RUN = 10.0  # seconds; an attack on ~4,000-digit pairs takes well under 1


def _flip(draw, data):
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]


class _Fields(list):
    """A JSON object as its list of (name, value) fields, so that a field
    can be repeated."""


def _render(node):
    if isinstance(node, _Fields):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), _render(v)) for k, v in node)
    if isinstance(node, list):
        return "[%s]" % ", ".join(map(_render, node))
    return json.dumps(node)


def _containers(node):
    if isinstance(node, list):
        yield node
        for item in node:
            yield from _containers(item[1] if isinstance(node, _Fields) else item)


def _drop_or_repeat(draw, data):
    """Drop or repeat one field of an object, or one item of a list."""
    try:
        doc = json.loads(data, object_pairs_hook=_Fields)
    except ValueError:
        return data
    containers = [c for c in _containers(doc) if c]
    if not containers:
        return data
    node = draw(st.sampled_from(containers))
    i = draw(st.integers(0, len(node) - 1))
    if draw(st.booleans()):
        del node[i]
    else:
        node.insert(i, node[i])
    return _render(doc).encode()


def _grow(draw, data):
    """One number written out with 60 digits, or ~4,000, or past the
    4,300 that Python converts by default."""
    numbers = list(re.finditer(rb"[0-9]+", data))
    if not numbers:
        return data
    m = draw(st.sampled_from(numbers))
    digits = draw(st.sampled_from((60, 4000, 4299, 4301, 6000)))
    return data[: m.start()] + b"9" * digits + data[m.end() :]


def _version(draw, data):
    other = draw(st.sampled_from((b"2", b"0", b"-1", b'"1"', b"true", b"null", b"1.0", b"[1]")))
    return data.replace(b'"version": 1', b'"version": ' + other, 1)


def _truncate(draw, data):
    return data[: draw(st.integers(0, len(data)))]


def _non_utf8(draw, data):
    i = draw(st.integers(0, len(data)))
    bad = draw(st.sampled_from((b"\x80", b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")))
    return data[:i] + bad + data[i:]


_MUTATIONS = (_flip, _drop_or_repeat, _grow, _version, _truncate, _non_utf8)


@st.composite
def _damaged(draw, data):
    for _ in range(draw(st.integers(1, 3))):
        mutate = draw(st.sampled_from(_MUTATIONS))
        data = mutate(draw, data)
    return data


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_keeps_its_error_contract_on_damaged_files(data):
    command, golden, codes = data.draw(st.sampled_from(_RUNS))
    damaged = data.draw(_damaged(_GOLDEN[golden]))
    # an output path that is a directory makes the final rename fail (exit 5)
    into_directory = data.draw(st.integers(0, 3)) == 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = dict(_GOLDEN, DAMAGED=damaged)
        for name, content in files.items():
            (root / name).write_bytes(content)
        (root / "taken").mkdir()
        out = root / ("taken" if into_directory else "out")
        argv = [str(root / a) if a in files else a for a in command] + ["--out", str(out)]
        before = _tree(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with mock.patch("sys.stdin", SimpleNamespace(buffer=io.BytesIO(damaged))), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        after = _tree(root)
    err = stderr.getvalue()
    assert code in {0, 2, 3, 4, 5}
    assert code in (codes | {5} if into_directory else codes | {0})
    assert stdout.getvalue() == ""
    assert code != 2 or "rank 4 is required" in err  # too few pairs, not a raw ValueError
    if code == 0:
        assert err == ""
        assert after == sorted(before + ["out"])
    else:
        assert err.startswith("cubecipher: error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err and len(err.replace(tmp, "")) <= _LONGEST_ERROR
        assert ".cubecipher-" not in err  # a failed rename names --out, not the temp file
        assert after == before  # no output file, no .cubecipher-* temp file
    assert elapsed < _SLOWEST_RUN


@st.composite
def _square_rows(draw):
    """An n x n matrix, n up to 7, as a list of rows: as drawn, with a zero
    column, with a zero k-th pivot (a leading (k+1)x(k+1) minor that is
    singular), or with one row a combination of two others."""
    n = draw(st.integers(1, 7))
    span = draw(st.sampled_from((1, 3, 100, 10**30)))
    rows = [draw(st.lists(st.integers(-span, span), min_size=n, max_size=n)) for _ in range(n)]
    damage = draw(st.sampled_from(("none", "zero column", "zero pivot", "dependent row")))
    if damage == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    elif damage == "zero pivot":
        k = draw(st.integers(0, n - 1))
        if k == 0:
            rows[0][0] = 0
        else:
            rows[k][:k + 1] = [2 * e for e in rows[0][:k + 1]]
    elif damage == "dependent row" and n > 1:
        i, a, b = draw(st.permutations(range(n)))[:3] if n > 2 else (0, 1, 1)
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_square_rows())
def test_det_matches_the_cofactor_expansion(rows):
    assert IntMatrix.from_rows(rows).det() == reference_det(rows)
