"""Wire formats: canonical serialization, strict parsing, golden fixtures."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubecipher import (
    CiphertextEnvelope,
    CorruptCiphertextError,
    FormatError,
    IntMatrix,
    KeyMaterial,
    cli,
    encrypt,
    encrypt_block,
    errors,
    formats,
    keygen,
    parse_ciphertext,
    parse_key,
    parse_pairs,
    serialize_ciphertext,
    serialize_key,
    serialize_pairs,
)
from spec import outcome, reference_parse_ciphertext, reference_serialize_ciphertext

FIXTURES = Path(__file__).parent / "fixtures"


def test_key_round_trip():
    for seed in range(25):
        key = keygen(seed)
        assert parse_key(serialize_key(key)) == key


def test_ciphertext_round_trip():
    rng = random.Random(13)
    key = keygen(9)
    for length in (0, 1, 4, 5, 37):
        message = bytes(rng.randrange(0, 128) for _ in range(length))
        env = encrypt(message, key)
        assert parse_ciphertext(serialize_ciphertext(env)) == env


def test_serialization_is_stable():
    key = keygen(3)
    assert serialize_key(key) == serialize_key(key)
    env = encrypt(b"stable", key)
    assert serialize_ciphertext(env) == serialize_ciphertext(env)


def test_golden_key_fixture_round_trips_byte_identically():
    text = (FIXTURES / "golden_key.json").read_text(encoding="utf-8")
    assert serialize_key(parse_key(text)) == text


def test_golden_ciphertext_fixture_round_trips_byte_identically():
    text = (FIXTURES / "golden_ciphertext.json").read_text(encoding="utf-8")
    assert serialize_ciphertext(parse_ciphertext(text)) == text


def test_golden_ciphertext_matches_fresh_encryption():
    key = parse_key((FIXTURES / "golden_key.json").read_text(encoding="utf-8"))
    message = (FIXTURES / "golden_message.txt").read_bytes()
    expected = (FIXTURES / "golden_ciphertext.json").read_text(encoding="utf-8")
    assert serialize_ciphertext(encrypt(message, key)) == expected


def test_key_parsing_rejects_bad_documents():
    good = serialize_key(keygen(1))
    cases = [
        "not json at all",
        "[1, 2, 3]\n",
        good.replace('"version": 1', '"version": 2'),
        good.replace('"fib_index"', '"fibindex"'),
        # integer fields must be decimal strings, not JSON numbers
        '{"version": 1, "k": ["1", "0", "0", "1"], "fib_index": 1,'
        ' "quarter_turns": "0", "prime_seed": "7"}',
    ]
    for text in cases:
        with pytest.raises(FormatError):
            parse_key(text)


def test_key_parsing_rejects_noncanonical_numbers():
    template = (
        '{"version": 1, "k": ["1", "0", "0", "1"], "fib_index": "%s",'
        ' "quarter_turns": "0", "prime_seed": "7"}'
    )
    for bad in ("007", "-0", "+5", " 5", "5 ", "0x10", ""):
        with pytest.raises(FormatError):
            parse_key(template % bad)
    assert parse_key(template % "5").fib_index == 5


def test_key_parsing_range_checks():
    template = (
        '{"version": 1, "k": ["1", "0", "0", "1"], "fib_index": "1",'
        ' "quarter_turns": "%s", "prime_seed": "%s"}'
    )
    with pytest.raises(FormatError):
        parse_key(template % ("4", "7"))
    with pytest.raises(FormatError):
        parse_key(template % ("0", str(1 << 64)))
    assert parse_key(template % ("3", str((1 << 64) - 1))).quarter_turns == 3


def test_out_of_range_quarter_turns_gives_a_short_message():
    # a 4,000-digit quarter_turns parses as an int, and used to be echoed whole
    template = (
        '{"version": 1, "k": ["1", "0", "0", "1"], "fib_index": "1",'
        ' "quarter_turns": "%s", "prime_seed": "7"}'
    )
    for value, shown in (("4", "4"), ("-1", "-1"), ("9" * 4000, "9" * 40 + "... (4000 characters)")):
        with pytest.raises(FormatError) as info:
            parse_key(template % value)
        assert str(info.value) == "key file: quarter_turns must be in [0, 3], got " + shown


def test_out_of_range_prime_seed_gives_the_key_range_in_a_short_message():
    # the range is KeyMaterial's, with its text; a 4,000-digit seed is shown short
    template = (
        '{"version": 1, "k": ["1", "0", "0", "1"], "fib_index": "1",'
        ' "quarter_turns": "0", "prime_seed": "%s"}'
    )
    for value, shown in (("-1", "-1"), (str(1 << 64), str(1 << 64)),
                         ("9" * 4000, "9" * 40 + "... (4000 characters)")):
        with pytest.raises(FormatError) as info:
            parse_key(template % value)
        assert str(info.value) == "key file: prime_seed must be in [0, 18446744073709551615], got " + shown


def test_ciphertext_parsing_rejects_bad_documents():
    env = encrypt(b"abcdef", keygen(2))
    good = serialize_ciphertext(env)
    cases = [
        good.replace('"version": 1', '"version": 9'),
        good.replace('"pad_count": 2', '"pad_count": 4'),
        good.replace('"pad_count": 2', '"pad_count": "2"'),
    ]
    for text in cases:
        with pytest.raises(FormatError):
            parse_ciphertext(text)
    with pytest.raises(FormatError):
        parse_ciphertext('{"version": 1, "pad_count": 0, "blocks": [["1", "2", "3"]]}')
    with pytest.raises(FormatError):
        parse_ciphertext('{"version": 1, "pad_count": 1, "blocks": []}')
    with pytest.raises(FormatError, match="^ciphertext file: blocks must be a list$"):
        parse_ciphertext('{"version": 1, "pad_count": 0, "blocks": {}}')


def _ciphertext_of(block_count, pad_count):
    return json.dumps({"version": 1, "pad_count": pad_count,
                       "blocks": [["0", "0", "0", "0"]] * block_count})


def test_parse_ciphertext_refuses_too_many_symbols_before_parsing_blocks(monkeypatch):
    # 1,636 blocks less 2 pad slots is the 6,542-symbol limit
    assert len(parse_ciphertext(_ciphertext_of(1636, 2)).blocks) == 1636

    def no_blocks(blocks_raw):
        raise AssertionError("blocks parsed")

    monkeypatch.setattr(formats, "_parse_blocks", no_blocks)
    for block_count, pad_count, symbols in ((1636, 1, 6543), (1637, 3, 6545), (250_000, 0, 10**6)):
        with pytest.raises(CorruptCiphertextError) as excinfo:
            parse_ciphertext(_ciphertext_of(block_count, pad_count))
        assert str(excinfo.value) == (
            "ciphertext carries %d symbols, more than the 6542-byte message limit" % symbols
        )


def test_pair_file_round_trip():
    rng = random.Random(17)
    key = keygen(21)
    pairs = []
    for _ in range(6):
        block = IntMatrix(2, 2, tuple(rng.randrange(0, 10**9) for _ in range(4)))
        from cubecipher import encrypt_block

        pairs.append((block, encrypt_block(block, key)))
    text = serialize_pairs(pairs)
    assert parse_pairs(text) == pairs
    assert serialize_pairs(parse_pairs(text)) == text


def test_pair_file_rejects_bad_documents():
    with pytest.raises(FormatError):
        parse_pairs('{"version": 1, "pairs": [{"plaintext": ["1","2","3","4"]}]}')
    with pytest.raises(FormatError):
        parse_pairs('{"version": 2, "pairs": []}')
    with pytest.raises(FormatError, match=r"^pair file: pairs must be a list$"):
        parse_pairs('{"version": 1, "pairs": 5}')
    with pytest.raises(FormatError, match=r"^pair file: pairs\[1\] must be an object$"):
        parse_pairs('{"version": 1, "pairs": [{"plaintext": ["1", "2", "3", "4"],'
                    ' "ciphertext": ["5", "6", "7", "8"]}, [1]]}')


def _good_documents():
    """One genuine key, ciphertext and pair file, with their parsers."""
    key = keygen(4)
    block = IntMatrix(2, 2, (1, 2, 3, 4))
    return [
        (parse_key, serialize_key(key)),
        (parse_ciphertext, serialize_ciphertext(encrypt(b"version", key))),
        (parse_pairs, serialize_pairs([(block, encrypt_block(block, key))])),
    ]


@pytest.mark.parametrize("version", ["1.0", "true", "1e0"])
def test_version_must_be_the_integer_one(version):
    for parse, text in _good_documents():
        parse(text)
        bad = text.replace('"version": 1,', '"version": %s,' % version, 1)
        assert bad != text
        with pytest.raises(FormatError, match="unsupported version"):
            parse(bad)


def test_duplicate_names_are_rejected():
    key_text = serialize_key(keygen(1))
    with pytest.raises(FormatError, match="key file: duplicate name 'fib_index'"):
        parse_key(key_text.replace('"fib_index": ', '"fib_index": "2",\n  "fib_index": ', 1))

    ct_text = serialize_ciphertext(encrypt(b"abcdef", keygen(2)))
    with pytest.raises(FormatError, match="ciphertext file: duplicate name 'pad_count'"):
        parse_ciphertext(ct_text.replace('"pad_count": 2', '"pad_count": 1, "pad_count": 2', 1))

    block = '["1", "2", "3", "4"]'
    pair = '{"plaintext": %s, "ciphertext": %s}' % (block, block)
    assert parse_pairs('{"version": 1, "pairs": [%s]}' % pair)
    # the repeated name sits in a nested pair object
    twice = '{"plaintext": %s, "plaintext": %s, "ciphertext": %s}' % (block, block, block)
    with pytest.raises(FormatError, match="pair file: duplicate name 'plaintext'"):
        parse_pairs('{"version": 1, "pairs": [%s, %s]}' % (pair, twice))


def test_unreadable_json_numbers_and_nesting_raise_format_error():
    # a JSON number past the int/str digit limit, and nesting past the
    # recursion limit, used to escape json.loads as raw exceptions
    with pytest.raises(FormatError, match="not valid JSON") as excinfo:
        parse_key('{"version": %s}' % ("1" * 5000))
    # worded for the file's reader, without Python's set_int_max_str_digits advice
    assert str(excinfo.value) == (
        "key file: not valid JSON (a number has more digits than this interpreter converts)"
    )
    with pytest.raises(FormatError) as excinfo:
        parse_ciphertext('{"version": 1, "pad_count": %s, "blocks": []}' % ("9" * 6000))
    assert str(excinfo.value) == (
        "ciphertext file: not valid JSON"
        " (a number has more digits than this interpreter converts)"
    )
    with pytest.raises(FormatError, match=r"^pair file: not valid JSON \(Expecting"):
        parse_pairs('{"version": 1,')  # a syntax error keeps json's own description
    with pytest.raises(FormatError, match="not valid JSON"):
        parse_ciphertext('{"version": 1, "pad_count": 0, "blocks": %s}' % ("[" * 100000))


def test_numbers_too_long_to_write_raise_format_error():
    huge = 10**5000  # 16,610 bits, more digits than str() converts
    key = KeyMaterial(IntMatrix(2, 2, (1, huge, 0, 1)), 1, 0, 0)
    with pytest.raises(FormatError, match=r"^key file: k\[1\] is a 16610-bit number"):
        serialize_key(key)
    key = KeyMaterial(IntMatrix.identity(2), huge, 0, 0)
    with pytest.raises(FormatError, match=r"^key file: fib_index is a 16610-bit number"):
        serialize_key(key)
    blocks = (IntMatrix.identity(2), IntMatrix(2, 2, (0, 0, -huge, 0)))
    with pytest.raises(FormatError, match=r"^ciphertext file: blocks\[1\]\[2\] is a 16610-bit"):
        serialize_ciphertext(CiphertextEnvelope(0, blocks))
    pairs = [(IntMatrix.identity(2), IntMatrix(2, 2, (1, 2, 3, huge)))]
    with pytest.raises(FormatError, match=r"^pair file: pairs\[0\]\.ciphertext\[3\] is a 16610-bit"):
        serialize_pairs(pairs)


class _Tagged(int):
    """An int subclass, as a caller may put into a block."""


def _envelope(pad_count, *blocks):
    return CiphertextEnvelope(pad_count, tuple(IntMatrix(2, 2, b) for b in blocks))


_BIG = 10**3999 + 12345  # 4,000 digits, inside the int/str limit


# each envelope as the fields it is built from
@pytest.mark.parametrize(
    "envelope",
    [
        (0,),
        (0, (1, 2, 3, 4)),
        (1, (1, 2, 3, 0)),
        (2, (5, 6, 7, 8), (1, 2, 0, 0)),
        (3, (5, 6, 7, 8), (9, 10, 11, 12), (1, 0, 0, 0)),
        (0, (-1, 0, -(10**20), 7)),
        (0, (_BIG, -_BIG, 0, 1), (-_BIG, 1, _BIG, -1)),
        (0, (_Tagged(3), _Tagged(-4), 5, _Tagged(0))),
        (3, (7, 0, 0, 0)),
        (1, (1, 2, 3, 4)),  # a nonzero pad slot is written as is; decrypt refuses it
        (2, (_BIG, -1, 0, 0)),
        (0, (10**20, -(10**20), 1, -1), (0, 0, 0, 0), (1, 1, 1, 1)),
    ],
)
def test_serialize_ciphertext_equals_the_reference(envelope):
    built = _envelope(*envelope)
    text = serialize_ciphertext(built)
    assert text == reference_serialize_ciphertext(built)
    assert parse_ciphertext(text) == built


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


@pytest.mark.parametrize("value, shown", [
    (7, "7"),
    ("v" * 38, repr("v" * 38)),
    ("\u00e9" * 50, "'%s... (50 characters)" % ("\u00e9" * 39)),
    (10**100, "1%s... (101 characters)" % ("0" * 39)),
    (10**5000, "a 16610-bit int"),
    (-(10**5000), "a negative 16610-bit int"),
    (Fraction(10**5000, 3), "an unprintable Fraction"),
    ([10**5000], "an unprintable list"),
    (_Unprintable(), "an unprintable _Unprintable"),
], ids=["int", "short-str", "long-str", "long-int", "huge-int", "huge-negative", "fraction",
        "list", "failing-repr"])
def test_shown_never_raises_and_stays_short(value, shown):
    assert errors._shown(value) == shown


@pytest.mark.parametrize(
    "blocks",
    [
        [(10**5000, 0, 0, 0)],
        [(1, 2, 3, 4), (5, 6, -(10**4300), 8), (10**6000, 0, 0, 0)],
        [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, _BIG), (0, 10**4400, 0, -(10**4400))],
    ],
)
def test_serialize_ciphertext_names_the_first_overlong_entry(blocks):
    envelope = _envelope(0, *blocks)
    with pytest.raises(FormatError) as expected:
        reference_serialize_ciphertext(envelope)
    with pytest.raises(FormatError) as got:
        serialize_ciphertext(envelope)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("ciphertext file: blocks[")


# Bad block values for the bulk ciphertext parse: not a list, the wrong
# length, entries of other JSON types, non-canonical or non-ASCII digit
# strings, and entries past the int/str limit of 4,300 digits.
_BAD_BLOCKS = ["1", 7, None, {}, ["1", "2", "3"], ["1", "2", "3", "4", "5"]]
_BAD_ENTRIES = [
    1, 1.0, True, False, None, [], "", "01", "-0", "+1", "1\n", " 1", "1_0", "0x1",
    "\u0661", "\uff11", "1\u0663", "-", "9" * 4301, "-" + "9" * 4301,
]
_EDGE_ENTRIES = ["0", "-1", "9" * 4300, "-" + "9" * 4300]  # canonical, inside the limit


def _ciphertext_documents():
    """A genuine ciphertext document, then copies with one block or entry
    replaced at the first, a middle and the last block, and with two bad
    entries, so the parse must name the first."""
    doc = json.loads(serialize_ciphertext(encrypt(b"bulk parsed, one pass", keygen(31))))
    last = len(doc["blocks"]) - 1
    yield doc
    for i in (0, last // 2, last):
        for bad in _BAD_BLOCKS:
            blocks = list(doc["blocks"])
            blocks[i] = bad
            yield dict(doc, blocks=blocks)
        for j in (0, 3):
            for entry in _BAD_ENTRIES + _EDGE_ENTRIES:
                blocks = [list(b) for b in doc["blocks"]]
                blocks[i][j] = entry
                yield dict(doc, blocks=blocks)
    blocks = [list(b) for b in doc["blocks"]]
    blocks[last][1], blocks[1][2] = "9" * 4301, "01"
    yield dict(doc, blocks=blocks)


def test_parse_ciphertext_matches_the_per_entry_reference():
    failures = 0
    for doc in _ciphertext_documents():
        text = json.dumps(doc)
        got = outcome(parse_ciphertext, text)
        assert got == outcome(reference_parse_ciphertext, text)
        failures += type(got) is tuple
    # every bad block and entry fails; the genuine and edge documents parse
    assert failures == 3 * (len(_BAD_BLOCKS) + 2 * len(_BAD_ENTRIES)) + 1


@pytest.mark.parametrize("parse, what", [
    (parse_key, "key file"), (parse_ciphertext, "ciphertext file"), (parse_pairs, "pair file"),
], ids=["key", "ciphertext", "pairs"])
@pytest.mark.parametrize("value, shown", [(5, "5"), (None, "None"), (["{}"], "['{}']")],
                         ids=["int", "none", "list"])
def test_a_parser_refuses_a_value_json_cannot_read_in_the_documented_form(parse, what, value, shown):
    # each raised json's own "the JSON object must be str, bytes or bytearray, not int"
    with pytest.raises(TypeError) as excinfo:
        parse(value)
    assert str(excinfo.value) == "%s must be str, bytes or bytearray, got %s" % (what, shown)


@pytest.mark.parametrize("as_type", [bytes, bytearray])
def test_a_parser_reads_utf8_bytes_too(as_type):
    key = keygen(7)
    pairs = [(IntMatrix.identity(2), encrypt_block(IntMatrix.identity(2), key))]
    assert parse_key(as_type(serialize_key(key).encode())) == key
    envelope = encrypt(b"two types", key)
    assert parse_ciphertext(as_type(serialize_ciphertext(envelope).encode())) == envelope
    assert parse_pairs(as_type(serialize_pairs(pairs).encode())) == pairs


# A valid UTF-8 file re-encoded, and the refusal that follows "<what>: ".
_REENCODED = {
    "utf-16": (lambda data: data.decode().encode("utf-16"), "not valid UTF-8"),
    "utf-32": (lambda data: data.decode().encode("utf-32"), "not valid UTF-8"),
    "bad-byte": (lambda data: data.replace(b"{", b"{\xff", 1), "not valid UTF-8"),
    "bom": (lambda data: b"\xef\xbb\xbf" + data,
            "not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))"),
    "utf-16-le-no-bom": (lambda data: data.decode().encode("utf-16-le"),
                         "not valid JSON (Expecting property name enclosed in double quotes: "
                         "line 1 column 2 (char 1))"),
}


@pytest.mark.parametrize("encoding", list(_REENCODED))
@pytest.mark.parametrize("kind", ["key", "ciphertext", "pairs"])
def test_a_parser_refuses_bytes_that_are_not_utf8_json_as_the_cli_does(kind, encoding, tmp_path, capsys):
    # json.loads alone reads UTF-16, UTF-32 and a UTF-8 BOM, and calls a bad
    # byte a number past the int/str limit; the files are UTF-8 JSON only
    key = keygen(7)
    block = IntMatrix.identity(2)
    path, key_path, message, out = (tmp_path / name for name in ("file", "key", "message", "out"))
    valid, parse, what, code, argv = {
        "key": (serialize_key(key), parse_key, "key file", 3,
                ["encrypt", "--key", path, "--in", message, "--out", out]),
        "ciphertext": (serialize_ciphertext(encrypt(b"parity", key)), parse_ciphertext,
                       "ciphertext file", 4, ["decrypt", "--key", key_path, "--in", path, "--out", out]),
        "pairs": (serialize_pairs([(block, encrypt_block(block, key))]), parse_pairs,
                  "pair file", 4, ["attack", "--pairs", path, "--out", out]),
    }[kind]
    reencode, refusal = _REENCODED[encoding]
    data = reencode(valid.encode())
    with pytest.raises(FormatError) as excinfo:
        parse(data)
    assert str(excinfo.value) == "%s: %s" % (what, refusal)

    path.write_bytes(data)
    key_path.write_text(serialize_key(key), encoding="utf-8")
    message.write_bytes(b"parity")
    assert cli.main([str(a) for a in argv]) == code
    assert capsys.readouterr().err == "cubecipher: error: %s\n" % excinfo.value
    assert not out.exists()
