"""On-disk formats: key files, ciphertext files, and attack pair files.

All three are UTF-8 JSON with LF line endings, two-space indentation, a
fixed field order, and one trailing newline, so serializing the same data
twice is byte-identical on every platform. dumps_canonical is the
definition of that form, and key and pair files are written through it.
Ciphertext files render the same layout directly, which is several times
faster than json's indenting encoder; the tests hold it to
dumps_canonical byte for byte. Integers that can outgrow 64
bits (and, in the key file, every integer field except the version tag)
are written as canonical decimal strings: optional minus sign, no leading
zeros, no "-0".

Key file:
    {"version": 1, "k": [4 decimal strings, row-major],
     "fib_index": str, "quarter_turns": str, "prime_seed": str}

Ciphertext file:
    {"version": 1, "pad_count": 0..3,
     "blocks": [[4 decimal strings, row-major per 2x2 block], ...]}

Pair file (known-plaintext attack input):
    {"version": 1, "pairs": [{"plaintext": [4 decimal strings],
                              "ciphertext": [4 decimal strings]}, ...]}

Parsers are strict: unknown, missing or repeated fields, non-canonical
numbers, and version mismatches all raise FormatError, as does any text
that is not JSON; a value that is not str, bytes or bytearray raises
TypeError naming it. Bytes are decoded as strict UTF-8 before anything
else, so a file in another encoding (UTF-16 or UTF-32, say) raises
FormatError, "<file>: not valid UTF-8" or "not valid JSON (...)", and so
does one that starts with a UTF-8 byte order mark. The command-line tool
hands the parsers the bytes it reads, so library and tool refuse the
same files with the same text. The version tag, FORMAT_VERSION, is in the files alone,
not in a CiphertextEnvelope: the JSON integer 1, not 1.0, 1e0 or true.
A key file's prime_seed range is KeyMaterial's, refused as FormatError
with KeyMaterial's text after "key file: ".
parse_ciphertext also raises CorruptCiphertextError, before it parses any
block, when the file claims more symbols (4 * len(blocks) - pad_count)
than MAX_MESSAGE_BYTES, so an over-long file costs one json.loads and no
block. A CiphertextEnvelope checks the same framing when built, so
serialize_ciphertext writes only files that parse_ciphertext reads back.
Serializers raise FormatError, naming the field, for a number past the
int/str conversion limit (sys.get_int_max_str_digits, 4,300 digits by
default).

parse_ciphertext checks and converts all block entries in bulk, and goes
entry by entry only when that fails, to name the first bad block or entry
in its FormatError, as a per-entry parse would.
"""

import json
import re
from itertools import chain

from .cipher import BLOCK_SYMBOLS, CiphertextEnvelope, KeyMaterial, _require_symbol_count
from .errors import FormatError, _is_int, _iterate, _require_instance, _shown
from .matrices import IntMatrix

__all__ = [
    "FORMAT_VERSION",
    "serialize_key",
    "parse_key",
    "serialize_ciphertext",
    "parse_ciphertext",
    "serialize_pairs",
    "parse_pairs",
]

FORMAT_VERSION = 1  # the version tag of every file format here

_DECIMAL_RE = re.compile(r"(0|-?[1-9][0-9]*)\Z")


def dumps_canonical(obj) -> str:
    """Render JSON in the canonical form shared by every file this writes."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def _load_document(text, what, fields):
    """The object of a file whose fields are "version" and fields, in
    any order, and whose version is FORMAT_VERSION; else FormatError.

    text is str, or bytes or bytearray decoded as strict UTF-8 first
    ("<what>: not valid UTF-8"), so a file in another encoding is refused
    before or by json.loads, and a UTF-8 byte order mark is not JSON.
    Any other type is a TypeError naming what.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("%s: not valid UTF-8" % what) from None
    elif not isinstance(text, str):
        raise TypeError("%s must be str, bytes or bytearray, got %s" % (what, _shown(text)))

    def unique_names(pairs):
        obj = {}
        for name, value in pairs:
            if name in obj:
                raise FormatError("%s: duplicate name %s" % (what, _shown(name)))
            obj[name] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=unique_names)
    except json.JSONDecodeError as exc:
        raise FormatError("%s: not valid JSON (%s)" % (what, exc)) from None
    except ValueError:
        # Python's int/str conversion limit (sys.get_int_max_str_digits)
        raise FormatError(
            "%s: not valid JSON (a number has more digits than this interpreter converts)"
            % what
        ) from None
    except RecursionError:
        raise FormatError("%s: not valid JSON (nested too deeply)" % what) from None
    if not isinstance(obj, dict):
        raise FormatError("%s: top-level value must be an object" % what)
    _expect_fields(obj, ("version",) + fields, what)
    version = obj["version"]
    if not _is_int(version) or version != FORMAT_VERSION:
        raise FormatError("%s: unsupported version %s" % (what, _shown(version)))
    return obj


def _expect_fields(obj, fields, what):
    have = set(obj)
    want = set(fields)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append("missing %s" % ", ".join(missing))
        if extra:
            parts.append("unexpected %s" % _shown(", ".join(extra)))
        raise FormatError("%s: %s" % (what, "; ".join(parts)))


def _document(**fields):
    """The canonical text of {"version": FORMAT_VERSION, **fields}."""
    return dumps_canonical({"version": FORMAT_VERSION, **fields})


def _field(what, index):
    """The field name what[i][j] for an error message."""
    return what + "".join("[%d]" % i for i in index)


def _parse_decimal(value, what, *index):
    """int of a canonical decimal string, the input twin of _format_decimal.

    A bad or too long value raises FormatError naming the field, as
    what[i] for the given index.
    """
    if not isinstance(value, str) or not _DECIMAL_RE.match(value):
        raise FormatError(
            "%s must be a canonical decimal string, got %s"
            % (_field(what, index), _shown(value))
        )
    try:
        return int(value)
    except ValueError:
        # Python's int/str conversion limit (sys.get_int_max_str_digits)
        raise FormatError(
            "%s has %d digits, more than this interpreter converts"
            % (_field(what, index), len(value.lstrip("-")))
        ) from None


def _format_decimal(value, what, *index):
    """str() of an int or Fraction, the output twin of _parse_decimal.

    A number too long for str() raises FormatError naming the field, as
    what[i][j] for the given index, and the number's bit length.
    """
    try:
        return str(value)
    except ValueError:
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        raise FormatError(
            "%s is a %d-bit number, too long to write as decimal"
            % (_field(what, index), bits)
        ) from None


def _parse_block_entries(value, what, *index):
    if not isinstance(value, list) or len(value) != 4:
        raise FormatError("%s must be a list of 4 decimal strings" % _field(what, index))
    return tuple(_parse_decimal(v, what, *index, i) for i, v in enumerate(value))


def serialize_key(key: KeyMaterial) -> str:
    _require_instance(key, KeyMaterial, "key")
    return _document(
        k=[_format_decimal(e, "key file: k", i) for i, e in enumerate(key.key_matrix.entries)],
        fib_index=_format_decimal(key.fib_index, "key file: fib_index"),
        quarter_turns=str(key.quarter_turns),
        prime_seed=str(key.prime_seed),
    )


def parse_key(text: str) -> KeyMaterial:
    obj = _load_document(text, "key file", ("k", "fib_index", "quarter_turns", "prime_seed"))
    entries = _parse_block_entries(obj["k"], "key file: k")
    fib_index = _parse_decimal(obj["fib_index"], "key file: fib_index")
    quarter_turns = _parse_decimal(obj["quarter_turns"], "key file: quarter_turns")
    if not 0 <= quarter_turns <= 3:
        raise FormatError("key file: quarter_turns must be in [0, 3], got %s" % _shown(quarter_turns))
    prime_seed = _parse_decimal(obj["prime_seed"], "key file: prime_seed")
    try:
        return KeyMaterial(IntMatrix(2, 2, entries), fib_index, quarter_turns, prime_seed)
    except ValueError as exc:  # the seed's range, which KeyMaterial checks
        raise FormatError("key file: %s" % exc) from None


# One ciphertext block as dumps_canonical lays it out, three levels deep.
_CIPHERTEXT_BLOCK = '    [\n      "%s",\n      "%s",\n      "%s",\n      "%s"\n    ]'


def serialize_ciphertext(envelope: CiphertextEnvelope) -> str:
    """dumps_canonical of {"version", "pad_count", "blocks"}, as _ciphertext_text renders it."""
    _require_instance(envelope, CiphertextEnvelope, "envelope")
    return _ciphertext_text(envelope.pad_count, [b.entries for b in envelope.blocks])


def _ciphertext_text(pad_count, vectors):
    """dumps_canonical of {"version": FORMAT_VERSION, "pad_count", "blocks"},
    for blocks given as row-major 4-tuples, rendered directly: json's indenting
    encoder is pure Python and several times slower than filling in the
    fixed layout. Block entries are ints, whose str() is plain ASCII, so
    they need no escaping."""
    try:
        blocks = ",\n".join([_CIPHERTEXT_BLOCK % v for v in vectors])
    except ValueError:
        # an entry past the int/str limit: name the first one
        for i, v in enumerate(vectors):
            for j, e in enumerate(v):
                _format_decimal(e, "ciphertext file: blocks", i, j)
        raise
    return '{\n  "version": %d,\n  "pad_count": %d,\n  "blocks": %s\n}\n' % (
        FORMAT_VERSION,
        pad_count,
        "[\n%s\n  ]" % blocks if blocks else "[]",
    )


def parse_ciphertext(text: str) -> CiphertextEnvelope:
    obj = _load_document(text, "ciphertext file", ("pad_count", "blocks"))
    pad_count = obj["pad_count"]
    if not _is_int(pad_count) or not 0 <= pad_count <= 3:
        raise FormatError("ciphertext file: pad_count must be an integer in [0, 3]")
    blocks_raw = obj["blocks"]
    if not isinstance(blocks_raw, list):
        raise FormatError("ciphertext file: blocks must be a list")
    if not blocks_raw and pad_count != 0:
        raise FormatError("ciphertext file: an empty block list cannot carry padding")
    _require_symbol_count(BLOCK_SYMBOLS * len(blocks_raw) - pad_count)
    return CiphertextEnvelope(pad_count, _parse_blocks(blocks_raw))


def _parse_blocks(blocks_raw):
    """The 2x2 blocks of a ciphertext file's block list, parsed in bulk:
    one check that every block is a list of 4 canonical decimal strings
    over all entries at once, then one int() pass. On any failure the
    blocks are parsed entry by entry, which raises the FormatError that
    names the first bad block or entry."""
    entries = chain.from_iterable
    if (all(type(raw) is list and len(raw) == 4 for raw in blocks_raw)
            and all(type(e) is str for e in entries(blocks_raw))
            and all(map(_DECIMAL_RE.match, entries(blocks_raw)))):
        values = map(int, entries(blocks_raw))
        try:
            return [IntMatrix(2, 2, v) for v in zip(values, values, values, values)]
        except ValueError:
            pass  # an entry past the int/str limit
    return [IntMatrix(2, 2, _parse_block_entries(raw, "ciphertext file: blocks", i))
            for i, raw in enumerate(blocks_raw)]


def _attack_pairs(pairs):
    """pairs as a list, every item checked to be a (plaintext, ciphertext)
    pair of 2x2 IntMatrix blocks before anything unpacks it."""
    pairs = list(_iterate(pairs, "attack pairs must be 2x2 IntMatrix values"))
    for pair in pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                isinstance(m, IntMatrix) and (m.rows, m.cols) == (2, 2) for m in pair)):
            raise TypeError("attack pairs must be 2x2 IntMatrix values")
    return pairs


def serialize_pairs(pairs) -> str:
    """Write (plaintext block, ciphertext block) pairs for the attack tool."""
    rows = [
        {
            name: [
                _format_decimal(e, "pair file: pairs[%d].%s" % (i, name), j)
                for j, e in enumerate(block.entries)
            ]
            for name, block in (("plaintext", plain), ("ciphertext", cipher))
        }
        for i, (plain, cipher) in enumerate(_attack_pairs(pairs))
    ]
    return _document(pairs=rows)


def parse_pairs(text: str):
    obj = _load_document(text, "pair file", ("pairs",))
    raw_pairs = obj["pairs"]
    if not isinstance(raw_pairs, list):
        raise FormatError("pair file: pairs must be a list")
    pairs = []
    for i, raw in enumerate(raw_pairs):
        what = "pair file: pairs[%d]" % i
        if not isinstance(raw, dict):
            raise FormatError("%s must be an object" % what)
        _expect_fields(raw, ("plaintext", "ciphertext"), what)
        pairs.append(tuple(IntMatrix(2, 2, _parse_block_entries(raw[name], what + "." + name))
                           for name in ("plaintext", "ciphertext")))
    return pairs
