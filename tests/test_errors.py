"""The library's one rule for int arguments (errors._require_int).

Every per-call int argument refuses a value that is not an int, or is a
bool, with TypeError("<name> must be an int, got <shown>"), and an int out
of its range with ValueError("<name> must be at least <low>, got <shown>")
or ValueError("<name> must be in [<low>, <high>], got <shown>"), the value
shown short by errors._shown. A collection argument that is not iterable,
or is a mapping, is refused with TypeError in the same form
(errors._iterate).
"""

from fractions import Fraction

import pytest

from cubecipher import (
    CiphertextEnvelope,
    known_plaintext_attack,
    serialize_pairs,
    IntMatrix,
    MAX_FIB_INDEX,
    KeyMaterial,
    NoIntegerRootError,
    SymbolRangeError,
    Xorshift64Star,
    analysis,
    avalanche_test,
    benchmark,
    decode_symbol,
    encode_symbol,
    encrypt,
    fibonacci_q,
    integer_cube_root,
    keygen,
    prime_stream,
    rotation,
    solve_depressed_cubic,
)
from cubecipher.errors import _is_int, _require_int

_KEY = keygen(1)
_I2 = IntMatrix.identity(2)
_BLOCK = IntMatrix(2, 2, (1, 2, 3, 4))
MAX_U64 = 2**64 - 1

# (id, call taking the value, name in the text, low, high)
_PARAMETERS = [
    ("KeyMaterial-fib_index", lambda v: KeyMaterial(_I2, v, 0, 0), "fib_index", None, None),
    ("KeyMaterial-quarter_turns", lambda v: KeyMaterial(_I2, 1, v, 0), "quarter_turns", None, None),
    ("KeyMaterial-prime_seed", lambda v: KeyMaterial(_I2, 1, 0, v), "prime_seed", 0, MAX_U64),
    ("CiphertextEnvelope-pad_count", lambda v: CiphertextEnvelope(v, (_BLOCK,)), "pad_count", 0, 3),
    ("Xorshift64Star-seed", Xorshift64Star, "seed", 0, MAX_U64),
    ("below-n", lambda v: Xorshift64Star(1).below(v), "below's n", 1, None),
    ("below_many-n", lambda v: Xorshift64Star(1).below_many(v, 1), "below's n", 1, None),
    ("below_many-count", lambda v: Xorshift64Star(1).below_many(2, v), "below_many's count", 0, None),
    ("prime_stream-count", lambda v: prime_stream(1, v), "prime_stream's count", 0, None),
    ("fibonacci_q-n", fibonacci_q, "fibonacci_q's n", 1, MAX_FIB_INDEX),
    ("IntMatrix-rows", lambda v: IntMatrix(v, 1, (1,)), "matrix rows", 1, None),
    ("IntMatrix-cols", lambda v: IntMatrix(1, v, (1,)), "matrix cols", 1, None),
    # identity(2.5) raised the interpreter's "cannot be interpreted as an
    # integer", and identity(0) spoke of "matrix cols"
    ("IntMatrix.identity-n", IntMatrix.identity, "identity's n", 1, None),
    # any int k works mod 4; rotation(True) was one quarter turn, and a
    # float or str raised the interpreter's indexing or formatting TypeError
    ("rotation-k", rotation, "rotation's k", None, None),
    ("avalanche_test-message_length", lambda v: avalanche_test(_KEY, v, 1, 0), "message_length", 1, None),
    ("avalanche_test-trials", lambda v: avalanche_test(_KEY, 1, v, 0), "trials", 1, 10**6),
    # the second length: only the first was checked, so [4, 0] said "strictly
    # increasing", and a float or str raised the interpreter's own TypeError
    ("benchmark-length", lambda v: benchmark([4, v], _KEY, 1), "every length", 1, None),
    ("benchmark-repetitions", lambda v: benchmark([1], _KEY, v), "repetitions", 1, 10**4),
    # the seeds were checked only after the key, so the CLI checked them itself
    ("avalanche_test-rng_seed", lambda v: avalanche_test(_KEY, 1, 1, v), "seed", 0, MAX_U64),
    ("benchmark-rng_seed", lambda v: benchmark([1], _KEY, 1, v), "seed", 0, MAX_U64),
    # the trapdoor's per-symbol functions: encode_symbol returned a float
    # for a float code and an int for a Fraction or a bool, and the others
    # raised a raw AttributeError (no .bit_length) for a float
    ("encode_symbol-code", lambda v: encode_symbol(v, 13), "symbol code", 0, None),
    ("encode_symbol-prime", lambda v: encode_symbol(65, v), "prime", 2, None),
    ("decode_symbol-prime", lambda v: decode_symbol(79079, v), "prime", 2, None),
    # any int bound is taken, a negative one refusing every code; a float
    # bound was compared as it was, True was taken as 1, and a str or None
    # raised the interpreter's own comparison TypeError
    ("decode_symbol-max_code", lambda v: decode_symbol(79079, 13, v), "max_code", None, None),
    ("solve_depressed_cubic-t", solve_depressed_cubic, "t", None, None),
    ("integer_cube_root-n", integer_cube_root, "integer_cube_root's n", 0, None),
]

# an integral float and NaN too: a check by value, such as k == int(k) or
# n < 0, would let either through
_SHOWN = {2.5: "2.5", 2.0: "2.0", float("nan"): "nan", True: "True", "7": "'7'",
          Fraction(1, 2): "Fraction(1, 2)", None: "None"}
_HUGE_NEGATIVE = -(10**5000)
# an int with no bounds is accepted whatever its size, unless its value is
# refused by its own error class
_HUGE_NEGATIVE_REFUSED = {
    "solve_depressed_cubic-t": (NoIntegerRootError, "no integer n >= 2 satisfies n^3 - n = 6t for t < 1"),
    "decode_symbol-max_code": (SymbolRangeError, "decoded code 65 is outside [0, a negative 16610-bit int]"
                                                 " (wrong prime or corrupted value)"),
}


def _cases():
    for pid, call, name, low, high in _PARAMETERS:
        for value, shown in _SHOWN.items():
            yield pytest.param(call, value, TypeError, "%s must be an int, got %s" % (name, shown),
                               id="%s-%s" % (pid, shown))
        limit = None if low is None else "at least %d" % low if high is None else "in [%d, %d]" % (low, high)
        error, text = _HUGE_NEGATIVE_REFUSED.get(pid, (
            limit and ValueError, limit and "%s must be %s, got a negative 16610-bit int" % (name, limit)))
        yield pytest.param(call, _HUGE_NEGATIVE, error, text, id="%s-huge-negative" % pid)
        if low is not None:
            yield pytest.param(call, low - 1, ValueError, "%s must be %s, got %d" % (name, limit, low - 1),
                               id="%s-low-1" % pid)
        if high is not None:
            for value in sorted({high + 1, 2**64}):
                yield pytest.param(call, value, ValueError, "%s must be %s, got %d" % (name, limit, value),
                                   id="%s-%d" % (pid, value))


def _no_work(*args):
    raise AssertionError("an analysis began its work on a refused argument")


@pytest.mark.parametrize("call, value, error, text", _cases())
def test_an_int_argument_is_refused_in_one_form(monkeypatch, call, value, error, text):
    # a refused count must stop before any work, so a huge one cannot run
    monkeypatch.setattr(analysis, "_require_valid", _no_work)
    if error is None:
        call(value)
        return
    with pytest.raises(error) as excinfo:
        call(value)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == text
    assert len(str(excinfo.value)) < 200


def test_the_rule_itself():
    class Tagged(int):
        pass

    assert [_is_int(v) for v in (0, -(2**70), Tagged(3), True, False, 1.0, "1", None)] == [
        True, True, True, False, False, False, False, False]
    _require_int(Tagged(3), "x", 3, 3)  # an int subclass passes, and both bounds are inclusive
    _require_int(-(10**5000), "x")
    with pytest.raises(ValueError, match=r"^x must be in \[3, 3\], got 4$"):
        _require_int(4, "x", 3, 3)
    with pytest.raises(TypeError, match="^x must be an int, got '%s... \\(100000 characters\\)$" % ("7" * 39)):
        _require_int("7" * 100_000, "x", 0)


@pytest.mark.parametrize("call, text", [
    (lambda v: IntMatrix(2, 2, v), "integer matrix entries must be an iterable of ints"),
    (IntMatrix.from_rows, "matrix rows must be an iterable of rows"),
    (lambda v: IntMatrix.from_rows([[1], v]), "matrix row 1 must be an iterable of ints"),
    (lambda v: CiphertextEnvelope(0, v), "envelope blocks must be an iterable of 2x2 IntMatrix values"),
    (lambda v: benchmark(v, _KEY, 1), "lengths must be an iterable of ints"),
    (lambda v: encrypt(v, _KEY), "encrypt takes bytes or a bytes-like value"),
], ids=["IntMatrix", "from_rows", "from_rows-row", "CiphertextEnvelope", "benchmark", "encrypt"])
@pytest.mark.parametrize("value, shown", [(5.5, "5.5"), (None, "None"), (object, "<class 'object'>")],
                         ids=["float", "none", "class"])
def test_a_collection_that_is_not_iterable_is_refused_in_one_form(monkeypatch, call, text, value, shown):
    # each raised the interpreter's own "'float' object is not iterable"
    # (encrypt: "cannot convert 'NoneType' object to bytes")
    monkeypatch.setattr(analysis, "_require_valid", _no_work)
    with pytest.raises(TypeError) as excinfo:
        call(value)
    assert str(excinfo.value) == "%s, got %s" % (text, shown)


def test_a_type_error_raised_while_iterating_is_not_renamed():
    def entries():
        yield 1
        raise TypeError("raised by the caller's iterator")

    with pytest.raises(TypeError, match="^raised by the caller's iterator$"):
        IntMatrix(1, 1, entries())


@pytest.mark.parametrize("call, text", [
    (lambda v: IntMatrix(2, 2, v), "integer matrix entries must be an iterable of ints"),
    (IntMatrix.from_rows, "matrix rows must be an iterable of rows"),
    (lambda v: IntMatrix.from_rows([[1, 2], v]), "matrix row 1 must be an iterable of ints"),
    (lambda v: CiphertextEnvelope(0, v), "envelope blocks must be an iterable of 2x2 IntMatrix values"),
    (lambda v: benchmark(v, _KEY, 1), "lengths must be an iterable of ints"),
    (known_plaintext_attack, "attack pairs must be 2x2 IntMatrix values"),
    (serialize_pairs, "attack pairs must be 2x2 IntMatrix values"),
], ids=["IntMatrix", "from_rows", "from_rows-row", "CiphertextEnvelope", "benchmark", "attack",
        "serialize_pairs"])
@pytest.mark.parametrize("value, shown", [
    ({4: 1}, "{4: 1}"),
    ({(1, 2): 0}, "{(1, 2): 0}"),
    ({1: 0, 2: 0, 3: 0, 4: 0}, "{1: 0, 2: 0, 3: 0, 4: 0}"),
    ({_BLOCK: 1}, "{IntMatrix(rows=2, cols=2, entries=(1, 2... (52 characters)"),
], ids=["int-key", "tuple-key", "four-int-keys", "block-key"])
def test_a_mapping_is_refused_not_read_as_its_keys(monkeypatch, call, text, value, shown):
    # benchmark({4: 1}, ...) reported length 4, from_rows({(1, 2): 0}) built
    # the matrix of the keys, as IntMatrix(2, 2, {1: 0, 2: 0, 3: 0, 4: 0})
    # did, and CiphertextEnvelope(0, {block: 1}) the envelope of its keys
    monkeypatch.setattr(analysis, "_require_valid", _no_work)
    with pytest.raises(TypeError) as excinfo:
        call(value)
    assert str(excinfo.value) == "%s, got %s" % (text, shown)


def test_an_iterator_is_still_a_collection():
    assert [r.message_length for r in benchmark((x for x in (4, 8)), _KEY, 1).rows] == [4, 8]
    assert IntMatrix.from_rows(iter([iter([1, 2])])) == IntMatrix(1, 2, (1, 2))
