"""Exception hierarchy for the cipher, encoding, and analysis layers.

Every failure this package can signal is a subclass of CipherError, so
callers can catch one type at the boundary. The contract for arguments:
TypeError for a wrong type, ValueError or a documented CipherError
subclass for a bad value, and every refused value shown through _shown.
An int argument is checked by one helper, _require_int, and a collection
argument that is not iterable, or is a mapping, is refused by another,
_iterate. A singular key matrix is a bad key: validate_key reports it, as
InvalidKeyError.

Each class carries the exit status the command-line tool ends with when
that error stops a command: 2 for unusable input, 3 for a bad key, 4 for
corrupt data or a wrong key (the default).
"""

from collections.abc import Mapping

__all__ = [
    "CipherError", "NonIntegralResultError", "NoIntegerRootError",
    "CorruptValueError", "SymbolRangeError", "CorruptCiphertextError", "InvalidKeyError",
    "FormatError", "InsufficientPairsError",
]

EXIT_USAGE = 2
EXIT_BAD_KEY = 3
EXIT_BAD_DATA = 4

_SHOWN_CHARS = 40  # longest repr of a bad value that a message echoes whole


def _shown(value):
    """repr(value) for an error message, cut to a prefix and the value's
    length when long, so a hostile value cannot make the message huge. It
    never raises: an int past the int/str limit is shown by its sign and
    bit length, any other value whose repr fails by its type."""
    try:
        text = repr(value)
    except Exception:
        if isinstance(value, int):
            sign = "negative " if int.__lt__(value, 0) else ""
            return "a %s%d-bit int" % (sign, int.bit_length(value))
        return "an unprintable %s" % type(value).__name__
    if len(text) <= _SHOWN_CHARS:
        return text
    length = str.__len__(value) if isinstance(value, str) else len(text)
    return "%s... (%d characters)" % (text[:_SHOWN_CHARS], length)


def _require_instance(value, cls, name):
    if not isinstance(value, cls):
        raise TypeError("%s must be a %s, got %s" % (name, cls.__name__, _shown(value)))


def _iterate(value, refusal):
    """iter(value), or TypeError("<refusal>, got <shown>") when value is
    not iterable, so no collection argument raises the interpreter's own
    "'int' object is not iterable", or is a Mapping, which would be read
    as its keys."""
    if not isinstance(value, Mapping):
        try:
            return iter(value)
        except TypeError:
            pass
    raise TypeError("%s, got %s" % (refusal, _shown(value)))


def _is_int(value):
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, name, low=None, high=None):
    """Refuse value unless it is an int, not a bool, in [low, high] (a high
    needs a low): TypeError for another type, ValueError out of range."""
    if type(value) is not int and not _is_int(value):
        raise TypeError("%s must be an int, got %s" % (name, _shown(value)))
    if low is not None and (value < low or high is not None and value > high):
        limit = "at least %d" % low if high is None else "in [%d, %d]" % (low, high)
        raise ValueError("%s must be %s, got %s" % (name, limit, _shown(value)))


class CipherError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_BAD_DATA


class NonIntegralResultError(CipherError):
    """A result expected to be integral is not.

    During decryption an un-mixed block entry is not divisible by det(K),
    which signals a wrong key or corrupted ciphertext; apply_composite
    raises it when a recovered map sends a block off the integers.
    """


class NoIntegerRootError(CipherError):
    """The cubic n^3 - n = 6t has no integer root n >= 2."""


class CorruptValueError(CipherError):
    """An encoded value cannot be decoded back to a symbol."""


class SymbolRangeError(CipherError):
    """A symbol code falls outside the allowed range.

    Raised when decoding lands outside [0, max_code] (wrong prime or
    corrupted value) and when encrypting bytes above 127 in strict mode.
    The command-line encrypt reports the latter as unusable input (2).
    """


class CorruptCiphertextError(CipherError):
    """Ciphertext framing is inconsistent (padding, block shape, length)."""


class InvalidKeyError(CipherError):
    """Key material failed validation."""

    exit_code = EXIT_BAD_KEY


class FormatError(CipherError):
    """A serialized file does not conform to its documented format, or a
    value is too long to be written in it. The command-line tool reports
    a malformed key file as InvalidKeyError (3)."""


class InsufficientPairsError(CipherError):
    """Known-plaintext pairs span too small a space to pin down the map."""

    exit_code = EXIT_USAGE

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank
