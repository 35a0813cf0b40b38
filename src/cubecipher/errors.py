"""Exception hierarchy for the cipher, encoding, and analysis layers.

Every failure this package can signal is a subclass of CipherError, so
callers can catch one type at the boundary. Plain ValueError/TypeError are
reserved for programming mistakes (bad dimensions, wrong argument types).
"""


class CipherError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(CipherError):
    """A matrix that must be invertible has determinant zero (invalid key).

    Kept as part of the stable error hierarchy; the library itself reports
    a singular key matrix through validate_key and InvalidKeyError.
    """


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
    """


class CorruptCiphertextError(CipherError):
    """Ciphertext framing is inconsistent (padding, version, block shape)."""


class InvalidKeyError(CipherError):
    """Key material failed validation."""


class FormatError(CipherError):
    """A serialized file does not conform to its documented format, or a
    value is too long to be written in it."""


class InsufficientPairsError(CipherError):
    """Known-plaintext pairs span too small a space to pin down the map."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank
