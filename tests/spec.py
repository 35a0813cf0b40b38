"""Executable references for the program's fast paths.

Each function here writes out a documented behaviour in its plainest
form; the tests check the fast path against it, byte for byte.
"""

from cubecipher.formats import _format_decimal, dumps_canonical


def reference_serialize_ciphertext(envelope):
    """The ciphertext file as its definition states it: dumps_canonical of
    the {"version", "pad_count", "blocks"} object, each block entry written
    by _format_decimal (so an entry too long for str() raises its
    FormatError, first entry first)."""
    obj = {
        "version": envelope.version,
        "pad_count": envelope.pad_count,
        "blocks": [
            [_format_decimal(e, "ciphertext file: blocks", i, j) for j, e in enumerate(b.entries)]
            for i, b in enumerate(envelope.blocks)
        ],
    }
    return dumps_canonical(obj)
