"""Executable references for the program's fast paths.

Each reference_* function here writes out a documented behaviour in its
plainest form; the tests check the fast path against it, byte for byte.
attack_outcome puts the fast attack's result in reference_attack's terms.
"""

import json
from fractions import Fraction

from cubecipher import FormatError, InsufficientPairsError, IntMatrix, known_plaintext_attack
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


def _gram_independent(vectors):
    """True iff the integer vectors are linearly independent: their Gram
    determinant det(V V^T) is nonzero."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    return IntMatrix.from_rows(gram).det() != 0


def _adjugate_inverse(rows):
    """Exact inverse of an integer 4x4 matrix as adj / det, by cofactors."""
    det = IntMatrix.from_rows(rows).det()

    def cofactor(i, j):
        minor = [[rows[r][c] for c in range(4) if c != j] for r in range(4) if r != i]
        return (-1) ** (i + j) * IntMatrix.from_rows(minor).det()

    return [[Fraction(cofactor(j, i), det) for j in range(4)] for i in range(4)]


def reference_attack(pairs):
    """The attack restated without elimination: keep a pair when its
    plaintext vector is independent of those kept, then M = C @ P^-1 for
    the 4x4 matrices P, C whose columns are the kept vec(B), vec(E).
    Returns (M as a 16-tuple, verified, JSON text), the text None when an
    entry is too long for str(), or the rank reached when it stays below
    4."""
    kept = []
    for plain, cipher in pairs:
        if _gram_independent([p.entries for p, _ in kept] + [plain.entries]):
            kept.append((plain, cipher))
            if len(kept) == 4:
                break
    if len(kept) < 4:
        return len(kept)
    p_inv = _adjugate_inverse([[kept[c][0].entries[r] for c in range(4)] for r in range(4)])
    m = [
        [sum(kept[k][1].entries[i] * p_inv[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    verified = all(
        [sum(m[i][k] * plain.entries[k] for k in range(4)) for i in range(4)]
        == list(cipher.entries)
        for plain, cipher in pairs
    )
    try:
        text = json.dumps(
            {
                "version": 1,
                "pairs_used": len(pairs),
                "verified": verified,
                "composite_map": [[str(e) for e in row] for row in m],
            },
            indent=2,
        ) + "\n"
    except ValueError:  # an entry past Python's int/str conversion limit
        text = None
    return tuple(e for row in m for e in row), verified, text


def attack_outcome(pairs):
    """known_plaintext_attack in reference_attack's terms."""
    try:
        result = known_plaintext_attack(pairs)
    except InsufficientPairsError as exc:
        return exc.rank
    try:
        text = result.to_json_text()
    except FormatError:
        text = None
    return result.composite_map, result.verified, text
