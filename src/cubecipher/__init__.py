"""cubecipher: an exact-arithmetic educational block cipher built from a
cubic trapdoor encoding and a Fibonacci / rotation / key-matrix mixing
chain, together with the analysis tools that demonstrate its limits.

WARNING: the per-block layer is linear, so known plaintext recovers the
composite transform (see analysis.known_plaintext_attack). This package is
for study and experimentation, never for protecting real data.
"""

from .analysis import (
    AttackResult,
    AvalancheReport,
    BenchReport,
    BenchRow,
    apply_composite,
    avalanche_test,
    benchmark,
    growth_exponent,
    known_plaintext_attack,
)
from .cipher import (
    FORMAT_VERSION,
    MAX_FIB_INDEX,
    MAX_MESSAGE_BYTES,
    CiphertextEnvelope,
    KeyMaterial,
    block_map,
    blockify,
    deblockify,
    decrypt,
    decrypt_block,
    encrypt,
    encrypt_block,
    keygen,
    validate_key,
)
from .encoding import (
    ASCII_MAX,
    BYTE_MAX,
    decode_symbol,
    encode_symbol,
    integer_cube_root,
    solve_depressed_cubic,
)
from .errors import (
    CipherError,
    CorruptCiphertextError,
    CorruptValueError,
    FormatError,
    InsufficientPairsError,
    InvalidKeyError,
    NoIntegerRootError,
    NonIntegralResultError,
    SingularMatrixError,
    SymbolRangeError,
)
from .formats import (
    parse_ciphertext,
    parse_key,
    parse_pairs,
    serialize_ciphertext,
    serialize_key,
    serialize_pairs,
)
from .matrices import (
    IntMatrix,
    fibonacci_q,
    rotation,
)
from .primes import PRIME_LIMIT, Xorshift64Star, prime_stream

__version__ = "0.1.0"

__all__ = [
    "ASCII_MAX",
    "BYTE_MAX",
    "FORMAT_VERSION",
    "MAX_FIB_INDEX",
    "MAX_MESSAGE_BYTES",
    "PRIME_LIMIT",
    "AttackResult",
    "AvalancheReport",
    "BenchReport",
    "BenchRow",
    "CipherError",
    "CiphertextEnvelope",
    "CorruptCiphertextError",
    "CorruptValueError",
    "FormatError",
    "InsufficientPairsError",
    "IntMatrix",
    "InvalidKeyError",
    "KeyMaterial",
    "NoIntegerRootError",
    "NonIntegralResultError",
    "SingularMatrixError",
    "SymbolRangeError",
    "Xorshift64Star",
    "apply_composite",
    "avalanche_test",
    "benchmark",
    "block_map",
    "blockify",
    "deblockify",
    "decode_symbol",
    "decrypt",
    "decrypt_block",
    "encode_symbol",
    "encrypt",
    "encrypt_block",
    "fibonacci_q",
    "growth_exponent",
    "integer_cube_root",
    "keygen",
    "known_plaintext_attack",
    "parse_ciphertext",
    "parse_key",
    "parse_pairs",
    "prime_stream",
    "rotation",
    "serialize_ciphertext",
    "serialize_key",
    "serialize_pairs",
    "solve_depressed_cubic",
    "validate_key",
]
