"""The package's public surface: each module's __all__ is its one list of
public names, and the package root re-exports exactly those."""

import inspect

import cubecipher
from cubecipher import analysis, cipher, encoding, errors, formats, matrices, primes

MODULES = (analysis, cipher, encoding, errors, formats, matrices, primes)

# the root's public names, pinned, so that no name enters or leaves by accident
PUBLIC_NAMES = [
    "ASCII_MAX", "AttackResult", "AvalancheReport", "BYTE_MAX", "BenchReport", "BenchRow",
    "CipherError", "CiphertextEnvelope", "CorruptCiphertextError", "CorruptValueError",
    "FORMAT_VERSION", "FormatError", "InsufficientPairsError", "IntMatrix", "InvalidKeyError",
    "KeyMaterial", "MAX_FIB_INDEX", "MAX_MESSAGE_BYTES", "NoIntegerRootError",
    "NonIntegralResultError", "PRIME_LIMIT", "SymbolRangeError",
    "Xorshift64Star", "apply_composite", "avalanche_test", "benchmark", "block_map",
    "decode_symbol", "decrypt", "decrypt_block", "encode_symbol",
    "encrypt", "encrypt_block", "fibonacci_q", "growth_exponent", "integer_cube_root",
    "keygen", "known_plaintext_attack", "parse_ciphertext", "parse_key", "parse_pairs",
    "prime_stream", "rotation", "serialize_ciphertext", "serialize_key", "serialize_pairs",
    "solve_depressed_cubic", "validate_key",
]


def test_the_root_exports_the_pinned_names():
    assert len(PUBLIC_NAMES) == 48
    assert sorted(cubecipher.__all__) == PUBLIC_NAMES
    public = [name for name in dir(cubecipher)
              if not name.startswith("_") and not inspect.ismodule(getattr(cubecipher, name))]
    assert public == PUBLIC_NAMES


def test_the_root_names_are_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)  # no name is listed twice
    assert sorted(cubecipher.__all__) == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cubecipher, name) is getattr(module, name)
