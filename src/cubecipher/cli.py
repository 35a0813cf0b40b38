"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, attack, avalanche, bench. File
formats are the canonical JSON formats from the formats module. The path
"-" means stdin/stdout for encrypt and decrypt payloads, and a report
without --out goes to stdout. Each command returns its outputs as
(path, bytes) pairs, and main alone writes them, in order. Output files
are written atomically (temp file then rename), so a failing run never
leaves a partial file behind, and an I/O error at any step of a write
names the output path, not the temp file.

Exit codes:
    0  success
    2  bad arguments or unusable input data
    3  invalid or malformed key
    4  corrupt ciphertext or wrong key
    5  I/O failure
"""

import argparse
import functools
import os
import sys
import tempfile
from contextlib import contextmanager, suppress

from .cipher import decrypt, encrypt, keygen
from .errors import EXIT_USAGE, CipherError, FormatError, InvalidKeyError, _shown
from .formats import (
    parse_ciphertext,
    parse_key,
    parse_pairs,
    serialize_ciphertext,
    serialize_key,
)

EXIT_OK = 0
EXIT_IO = 5


class _UsageError(CipherError):
    """A library error that, in this command, means unusable input."""

    exit_code = EXIT_USAGE


@contextmanager
def _usage_errors():
    """Report the library's errors, other than a bad key, as unusable input:
    a non-ASCII input in strict mode, or a message longer than
    MAX_MESSAGE_BYTES, is a usage problem, not damage."""
    try:
        yield
    except InvalidKeyError:
        raise
    except CipherError as exc:
        raise _UsageError("%s" % exc) from None


def _parse_int(text):
    """text as a Python int literal (hex and 1_000 included). Only text that
    is no int is refused here; each value's range is the library's rule."""
    try:
        return int(text, 0)
    except ValueError:  # argparse's type=int text, the argument cut short
        raise argparse.ArgumentTypeError("invalid int value: %s" % _shown(text))


def _parse_lengths(text):
    return [_parse_int(part) for part in text.split(",") if part.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubecipher",
        description="Exact-arithmetic educational block cipher and analysis tools. "
        "Not secure for real use: the per-block layer is linear.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="derive a key file from a 64-bit seed")
    p.add_argument("--seed", type=_parse_int, required=True,
                   help="64-bit unsigned seed; same seed gives the same key")
    p.add_argument("--out", required=True, help="key file to write")

    p = sub.add_parser("encrypt", help="encrypt a message file")
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--in", dest="input", required=True, help="plaintext file, or - for stdin")
    p.add_argument("--out", required=True, help="ciphertext file, or - for stdout")
    p.add_argument("--byte-mode", action="store_true",
                   help="accept all byte values, not just 7-bit ASCII")

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--in", dest="input", required=True, help="ciphertext file, or - for stdin")
    p.add_argument("--out", required=True, help="plaintext file, or - for stdout")
    p.add_argument("--byte-mode", action="store_true",
                   help="accept decoded byte values above 127")

    p = sub.add_parser("attack", help="recover the composite linear map from known pairs")
    p.add_argument("--pairs", required=True, help="pair file (plaintext/ciphertext blocks)")
    p.add_argument("--out", default="-", help="write the result JSON here instead of stdout")

    p = sub.add_parser("avalanche", help="measure single-character diffusion under a key")
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--length", type=_parse_int, default=40, help="message length (default 40)")
    p.add_argument("--trials", type=_parse_int, default=1000, help="number of trials (default 1000)")
    p.add_argument("--seed", type=_parse_int, default=0, help="trial RNG seed (default 0)")
    p.add_argument("--out", default="-", help="write the report JSON here instead of stdout")
    p.add_argument("--csv", help="also write the locality histogram as CSV")

    p = sub.add_parser("bench", help="measure encrypt/decrypt wall time per length")
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--lengths", type=_parse_lengths, default=(64, 128, 256, 512, 1024),
                   help="comma-separated message lengths (default 64,128,256,512,1024)")
    p.add_argument("--repetitions", type=_parse_int, default=5,
                   help="repetitions per length, median reported (default 5)")
    p.add_argument("--seed", type=_parse_int, default=0, help="message RNG seed (default 0)")
    p.add_argument("--out", default="-", help="write the report JSON here instead of stdout")
    p.add_argument("--csv", help="also write the measurement table as CSV")
    return parser


def _read_file(path):
    """The bytes of a key or pair file; "-" names a file here, not stdin."""
    with open(path, "rb") as handle:
        return handle.read()


def _read_input(path):
    """The bytes of --in: stdin when path is "-", else the file's."""
    return sys.stdin.buffer.read() if path == "-" else _read_file(path)


def _write_atomic(path, data: bytes):
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".cubecipher-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:  # name the output, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None


def _load_key(path):
    try:
        return parse_key(_read_file(path))
    except FormatError as exc:
        raise InvalidKeyError(str(exc)) from None


def _cmd_keygen(args):
    return [(args.out, serialize_key(keygen(args.seed)).encode())]


def _cmd_encrypt(args):
    key = _load_key(args.key)
    message = _read_input(args.input)
    with _usage_errors():
        envelope = encrypt(message, key, byte_mode=args.byte_mode)
    return [(args.out, serialize_ciphertext(envelope).encode())]


def _cmd_decrypt(args):
    key = _load_key(args.key)
    envelope = parse_ciphertext(_read_input(args.input))
    return [(args.out, decrypt(envelope, key, byte_mode=args.byte_mode))]


def _cmd_attack(args):
    from .analysis import known_plaintext_attack  # here, so other commands never load analysis

    pairs = parse_pairs(_read_file(args.pairs))
    return [(args.out, known_plaintext_attack(pairs).to_json_text().encode())]


def _cmd_report(args):
    """avalanche and bench: the report's CSV, if asked for, then its JSON."""
    from .analysis import avalanche_test, benchmark  # here, as in _cmd_attack

    key = _load_key(args.key)
    with _usage_errors():
        if args.command == "avalanche":
            report = avalanche_test(key, args.length, args.trials, args.seed)
        else:
            report = benchmark(args.lengths, key, args.repetitions, rng_seed=args.seed)
    csv = [(args.csv, report.to_csv_text().encode())] if args.csv else []
    return csv + [(args.out, report.to_json_text().encode())]


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "attack": _cmd_attack,
    "avalanche": _cmd_report,
    "bench": _cmd_report,
}


def _fail(message, code):
    print("cubecipher: error: %s" % message, file=sys.stderr)
    return code


@functools.cache
def _parser():
    """build_parser(), built on first use and then reused: parse_args keeps
    no state on the parser between calls, and every default is immutable."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        for path, data in handler(args):
            _write_atomic(path, data)
    except CipherError as exc:
        return _fail(exc, exc.exit_code)
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return EXIT_OK
