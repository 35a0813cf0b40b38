"""Library smoke check for interpreters that have no pytest.

    PYTHONPATH=src python tests/smoke.py

Encrypts and decrypts the golden fixture through cli.main, checks the
ciphertext byte for byte, and checks serialize_ciphertext against its
reference on 200 keygen envelopes. Prints one line and exits 0 on success.
"""

import random
import sys
import tempfile
from pathlib import Path

from cubecipher import cli, encrypt, keygen, serialize_ciphertext
from spec import reference_serialize_ciphertext

FIXTURES = Path(__file__).parent / "fixtures"


def check(ok, what):
    # not assert: the check must also run under python -O
    if not ok:
        sys.exit("smoke failed: %s" % what)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        ct, out = Path(tmp) / "ct.json", Path(tmp) / "out.txt"
        key, message = FIXTURES / "golden_key.json", FIXTURES / "golden_message.txt"
        code = cli.main(["encrypt", "--key", str(key), "--in", str(message), "--out", str(ct)])
        check(code == 0, "encrypt exited %d" % code)
        check(ct.read_bytes() == (FIXTURES / "golden_ciphertext.json").read_bytes(),
              "golden ciphertext differs")
        code = cli.main(["decrypt", "--key", str(key), "--in", str(ct), "--out", str(out)])
        check(code == 0, "decrypt exited %d" % code)
        check(out.read_bytes() == message.read_bytes(), "golden message differs")
    rng = random.Random(200)
    for seed in range(200):
        envelope = encrypt(bytes(rng.randrange(128) for _ in range(rng.randrange(0, 80))), keygen(seed))
        check(serialize_ciphertext(envelope) == reference_serialize_ciphertext(envelope),
              "envelope of keygen(%d) serializes differently" % seed)
    print("smoke ok: Python %s, golden fixture through cli.main, 200 envelopes" % sys.version.split()[0])


if __name__ == "__main__":
    main()
