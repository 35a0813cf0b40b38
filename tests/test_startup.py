"""Start-up: the package root resolves names on first use, so a process
loads only the modules that its work runs.

Each load check runs in a fresh interpreter and compares sys.modules
before and after each step inside it, so modules the host's site imports
load at start-up do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubecipher
from cubecipher import IntMatrix, encrypt_block, keygen, serialize_pairs
from test_package import MODULES, PUBLIC_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# the child's helpers: added(step) runs step() and returns the modules it loaded
_PRELUDE = """\
import json, sys

def added(step):
    before = set(sys.modules)
    step()
    return sorted(set(sys.modules) - before)

"""

_CIPHER_MODULES = ["cubecipher.cipher", "cubecipher.encoding", "cubecipher.errors",
                   "cubecipher.matrices", "cubecipher.primes"]
_ANALYSIS_ONLY = {"cubecipher.analysis", "fractions", "statistics"}


def _child(body, *args):
    """stdout, as JSON, of _PRELUDE + body run in a fresh interpreter with
    src/ on its path and args as its sys.argv[1:]."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + body, *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path), check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    loaded = _child("print(json.dumps(added(lambda: __import__('cubecipher'))))")
    assert "cubecipher" in loaded
    assert [name for name in loaded if name.startswith("cubecipher.")] == []


def test_library_keygen_encrypt_decrypt_load_only_the_cipher_modules():
    steps = _child("""\
import cubecipher

def keygen():
    global key
    key = cubecipher.keygen(2718281828)

def encrypt():
    global envelope
    envelope = cubecipher.encrypt(b"loaded on first use", key)

def decrypt():
    assert cubecipher.decrypt(envelope, key) == b"loaded on first use"

print(json.dumps([added(step) for step in (keygen, encrypt, decrypt)]))
""")
    ours = [[name for name in step if name.startswith("cubecipher.")] for step in steps]
    assert ours == [_CIPHER_MODULES, [], []]
    unwanted = {"cubecipher.formats", "json"} | _ANALYSIS_ONLY
    assert unwanted.isdisjoint(name for step in steps for name in step)


def test_cli_keygen_encrypt_decrypt_never_load_analysis(tmp_path):
    steps = _child("""\
key, message, tmp = sys.argv[1:]

def run(*argv):
    from cubecipher import cli
    assert cli.main(list(argv)) == 0

print(json.dumps([
    added(lambda: exec("from cubecipher import cli")),
    added(lambda: run("keygen", "--seed", "7", "--out", tmp + "/key.json")),
    added(lambda: run("encrypt", "--key", key, "--in", message, "--out", tmp + "/ct.json")),
    added(lambda: run("decrypt", "--key", key, "--in", tmp + "/ct.json", "--out", tmp + "/pt.txt")),
]))
""", FIXTURES / "golden_key.json", FIXTURES / "golden_message.txt", tmp_path)
    assert _ANALYSIS_ONLY.isdisjoint(name for step in steps for name in step)
    assert (tmp_path / "ct.json").read_bytes() == (FIXTURES / "golden_ciphertext.json").read_bytes()
    assert (tmp_path / "pt.txt").read_bytes() == (FIXTURES / "golden_message.txt").read_bytes()
    assert (tmp_path / "key.json").is_file()


@pytest.mark.parametrize("argv", [
    ["attack", "--pairs", "{pairs}"],
    ["avalanche", "--key", "{key}", "--length", "9", "--trials", "3"],
    ["bench", "--key", "{key}", "--lengths", "8", "--repetitions", "1"],
])
def test_analysis_commands_load_analysis_and_succeed(tmp_path, argv):
    key = keygen(31)
    blocks = [IntMatrix(2, 2, tuple(int(i == j) for j in range(4))) for i in range(4)]
    pairs = tmp_path / "pairs.json"
    pairs.write_text(serialize_pairs([(b, encrypt_block(b, key)) for b in blocks]), encoding="utf-8")
    argv = [arg.format(pairs=pairs, key=FIXTURES / "golden_key.json") for arg in argv]
    loaded = _child("""\
from cubecipher import cli

assert cli.main(sys.argv[2:] + ["--out", sys.argv[1]]) == 0
print(json.dumps(sorted(sys.modules)))
""", tmp_path / "report.json", *argv)
    assert "cubecipher.analysis" in loaded
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))


def test_an_unknown_name_is_an_attribute_error_naming_module_and_name():
    with pytest.raises(AttributeError, match="^module 'cubecipher' has no attribute 'no_such_name'$"):
        cubecipher.no_such_name  # noqa: B018
    assert not hasattr(cubecipher, "_no_such_private_name")


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from cubecipher import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    owners = {name: module for module in MODULES for name in module.__all__}
    for name, value in namespace.items():
        assert value is getattr(owners[name], name)


def test_asking_for_cli_leaves_analysis_unloaded():
    has_cli, loaded = _child("""\
import cubecipher
found = []
loaded = added(lambda: found.append(hasattr(cubecipher, "cli")))
print(json.dumps([found[0], loaded]))
""")
    assert has_cli
    assert "cubecipher.cli" in loaded
    assert "cubecipher.analysis" not in loaded


def test_threads_resolving_names_on_first_use_get_the_same_objects():
    names = ["keygen", "IntMatrix", "known_plaintext_attack", "parse_key", "__all__", "cli",
             "CipherError", "prime_stream"]
    same = _child("""\
import threading
import cubecipher

names = sys.argv[1:]
results = [None] * 8
barrier = threading.Barrier(len(results))

def resolve(i):
    barrier.wait()
    order = names[i % len(names):] + names[:i % len(names)]
    found = {name: getattr(cubecipher, name) for name in order}
    results[i] = [found[name] for name in names]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=resolve, args=(i,)) for i in range(len(results))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
final = [getattr(cubecipher, name) for name in names]
print(json.dumps([all(a is b for a, b in zip(result, final)) for result in results]))
""", *names)
    assert same == [True] * 8
