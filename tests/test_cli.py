"""End-to-end command line behaviour: exit codes, files, atomicity."""

import errno
import io
import json
import os
import random
from pathlib import Path

import pytest

from cubecipher import IntMatrix, analysis, cli, encrypt_block, errors, keygen, serialize_key, serialize_pairs
from cubecipher.cipher import KeyMaterial
from cubecipher.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    return main([str(a) for a in argv])


def test_keygen_encrypt_decrypt_round_trip(tmp_path):
    key_path = tmp_path / "key.json"
    msg_path = tmp_path / "message.txt"
    ct_path = tmp_path / "ct.json"
    out_path = tmp_path / "out.txt"
    msg_path.write_bytes(b"round trip me, please")

    assert run(["keygen", "--seed", 77, "--out", key_path]) == 0
    assert run(["encrypt", "--key", key_path, "--in", msg_path, "--out", ct_path]) == 0
    assert run(["decrypt", "--key", key_path, "--in", ct_path, "--out", out_path]) == 0
    assert out_path.read_bytes() == msg_path.read_bytes()


def test_keygen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["keygen", "--seed", 123, "--out", a]) == 0
    assert run(["keygen", "--seed", 123, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decrypt_with_wrong_key_exits_4_and_leaves_no_file(tmp_path, capsys):
    key_a = tmp_path / "a.json"
    key_b = tmp_path / "b.json"
    msg = tmp_path / "msg.txt"
    ct = tmp_path / "ct.json"
    out = tmp_path / "out.txt"
    msg.write_bytes(b"secret contents here")
    run(["keygen", "--seed", 1, "--out", key_a])
    run(["keygen", "--seed", 2, "--out", key_b])
    run(["encrypt", "--key", key_a, "--in", msg, "--out", ct])

    assert run(["decrypt", "--key", key_b, "--in", ct, "--out", out]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("cubecipher: error:")
    assert err.count("\n") == 1


def test_invalid_key_file_exits_3(tmp_path):
    key_path = tmp_path / "bad_key.json"
    singular = KeyMaterial(IntMatrix.from_rows([[1, 2], [2, 4]]), 1, 0, 0)
    key_path.write_text(serialize_key(singular), encoding="utf-8")
    msg = tmp_path / "m.txt"
    msg.write_bytes(b"hello")
    assert run(["encrypt", "--key", key_path, "--in", msg, "--out", tmp_path / "x"]) == 3

    key_path.write_text("{ not json", encoding="utf-8")
    assert run(["encrypt", "--key", key_path, "--in", msg, "--out", tmp_path / "x"]) == 3


def test_corrupt_ciphertext_exits_4(tmp_path):
    key = tmp_path / "k.json"
    run(["keygen", "--seed", 5, "--out", key])
    ct = tmp_path / "ct.json"
    ct.write_text('{"version": 1, "pad_count": 9, "blocks": []}', encoding="utf-8")
    assert run(["decrypt", "--key", key, "--in", ct, "--out", tmp_path / "o"]) == 4


def test_a_version_2_ciphertext_file_exits_4(tmp_path, capsys):
    ct = tmp_path / "ct.json"
    golden = (FIXTURES / "golden_ciphertext.json").read_text(encoding="utf-8")
    ct.write_text(golden.replace('"version": 1,', '"version": 2,', 1), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["decrypt", "--key", FIXTURES / "golden_key.json", "--in", ct, "--out", out]) == 4
    assert not out.exists()
    assert capsys.readouterr() == ("", "cubecipher: error: ciphertext file: unsupported version 2\n")


def test_wrong_key_with_huge_entries_exits_4(tmp_path, capsys):
    # entries short enough to parse, un-mixed values too long for str()
    key = tmp_path / "k.json"
    key.write_text(
        serialize_key(KeyMaterial(IntMatrix.from_rows([[97, -89], [88, 99]]), 40, 1, 0)),
        encoding="utf-8",
    )
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"version": 1, "pad_count": 0, "blocks": [["9" * 4299] * 4]}))
    out = tmp_path / "o"
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out]) == 4
    assert not out.exists()
    assert "block 0: entry (" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pad_count, block, message",
    [
        # K = I, so every 4,299-digit entry passes the un-mix and grows
        (1, ["9" * 4299] * 4, "pad slot 3 in block 0 holds a nonzero "),
        (0, ["9" * 4299, "0", "0", "0"], "symbol 0: value is not a valid encoding"),
    ],
)
def test_unimodular_key_with_huge_entries_exits_4(tmp_path, capsys, pad_count, block, message):
    key = tmp_path / "k.json"
    key.write_text(serialize_key(KeyMaterial(IntMatrix.identity(2), 40, 0, 0)), encoding="utf-8")
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"version": 1, "pad_count": pad_count, "blocks": [block]}))
    out = tmp_path / "o"
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err
    assert "-bit" in err
    assert "9999" not in err


def test_overlong_ciphertext_entry_exits_4(tmp_path, capsys):
    key = tmp_path / "k.json"
    run(["keygen", "--seed", 5, "--out", key])
    ct = tmp_path / "ct.json"
    block = ["1", "2", "9" * 4400, "4"]
    ct.write_text(json.dumps({"version": 1, "pad_count": 0, "blocks": [block]}))
    out = tmp_path / "o"
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "blocks[0][2] has 4400 digits" in err
    assert "9999" not in err


def test_ciphertext_of_too_many_blocks_exits_4(tmp_path, capsys):
    # a ~3 MB file of 150,000 blocks is refused by its block count
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"version": 1, "pad_count": 0, "blocks": [["1"] * 4] * 150_000}))
    assert ct.stat().st_size > 3_000_000
    out = tmp_path / "o"
    assert run(["decrypt", "--key", FIXTURES / "golden_key.json", "--in", ct, "--out", out]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == (
        "cubecipher: error: ciphertext carries 600000 symbols, "
        "more than the 6542-byte message limit\n"
    )


def test_missing_input_file_exits_5(tmp_path):
    key = tmp_path / "k.json"
    run(["keygen", "--seed", 5, "--out", key])
    assert run(["encrypt", "--key", key, "--in", tmp_path / "nope", "--out", tmp_path / "o"]) == 5


def test_bad_arguments_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["keygen", "--out", tmp_path / "k.json"])  # --seed is required
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["no-such-command"])
    assert excinfo.value.code == 2


_CUT_SHORT = "invalid int value: '%s... (5000 characters)" % ("9" * 39)


# text that is not an int is argparse's to refuse; the ids are the rows' old ones
@pytest.mark.parametrize("argv, message", [
    pytest.param(["keygen", "--seed", "x", "--out", "k.json"], "argument --seed: invalid int value: 'x'",
                 id="argv0-argument --seed: seed must be an integer"),
    pytest.param(["bench", "--key", "k.json", "--lengths", "8,x"],
                 "argument --lengths: invalid int value: 'x'",
                 id="argv3-argument --lengths: lengths must be comma-separated integers"),
    pytest.param(["avalanche", "--key", "k.json", "--length", "abc"],
                 "argument --length: invalid int value: 'abc'",
                 id="argv5-argument --length: invalid int value: 'abc'"),
    pytest.param(["avalanche", "--key", "k.json", "--trials", "1.5"],
                 "argument --trials: invalid int value: '1.5'",
                 id="argv6-argument --trials: invalid int value: '1.5'"),
    pytest.param(["bench", "--key", "k.json", "--repetitions", ""],
                 "argument --repetitions: invalid int value: ''",
                 id="argv7-argument --repetitions: invalid int value: ''"),
    # argparse's type=int used to echo all 5,000 digits
    pytest.param(["avalanche", "--key", "k.json", "--length", "9" * 5000],
                 "argument --length: " + _CUT_SHORT, id="argv8-argument --length: " + _CUT_SHORT),
    pytest.param(["avalanche", "--key", "k.json", "--trials", "9" * 5000],
                 "argument --trials: " + _CUT_SHORT, id="argv9-argument --trials: " + _CUT_SHORT),
    pytest.param(["bench", "--key", "k.json", "--repetitions", "9" * 5000],
                 "argument --repetitions: " + _CUT_SHORT,
                 id="argv10-argument --repetitions: " + _CUT_SHORT),
    # base 0 takes Python's int literals, and Python has no leading-zero decimal
    pytest.param(["avalanche", "--key", "k.json", "--length", "010"],
                 "argument --length: invalid int value: '010'", id="leading-zero-decimal"),
])
def test_argument_type_errors_exit_2(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("error: %s\n" % message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["avalanche", "--trials", 0], "trials must be in [1, 1000000], got 0",
                     id="argv0-trials must be at least 1"),
        pytest.param(["avalanche", "--length", 0], "message_length must be at least 1, got 0",
                     id="argv1-message_length must be at least 1"),
        (["bench", "--lengths", "16,8"], "lengths must be strictly increasing"),
        pytest.param(["bench", "--lengths", "0,8"], "every length must be at least 1, got 0",
                     id="argv3-lengths must be positive"),
        pytest.param(["bench", "--repetitions", 0], "repetitions must be in [1, 10000], got 0",
                     id="argv4-repetitions must be at least 1"),
    ],
)
def test_bad_analysis_values_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert run(argv + ["--key", FIXTURES / "golden_key.json", "--out", out]) == 2
    assert capsys.readouterr().err == "cubecipher: error: %s\n" % message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["avalanche", "--trials", 10**6 + 1], "trials must be in [1, 1000000], got 1000001"),
    (["avalanche", "--trials", 2**64], "trials must be in [1, 1000000], got 18446744073709551616"),
    (["bench", "--repetitions", 10**4 + 1], "repetitions must be in [1, 10000], got 10001"),
    (["bench", "--repetitions", 2**64], "repetitions must be in [1, 10000], got 18446744073709551616"),
], ids=["trials-cap+1", "trials-2**64", "repetitions-cap+1", "repetitions-2**64"])
def test_an_unbounded_count_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # these ran until killed; a refused count never reaches the key check
    monkeypatch.setattr(analysis, "_require_valid", lambda key: pytest.fail("work began"))
    out = tmp_path / "report.json"
    assert run(argv + ["--key", FIXTURES / "golden_key.json", "--out", out]) == 2
    assert capsys.readouterr().err == "cubecipher: error: %s\n" % message
    assert list(tmp_path.iterdir()) == []


_SEED_RANGE = "seed must be in [0, 18446744073709551615], got "


@pytest.mark.parametrize("argv, message", [
    (["keygen", "--seed", -1], _SEED_RANGE + "-1"),
    (["keygen", "--seed", 2**64], _SEED_RANGE + "18446744073709551616"),
    (["avalanche", "--key", FIXTURES / "golden_key.json", "--seed", -1], _SEED_RANGE + "-1"),
    (["bench", "--key", FIXTURES / "golden_key.json", "--seed", -1], _SEED_RANGE + "-1"),
    (["bench", "--key", FIXTURES / "golden_key.json", "--lengths", " , "], "lengths must be non-empty"),
], ids=["keygen-seed-1", "keygen-seed-2**64", "avalanche-seed-1", "bench-seed-1", "bench-empty-lengths"])
def test_a_bad_seed_or_no_lengths_exits_2_in_one_line(tmp_path, capsys, monkeypatch, argv, message):
    # these were argparse's usage block; a refused seed never reaches the key check
    monkeypatch.setattr(analysis, "_require_valid", lambda key: pytest.fail("work began"))
    out = tmp_path / "out.json"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == "cubecipher: error: %s\n" % message
    assert list(tmp_path.iterdir()) == []


def test_a_seed_takes_any_int_literal(tmp_path):
    hex_key, decimal_key = tmp_path / "hex.json", tmp_path / "decimal.json"
    assert run(["keygen", "--seed", "0x10", "--out", hex_key]) == 0
    assert run(["keygen", "--seed", "16", "--out", decimal_key]) == 0
    assert hex_key.read_bytes() == decimal_key.read_bytes()


def test_the_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    key, msg, ct = tmp_path / "k.json", tmp_path / "m.bin", tmp_path / "ct.json"
    msg.write_bytes(bytes([200, 65]))
    assert run(["keygen", "--seed", 9, "--out", key]) == 0
    assert run(["encrypt", "--key", key, "--in", msg, "--out", ct, "--byte-mode"]) == 0
    # no option value carries over from the run before
    assert run(["encrypt", "--key", key, "--in", msg, "--out", ct]) == 2
    with pytest.raises(SystemExit):
        run(["keygen", "--out", key])
    assert "the following arguments are required: --seed" in capsys.readouterr().err
    assert builds == [1]


def test_non_ascii_input_exits_2_and_byte_mode_accepts(tmp_path):
    key = tmp_path / "k.json"
    msg = tmp_path / "m.bin"
    ct = tmp_path / "ct.json"
    out = tmp_path / "o.bin"
    msg.write_bytes(bytes([200, 65, 255]))
    run(["keygen", "--seed", 9, "--out", key])
    assert run(["encrypt", "--key", key, "--in", msg, "--out", ct]) == 2
    assert run(["encrypt", "--key", key, "--in", msg, "--out", ct, "--byte-mode"]) == 0
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out, "--byte-mode"]) == 0
    assert out.read_bytes() == msg.read_bytes()


def test_golden_fixture_encryption_matches(tmp_path):
    ct = tmp_path / "ct.json"
    code = run(
        [
            "encrypt",
            "--key",
            FIXTURES / "golden_key.json",
            "--in",
            FIXTURES / "golden_message.txt",
            "--out",
            ct,
        ]
    )
    assert code == 0
    assert ct.read_bytes() == (FIXTURES / "golden_ciphertext.json").read_bytes()
    assert "79079" in ct.read_text(encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run(["decrypt", "--key", FIXTURES / "golden_key.json", "--in", ct, "--out", out]) == 0
    assert out.read_bytes() == (FIXTURES / "golden_message.txt").read_bytes()


def test_stdout_output(tmp_path, capsysbinary):
    key = tmp_path / "k.json"
    msg = tmp_path / "m.txt"
    ct = tmp_path / "ct.json"
    msg.write_bytes(b"to standard out")
    run(["keygen", "--seed", 11, "--out", key])
    run(["encrypt", "--key", key, "--in", msg, "--out", ct])
    assert run(["decrypt", "--key", key, "--in", ct, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == b"to standard out"


def test_stdin_input(tmp_path, monkeypatch, capsysbinary):
    key = tmp_path / "k.json"
    ct = tmp_path / "ct.json"
    run(["keygen", "--seed", 12, "--out", key])

    class FakeStdin:
        buffer = io.BytesIO(b"from standard in")

    monkeypatch.setattr("sys.stdin", FakeStdin())
    assert run(["encrypt", "--key", key, "--in", "-", "--out", ct]) == 0
    assert run(["decrypt", "--key", key, "--in", ct, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == b"from standard in"


def test_decrypt_reads_ciphertext_from_stdin(tmp_path, monkeypatch, capsysbinary):
    key = tmp_path / "k.json"
    msg = tmp_path / "m.txt"
    ct = tmp_path / "ct.json"
    msg.write_bytes(b"ciphertext on standard in")
    run(["keygen", "--seed", 16, "--out", key])
    run(["encrypt", "--key", key, "--in", msg, "--out", ct])

    class FakeStdin:
        buffer = io.BytesIO(ct.read_bytes().replace(b"\n", b"\r\n"))

    monkeypatch.setattr("sys.stdin", FakeStdin())
    assert run(["decrypt", "--key", key, "--in", "-", "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == b"ciphertext on standard in"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_files_read_the_same_under_any_line_ending(tmp_path, capsysbinary, newline):
    # JSON takes CR as whitespace, so key, ciphertext and pair files need
    # no newline translation
    key = tmp_path / "k.json"
    msg = tmp_path / "m.txt"
    ct = tmp_path / "ct.json"
    pairs = tmp_path / "pairs.json"
    msg.write_bytes(b"any line ending")
    run(["keygen", "--seed", 18, "--out", key])
    run(["encrypt", "--key", key, "--in", msg, "--out", ct])
    blocks = [IntMatrix(2, 2, (1, 0, 0, 0)), IntMatrix(2, 2, (0, 1, 0, 0)),
              IntMatrix(2, 2, (0, 0, 1, 0)), IntMatrix(2, 2, (0, 0, 0, 1))]
    pairs.write_text(serialize_pairs([(b, encrypt_block(b, keygen(18))) for b in blocks]),
                     encoding="utf-8")
    assert run(["attack", "--pairs", pairs]) == 0
    expected_attack = capsysbinary.readouterr().out
    for path in (key, ct, pairs):
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert run(["decrypt", "--key", key, "--in", ct, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == b"any line ending"
    assert run(["attack", "--pairs", pairs]) == 0
    assert capsysbinary.readouterr().out == expected_attack


def test_decrypt_of_non_utf8_stdin_exits_4(tmp_path, monkeypatch, capsys):
    key = tmp_path / "k.json"
    out = tmp_path / "out.txt"
    run(["keygen", "--seed", 17, "--out", key])

    class FakeStdin:
        buffer = io.BytesIO(b'{"version": 1, "pad_count": 0, "blocks": ["\xff"]}\n')

    monkeypatch.setattr("sys.stdin", FakeStdin())
    assert run(["decrypt", "--key", key, "--in", "-", "--out", out]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == "cubecipher: error: ciphertext file: not valid UTF-8\n"


def test_attack_command(tmp_path, capsys):
    rng = random.Random(5)
    key = keygen(31)
    pairs = []
    for _ in range(6):
        block = IntMatrix(2, 2, tuple(rng.randrange(0, 10**6) for _ in range(4)))
        pairs.append((block, encrypt_block(block, key)))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(serialize_pairs(pairs), encoding="utf-8")

    assert run(["attack", "--pairs", pairs_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["pairs_used"] == 6


def test_attack_command_with_too_few_pairs_exits_2(tmp_path, capsys):
    rng = random.Random(6)
    key = keygen(32)
    pairs = []
    for _ in range(3):
        block = IntMatrix(2, 2, tuple(rng.randrange(0, 10**6) for _ in range(4)))
        pairs.append((block, encrypt_block(block, key)))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(serialize_pairs(pairs), encoding="utf-8")
    assert run(["attack", "--pairs", pairs_path]) == 2
    assert "rank" in capsys.readouterr().err


def test_avalanche_command(tmp_path):
    key = tmp_path / "k.json"
    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    run(["keygen", "--seed", 13, "--out", key])
    code = run(
        [
            "avalanche", "--key", key, "--length", 8, "--trials", 20,
            "--seed", 3, "--out", report, "--csv", csv,
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["trials"] == 20
    assert csv.read_text(encoding="utf-8").startswith("changed_blocks,count")


def test_bench_command(tmp_path):
    key = tmp_path / "k.json"
    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    run(["keygen", "--seed", 14, "--out", key])
    code = run(
        ["bench", "--key", key, "--lengths", "4,8", "--repetitions", 1, "--out", report,
         "--csv", csv]
    )
    assert code == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert [row["message_length"] for row in doc["rows"]] == [4, 8]
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "message_length,encrypt_seconds,decrypt_seconds,ciphertext_bytes"
    assert [line.split(",") for line in lines[1:]] == [
        ["%d" % row["message_length"], "%.9f" % row["encrypt_seconds"],
         "%.9f" % row["decrypt_seconds"], "%d" % row["ciphertext_bytes"]]
        for row in doc["rows"]
    ]


def _args(argv):
    return cli._parser().parse_args([str(a) for a in argv])


def test_commands_return_their_outputs_and_main_writes_them(tmp_path):
    key, report, csv = tmp_path / "k.json", tmp_path / "report.json", tmp_path / "h.csv"
    argv = ["avalanche", "--key", FIXTURES / "golden_key.json", "--length", 9, "--trials", 5,
            "--out", report, "--csv", csv]
    outputs = cli._COMMANDS["avalanche"](_args(argv))
    assert list(tmp_path.iterdir()) == []  # the command itself writes nothing
    assert [path for path, _ in outputs] == [str(csv), str(report)]
    assert outputs[1][1].startswith(b"{")
    assert cli._COMMANDS["keygen"](_args(["keygen", "--seed", 3, "--out", key])) == [
        (str(key), serialize_key(keygen(3)).encode())
    ]
    assert list(tmp_path.iterdir()) == []

    assert run(argv) == 0
    assert (csv.read_bytes(), report.read_bytes()) == (outputs[0][1], outputs[1][1])


def test_reports_without_out_go_to_stdout(tmp_path, capsysbinary):
    pairs = tmp_path / "pairs.json"
    rng = random.Random(8)
    key = keygen(33)
    blocks = [IntMatrix(2, 2, tuple(rng.randrange(10**6) for _ in range(4))) for _ in range(5)]
    pairs.write_text(serialize_pairs([(b, encrypt_block(b, key)) for b in blocks]), encoding="utf-8")
    for argv in (["attack", "--pairs", pairs],
                 ["avalanche", "--key", FIXTURES / "golden_key.json", "--length", 6, "--trials", 4]):
        out = tmp_path / "out.json"
        assert run(argv + ["--out", out]) == 0
        assert run(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert run(argv + ["--out", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


def test_key_and_pair_files_named_dash_are_files(tmp_path, monkeypatch, capsys):
    # only payloads (--in and --out of encrypt and decrypt) take "-" for stdin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_bytes((FIXTURES / "golden_key.json").read_bytes())

    class FakeStdin:
        buffer = io.BytesIO((FIXTURES / "golden_message.txt").read_bytes())

    monkeypatch.setattr("sys.stdin", FakeStdin())
    assert run(["encrypt", "--key", "-", "--in", "-", "--out", "ct.json"]) == 0
    assert (tmp_path / "ct.json").read_bytes() == (FIXTURES / "golden_ciphertext.json").read_bytes()

    block = IntMatrix(2, 2, (1, 2, 3, 4))
    (tmp_path / "-").write_text(serialize_pairs([(block, encrypt_block(block, keygen(1)))] * 4),
                                encoding="utf-8")
    assert run(["attack", "--pairs", "-"]) == 2  # read as a file: rank 1


def test_outputs_are_written_atomically(tmp_path):
    # no stray temp files survive a successful run
    key = tmp_path / "k.json"
    run(["keygen", "--seed", 15, "--out", key])
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".cubecipher-")]
    assert leftovers == []


def test_out_path_in_a_missing_directory_names_the_out_path(tmp_path, capsys):
    # the temp file cannot be made there; the error names --out, not the temp file
    out = tmp_path / "missing" / "key.json"
    assert run(["keygen", "--seed", 15, "--out", out]) == 5
    err = capsys.readouterr().err
    assert err == "cubecipher: error: [Errno 2] No such file or directory: %r\n" % str(out)
    assert ".cubecipher-" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_write_that_fails_after_the_temp_file_is_made_names_the_out_path(tmp_path, monkeypatch, capsys):
    # a full disk fails the write itself; the error named no path before
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, mode):
            self.handle = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fdopen", FullDisk)
    out = tmp_path / "key.json"
    assert run(["keygen", "--seed", 15, "--out", out]) == 5
    err = capsys.readouterr().err
    assert err == "cubecipher: error: [Errno %d] %s: %r\n" % (errno.ENOSPC, os.strerror(errno.ENOSPC), str(out))
    assert list(tmp_path.iterdir()) == []  # no output, no .cubecipher-* temp file


def test_attack_result_too_long_to_write_exits_4(tmp_path, capsys):
    # 4,001-digit entries parse, but the recovered map's entries do not fit
    # in str(); that used to escape as a raw ValueError (exit 2)
    rng = random.Random(7)

    def block():
        return IntMatrix(2, 2, tuple(rng.randrange(10**4000, 10**4001) for _ in range(4)))

    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(serialize_pairs([(block(), block()) for _ in range(4)]), encoding="utf-8")
    out = tmp_path / "result.json"
    assert run(["attack", "--pairs", pairs_path, "--out", out]) == 4
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "attack result: composite_map[" in captured.err
    assert "-bit number" in captured.err


def test_encrypt_with_ciphertext_too_long_to_write_exits_4(tmp_path, capsys):
    # k entries of 4,299 digits parse; the ciphertext entries they produce do not
    key = tmp_path / "k.json"
    huge = int("9" * 4299)
    key.write_text(
        serialize_key(KeyMaterial(IntMatrix.from_rows([[huge, 1], [0, huge]]), 1, 0, 0)),
        encoding="utf-8",
    )
    msg = tmp_path / "m.txt"
    msg.write_bytes(b"hello")
    out = tmp_path / "ct.json"
    assert run(["encrypt", "--key", key, "--in", msg, "--out", out]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (
        "cubecipher: error: ciphertext file: blocks[0][0] is a 14326-bit number, "
        "too long to write as decimal\n"
    )


@pytest.mark.parametrize("fib_index", [30000, 10**18])
def test_encrypt_with_too_large_fib_index_exits_3(tmp_path, capsys, fib_index):
    key = tmp_path / "k.json"
    key.write_text(serialize_key(KeyMaterial(IntMatrix.identity(2), fib_index, 0, 0)), encoding="utf-8")
    msg = tmp_path / "m.txt"
    msg.write_bytes(b"hello")
    out = tmp_path / "ct.json"
    assert run(["encrypt", "--key", key, "--in", msg, "--out", out]) == 3
    assert not out.exists()
    assert "fib_index must be in [1, 10000]" in capsys.readouterr().err


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


EXIT_CODES = [
    (errors.CipherError, 4),
    (errors.NonIntegralResultError, 4),
    (errors.NoIntegerRootError, 4),
    (errors.CorruptValueError, 4),
    (errors.SymbolRangeError, 4),
    (errors.CorruptCiphertextError, 4),
    (errors.InvalidKeyError, 3),
    (errors.FormatError, 4),
    (errors.InsufficientPairsError, 2),
    (cli._UsageError, 2),
]


def test_exit_code_table_covers_every_error_class():
    assert set(_all_subclasses(errors.CipherError)) | {errors.CipherError} == {
        cls for cls, _ in EXIT_CODES
    }


@pytest.mark.parametrize("cls, code", EXIT_CODES, ids=lambda v: getattr(v, "__name__", v))
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys, cls, code):
    def fail(args):
        raise cls("boom", 1) if cls is errors.InsufficientPairsError else cls("boom")

    monkeypatch.setitem(cli._COMMANDS, "keygen", fail)
    assert cls.exit_code == code
    assert run(["keygen", "--seed", 1, "--out", tmp_path / "k.json"]) == code
    assert capsys.readouterr().err == "cubecipher: error: boom\n"


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("cubecipher: error:")
    assert err.count("\n") == 1
    return err


def test_message_length_limit_through_the_cli(tmp_path, capsys):
    key = FIXTURES / "golden_key.json"
    msg, ct, out = tmp_path / "m.txt", tmp_path / "ct.json", tmp_path / "out.txt"
    msg.write_bytes(bytes(random.Random(6542).randrange(32, 127) for _ in range(6542)))
    assert run(["encrypt", "--key", key, "--in", msg, "--out", ct]) == 0
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out]) == 0
    assert out.read_bytes() == msg.read_bytes()

    # one byte more is a usage error that names the length and the limit
    msg.write_bytes(msg.read_bytes() + b"a")
    too_long = tmp_path / "too_long.json"
    assert run(["encrypt", "--key", key, "--in", msg, "--out", too_long]) == 2
    assert not too_long.exists()
    err = _one_error_line(capsys)
    assert "6543 bytes" in err and "6542-byte limit" in err

    # an invalid key is still refused first, with its own exit code
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(
        serialize_key(KeyMaterial(IntMatrix.identity(2), 30000, 0, 0)), encoding="utf-8"
    )
    assert run(["encrypt", "--key", bad_key, "--in", msg, "--out", too_long]) == 3
    assert not too_long.exists()
    assert "fib_index must be in [1, 10000]" in _one_error_line(capsys)

    # 6,542 symbols fill 1,636 blocks with two pad slots; with one, the
    # ciphertext claims 6,543 symbols and is refused as corrupt
    doc = json.loads(ct.read_text(encoding="utf-8"))
    assert (len(doc["blocks"]), doc["pad_count"]) == (1636, 2)
    doc["pad_count"] = 1
    ct.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink()
    assert run(["decrypt", "--key", key, "--in", ct, "--out", out]) == 4
    assert not out.exists()
    err = _one_error_line(capsys)
    assert "6543 symbols" in err and "6542-byte message limit" in err


@pytest.mark.parametrize(
    "argv",
    [["avalanche", "--length", 6543, "--trials", 1], ["bench", "--lengths", "4,6543"]],
    ids=["avalanche", "bench"],
)
def test_analysis_commands_over_the_length_limit_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--key", FIXTURES / "golden_key.json", "--out", out]) == 2
    assert not out.exists()
    err = _one_error_line(capsys)
    assert "6543 bytes" in err and "6542-byte limit" in err


def test_avalanche_at_the_length_limit(tmp_path):
    out = tmp_path / "report.json"
    argv = ["avalanche", "--key", FIXTURES / "golden_key.json", "--length", 6542, "--trials", 1]
    assert run(argv + ["--out", out]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["message_length"], doc["locality_histogram"]) == (6542, {"1": 1})


@pytest.mark.parametrize(
    "name, value",
    [("fib_index", "x" * 200_000), ("x" * 200_000, "1")],
    ids=["long_fib_index", "long_field_name"],
)
def test_overlong_key_field_gives_a_short_message(tmp_path, capsys, name, value):
    # a 200,000-character fib_index string, or field name, is not echoed whole
    key = tmp_path / "k.json"
    doc = json.loads((FIXTURES / "golden_key.json").read_text(encoding="utf-8"))
    doc[name] = value
    key.write_text(json.dumps(doc), encoding="utf-8")
    msg = tmp_path / "m.txt"
    msg.write_bytes(b"hello")
    out = tmp_path / "ct.json"
    assert run(["encrypt", "--key", key, "--in", msg, "--out", out]) == 3
    assert not out.exists()
    err = _one_error_line(capsys)
    assert len(err) < 200
    assert "200000 characters" in err


# The meaning of each exit status, in the words both documents use.
EXIT_MEANINGS = {
    cli.EXIT_OK: "success",
    errors.EXIT_USAGE: "bad arguments or unusable input data",
    errors.EXIT_BAD_KEY: "invalid or malformed key",
    errors.EXIT_BAD_DATA: "corrupt ciphertext or wrong key",
    cli.EXIT_IO: "I/O failure",
}


def test_exit_codes_agree_across_the_code_and_the_docs():
    assert sorted(EXIT_MEANINGS) == [0, 2, 3, 4, 5]
    listed = cli.__doc__.split("Exit codes:\n", 1)[1].strip().splitlines()
    assert [line.split(None, 1) for line in listed] == [
        [str(code), meaning] for code, meaning in sorted(EXIT_MEANINGS.items())
    ]
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.split("Exit codes: ", 1)[1].split("\n\n", 1)[0].split())
    for code, meaning in sorted(EXIT_MEANINGS.items()):
        assert "`%d` %s" % (code, meaning) in paragraph, code
    classes = list(_all_subclasses(errors.CipherError))
    assert cli._UsageError in classes
    for cls in [errors.CipherError] + classes:
        assert cls.exit_code in {errors.EXIT_USAGE, errors.EXIT_BAD_KEY, errors.EXIT_BAD_DATA}, cls
