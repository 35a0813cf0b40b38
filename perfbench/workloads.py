"""The three workloads: inputs built from a seed, and one op each.

Every workload is a closed loop with one client: the runner calls op(i)
for i = 0, 1, ... and starts the next op only when the previous one has
returned. The generator builds only inputs (messages, key seeds, block
sets); the program sees nothing else. All calls into the program go
through module attributes looked up at call time, so a traced run's
wrappers see them.

An op returns an Outcome: the wall time of each timed segment, whether
every output checked out, and a digest of its outputs that a traced pass
must reproduce byte for byte.
"""

import hashlib
import os
import random
from dataclasses import dataclass, field
from time import perf_counter as _clock

import cubecipher
from cubecipher import analysis, cipher, cli

from metrics import median, tail
from tracer import CEILING

ASCII_TEXT = b"\n" + bytes(range(32, 127))
KIB = 1024.0


@dataclass
class Outcome:
    seconds: dict = field(default_factory=dict)  # timed segment name -> wall seconds
    oracle: float = 0.0  # untimed preparation the benchmark does for the op
    size: int = 0  # plaintext bytes, or avalanche trials
    ok: bool = True
    problem: str = ""
    digest: bytes = b""

    @property
    def op_seconds(self):
        return sum(self.seconds.values())

    def fail(self, problem):
        if self.ok:
            self.ok, self.problem = False, problem


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _segment(outcomes, name):
    return [o.seconds[name] for o in outcomes if name in o.seconds]


def _kib(outcomes, name):
    return sum(o.size for o in outcomes if name in o.seconds) / KIB


def _latency_rows(prefix, values):
    """p50 and tail rows, in ms, for one sample of wall seconds."""
    ms = [v * 1e3 for v in values]
    rows = [(prefix + "_p50_ms", median(ms), "ms", len(ms), "")]
    if len(ms) > 10:
        value, pct = tail(ms)
        rows.append((prefix + "_tail_ms", value, "ms", len(ms), "p%.1f" % pct))
    return rows


class FileRoundtrip:
    """CLI encrypt then CLI decrypt of one file, the way users run the tool."""

    name = "file-roundtrip"
    # Ops per --second. A run is seconds x rate ops, in whole rounds; at the
    # baseline commit this runs about 1.7 x --seconds, long enough to average
    # over the speed swings of a shared host.
    rate = 2.6
    # Every round of eleven files has the same lengths; with an odd count the
    # median op sits in the middle of one length, not between two.
    round_size = 11
    n_keys = 4
    byte_mode_every = 4  # files 1, 5 and 9 of each round use --byte-mode

    def __init__(self, seed, n_ops, workdir):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.key_seeds = [rng.getrandbits(64) for _ in range(self.n_keys)]
        self.key_paths = [os.path.join(workdir, "key%d.json" % k) for k in range(self.n_keys)]
        # Every round has the same lengths: the midpoints of ten equal steps
        # over [1024, 6542), and one file of exactly 6,542 bytes, where the
        # prime stream's coupon-collector tail dominates. Fixed lengths keep
        # the median and tail at the same sizes for every seed; the seed
        # varies content and keys. Keys rotate between rounds so the ceiling
        # files do not all share one key's tail.
        steps = self.round_size - 1
        lengths = [1024 + (CEILING - 1024) * (2 * s + 1) // (2 * steps) for s in range(steps)]
        lengths.append(CEILING)
        self.files = []
        for r in range(n_ops // self.round_size):
            files = []
            for s, length in enumerate(lengths):
                byte_mode = s % self.byte_mode_every == 1
                if byte_mode:
                    body = bytes(rng.getrandbits(8) for _ in range(length))
                else:
                    body = bytes(rng.choices(ASCII_TEXT, k=length))
                files.append(((s + r) % self.n_keys, byte_mode, body))
            rng.shuffle(files)
            for key, byte_mode, body in files:
                path = os.path.join(workdir, "msg%d.bin" % len(self.files))
                with open(path, "wb") as handle:
                    handle.write(body)
                self.files.append((key, byte_mode, body, path))

    def setup(self):
        for seed, path in zip(self.key_seeds, self.key_paths):
            if cli.main(["keygen", "--seed", str(seed), "--out", path]) != 0:
                raise RuntimeError("keygen through the CLI failed")

    def prepare(self, i):
        pass

    def op(self, i, digests):
        key, byte_mode, body, path = self.files[i]
        ct_path, pt_path = path + ".ct.json", path + ".out"
        mode = ["--byte-mode"] if byte_mode else []
        out = Outcome(size=len(body))
        t0 = _clock()
        rc = cli.main(["encrypt", "--key", self.key_paths[key], "--in", path,
                       "--out", ct_path] + mode)
        t1 = _clock()
        out.seconds["encrypt"] = t1 - t0
        if rc != 0:
            out.fail("encrypt exited %d" % rc)
            return out
        t0 = _clock()
        rc = cli.main(["decrypt", "--key", self.key_paths[key], "--in", ct_path,
                       "--out", pt_path] + mode)
        t1 = _clock()
        out.seconds["decrypt"] = t1 - t0
        if rc != 0:
            out.fail("decrypt exited %d" % rc)
            return out
        with open(pt_path, "rb") as handle:
            recovered = handle.read()
        if recovered != body:
            out.fail("round trip changed the file")
        if digests:
            with open(ct_path, "rb") as handle:
                out.digest = _digest(handle.read(), recovered)
        return out

    def report(self, outcomes):
        enc = _segment(outcomes, "encrypt")
        dec = _segment(outcomes, "decrypt")
        return (
            [("encrypt_kib_s", _kib(outcomes, "encrypt") / sum(enc), "KiB/s", len(enc), ""),
             ("decrypt_kib_s", _kib(outcomes, "decrypt") / sum(dec), "KiB/s", len(dec), "")]
            + _latency_rows("encrypt", enc)
            + _latency_rows("decrypt", dec)
        )


class MessageStream:
    """Library keygen, encrypt and decrypt of short messages under fresh keys."""

    name = "message-stream"
    rate = 75.0  # ops per --second, as above
    round_size = 100
    wrong_key_every = 4  # one op in four also tries a second fresh key, which must be refused
    key_seeds = ()

    def __init__(self, seed, n_ops, workdir):
        self.seed = seed
        self._inputs = None

    def setup(self):
        pass

    def prepare(self, i):
        # Inputs are built per op from (seed, i), so memory does not grow with the run.
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, i))
        key_seed = rng.getrandbits(64)
        message = bytes(rng.choices(ASCII_TEXT, k=rng.randint(16, 256)))
        wrong = None
        if i % self.wrong_key_every == 0:
            wrong = rng.getrandbits(64)
            if wrong == key_seed:
                wrong ^= 1
        self._inputs = (key_seed, message, wrong)

    def op(self, i, digests):
        key_seed, message, wrong = self._inputs
        out = Outcome(size=len(message))
        t0 = _clock()
        key = cipher.keygen(key_seed)
        t1 = _clock()
        envelope = cipher.encrypt(message, key)
        t2 = _clock()
        recovered = cipher.decrypt(envelope, key)
        t3 = _clock()
        out.seconds.update(keygen=t1 - t0, encrypt=t2 - t1, decrypt=t3 - t2)
        if recovered != message:
            out.fail("round trip changed the message")
        rejected_by = None
        if wrong is not None:
            t0 = _clock()
            wrong_key = cipher.keygen(wrong)
            t1 = _clock()
            try:
                cipher.decrypt(envelope, wrong_key)
            except cubecipher.CipherError as exc:
                rejected_by = type(exc).__name__
            t2 = _clock()
            out.seconds.update(wrong_keygen=t1 - t0, reject=t2 - t1)
            if rejected_by is None:
                out.fail("a wrong key decrypted without an error")
        if digests:
            out.digest = _digest([b.entries for b in envelope.blocks],
                                 envelope.pad_count, recovered, rejected_by)
        return out

    def report(self, outcomes):
        enc = _segment(outcomes, "encrypt")
        dec = _segment(outcomes, "decrypt")
        rej = _segment(outcomes, "reject")
        gen = _segment(outcomes, "keygen")
        return (
            [("encrypt_kib_s", _kib(outcomes, "encrypt") / sum(enc), "KiB/s", len(enc), ""),
             ("decrypt_kib_s", _kib(outcomes, "decrypt") / sum(dec), "KiB/s", len(dec), "")]
            + _latency_rows("encrypt", enc)
            + _latency_rows("decrypt", dec)
            + [("reject_p50_ms", median(rej) * 1e3, "ms", len(rej), ""),
               ("keygen_p50_ms", median(gen) * 1e3, "ms", len(gen), "")]
        )


# Entries of attack blocks are shaped like genuine encodings (n^3 - n)/6
# with n = symbol code + prime < 2**16 + 256, so the elimination works on
# numbers of the size real ciphertexts carry.
_N_MAX = (1 << 16) + 255


class Cryptanalysis:
    """Known-plaintext attacks and avalanche measurements under fresh keys."""

    name = "cryptanalysis"
    rate = 55.0  # ops per --second, as above
    round_size = 99
    # Op i is an attack when i % 3 == 0, else an avalanche run. Attacks take
    # ~2 ms and avalanche runs ~20 ms; with two avalanche runs per attack the
    # median op is an avalanche run, long enough to average over the
    # second-to-second speed swings of a shared host.
    attack_every = 3
    pairs = 6
    fresh_blocks = 4
    avalanche_length = 40
    avalanche_trials = (4, 12)  # trials per avalanche op, drawn uniformly
    key_seeds = ()

    def __init__(self, seed, n_ops, workdir):
        self.seed = seed
        self._inputs = None

    def setup(self):
        pass

    def prepare(self, i):
        """Build op i's inputs from (seed, i), then run the oracle: a fresh key
        and, for an attack, its encryptions of the blocks."""
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, i))
        key_seed = rng.getrandbits(64)
        if i % self.attack_every:
            extra = (rng.randint(*self.avalanche_trials), rng.getrandbits(64))
        else:
            extra = []
            for _ in range(self.pairs + self.fresh_blocks):
                ns = [rng.randint(2, _N_MAX) for _ in range(4)]
                extra.append(cubecipher.IntMatrix(2, 2, tuple((n - 1) * n * (n + 1) // 6 for n in ns)))
        t0 = _clock()
        key = cipher.keygen(key_seed)
        expected = None
        if isinstance(extra, list):
            expected = [cipher.encrypt_block(b, key) for b in extra]
        self._inputs = (key, extra, expected, _clock() - t0)

    def op(self, i, digests):
        key, extra, expected, oracle_seconds = self._inputs
        out = Outcome(oracle=oracle_seconds)
        if expected is not None:
            pairs = list(zip(extra[: self.pairs], expected[: self.pairs]))
            t0 = _clock()
            result = analysis.known_plaintext_attack(pairs)
            recovered = [analysis.apply_composite(result.composite_map, b)
                         for b in extra[self.pairs:]]
            t1 = _clock()
            out.seconds["attack"] = t1 - t0
            if not result.verified:
                out.fail("recovered map does not reproduce its pairs")
            if recovered != expected[self.pairs:]:
                out.fail("recovered map disagrees with encrypt_block on fresh blocks")
            if digests:
                out.digest = _digest(result.to_json_text(), [b.entries for b in recovered])
        else:
            trials, trial_seed = extra
            out.size = trials
            t0 = _clock()
            report = analysis.avalanche_test(key, self.avalanche_length, trials, trial_seed)
            t1 = _clock()
            out.seconds["avalanche"] = t1 - t0
            if report.locality_histogram != {1: trials}:
                out.fail("avalanche histogram %r" % (report.locality_histogram,))
            if digests:
                out.digest = _digest(report.to_json_text())
        return out

    def report(self, outcomes):
        att = _segment(outcomes, "attack")
        ava = _segment(outcomes, "avalanche")
        ora = [o.oracle for o in outcomes]
        trials = sum(o.size for o in outcomes if "avalanche" in o.seconds)
        return (
            [("attack_per_s", len(att) / sum(att), "1/s", len(att), ""),
             ("avalanche_trials_per_s", trials / sum(ava), "1/s", len(ava), "")]
            + _latency_rows("attack", att)
            + _latency_rows("avalanche", ava)
            + [("oracle_p50_ms", median(ora) * 1e3, "ms", len(ora), "")]
        )


WORKLOADS = {w.name: w for w in (FileRoundtrip, MessageStream, Cryptanalysis)}
