"""Traced runs: timing wrappers around the program's layers and the
per-layer metrics they yield.

Each wrapper is set at the name its caller looks the function up by (a
module global such as cubecipher.cipher.prime_stream, or a class attribute
such as IntMatrix.__matmul__), returns and raises exactly what the wrapped
function does, and is removed again when the traced block ends, even when
it ends with an exception. A name that a later version of the program no
longer has is skipped, so its layer reports zero calls.

Spans are kept in memory in flat arrays (name, start, end, parent, op) and
written out, as gzip-compressed TSV, when the run ends. Two hot leaves are the exception: is_prime
runs about half a million times per 6,542-byte message and next_u64 even
more, so is_prime calls are counted and their time is charged to the
enclosing span instead of getting spans of their own, and next_u64 calls
are only counted (as primes.draws) when a prime_stream span encloses them.
"""

import contextlib
import functools
import gzip
import importlib
import os
import time
from array import array
from collections import Counter

from metrics import self_times

CEILING = 6542  # the longest message the v1 prime stream can key

# (owner, attribute, span name). owner is "module" or "module:Class".
SPANS = (
    ("cubecipher.cli", "main", "cli.main"),
    ("cubecipher.cli", "keygen", "cipher.keygen"),
    ("cubecipher.cipher", "keygen", "cipher.keygen"),
    ("cubecipher.cipher", "validate_key", "cipher.validate_key"),
    ("cubecipher.analysis", "validate_key", "cipher.validate_key"),
    ("cubecipher.cli", "encrypt", "cipher.encrypt"),
    ("cubecipher.cipher", "encrypt", "cipher.encrypt"),
    ("cubecipher.analysis", "encrypt", "cipher.encrypt"),
    ("cubecipher.cli", "decrypt", "cipher.decrypt"),
    ("cubecipher.cipher", "decrypt", "cipher.decrypt"),
    ("cubecipher.analysis", "decrypt", "cipher.decrypt"),
    ("cubecipher.cipher", "blockify", "cipher.blockify"),
    ("cubecipher.cipher", "deblockify", "cipher.deblockify"),
    ("cubecipher.cipher", "encrypt_block", "cipher.encrypt_block"),
    ("cubecipher.cipher", "prime_stream", "primes.prime_stream"),
    ("cubecipher.cipher", "encode_symbol", "encoding.encode_symbol"),
    ("cubecipher.cipher", "decode_symbol", "encoding.decode_symbol"),
    ("cubecipher.encoding", "solve_depressed_cubic", "encoding.solve_depressed_cubic"),
    ("cubecipher.matrices:IntMatrix", "__matmul__", "matrices.int_matmul"),
    ("cubecipher.matrices:RatMatrix", "__matmul__", "matrices.rat_matmul"),
    ("cubecipher.matrices:RatMatrix", "inverse", "matrices.rat_inverse"),
    ("cubecipher.matrices", "rank", "matrices.rank"),
    ("cubecipher.analysis", "rank", "matrices.rank"),
    ("cubecipher.cipher", "rat_to_int_matrix", "matrices.rat_to_int_matrix"),
    ("cubecipher.analysis", "rat_to_int_matrix", "matrices.rat_to_int_matrix"),
    ("cubecipher.cipher", "fibonacci_q", "matrices.fibonacci_q"),
    ("cubecipher.cli", "serialize_ciphertext", "formats.serialize_ciphertext"),
    ("cubecipher.analysis", "serialize_ciphertext", "formats.serialize_ciphertext"),
    ("cubecipher.cli", "parse_ciphertext", "formats.parse_ciphertext"),
    ("cubecipher.cli", "parse_key", "formats.parse_key"),
    ("cubecipher.analysis", "known_plaintext_attack", "analysis.known_plaintext_attack"),
    ("cubecipher.analysis", "apply_composite", "analysis.apply_composite"),
    ("cubecipher.analysis", "avalanche_test", "analysis.avalanche_test"),
)
FOLDED = (("cubecipher.primes", "is_prime", "primes.is_prime"),)
DRAWS = (("cubecipher.primes:Xorshift64Star", "next_u64"),)

# Rejections of a wrong key, by the error class that raised it. The first
# is the earliest check (the un-mix integrality test); the others fire later.
REJECT_CLASSES = (
    "NonIntegralResultError",
    "CorruptCiphertextError",
    "CorruptValueError",
    "SymbolRangeError",
)


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original object. `op` is set by the caller to the
    workload op that new spans belong to.
    """

    def __init__(self, spans=SPANS, folded=FOLDED, draws=DRAWS):
        self._targets = (spans, folded, draws)
        self._installed = []  # (owner, attribute, original, owner had its own)
        self.names = []
        self._name_ids = {}
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.folded_ns = array("q")
        self.folded_calls = array("q")
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.draws = {}  # prime_stream span index -> next_u64 calls inside it
        self.emitted = {}  # prime_stream span index -> primes returned

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.folded_ns.append(0)
        self.folded_calls.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        nid = self.name_id(name)
        observe = _OBSERVERS.get(name)
        error = _ERRORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if error is not None:
                    error(self, exc)
                raise
            self.close(idx)
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return wrapper

    def _folded(self, fn, name):
        clock = time.perf_counter_ns
        stack, folded_ns, folded_calls, counts = (
            self.stack, self.folded_ns, self.folded_calls, self.counts
        )
        calls_key, ns_key = name + ".calls", name + ".ns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counts[calls_key] += 1
                counts[ns_key] += dt
                if stack:
                    folded_ns[stack[-1]] += dt
                    folded_calls[stack[-1]] += 1

        return wrapper

    def _draws(self, fn):
        stack, name_ids, draws = self.stack, self.name_ids, self.draws
        stream_id = self.name_id("primes.prime_stream")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                if name_ids[top] == stream_id:
                    draws[top] = draws.get(top, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore -------------------------------------------------

    def _set(self, owner_path, attribute, make):
        owner = _resolve(owner_path)
        if owner is None or not hasattr(owner, attribute):
            return
        had_own = attribute in vars(owner)
        # Keep the owner's own entry as stored (a staticmethod stays one).
        original = vars(owner)[attribute] if had_own else None
        self._installed.append((owner, attribute, original, had_own))
        setattr(owner, attribute, make(getattr(owner, attribute)))

    def __enter__(self):
        spans, folded, draws = self._targets
        try:
            for owner, attribute, name in spans:
                self._set(owner, attribute, lambda fn, name=name: self._span(fn, name))
            for owner, attribute, name in folded:
                self._set(owner, attribute, lambda fn, name=name: self._folded(fn, name))
            for owner, attribute in draws:
                self._set(owner, attribute, self._draws)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for owner, attribute, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        return False

    def restored(self):
        """True when every wrapped name holds its original object again."""
        for owner, attribute, original, had_own in self._installed:
            if had_own:
                if vars(owner).get(attribute) is not original:
                    return False
            elif attribute in vars(owner):
                return False
        return True

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every recorded span, in ns."""
        return self_times(self.starts, self.ends, self.parents, self.folded_ns)

    def per_name(self, own=None):
        """{span name: (calls, self ns)} over every recorded span."""
        if own is None:
            own = self.self_times()
        calls, self_ns = Counter(), Counter()
        for nid, ns in zip(self.name_ids, own):
            calls[nid] += 1
            self_ns[nid] += ns
        return {self.names[nid]: (calls[nid], self_ns[nid]) for nid in calls}

    def write(self, path, own=None):
        if own is None:
            own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\top\tname\tstart_ns\tend_ns\tparent\tself_ns\n")
            for i, nid in enumerate(self.name_ids):
                handle.write(
                    "%d\t%d\t%s\t%d\t%d\t%d\t%d\n"
                    % (i, self.ops[i], self.names[nid], self.starts[i],
                       self.ends[i], self.parents[i], own[i])
                )


def _observe_prime_stream(tracer, idx, args, kwargs, result):
    tracer.emitted[idx] = len(result)


def _entry_bits(tracer, blocks):
    bits = max((abs(e).bit_length() for b in blocks for e in b.entries), default=0)
    if bits > tracer.counts["matrices.entry_bits_max"]:
        tracer.counts["matrices.entry_bits_max"] = bits


def _observe_encrypt(tracer, idx, args, kwargs, result):
    message = args[0] if args else kwargs["message"]
    tracer.counts["cipher.plaintext_bytes"] += len(message)
    tracer.counts["cipher.blocks"] += len(result.blocks)
    tracer.counts["cipher.pad_slots"] += result.pad_count
    _entry_bits(tracer, result.blocks)


def _observe_encrypt_block(tracer, idx, args, kwargs, result):
    _entry_bits(tracer, (result,))


def _observe_serialize(tracer, idx, args, kwargs, result):
    tracer.counts["formats.ciphertext_bytes"] += len(result.encode())


def _observe_attack(tracer, idx, args, kwargs, result):
    tracer.counts["analysis.attack_attempts"] += 1
    tracer.counts["analysis.attack_rank4"] += 1


def _observe_cli(tracer, idx, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if result == 0 and "--out" in argv:
        out = argv[argv.index("--out") + 1]
        try:
            tracer.counts["cli.bytes_written"] += os.path.getsize(out)
        except OSError:
            pass


def _decrypt_error(tracer, exc):
    tracer.counts["cipher.rejects." + type(exc).__name__] += 1


def _attack_error(tracer, exc):
    tracer.counts["analysis.attack_attempts"] += 1


_OBSERVERS = {
    "primes.prime_stream": _observe_prime_stream,
    "cipher.encrypt": _observe_encrypt,
    "cipher.encrypt_block": _observe_encrypt_block,
    "formats.serialize_ciphertext": _observe_serialize,
    "analysis.known_plaintext_attack": _observe_attack,
    "cli.main": _observe_cli,
}
_ERRORS = {
    "cipher.decrypt": _decrypt_error,
    "analysis.known_plaintext_attack": _attack_error,
}

CALLS_AND_SELF = (
    "primes.prime_stream",
    "primes.is_prime",
    "encoding.encode_symbol",
    "encoding.decode_symbol",
    "encoding.solve_depressed_cubic",
    "matrices.int_matmul",
    "matrices.rat_matmul",
    "matrices.rat_inverse",
    "matrices.rank",
    "matrices.rat_to_int_matrix",
    "matrices.fibonacci_q",
    "cipher.keygen",
    "cipher.validate_key",
    "cipher.encrypt",
    "cipher.decrypt",
    "cipher.blockify",
    "cipher.deblockify",
    "cipher.encrypt_block",
    "formats.serialize_ciphertext",
    "formats.parse_ciphertext",
    "formats.parse_key",
    "analysis.known_plaintext_attack",
    "analysis.apply_composite",
    "analysis.avalanche_test",
    "cli.main",
)


def layer_metrics(tracer, n_ops, own=None):
    """Per-layer metrics of a traced pass, normalised per workload op.

    Returns {name: (value, unit)}; ratios and maxima are not normalised.
    """
    per_name = tracer.per_name(own)
    counts = tracer.counts
    out = {}
    for name in CALLS_AND_SELF:
        if name == "primes.is_prime":
            calls, ns = counts[name + ".calls"], counts[name + ".ns"]
        else:
            calls, ns = per_name.get(name, (0, 0))
        out[name + ".calls"] = (calls / n_ops, "count")
        out[name + ".self_ms"] = (ns / 1e6 / n_ops, "ms")

    draws = sum(tracer.draws.values())
    emitted = sum(tracer.emitted.values())
    tested = sum(tracer.folded_calls[i] for i in tracer.emitted)
    ceiling = [i for i, n in tracer.emitted.items() if n == CEILING]
    ceiling_draws = sum(tracer.draws.get(i, 0) for i in ceiling)
    ceiling_tested = sum(tracer.folded_calls[i] for i in ceiling)
    out["primes.draws"] = (draws / n_ops, "count")
    out["primes.emitted"] = (emitted / n_ops, "count")
    out["primes.repeats"] = ((draws - tested) / n_ops, "count")
    out["primes.yield"] = (emitted / draws if draws else 0.0, "ratio")
    out["primes.ceiling_draws_per_prime"] = (
        ceiling_draws / (CEILING * len(ceiling)) if ceiling else 0.0, "count")
    out["primes.ceiling_repeat_share"] = (
        (ceiling_draws - ceiling_tested) / ceiling_draws if ceiling_draws else 0.0, "ratio")

    out["matrices.entry_bits_max"] = (counts["matrices.entry_bits_max"], "bits")
    out["cipher.blocks"] = (counts["cipher.blocks"] / n_ops, "count")
    out["cipher.pad_slots"] = (counts["cipher.pad_slots"] / n_ops, "count")
    for cls in REJECT_CLASSES:
        out["cipher.rejects." + cls] = (counts["cipher.rejects." + cls] / n_ops, "count")
    plaintext = counts["cipher.plaintext_bytes"]
    ct_bytes = counts["formats.ciphertext_bytes"]
    out["formats.ciphertext_bytes"] = (ct_bytes / n_ops, "B")
    out["formats.expansion"] = (ct_bytes / plaintext if plaintext else 0.0, "B/B")
    attempts = counts["analysis.attack_attempts"]
    out["analysis.attack_yield"] = (
        counts["analysis.attack_rank4"] / attempts if attempts else 0.0, "ratio")
    out["cli.bytes_written"] = (counts["cli.bytes_written"] / n_ops, "B")
    return out
