"""Run one benchmark workload against the cubecipher in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's src/ and writes only below the checkout
(.perfbench_tmp/ while it runs, .perfbench_out/ for span files).

--seconds sizes the run: each workload performs seconds x its rate ops,
in whole rounds of equal make-up, so every commit is measured on the same
inputs and its percentiles sit at the same ranks.
--trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
twice, untraced and then traced, checks that both passes produce
byte-identical outputs, and reports the per-layer metrics.

Human-readable rows go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output checked out.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

from metrics import median, tail
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("file-roundtrip", "message-stream", "cryptanalysis")
SETUP_PROBES = 10  # spread over the run's rounds, so they see the same machine as the ops
MIN_ROUNDS = 3  # keeps more than ten ops, which the tail needs, in every workload
TRACE_SHARE = 0.5  # a traced run measures half the ops, twice (untraced, then traced)
PASS_CAP_S = 75.0  # no pass may run longer, so a much slower commit still ends in time


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _checkout_problem():
    needed = [os.path.join(SRC, "cubecipher", "__init__.py")] + [
        os.path.join(FIXTURES, name)
        for name in ("golden_key.json", "golden_message.txt", "golden_ciphertext.json")
    ]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        return "not a cubecipher checkout, missing %s" % ", ".join(missing)
    return None


def _probe_setup(workload, workdir):
    """Seconds from starting a fresh interpreter until it has imported the
    package and written the workload's keys."""
    key_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC, key_dir]
    cmd += [str(s) for s in workload.key_seeds]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _run_pass(workload, n_ops, digests, tracer=None, before_round=None):
    from workloads import Outcome

    deadline = time.perf_counter() + PASS_CAP_S
    outcomes = []
    for i in range(n_ops):
        if time.perf_counter() > deadline:
            break
        if before_round is not None and i % workload.round_size == 0:
            before_round(i // workload.round_size)
        if tracer is not None:
            tracer.op = i
        try:
            with _span(tracer, "bench.prepare"):
                workload.prepare(i)
            with _span(tracer, "bench.op"):
                outcome = workload.op(i, digests)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            outcome = Outcome()
            outcome.fail("%s: %s" % (type(exc).__name__, exc))
        outcomes.append(outcome)
    return outcomes


def _golden_check(workdir):
    """The committed golden key and message must reproduce the golden
    ciphertext byte for byte through the CLI."""
    from cubecipher import cli

    out = os.path.join(workdir, "golden.json")
    rc = cli.main(["encrypt", "--key", os.path.join(FIXTURES, "golden_key.json"),
                   "--in", os.path.join(FIXTURES, "golden_message.txt"), "--out", out])
    if rc != 0:
        return False
    with open(out, "rb") as got, open(os.path.join(FIXTURES, "golden_ciphertext.json"), "rb") as want:
        return got.read() == want.read()


def _end_to_end(workload, outcomes, setup_samples):
    op_ms = [o.op_seconds * 1e3 for o in outcomes]
    tail_ms, tail_pct = tail(op_ms)
    failed = sum(not o.ok for o in outcomes)
    rows = [
        ("ops_per_s", len(op_ms) / (sum(op_ms) / 1e3), "1/s", len(op_ms), ""),
        ("op_p50_ms", median(op_ms), "ms", len(op_ms), ""),
        ("op_tail_ms", tail_ms, "ms", len(op_ms), "p%.1f" % tail_pct),
        ("setup_s", median(setup_samples), "s", len(setup_samples), "median"),
        ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MiB", 1, "ru_maxrss"),
        ("ops_failed_ratio", failed / len(op_ms), "ratio", len(op_ms), ""),
    ]
    return rows + workload.report(outcomes)


def _print_rows(rows):
    for name, value, unit, n, note in rows:
        print("  %-34s %14.6g %-6s n=%-6d %s" % (name, value, unit, n, note))


def _per_layer(args, tracer, base, traced):
    os.makedirs(TRACE_OUT, exist_ok=True)
    span_file = os.path.join(TRACE_OUT, "spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
    own = tracer.self_times()
    tracer.write(span_file, own)
    layers = layer_metrics(tracer, len(traced), own)
    base_s = sum(o.op_seconds for o in base)
    traced_s = sum(o.op_seconds for o in traced)
    layers["trace.overhead"] = ((len(traced) / traced_s) / (len(base) / base_s), "ratio")
    print("  per-layer metrics; counts, ms and bytes are per op")
    _print_rows([(k, v, u, len(traced), "") for k, (v, u) in layers.items()])
    print("  spans written to %s" % os.path.relpath(span_file, ROOT))
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}


GATED = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib")


def main(argv=None):
    args = _parse_args(argv)
    problem = _checkout_problem()
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS  # imports cubecipher, so only now that src/ is on the path

    cls = WORKLOADS[args.workload]
    share = TRACE_SHARE if args.trace else 1.0
    rounds = max(MIN_ROUNDS, round(args.seconds * cls.rate * share / cls.round_size))
    n_ops = rounds * cls.round_size
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workload = cls(args.seed, n_ops, workdir)
        setup_samples = []

        def probe_before(r):
            due = (r + 1) * SETUP_PROBES // rounds - r * SETUP_PROBES // rounds
            setup_samples.extend(_probe_setup(workload, workdir) for _ in range(due))

        workload.setup()
        checks = []
        t0 = time.perf_counter()
        base = _run_pass(workload, n_ops, digests=bool(args.trace),
                         before_round=None if args.trace else probe_before)
        measured = time.perf_counter() - t0
        outcomes = list(base)
        if args.trace:
            with Tracer() as tracer:
                traced = _run_pass(workload, len(base), digests=True, tracer=tracer)
            checks.append(("wrapped names restored", tracer.restored()))
            for b, t in zip(base, traced):
                if b.digest != t.digest:
                    t.fail("traced outputs differ from untraced outputs")
            checks.append(("traced pass completed every op", len(traced) == len(base)))
            outcomes += traced
        checks.append(("golden ciphertext reproduced", _golden_check(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = [(i % len(base), o.problem) for i, o in enumerate(outcomes) if not o.ok]
    failed = len(failed_ops) + sum(not ok for _, ok in checks)
    attempted = len(outcomes) + len(checks)
    print("perfbench %s seed=%d ops=%d measured=%.1fs trace=%d"
          % (args.workload, args.seed, len(base), measured, args.trace))
    try:
        if args.trace:
            metrics = _per_layer(args, tracer, base, traced)
        else:
            rows = _end_to_end(workload, base, setup_samples)
            _print_rows(rows)
            metrics = {name: {"value": value, "unit": unit}
                       for name, value, unit, _, _ in rows if name in GATED}
    except (ZeroDivisionError, ValueError):
        if not failed:
            raise
        metrics = {}  # failed ops left nothing to measure; the failures are the result
    for name, ok in checks:
        if not ok:
            print("  CHECK FAILED: %s" % name)
    for i, problem in failed_ops[:20]:
        print("  OP FAILED (op %d): %s" % (i, problem))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
