"""Set-up probe: a fresh interpreter imports cubecipher, writes the
workload's keys through the CLI, prints "ready" and exits.

    python3 probe.py SRC_DIR KEY_DIR [KEY_SEED ...]

run.py times it from process start to the "ready" line, several times per
run, and reports the median as setup_s.
"""

import os
import sys

src, key_dir, *seeds = sys.argv[1:]
sys.path.insert(0, src)

import cubecipher  # noqa: E402,F401

if seeds:
    from cubecipher import cli  # noqa: E402

    for i, seed in enumerate(seeds):
        if cli.main(["keygen", "--seed", seed, "--out", os.path.join(key_dir, "key%d.json" % i)]):
            sys.exit(1)
print("ready", flush=True)
