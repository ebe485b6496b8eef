#!/usr/bin/env python3
"""Builds and runs the end-to-end PMTest benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built in release mode against the repository's crates,
into $CARGO_TARGET_DIR or perfbench/target. The first form runs one workload:
it prints the run's configuration and every metric with its unit, and its last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--workload all` runs every workload untraced and traced, one after another.
Either form exits non-zero when the build fails or a correctness gate fails.
Traced runs write their spans under perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["kv-ycsb", "pmfs-filebench", "kv-bug-cache", "explore-queue"]


def build():
    """Builds the benchmark and returns the path of its executable."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = ["--out", os.path.join(HERE, "out")]
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--workload") != "all":
        return subprocess.run([binary, *argv, *out]).returncode
    seed, seconds = opts.get("--seed", "1"), opts.get("--seconds", "30")
    failed = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {workload} --trace {trace}", flush=True)
            cmd = [binary, "--workload", workload, "--seed", seed, "--seconds", seconds,
                   "--trace", trace, *out]
            if subprocess.run(cmd).returncode != 0:
                failed.append(f"{workload} --trace {trace}")
    print("== all gates passed" if not failed else "== FAILED: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
