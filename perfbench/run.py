#!/usr/bin/env python3
"""Builds the benchmark and the samm-serve binary from source, then runs
one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: engine-corpus, serve-warm, serve-cold-batch (see
perfbench/README.md). Build output goes to $CARGO_TARGET_DIR, or to
.bench_build when it is unset. Cargo's messages go to standard error; the
last line of standard output is the result object. Exits 0 when every
answer was correct, non-zero otherwise or when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds both binaries; returns (benchmark, server) paths or None."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root", file=sys.stderr)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "samm-serve", "--bin", "samm-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    release = os.path.join(target_dir, "release")
    return (os.path.join(release, "samm-perfbench"),
            os.path.join(release, "samm-serve"))


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    binaries = build(target_dir)
    if binaries is None:
        return 2
    bench, server = binaries
    # The benchmark writes its span files under perfbench/out, relative
    # to the checkout root.
    done = subprocess.run([bench, *sys.argv[1:], "--server", server], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
