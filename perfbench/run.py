#!/usr/bin/env python3
"""Build the mtsp daemon and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Both binaries are built with `cargo build --release` into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Build output and diagnostics
go to stderr; the last line of stdout is the run's JSON result. The exit code
is 0 only for a completed run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("error: no Cargo.toml at the repository root; run.py builds the "
              "repository it sits in", file=sys.stderr)
        return 2
    if not (cargo_build(target_dir, "Cargo.toml", "--bin", "mtsp")
            and cargo_build(target_dir, os.path.join("perfbench", "Cargo.toml"))):
        print("error: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "mtsp-perfbench"),
           "--mtsp-bin", os.path.join(release, "mtsp"), *sys.argv[1:]]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
