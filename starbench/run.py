#!/usr/bin/env python3
"""Build and run the star-schema socket benchmark.

Usage (from the repository root):

    python3 starbench/run.py --workload star-ingest|star-query \
        --seed N --seconds S --trace 0|1

Builds the shipped `dwc` binary and the `starbench` load generator in
release mode (offline, into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the load generator against `dwc serve`. The last line of
stdout is the JSON result; the exit code is non-zero when a build fails
or a correctness check does not hold.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "dwc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("starbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so stdout stays the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("starbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(target, "release", "starbench")
    dwc = os.path.join(target, "release", "dwc")
    return subprocess.run([binary, "--dwc", dwc] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
