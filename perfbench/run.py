#!/usr/bin/env python3
"""Build the benchmark harness and run one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The harness is a Cargo package of its
own (perfbench/Cargo.toml) and is built offline, in release mode, into
$CARGO_TARGET_DIR, or into .bench_build when that is unset. Cargo's output
goes to standard error; the harness's standard output is passed through, so
the last line printed is the result JSON. The exit code is the harness's, or
the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return build.returncode
    harness = os.path.join(target, "release", "oraql-perfbench")
    return subprocess.run([harness] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
