#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built offline in release mode into $CARGO_TARGET_DIR
(default: perfbench/target). Build output goes to stderr; the benchmark's
own standard output, whose last line is the JSON result, passes through
unchanged. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), "--repro-bin", os.path.join(release, "repro_all"), *sys.argv[1:]]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
