#!/usr/bin/env python3
"""Builds the benchmark and the shipped `repro` binary, then runs one
workload: `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root.

Both are release builds into $CARGO_TARGET_DIR (default `.bench_build`).
Any build failure exits non-zero before a result is printed.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The service binary exactly as the workspace ships it.
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "repro"],
        # The harness, a package of its own beside this script.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    args = [harness, *sys.argv[1:],
            "--repro", os.path.join(release, "repro"),
            "--work-dir", os.path.join(target, "perfbench")]
    sys.stdout.flush()
    os.execve(harness, args, env)


if __name__ == "__main__":
    sys.exit(main())
