#!/usr/bin/env python3
"""Served-market benchmark: builds `lovm` and the benchmark from source,
then runs one workload against a real `lovm serve`.

    python3 servebench/run.py --workload burst-wide --seed 1 --seconds 6 --trace 0

Build output goes to stderr; the benchmark's JSON lines go to stdout,
the result object last. `CARGO_TARGET_DIR` (default `.bench_build`)
holds both builds, `.bench_work` the run's scratch files and the spans
of the last traced run of each workload. See servebench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; leave room to stop the server.
RUN_TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"servebench: {needed} is missing: run from a full checkout",
                  file=sys.stderr)
            return 2

    # Nothing the caller's LOVM_* variables say may reach the build or
    # the measured program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOVM_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "lovm"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(ROOT, "servebench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"servebench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--lovm", os.path.join(release, "lovm"),
        "--work", os.path.join(ROOT, ".bench_work"),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # The server dies with the benchmark (parent-death signal).
        print(f"servebench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
