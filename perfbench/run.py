#!/usr/bin/env python3
"""Builds `pacer` and the benchmark from source, then runs one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to $CARGO_TARGET_DIR, or to
`.bench_build` when that is unset. Cargo's output goes to stderr; stdout
is the benchmark's own, ending in one JSON result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=850,
    )
    return result.returncode == 0


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no repository to build at " + ROOT, file=sys.stderr)
        return 2
    if not build(["-p", "pacer-cli", "--bin", "pacer"], env):
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    argv = [bench, "--pacer", os.path.join(release, "pacer"), "--root", HERE] + sys.argv[1:]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(bench, argv)


if __name__ == "__main__":
    sys.exit(main())
