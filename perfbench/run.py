#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the `perfbench` program (perfbench/CMakeLists.txt) from the sources of
the checkout it runs in, then runs one workload:

    python3 perfbench/run.py --workload zoo-small --seed 1 --seconds 45 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; its output goes to stderr so that the last line of stdout is
the program's JSON result. Traced runs also write their spans to
<build dir>/spans/<workload>-seed<N>.jsonl. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("firehose-edf3", "firehose-sharded", "zoo-small", "fleet-approx")
# The seed a change is developed against. README.md names a second seed,
# held out to confirm a claimed gain on inputs not used while writing it.
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ("src/CMakeLists.txt", "scenarios/million_tasks.dsct"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("not a source checkout: %s is missing under %s"
                 % (needed, ROOT))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
