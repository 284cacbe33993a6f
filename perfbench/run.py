#!/usr/bin/env python3
"""End-to-end sweep benchmark entry point.

    python3 perfbench/run.py --workload mc-circuit --seed 11 --seconds 20 --trace 0

Run from the repository root. On first use it configures and builds the
driver (perfbench/CMakeLists.txt, which builds the repository's `xs` library)
and trains the model zoo once (the untimed warm-up); both live under
$CARGO_TARGET_DIR (default .bench_build) in the checkout. It then runs the
driver, whose last line of standard output is the JSON result. Build and
warm-up logs go to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Run cmd with its output on stderr; exit 2 if it fails."""
    rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        fail("command failed (%d): %s" % (rc, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-dir", default=os.path.join("perfbench", "reference"))
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sources to build: run from a full checkout of the repository")

    state = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build = os.path.join(state, "build")
    # Keep the compiler's and the program's scratch files inside the checkout.
    tmp = os.path.join(ROOT, state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    driver = os.path.join(ROOT, build, "perfbench_driver")
    if not os.path.isfile(os.path.join(ROOT, build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                "--target", "perfbench_driver"])
    if not os.path.isfile(os.path.join(ROOT, state, "zoo", "warmup_s.txt")):
        run_logged([driver, "--warmup", "--state", state])

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", state, "--reference-dir", args.reference_dir]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
