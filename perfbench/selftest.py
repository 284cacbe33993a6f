#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark itself.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_test (GEMM FLOP hand count, trace self time,
   fidelity comparison).
2. Perturbs a copy of the reference CSVs and checks that a run against it
   reports correct=false and exits nonzero: an acc_mean shift on mc-circuit,
   at the reference seed and at the held-out seed (where only the untimed
   reference-seed pass can catch it), and an nf_mean shift on nf-supervised.
3. Runs mc-circuit at a held-out seed and checks the invariants: every group
   complete, no failed cells, no unconverged solves (the driver fails a run
   on any of these).
Each benchmark run here is one short pass (--seconds 1).
"""
import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
HELD_OUT_SEED = 23


def bench(workload, seed, reference_dir=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    if reference_dir:
        cmd += ["--reference-dir", reference_dir]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout


def perturbed_reference(workload, column, delta):
    """Copy of the reference directory with `column` of the first row of
    `workload`'s CSV shifted by `delta`."""
    out = os.path.join(STATE, "selftest", "reference-" + workload)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), os.path.join(ROOT, out))
    path = os.path.join(ROOT, out, workload + ".csv")
    with open(path) as f:
        rows = list(csv.reader(f))
    col = rows[0].index(column)
    rows[1][col] = "%.6f" % (float(rows[1][col]) + delta)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return out


def main():
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    build = os.path.join(STATE, "build")
    if not os.path.isfile(os.path.join(ROOT, build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build], cwd=ROOT, check=True)
    subprocess.run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)], cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    t = subprocess.run([os.path.join(ROOT, build, "perfbench_test")], cwd=ROOT)
    expect(t.returncode == 0, "perfbench_test unit checks")

    for workload, column, delta, seed in (("mc-circuit", "acc_mean", 5.0, 11),
                                          ("mc-circuit", "acc_mean", 5.0, HELD_OUT_SEED),
                                          ("nf-supervised", "nf_mean", 0.001, 11)):
        ref = perturbed_reference(workload, column, delta)
        rc, result, _ = bench(workload, seed, ref)
        expect(rc != 0 and result is not None and result["correct"] is False
               and result["failed"] > 0,
               "%s at seed %d with %s perturbed by %g: correct=false, exit %d"
               % (workload, seed, column, delta, rc))

    rc, result, out = bench("mc-circuit", HELD_OUT_SEED)
    expect(rc == 0 and result["correct"] is True and result["failed"] == 0,
           "mc-circuit at held-out seed %d: all groups complete, no failed cells, "
           "no unconverged solves" % HELD_OUT_SEED)
    if rc != 0:
        print(out)

    print("selftest: %s" % ("all passed" if not failures else "%d failed" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
