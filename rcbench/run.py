#!/usr/bin/env python3
"""Build and run the rcsim benchmark.

    python3 rcbench/run.py --workload repro|compile|fuzz --seed N \\
        --seconds S --trace 0|1

Builds the rcbench binary (rcbench/CMakeLists.txt, which compiles the
libraries under src/) into $CARGO_TARGET_DIR/rcbench, default
.bench_build/rcbench.  Then it starts one rcbench process after another
until --seconds are spent, each a fresh process that sets up and runs
one pass, so every pass is cold and peak memory belongs to one pass.
Every metric is the median over the processes; a traced run reports
the process with the median traced pass whole.  All processes must
report the same outputs fingerprint (fuzz: byte-identical campaign
summaries, so fuzz runs at least two), and count metrics must repeat
exactly.  The rcbench context line (host, workload shape) is passed
through; the last stdout line is the result JSON.  A traced run
writes its spans to spans-<workload>.jsonl in the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 170


def build():
    """Configure (cheap when unchanged) and bring the binary up to date."""
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "rcbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out)],
                ["cmake", "--build", str(out), "--target", "rcbench",
                 "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            sys.exit(f"rcbench: cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.exit(f"rcbench: build step failed: {' '.join(cmd)}")
    return out


def drive(cmd):
    """One rcbench process; its start time rides along for setup_s."""
    try:
        done = subprocess.run(cmd + ["--t0-ns", str(time.monotonic_ns())],
                              stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"rcbench: a pass exceeded {PASS_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(done.returncode or 1)
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["repro", "compile", "fuzz"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build()
    cmd = [str(out / "rcbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans", str(out / f"spans-{a.workload}.jsonl")]
    least = 2 if a.workload == "fuzz" and not a.trace else 1

    runs = []
    t0 = time.monotonic()
    last = 0.0
    while len(runs) < least or time.monotonic() - t0 + last <= a.seconds:
        t = time.monotonic()
        runs.append(drive(cmd))
        last = time.monotonic() - t
        m = runs[-1][1]["metrics"]
        shown = ["trace.pass_s"] if a.trace else list(m)
        print(f"rcbench: pass {len(runs)}: " + ", ".join(
            f"{k} {m[k]['value']:.6g}" for k in shown), file=sys.stderr)

    correct = all(r["correct"] for _, r in runs)
    if len({c["outputs"] for c, _ in runs}) != 1:
        print("rcbench: FAILED CHECK: outputs differ between passes",
              file=sys.stderr)
        correct = False
    if a.trace:
        # Report one process whole, the one with the median traced
        # pass, so its layer self times still add up to trace.pass_s.
        runs.sort(key=lambda r: r[1]["metrics"]["trace.pass_s"]["value"])
        context, chosen = runs[(len(runs) - 1) // 2]
        metrics = chosen["metrics"]
    else:
        context = runs[0][0]
        metrics = {name: {"value": statistics.median(
                              r["metrics"][name]["value"] for _, r in runs),
                          "unit": m["unit"]}
                   for name, m in runs[0][1]["metrics"].items()}
    for name, m in metrics.items():
        if m["unit"] == "count" and len(
                {r["metrics"][name]["value"] for _, r in runs}) != 1:
            print(f"rcbench: FAILED CHECK: {name} differs between passes",
                  file=sys.stderr)
            correct = False
    context["passes"] = len(runs)
    print(json.dumps(context))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()
