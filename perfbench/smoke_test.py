#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, briefly, in both modes.

usage: python3 perfbench/smoke_test.py [--seconds S]

For each workload in BENCHMARK.json it checks that
  * an untraced run is correct and prints exactly the end_to_end metrics,
    each with its declared unit and a finite value;
  * a traced run is correct and prints exactly the per_layer metrics;
  * a run whose expected output was corrupted (--corrupt) reports a failed
    operation and correct = false.
Exits 0 when every check passes.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd),
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_metrics(result, declared):
    errors = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted({m["name"] for m in declared} - set(got)),
            sorted(set(got) - {m["name"] for m in declared})))
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            continue
        if v["unit"] != m["unit"]:
            errors.append("%s: unit %s, declared %s" % (m["name"], v["unit"],
                                                       m["unit"]))
        if not isinstance(v["value"], (int, float)) or \
                not math.isfinite(v["value"]):
            errors.append("%s: value %r is not a finite number" %
                          (m["name"], v["value"]))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result = run(w, args.seconds, trace)
            errs = check_metrics(result, declared)
            if not result["correct"] or result["failed"] != 0:
                errs.append("run not correct: %d of %d failed" %
                            (result["failed"], result["attempted"]))
            if result["attempted"] < 1:
                errs.append("no operations attempted")
            failures += ["%s trace=%d: %s" % (w, trace, e) for e in errs]
            print("%-15s trace=%d %s" % (w, trace, "ok" if not errs else
                                          "FAILED"), flush=True)
        bad = run(w, args.seconds, 0, corrupt=True)
        caught = not bad["correct"] and bad["failed"] > 0
        if not caught:
            failures.append("%s: corrupted expected output not caught" % w)
        print("%-15s corrupt %s" % (w, "caught" if caught else "MISSED"),
              flush=True)

    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
