#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then:
  * runs every workload at tiny size, untraced and traced, and checks that
    the result line is well formed, answers are correct, and the metric
    names and units are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) lists;
  * checks that a traced run writes its trace file and an untraced run
    writes none;
  * runs the binary's --self-check: the answer checks must reject a
    tampered quotient and a missing row.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)

SEED = 987654321


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out = run.build_dir()
    binary = run.build(out)
    if binary is None:
        fail("build failed")
    results = os.path.join(out, "selftest")
    os.makedirs(results, exist_ok=True)

    checks = subprocess.run([binary, "--self-check"], capture_output=True,
                            text=True)
    print(checks.stdout, end="")
    if checks.returncode != 0:
        fail("answer checks accept a wrong quotient")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            trace_file = os.path.join(
                results, "%s_seed%d_trace.json" % (workload, SEED))
            if os.path.exists(trace_file):
                os.remove(trace_file)
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--tiny",
                 "--out-dir", results],
                capture_output=True, text=True, timeout=170)
            label = "%s trace=%d" % (workload, trace)
            if done.returncode != 0:
                fail("%s exited %d: %s" % (label, done.returncode,
                                           done.stderr[-400:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (label, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                fail("%s: correct=%s attempted=%s" % (
                    label, result["correct"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                fail("%s: missing %s extra %s unit mismatch %s" % (
                    label, missing, extra, units))
            if os.path.exists(trace_file) != bool(trace):
                fail("%s: trace file %s" % (
                    label, "missing" if trace else "written untraced"))
            print("ok  : %s, %d metrics" % (label, len(got)))
    print("selftest passed")


if __name__ == "__main__":
    main()
