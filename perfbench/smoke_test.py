#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py in smoke mode (tiny inputs,
one pass), untraced and traced, and checks that the result line names
exactly the metrics BENCHMARK.json lists, with their units, and that
every answer matched the reference. It then checks that a corrupted
reference answer makes the run exit nonzero, and that the benchmark
exits nonzero without a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            proc = run(w, trace)
            what = "%s trace=%d" % (w, trace)
            if proc.returncode != 0:
                failures.append("%s exited %d: %s" % (what, proc.returncode,
                                                      proc.stderr[-500:]))
                continue
            r = result_line(proc)
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: bad result keys %s" % (what, sorted(r)))
                continue
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                failures.append("%s: answers not all correct: %s" % (what, r))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                wrong = {k for k in set(got) & set(expected[trace])
                         if got[k] != expected[trace][k]}
                failures.append("%s: metrics differ: missing %s, extra %s, "
                                "wrong unit %s" % (what, sorted(missing),
                                                   sorted(extra), sorted(wrong)))
            print("ok  %s: %d metrics" % (what, len(got)))

    proc = run("cold_paper", 0, "--corrupt-reference")
    r = result_line(proc)
    if proc.returncode == 0 or r is None or r["correct"]:
        failures.append("a corrupted reference answer did not fail the run")
    else:
        print("ok  corrupted reference answer -> exit %d" % proc.returncode)

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold_paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("a bare directory did not fail without a result")
        else:
            print("ok  bare directory -> exit %d, no result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
