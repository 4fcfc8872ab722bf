#!/usr/bin/env python3
"""Builds jpar's real-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 12 --trace 0

Run from the repository root. The program is built with CMake under
$CARGO_TARGET_DIR (default .bench_build); build output goes to stderr so
the last line of stdout is the benchmark's JSON result. Scratch data
lives under the build directory and is removed when the run ends.
Extra flags: --smoke (tiny inputs, one pass) and --corrupt-reference
(breaks one reference answer; the run must then exit nonzero).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_paper", "warm_archive", "service_lookup")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha1 over jpar's src/ tree: identifies the code measured when the
    checkout is not a git repository."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("jpar sources (src/) not found next to perfbench/; nothing to build")
    bench_build = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", bench_build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bench_build, "--target", "jpar_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bench_build, "jpar_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)  # no-op when absolute
    binary = build(build_dir)

    tmp = os.path.join(build_dir, "runs", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", os.path.join(tmp, "data"),
           "--trace-out", os.path.join(build_dir, "traces",
                                       "%s-seed%d.jsonl" % (args.workload, args.seed)),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
