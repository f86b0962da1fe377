#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see WORKLOADS.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
reldiv library and the benchmark binary from source into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls rebuild only
what changed. The binary's standard output is passed through: a host stamp
line, then the result as one JSON object on the last line. Results and the
traced run's trace file land in <build dir>/results. The exit code is the
binary's (1 on a wrong answer), or 3 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def build(out):
    """Configures (once) and builds; returns the binary path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=log, stderr=log)
    binary = os.path.join(out, "perfbench")
    return binary if done.returncode == 0 and os.path.exists(binary) else None


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "none"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def src_digest():
    """SHA-256 over the library sources, so results name the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    argv = [binary] + sys.argv[1:] + [
        "--out-dir", results, "--git-sha", git_sha(),
        "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
