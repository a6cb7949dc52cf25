#!/usr/bin/env python3
"""Build and run the ATAMAN end-to-end benchmark (one workload per call).

    python3 perfbench/run.py --workload serve_saturated --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds perfbench/ together with the
ataman library from src/ into .bench_build/perfbench-build, trains and caches
the models once (.bench_build/perfbench-run/cache), then runs the workload.
The last line of stdout is the result JSON; the exit code is the program's.
Extra arguments (e.g. --perturb-oracle) are passed to the program.
perfbench/README.md describes workloads and metrics.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-build")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD, "perfbench")

PREPARE_TIMEOUT_S = 800  # first run: trains every model once
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, what):
    """Runs a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"{what} failed (exit {proc.returncode})")
        sys.exit(2)


def source_fingerprint():
    """git sha when available, plus a hash of everything the build reads."""
    sha = "not-a-git-checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "cmake"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return f"git={sha} tree_sha256={digest.hexdigest()[:16]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "ataman.hpp")):
        log("no ataman source tree (src/) next to perfbench/: cannot build")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], "cmake build")


def main():
    build()
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "source.txt"), "w") as f:
        f.write(source_fingerprint() + "\n")
    common = [BINARY, "--work-dir", WORK]
    try:
        prep = subprocess.run(common + ["--prepare"], cwd=ROOT,
                              stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
        if prep.returncode != 0:
            log(f"model preparation failed (exit {prep.returncode})")
            return 2
        return subprocess.run(common + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {e.timeout} s")
        return 2


if __name__ == "__main__":
    sys.exit(main())
