#!/usr/bin/env python3
"""Runs one workload of the vermem end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|hard|stream --seed N \
        --seconds S --trace 0|1 [--inject wrong-verdict|corrupt-certificate]

Builds perfbench/ (a CMake project compiling the repository's src/ in
Release mode) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs the driver. Build output goes to
stderr. Stdout carries the driver's lines; the last one is the result
object {"correct", "attempted", "failed", "metrics"}. A copy of the
stamp and result is kept under <build dir>/results/. Exit code 0 iff the
build succeeded and every verdict and certificate checked; a run that
cannot build (for instance outside a full checkout) exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"{command[0]} failed: {error}")
        return False
    return done.returncode == 0


def build(directory):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt next to perfbench/: not a vermem checkout")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure, BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", directory, "-j", jobs],
                     BUILD_TIMEOUT_S):
        return None
    driver = os.path.join(directory, "perfbench_driver")
    return driver if os.path.isfile(driver) else None


def source_digest():
    """SHA-256 over src/ and perfbench/ (paths and contents), so results
    from checkouts without git history still name the code they ran."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for folder, dirs, files in os.walk(base):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{revision} src-sha256:{source_digest()}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet", "hard", "stream"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--inject",
                        choices=["wrong-verdict", "corrupt-certificate"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    directory = build_dir()
    driver = build(directory)
    if driver is None:
        log("build failed")
        return 2
    out_dir = os.path.join(directory, "out")
    results_dir = os.path.join(directory, "results")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir, "--commit", commit_id()]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 3
    lines = done.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if lines:
        try:
            record = {"detail": json.loads(lines[-2]) if len(lines) > 1 else None,
                      "result": json.loads(lines[-1]),
                      "exit_code": done.returncode}
        except json.JSONDecodeError:
            record = None
        if record is not None:
            name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(results_dir, name), "w") as handle:
                json.dump(record, handle, indent=1)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
