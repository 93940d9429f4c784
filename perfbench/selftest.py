#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N] [--workloads fleet,hard,stream]

1. The known-answer oracle is not vacuous: a run given one deliberately
   wrong expected verdict (fleet), and a run whose first returned
   certificate is corrupted before certify::check sees it (hard), must
   both exit non-zero and report "correct": false.
2. Determinism: two traced runs with the same seed must report the same
   corpus digest and the same deterministic counters (the driver's
   "deterministic" detail object: work counts such as vmc.states,
   analysis.saturate_ran and stream.events); a run with another seed must
   report another digest. Times, vsc.sweep_reuse_ratio (warm-sweep use
   depends on which service worker holds the sweep), stream queue and
   resident peaks, and the tracing-overhead ratio are timing-dependent
   and are not compared.

Exit code 0 iff every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace, inject=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.splitlines()
    detail = result = None
    if len(lines) >= 2:
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, detail, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", default="fleet,hard,stream")
    args = parser.parse_args()
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload, inject in (("fleet", "wrong-verdict"),
                             ("hard", "corrupt-certificate")):
        code, _, result = run(workload, args.seed, 0, inject)
        check(code != 0 and result is not None and result["correct"] is False,
              f"{workload} --inject {inject} exits non-zero (exit {code})")

    for workload in args.workloads.split(","):
        first = run(workload, args.seed, 1)
        again = run(workload, args.seed, 1)
        other = run(workload, args.seed + 1, 1)
        ran = all(code == 0 and detail for code, detail, _ in (first, again, other))
        check(ran, f"{workload} traced runs succeed")
        if not ran:
            continue
        digest = [d["stamp"]["corpus_digest"] for _, d, _ in (first, again, other)]
        check(digest[0] == digest[1], f"{workload} same seed, same corpus digest")
        check(digest[0] != digest[2], f"{workload} other seed, other corpus digest")
        same = first[1]["deterministic"] == again[1]["deterministic"]
        if not same:
            for name, value in first[1]["deterministic"].items():
                if again[1]["deterministic"].get(name) != value:
                    print(f"  {name}: {value} != {again[1]['deterministic'].get(name)}")
        check(same, f"{workload} same seed, same deterministic counters")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
