#!/usr/bin/env python3
"""Full randomized axiom sweep with timing.

Runs the three operad suites plus the dedicated associativity and
equivariance suites at configurable volume and prints each report.
"""

import argparse
import time

from spliceops.harness import run_axioms, run_equivariance, run_splice_associativity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be at least 1")

    total = 0.0
    failures = 0
    jobs = [
        lambda: run_axioms("cubes", args.trials, args.seed),
        lambda: run_axioms("overlap", args.trials, args.seed),
        lambda: run_axioms("splice", args.trials, args.seed),
        lambda: run_splice_associativity(args.trials, args.seed),
        lambda: run_equivariance(max(args.trials // 10, 1), args.seed),
    ]
    for job in jobs:
        t0 = time.perf_counter()
        report = job()
        dt = time.perf_counter() - t0
        total += dt
        failures += 0 if report.ok else 1
        print(report.text() + f"elapsed: {dt:.2f}s\n")
    print(f"total elapsed: {total:.2f}s, suites failed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
