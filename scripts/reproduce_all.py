#!/usr/bin/env python3
"""Run every reference-experiment recipe and summarize the outcome.

Usage: python scripts/reproduce_all.py [OUTDIR]

Writes one CSV (or several) plus a JSON summary per experiment into OUTDIR
(default ./reproduction) and prints a one-line verdict for each check.
Exits 1 when any check fails, 0 otherwise.
"""

import sys

from posinv.cli import EXIT_CHECK_FAILED, EXIT_OK
from posinv.experiments import EXPERIMENT_IDS, run_experiment


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "reproduction"
    n_fail = 0
    for exp_id in EXPERIMENT_IDS:
        files, checks = run_experiment(exp_id, outdir)
        for check in checks:
            flag = "PASS" if check.passed else "FAIL"
            n_fail += 0 if check.passed else 1
            print(f"{exp_id:10s} [{flag}] {check.name}: expected {check.expected} "
                  f"(tol {check.tolerance}), observed {check.observed}")
        for path in files:
            print(f"{exp_id:10s} wrote {path}")
    print(f"\n{n_fail} failing checks")
    return EXIT_CHECK_FAILED if n_fail else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
