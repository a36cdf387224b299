#!/usr/bin/env python3
"""Run every reference-experiment recipe and summarize the outcome.

Usage: python scripts/reproduce_all.py [OUTDIR]

Writes one CSV (or several) plus a JSON summary per experiment into OUTDIR
(default ./reproduction) and prints a one-line verdict for each check.
Exits 1 when any check fails, 0 otherwise.
"""

import argparse
import sys

from posinv.cli import EXIT_CHECK_FAILED, EXIT_OK
from posinv.experiments import EXPERIMENT_IDS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run every reference experiment and print a verdict for each check; "
        "exits 1 when any check fails."
    )
    parser.add_argument("outdir", nargs="?", default="reproduction", metavar="OUTDIR",
                        help="directory for the CSV and JSON files (default: reproduction)")
    outdir = parser.parse_args(argv).outdir
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
