#!/usr/bin/env python3
"""Digest the trajectories of the ``stiff-sweep`` workload, to compare two trees bit for bit.

    python3 scripts/state_digest.py SRC

Imports posinv from SRC and exits 1 if it resolves elsewhere.  For seeds 0
and 7919 it builds ``perfbench.workloads.StiffSweep``, reads its runs without
timing or gating them, and integrates each one.  It prints one line per seed:
the SHA-256 over every run's ``states``, ``invariant_defect`` and
``min_component`` bytes, in run order, followed by one line for each run that
raises, with the exception's type and text.  A run that raises adds that text
and the arrays of the partial trajectory it carries to the digest.  Two trees
that print the same lines produced the same bits.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile

from tau_traffic import ROOT, import_posinv

SEEDS = (0, 7919)


def digest(integrators, workload) -> tuple[str, list[str]]:
    """SHA-256 over the runs' trajectory arrays and failures, and one line per failure."""
    sha, failures = hashlib.sha256(), []
    for i, run in enumerate(workload.runs):
        try:
            traj = integrators.integrate(run.model, run.scheme, run.y0, run.dt, run.steps)
        except Exception as exc:  # a failing run is part of what is compared
            text = f"run {i} {run.scheme.id} on {run.label} dt={run.dt!r}: {type(exc).__name__}: {exc}"
            failures.append(text)
            sha.update(text.encode())
            traj = getattr(exc, "trajectory", None)
            if traj is None:
                continue
        for array in (traj.states, traj.invariant_defect, traj.min_component):
            sha.update(array.tobytes())
    return sha.hexdigest(), failures


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    integrators = import_posinv(argv[0])
    sys.path.insert(1, str(ROOT))
    from perfbench.workloads import StiffSweep

    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            workload = StiffSweep(seed, scratch)
            sha, failures = digest(integrators, workload)
            print(f"seed {seed}: {sha} ({len(workload.runs)} runs, {len(failures)} raised)")
            for line in failures:
                print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
