#!/usr/bin/env python3
"""Record the product-term solves of the benchmark workloads and replay them on two trees.

    python3 scripts/tau_traffic.py BASE_SRC [SRC]

Loads BASE_SRC and SRC (default: the ``src/`` next to this script) into this
process as two packages, with ``ab_timing.load_package``.  Records every
``integrators._newton_tau`` call made by one pass of the ``reproduce``
workload and one seed-0 pass of ``stiff-sweep`` (the workloads of
``perfbench/workloads.py``) on the BASE_SRC package.  Then it replays the
recorded calls on both packages and prints for each workload:

* the number of calls, and how many return a bit-identical tau on both trees,
  also split into calls whose entries are all normal floats, calls where the
  base tree returned a positivity boundary below the root (the next float
  up would make a float factor c + d*tau nonpositive, and the exact G is
  still positive there) and the rest;
* evaluations of G per call (every call of ``_evaluate``, also the one
  that tests the positivity boundary), how many calls were decided without
  the Newton loop (no call of ``_newton_root``), on each tree;
* for every call whose tau differs, the relative distance of each tree's
  tau from the 50-digit root (``gen_oracle_values.product_term_root``), and
  whether each keeps every float factor positive.

Exits 1 when a call that differs is farther from the root on SRC than on
BASE_SRC, or leaves a float factor nonpositive where BASE_SRC did not.  A
replay exits 1, naming the function, on a tree whose ``integrators`` has
no ``_evaluate`` or no ``_newton_root``, instead of counting zeros.
"""

from __future__ import annotations

import contextlib
import math
import sys
import tempfile
from pathlib import Path

from mpmath import mp

from ab_timing import ROOT, SIDES, as_posinv, load_package, load_workloads
from gen_oracle_values import product_term_root

#: (workload, seed) of the recorded passes.
PASSES = (("reproduce", 0), ("stiff-sweep", 0))
#: The functions whose calls a replay counts: the G evaluator and the Newton loop.
EVALUATOR, NEWTON_LOOP = "_evaluate", "_newton_root"


@contextlib.contextmanager
def recorded(integrators):
    """Within the block, record the (factors, r) of every ``integrators._newton_tau`` call in the list yielded.

    Arguments after ``r`` (a bound run's lift cache) are passed through, not recorded.
    """
    calls, solve = [], integrators._newton_tau

    def recording(factors, r, *rest):
        calls.append((list(factors), r))
        return solve(factors, r, *rest)

    integrators._newton_tau = recording
    try:
        yield calls
    finally:
        integrators._newton_tau = solve


def record(package, scratch: str) -> dict:
    """The (factors, r) of every ``_newton_tau`` call of each pass, run on ``package``."""
    workloads = load_workloads(package)
    traffic = {}
    for name, seed in PASSES:
        with as_posinv(package):  # Reproduce imports posinv's cli and experiments when built
            workload = workloads.WORKLOADS[name](seed, scratch)
        with recorded(package.integrators) as calls:
            outcome = workload.run_pass()
        if outcome.failed:
            print(f"warning: {name} pass failed: {outcome.failures}", file=sys.stderr)
        traffic[name] = calls
    return traffic


def replay(integrators, traffic: dict) -> dict:
    """Solve every recorded call again on ``integrators``: each tau, its G evaluations and its Newton loops."""
    for name in (EVALUATOR, NEWTON_LOOP):
        # calls are counted by code name, so a renamed function would count none
        code = getattr(getattr(integrators, name, None), "__code__", None)
        if code is None or code.co_name != name:
            raise SystemExit(f"{integrators.__file__} has no function {name}; its calls cannot be counted")
    solve = integrators._newton_tau
    code_file = integrators.__file__
    results = {}
    for name, calls in traffic.items():
        taus, evals, loops = [], [], []
        count = {"evals": 0, "loops": 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == code_file:
                if frame.f_code.co_name == EVALUATOR:
                    count["evals"] += 1
                elif frame.f_code.co_name == NEWTON_LOOP:
                    count["loops"] += 1

        sys.setprofile(profile)
        try:
            for factors, r in calls:
                count.update(evals=0, loops=0)
                try:
                    taus.append(solve(factors, r))
                except Exception as exc:  # a failing solve is reported, not fatal
                    taus.append(f"{type(exc).__name__}: {exc}")
                evals.append(count["evals"])
                loops.append(count["loops"])
        finally:
            sys.setprofile(None)
        results[name] = {"tau": taus, "evals": evals, "loops": loops}
    return results


def all_normal(factors) -> bool:
    return all(abs(v) >= 2.0**-1022 for triple in factors for v in triple)


def keeps_positive(factors, tau) -> bool:
    return isinstance(tau, float) and all(c + d * tau > 0.0 for c, d, _ in factors)


def at_boundary(factors, tau) -> bool:
    """Whether tau keeps every float factor positive and the next float up does not."""
    up = math.nextafter(tau, math.inf) if isinstance(tau, float) else tau
    return keeps_positive(factors, tau) and not keeps_positive(factors, up)


def exact_g(factors, r, tau):
    """G(tau) at 60 digits, with the floats taken exactly."""
    with mp.workdps(60):
        prod = mp.mpf(1)
        for c, d, s in factors:
            prod *= (mp.mpf(c) + mp.mpf(d) * mp.mpf(tau)) / mp.mpf(s)
        return prod ** mp.mpf(r) - mp.mpf(tau)


def distance(root, tau) -> float:
    return abs(tau - root) / root if isinstance(tau, float) else math.inf


def compare(base_src: str, src: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        packages = [load_package(tree, f"posinv_{side}", Path(tmp) / side)
                    for side, tree in zip(SIDES, (base_src, src))]
        traffic = record(packages[0], tmp)
        runs = [replay(package.integrators, traffic) for package in packages]
    worse = 0
    print(f"base {base_src}\nnew  {src}")
    for name, calls in traffic.items():
        base, new = runs[0][name], runs[1][name]
        n = len(calls)
        classes = {"all-normal": [], "base at boundary below root": [], "other": []}
        for i, (factors, r) in enumerate(calls):
            tau = base["tau"][i]
            if all_normal(factors):
                classes["all-normal"].append(i)
            elif at_boundary(factors, tau) and exact_g(factors, r, tau) > 0:
                classes["base at boundary below root"].append(i)
            else:
                classes["other"].append(i)
        same = {i for i in range(n) if base["tau"][i] == new["tau"][i]}
        print(f"\n{name}: {n} calls, {len(same)} bit-identical")
        for label, members in classes.items():
            print(f"  {label}: {len(members)} calls, {len(same.intersection(members))} bit-identical")
        for label, run in (("base", base), ("new", new)):
            print(f"  {label}: {sum(run['evals']) / max(n, 1):.2f} G evaluations per call, "
                  f"{run['loops'].count(0)} calls decided without the Newton loop")
        label_of = {i: label for label, members in classes.items() for i in members}
        for i in sorted(set(range(n)) - same):
            factors, r = calls[i]
            c, d, s = zip(*factors)
            try:
                root = product_term_root(c, d, s, r)
                dist = [float(distance(root, run["tau"][i])) for run in (base, new)]
            except ValueError as exc:
                dist = [math.nan, math.nan]
                print(f"  call {i}: oracle failed: {exc}")
            positive = [keeps_positive(factors, run["tau"][i]) for run in (base, new)]
            bad = dist[1] > dist[0] or (positive[0] and not positive[1])
            worse += bad
            print(f"  call {i} ({label_of[i]}): m={len(factors)} tau base {base['tau'][i]!r} new {new['tau'][i]!r}; "
                  f"from root base {dist[0]:.2e} new {dist[1]:.2e}; positive base {positive[0]} "
                  f"new {positive[1]}{'  WORSE' if bad else ''}")
    print(f"\n{worse} differing calls worse on the new tree")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if 1 <= len(argv) <= 2 and not argv[0].startswith("-"):
        return compare(argv[0], argv[1] if len(argv) == 2 else str(ROOT / "src"))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
