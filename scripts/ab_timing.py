#!/usr/bin/env python3
"""Compare two ``src/`` trees in one process: output bytes, exit codes, product-term solves and interleaved timings.

    python3 scripts/ab_timing.py BASE_SRC [SRC] [--reps R] [--repeats K] [--groups G[,G...]]

Copies ``BASE_SRC/posinv`` and ``SRC/posinv`` (default SRC: the ``src/``
next to this script) into sibling temporary directories as the packages
``posinv_base`` and ``posinv_new`` and loads both in this process; posinv
imports itself only relatively, so a copy loads under any name, and a copy
that holds a module or object of an installed ``posinv`` is refused.  Each
side builds its 88 operations from its own package:

* ``stiff-sweep`` (50 operations): the 44 ``integrate`` runs of perfbench's ``StiffSweep``
  at seed 0 and the six ``random:16`` runs of seed 7919 (its other runs
  are the seed-0 runs again), ``perfbench/workloads.py`` loaded against
  that side;
* ``reproduce`` (38 operations): ``cli.main`` on ``reproduce ID --outdir DIR`` for each
  experiment id, on the README's ``integrate`` command of perfbench's
  ``Reproduce``, on each command of ``INTEGRATE_COMMANDS`` and on each of
  ``STABILITY_COMMANDS``: ``stability`` on ``paper-2x2``, ``paper-5x5`` and
  ``paper-stiff?K=10`` under each of the six schemes, and on ``random:4``
  under euler with ``--seed 7`` after the subcommand.

Each operation runs once per side untimed, and its output bytes are
digested: a run's state, defect and minimum arrays (or its exception); a
CLI command's exit code, its stdout and stderr (with its directory's path
replaced) and the files it writes.
The base side's pass also records every ``integrators._newton_tau`` call
per group; the recorder is gone before anything is timed.  The recorded
calls are solved again on both packages, and for each group the script
reports:

* the calls, and how many return a bit-identical tau on both trees;
* evaluations of G per call (every call of ``_evaluate``, also the one that
  tests the positivity boundary), and the calls decided without the Newton
  loop (no call of ``_newton_root``), on each tree;
* for every call whose tau differs, the relative distance of each tree's
  tau from the 50-digit root (``gen_oracle_values.product_term_root``), and
  whether each keeps every float factor positive.

Then, in each of R repetitions (default 4), every operation is
timed K times per side (default 7), the sides alternating and the side that
goes first flipping with each operation and repeat; each side keeps its
minimum.  A group's ratio is the sum of its new minima over the sum of its
base minima: below 1 the new tree is faster.  The method follows Mytkowicz
et al., "Producing wrong data without doing anything obviously wrong!"
(ASPLOS 2009) and Kalibera and Jones, "Rigorous benchmarking in reasonable
time" (ISMM 2013): one process and one layout for both trees, interleaved
repeats, repetition at each level.  CI passes ``--reps 1 --repeats 1``:
it reads no ratio, so each operation is timed once per side.

Prints each repetition's ratios, each group's median ratio and range, every
operation whose bytes differ, every CLI operation that exits non-zero on
SRC, the solve figures, and last a JSON line with the same figures.  Exits 1 when some operation's
bytes differ, a CLI operation exits non-zero on SRC, or a differing solve
is farther from the root on SRC than on BASE_SRC or leaves a float factor
nonpositive where BASE_SRC did not.  It also exits 1, naming the function,
on a tree whose ``integrators`` has no ``_evaluate`` or no
``_newton_root``, instead of counting zeros.

Claim rule: a speed claim needs the A/B ratio of the claimed group outside
the range an A/A run (BASE_SRC given twice) reads, in every repetition, and
the perfbench metrics within their ``BENCHMARK.json`` bounds.  The perfbench
runs define the benchmark; this script is evidence beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

from gen_oracle_values import product_term_root

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "new")
GROUPS = ("stiff-sweep", "reproduce")
SUBMODULES = ("errors", "linalg", "pds", "integrators", "stability", "experiments", "cli")
#: Seeds of the ``StiffSweep`` runs; a later seed's run that an earlier seed has (same scheme, label, dt) is left out.
SEEDS = (0, 7919)
_STIFF = ["--model", "builtin:paper-stiff?K=1e+06", "--steps", "500"]
_FIVE = ["--model", "builtin:paper-5x5", "--scheme", "gbbks2"]
#: ``posinv integrate`` commands whose stdout is compared: far-stiff runs, gbbks2 off alpha = 1 and above dt*.
INTEGRATE_COMMANDS = {
    "stiff K=1e+06 gbbks2 dt=1": ["integrate", *_STIFF, "--scheme", "gbbks2", "--dt", "1"],
    **{f"stiff K=1e+06 {scheme} dt=1e12": ["integrate", *_STIFF, "--scheme", scheme, "--dt", "1e12"]
       for scheme in ("geco1", "geco2", "gbbks1")},
    **{f"5x5 gbbks2 alpha={alpha}": ["integrate", *_FIVE, "--dt", "0.3", "--steps", "400", "--alpha", alpha]
       for alpha in ("0.5", "3")},
    "5x5 gbbks2 dt=1.5": ["integrate", *_FIVE, "--dt", "1.5", "--steps", "3000"],
}
#: ``posinv stability`` commands whose stdout is compared: each builtin model under each scheme, and random:4.
STABILITY_COMMANDS = {
    **{f"stability {model.removeprefix('builtin:')} {scheme}": ["stability", "--model", model, "--scheme", scheme]
       for model in ("builtin:paper-2x2", "builtin:paper-5x5", "builtin:paper-stiff?K=10")
       for scheme in ("euler", "heun", "geco1", "geco2", "gbbks1", "gbbks2")},
    "stability random:4 euler --seed 7": ["stability", "--model", "random:4", "--scheme", "euler", "--seed", "7"],
}
#: The functions whose calls a replay counts: the G evaluator and the Newton loop.
EVALUATOR, NEWTON_LOOP = "_evaluate", "_newton_root"


def load_package(src: str, name: str, parent: Path):
    """Copy ``src/posinv`` to ``parent/name`` and import it, with every submodule, as ``name``.

    Exits, naming it, if a module of the copy holds a ``posinv`` module or
    an object of one: an absolute import would compare the installed tree.
    """
    shutil.copytree(Path(src) / "posinv", parent / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(parent))
    try:
        package = importlib.import_module(name)
        modules = [package, *(importlib.import_module(f"{name}.{sub}") for sub in SUBMODULES)]
    finally:
        sys.path.remove(str(parent))
    for module in modules:
        for attr, value in vars(module).items():
            origin = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", None)
            if isinstance(origin, str) and origin.split(".")[0] == "posinv":
                raise SystemExit(f"{module.__name__}.{attr} comes from {origin}, not from the copy of {src}")
    return package


@contextlib.contextmanager
def as_posinv(package):
    """Within the block, ``import posinv`` gives ``package``."""
    saved = sys.modules.get("posinv")
    sys.modules["posinv"] = package
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["posinv"]
        else:
            sys.modules["posinv"] = saved


def load_workloads(package):
    """``perfbench/workloads.py`` as a module whose ``posinv`` is ``package``."""
    spec = importlib.util.spec_from_file_location(
        f"{package.__name__}_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    with as_posinv(package):
        spec.loader.exec_module(module)
    return module


def stiff_ops(package, workloads, scratch: str) -> dict:
    """One operation per ``StiffSweep`` run: its ``integrate`` call, digesting its arrays or exception."""
    integrate = package.integrators.integrate
    ops, seen = {}, set()
    for seed in SEEDS:
        for run in workloads.StiffSweep(seed, scratch).runs:
            what = f"{run.scheme.id} {run.label} dt={run.dt:g}"
            if what in seen:
                continue
            seen.add(what)

            def op(digest=False, run=run):
                try:
                    traj, text = integrate(run.model, run.scheme, run.y0, run.dt, run.steps), ""
                except Exception as exc:  # a failing run is part of what is compared
                    traj, text = getattr(exc, "trajectory", None), f"{type(exc).__name__}: {exc}"
                if not digest:
                    return None
                sha = hashlib.sha256(text.encode())
                if traj is not None:
                    for array in (traj.states, traj.invariant_defect, traj.min_component):
                        sha.update(array.tobytes())
                return sha.hexdigest(), None

            ops[f"stiff-sweep/{len(ops)}:{what}"] = op
    return ops


def cli_ops(package, workloads, scratch: str, side: str) -> dict:
    """One ``cli.main`` operation per experiment id, the README's integrate and each of the two command tables.

    Each has its own directory; in digest mode it returns the digest and the exit code.
    """
    commands = {exp_id: ["reproduce", exp_id, "--outdir", "{dir}"]
                for exp_id in package.experiments.EXPERIMENT_IDS}
    commands["cli"] = [*workloads.Reproduce.CLI_ARGS, "--out", "{dir}/cli_integrate.csv"]
    commands.update(INTEGRATE_COMMANDS)
    commands.update(STABILITY_COMMANDS)
    ops = {}
    for label, command in commands.items():
        outdir = Path(scratch) / side / str(len(ops))
        outdir.mkdir(parents=True)
        argv = [arg.replace("{dir}", str(outdir)) for arg in command]

        def op(digest=False, argv=argv, outdir=outdir):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = package.cli.main(argv)
            except Exception as exc:  # a failing operation is part of what is compared
                code = f"{type(exc).__name__}: {exc}"
            if not digest:
                return None
            sha = hashlib.sha256(f"{code}\0{out.getvalue().replace(str(outdir), '{dir}')}".encode())
            for path in sorted(outdir.iterdir()):
                sha.update(path.name.encode() + b"\0" + path.read_bytes())
            return sha.hexdigest(), code

        ops[f"reproduce/{label}"] = op
    return ops


def build_ops(package, scratch: str, side: str, groups) -> dict:
    workloads = load_workloads(package)
    ops = {}
    if "stiff-sweep" in groups:
        ops.update(stiff_ops(package, workloads, scratch))
    if "reproduce" in groups:
        ops.update(cli_ops(package, workloads, scratch, side))
    return ops


def outputs(ops: dict, integrators=None) -> tuple[dict, list[str], dict]:
    """Each operation's digest, each CLI operation that exits non-zero (with its exit code), and the solves.

    The solves are, per group, the (factors, r) of every ``integrators._newton_tau``
    call the operations make; none are recorded without ``integrators``.
    """
    digests, failing, traffic = {}, [], {}
    with recorded(integrators) if integrators else contextlib.nullcontext([]) as calls:
        for key, op in ops.items():
            digests[key], code = op(digest=True)
            if code not in (None, 0):
                failing.append(f"{key} (exit {code})")
            if calls:
                traffic.setdefault(key.split("/")[0], []).extend(calls)
                calls.clear()
    return digests, failing, traffic


@contextlib.contextmanager
def recorded(integrators):
    """Within the block, record the (factors, r) of every ``integrators._newton_tau`` call in the list yielded.

    Arguments after ``r`` are passed through, not recorded: a tree whose runs
    own their lift cache passes it there.  ``*rest`` can go once no compared
    tree passes one.
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


def replay(integrators, traffic: dict) -> dict:
    """Solve every recorded call again on ``integrators``: each tau, its G evaluations and its Newton loops."""
    codes = []
    for name in (EVALUATOR, NEWTON_LOOP):
        # calls are counted by code object, so a renamed function would count none
        code = getattr(getattr(integrators, name, None), "__code__", None)
        if code is None or code.co_name != name:
            raise SystemExit(f"{integrators.__file__} has no function {name}; its calls cannot be counted")
        codes.append(code)
    evaluator, newton_loop = codes
    solve, results = integrators._newton_tau, {}
    for group, calls in traffic.items():
        taus, evals, loops = [], [], []

        def profile(frame, event, arg):
            if event == "call":
                if frame.f_code is evaluator:
                    evals[-1] += 1
                elif frame.f_code is newton_loop:
                    loops[-1] += 1

        sys.setprofile(profile)
        try:
            for factors, r in calls:
                evals.append(0)
                loops.append(0)
                try:
                    taus.append(solve(factors, r))
                except Exception as exc:  # a failing solve is reported, not fatal
                    taus.append(f"{type(exc).__name__}: {exc}")
        finally:
            sys.setprofile(None)
        results[group] = {"tau": taus, "evals": evals, "loops": loops}
    return results


def keeps_positive(factors, tau) -> bool:
    return isinstance(tau, float) and all(c + d * tau > 0.0 for c, d, _ in factors)


def differing(factors, r, taus: list) -> dict:
    """A solve whose (base, new) ``taus`` differ: each one's distance from the root, its positivity, and the verdict.

    The distance is relative, from the 50-digit root.  SRC's tau is worse when
    it is farther from the root, or leaves a float factor nonpositive where
    the base's did not.
    """
    c, d, s = zip(*factors)
    try:
        root = product_term_root(c, d, s, r)
        dist = [float(abs(tau - root) / root) if isinstance(tau, float) else math.inf for tau in taus]
        oracle = None
    except ValueError as exc:
        dist, oracle = [math.nan, math.nan], str(exc)
    positive = [keeps_positive(factors, tau) for tau in taus]
    return {"m": len(factors), "tau": taus, "from_root": dist, "positive": positive, "oracle_error": oracle,
            "worse": dist[1] > dist[0] or (positive[0] and not positive[1])}


def solve_report(traffic: dict, runs: list[dict]) -> tuple[dict, list[str]]:
    """Per group, the solve figures of the base and new replays ``runs`` of ``traffic``, and their printed lines."""
    figures, lines = {}, []
    for group, calls in traffic.items():
        base, new = (run[group] for run in runs)
        n = len(calls)
        same = [base["tau"][i] == new["tau"][i] for i in range(n)]
        sides = {side: {"evals_per_call": sum(run["evals"]) / max(n, 1), "without_newton": run["loops"].count(0)}
                 for side, run in zip(SIDES, (base, new))}
        diffs = {i: differing(*calls[i], [base["tau"][i], new["tau"][i]]) for i in range(n) if not same[i]}
        figures[group] = {"calls": n, "identical": sum(same), **sides, "differing": diffs,
                          "worse": sum(d["worse"] for d in diffs.values())}
        lines.append(f"\n{group}: {n} calls, {sum(same)} bit-identical")
        lines += [f"  {side}: {v['evals_per_call']:.2f} G evaluations per call, "
                  f"{v['without_newton']} calls decided without the Newton loop" for side, v in sides.items()]
        for i, d in diffs.items():
            lines.append(f"  call {i}: m={d['m']} tau base {d['tau'][0]!r} new {d['tau'][1]!r}; "
                         f"from root base {d['from_root'][0]:.2e} new {d['from_root'][1]:.2e}; positive base "
                         f"{d['positive'][0]} new {d['positive'][1]}"
                         + (f"; oracle failed: {d['oracle_error']}" if d["oracle_error"] else "")
                         + ("  WORSE" if d["worse"] else ""))
    return figures, lines


def measure(ops: dict, reps: int, repeats: int) -> list[dict]:
    """Per repetition, each operation's minimum seconds per side over ``repeats`` alternating calls."""
    clock, results = time.perf_counter, []
    for _ in range(reps):
        gc.collect()
        best = {side: {} for side in SIDES}
        for i, key in enumerate(ops["base"]):
            for j in range(repeats):
                order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
                for side in order:
                    op = ops[side][key]
                    start = clock()
                    op()
                    elapsed = clock() - start
                    best[side][key] = min(elapsed, best[side].get(key, elapsed))
        results.append(best)
    return results


def summarize(results: list[dict], groups) -> dict:
    ratios = {}
    for group in groups:
        per_rep = []
        for best in results:
            keys = [k for k in best["base"] if k.startswith(f"{group}/")]
            per_rep.append(sum(best["new"][k] for k in keys) / sum(best["base"][k] for k in keys))
        ratios[group] = {"ratios": per_rep, "median": statistics.median(per_rep),
                         "min": min(per_rep), "max": max(per_rep)}
    return ratios


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--reps", type=int, default=4, help="repetitions (default 4)")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per side and operation (default 7)")
    parser.add_argument("--groups", default=",".join(GROUPS), help=f"comma-separated subset of {GROUPS}")
    args = parser.parse_args(argv)
    groups = [g for g in GROUPS if g in args.groups.split(",")]
    if not groups or len(groups) != len(args.groups.split(",")) or args.reps < 1 or args.repeats < 1:
        parser.error(f"--groups takes names from {GROUPS}; --reps and --repeats are positive")
    with tempfile.TemporaryDirectory() as tmp:
        ops, digests, failing, traffic, integrators = {}, {}, {}, {}, {}
        for side, src in zip(SIDES, (args.base_src, args.src)):
            package = load_package(src, f"posinv_{side}", Path(tmp) / side)
            integrators[side] = package.integrators
            ops[side] = build_ops(package, str(Path(tmp) / "scratch"), side, groups)
            # only the base side's pass records the product-term solves; both sides replay them
            digests[side], failing[side], traffic[side] = outputs(ops[side], integrators["base"] if side == "base" else None)
        if list(ops["base"]) != list(ops["new"]):
            print("the trees define different operations", file=sys.stderr)
            return 1
        solves, solve_lines = solve_report(traffic["base"], [replay(integrators[side], traffic["base"]) for side in SIDES])
        results = measure(ops, args.reps, args.repeats)
    summary = summarize(results, groups)
    differ = [key for key in digests["base"] if digests["base"][key] != digests["new"][key]]
    print(f"base {args.base_src}\nnew  {args.src}\n")
    for r, best in enumerate(results):
        row = "  ".join(f"{g} {summary[g]['ratios'][r]:.3f}" for g in groups)
        print(f"repetition {r + 1}: new/base {row}")
    print()
    for group in groups:
        s = summary[group]
        print(f"{group:12s} new/base median {s['median']:.3f}, range [{s['min']:.3f}, {s['max']:.3f}]")
    print(f"\n{len(differ)} of {len(digests['base'])} operations differ in bytes")
    for key in differ:
        print(f"  differs: {key}")
    for key in failing["new"]:
        print(f"  exits non-zero on the new tree: {key}")
    worse = sum(figures["worse"] for figures in solves.values())
    print("\n".join(solve_lines) + f"\n\n{worse} differing solves worse on the new tree")
    print(json.dumps({"groups": summary, "operations": len(digests["base"]), "differ": differ,
                      "exit_nonzero": failing["new"], "solves": solves, "worse_solves": worse}))
    return 1 if differ or failing["new"] or worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
