#!/usr/bin/env python3
"""Time two ``src/`` trees in one process, operation by operation, interleaved.

    python3 scripts/ab_timing.py BASE_SRC [SRC] [--reps R] [--repeats K] [--groups G[,G...]]

Copies ``BASE_SRC/posinv`` and ``SRC/posinv`` (default SRC: the ``src/``
next to this script) into sibling temporary directories as the packages
``posinv_base`` and ``posinv_new`` and loads both in this process; posinv
imports itself only relatively, so a copy loads under any name.  Each side
builds its operations from its own package:

* ``stiff-sweep``: the 44 ``integrate`` runs of perfbench's ``StiffSweep``
  at seed 0 (``perfbench/workloads.py`` loaded against that side);
* ``reproduce``: ``run_experiment`` of each experiment id, and the
  README's ``posinv integrate`` command of perfbench's ``Reproduce``;
* ``kernels``: each ``<scheme>_step`` function called on the first 20
  states of its own 20-step trajectory, 20 sweeps, on
  ``paper-stiff?K=1000`` (dt 1), ``paper-5x5`` (dt 0.1) and
  ``random_conservative_system(0, N)`` from all ones for N = 16 and 64
  (dt 0.01).

Each operation runs once per side untimed, and its output bytes are
digested: a run's state, defect and minimum arrays (or its exception), the
files an experiment or the CLI writes, a kernel's states, taus and aux
values.  Then, in each of R repetitions (default 4), every operation is
timed K times per side (default 7), the sides alternating and the side that
goes first flipping with each operation and repeat; each side keeps its
minimum.  A group's ratio is the sum of its new minima over the sum of its
base minima: below 1 the new tree is faster.  The method follows Mytkowicz
et al., "Producing wrong data without doing anything obviously wrong!"
(ASPLOS 2009) and Kalibera and Jones, "Rigorous benchmarking in reasonable
time" (ISMM 2013): one process and one layout for both trees, interleaved
repeats, repetition at each level.

Prints each repetition's ratios, each group's median ratio and range, the
best microseconds per kernel call on each side, every operation whose bytes
differ, and last a JSON line with the same figures.  Exits 1 when some
operation's bytes differ.

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
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "new")
GROUPS = ("stiff-sweep", "reproduce", "kernels")
SUBMODULES = ("errors", "linalg", "pds", "integrators", "stability", "experiments", "cli")
#: (label, builtin address or random dimension, dt) of the kernel operations.
KERNEL_CASES = (
    ("paper-stiff?K=1000", "builtin:paper-stiff?K=1000", 1.0),
    ("paper-5x5", "builtin:paper-5x5", 0.1),
    ("random:16", 16, 0.01),
    ("random:64", 64, 0.01),
)
KERNEL_STATES = 20
KERNEL_SWEEPS = 20


def load_package(src: str, name: str, parent: Path):
    """Copy ``src/posinv`` to ``parent/name`` and import it, with every submodule, as ``name``."""
    shutil.copytree(Path(src) / "posinv", parent / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(parent))
    try:
        package = importlib.import_module(name)
        for sub in SUBMODULES:
            importlib.import_module(f"{name}.{sub}")
    finally:
        sys.path.remove(str(parent))
    return package


def load_workloads(package):
    """``perfbench/workloads.py`` as a module whose ``posinv`` is ``package``."""
    saved = sys.modules.get("posinv")
    sys.modules["posinv"] = package
    try:
        spec = importlib.util.spec_from_file_location(
            f"{package.__name__}_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["posinv"]
        else:
            sys.modules["posinv"] = saved
    return module


def _arrays_digest(sha, traj) -> None:
    for array in (traj.states, traj.invariant_defect, traj.min_component):
        sha.update(array.tobytes())


def stiff_ops(package, workloads, scratch: str) -> dict:
    """One operation per ``StiffSweep`` run: its ``integrate`` call, digesting its arrays or exception."""
    integrate = package.integrators.integrate
    ops = {}
    for i, run in enumerate(workloads.StiffSweep(0, scratch).runs):
        def op(digest=False, run=run):
            try:
                traj, text = integrate(run.model, run.scheme, run.y0, run.dt, run.steps), ""
            except Exception as exc:  # a failing run is part of what is compared
                traj, text = getattr(exc, "trajectory", None), f"{type(exc).__name__}: {exc}"
            if not digest:
                return None
            sha = hashlib.sha256(text.encode())
            if traj is not None:
                _arrays_digest(sha, traj)
            return sha.hexdigest()

        ops[f"stiff-sweep/{i}:{run.scheme.id} {run.label} dt={run.dt:g}"] = op
    return ops


def _files_digest(outdir: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def reproduce_ops(package, workloads, scratch: str, side: str) -> dict:
    """One operation per experiment id and one for the README's CLI integrate, digesting the files written."""
    ops = {}

    def make(label, call):
        outdir = Path(scratch) / side / label
        outdir.mkdir(parents=True)

        def op(digest=False):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    call(outdir)
            except Exception as exc:  # a failing operation is part of what is compared
                return f"{type(exc).__name__}: {exc}"
            return _files_digest(outdir) if digest else None

        ops[f"reproduce/{label}"] = op

    for exp_id in package.experiments.EXPERIMENT_IDS:
        make(exp_id, lambda outdir, exp_id=exp_id: package.experiments.run_experiment(exp_id, str(outdir)))
    argv = list(workloads.Reproduce.CLI_ARGS)
    make("cli", lambda outdir: package.cli.main([*argv, "--out", str(outdir / "cli_integrate.csv")]))
    return ops


def kernel_ops(package) -> dict:
    """One operation per model and scheme: KERNEL_SWEEPS sweeps of ``<scheme>_step`` over its states."""
    integrators, ops = package.integrators, {}
    for label, address, dt in KERNEL_CASES:
        if isinstance(address, int):
            model, y0 = package.stability.random_conservative_system(0, address), np.ones(address)
        else:
            doc = package.pds.resolve_builtin(address)
            model, y0 = doc.build(), doc.y0
        for name in integrators.SCHEME_IDS:
            spec = integrators.make_scheme(name)
            kernel = getattr(integrators, f"{name}_step")
            states = integrators.integrate(model, spec, y0, dt, KERNEL_STATES).states[:KERNEL_STATES]

            def op(digest=False, kernel=kernel, model=model, spec=spec, states=states, dt=dt):
                sha = hashlib.sha256()
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    if digest:
                        for y in states:
                            y_next, tau, aux = kernel(model, y, dt, spec)
                            sha.update(y_next.tobytes() + repr((float(tau).hex(), sorted(aux.items()))).encode())
                        return sha.hexdigest()
                    for _ in range(KERNEL_SWEEPS):
                        for y in states:
                            kernel(model, y, dt, spec)
                return None

            ops[f"kernels/{label} {name}"] = op
    return ops


def build_ops(package, scratch: str, side: str, groups) -> dict:
    workloads = load_workloads(package)
    ops = {}
    if "stiff-sweep" in groups:
        ops.update(stiff_ops(package, workloads, scratch))
    if "reproduce" in groups:
        ops.update(reproduce_ops(package, workloads, scratch, side))
    if "kernels" in groups:
        ops.update(kernel_ops(package))
    return ops


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
        ops, digests = {}, {}
        for side, src in zip(SIDES, (args.base_src, args.src)):
            parent = Path(tmp) / side
            package = load_package(src, f"posinv_{side}", parent)
            ops[side] = build_ops(package, str(Path(tmp) / "scratch"), side, groups)
            digests[side] = {key: op(digest=True) for key, op in ops[side].items()}
        if list(ops["base"]) != list(ops["new"]):
            print("the trees define different operations", file=sys.stderr)
            return 1
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
    if "kernels" in groups:
        calls = KERNEL_SWEEPS * KERNEL_STATES
        print(f"\n{'kernel':28s} {'base us':>8s} {'new us':>8s} {'ratio':>6s}")
        for key in (k for k in ops["base"] if k.startswith("kernels/")):
            base, new = (min(best[side][key] for best in results) / calls * 1e6 for side in SIDES)
            print(f"{key[len('kernels/'):]:28s} {base:8.2f} {new:8.2f} {new / base:6.2f}")
    print(f"\n{len(differ)} of {len(digests['base'])} operations differ in bytes")
    for key in differ:
        print(f"  differs: {key}")
    print(json.dumps({"groups": summary, "operations": len(digests["base"]), "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
