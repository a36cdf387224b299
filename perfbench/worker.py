"""One workload process: set up, signal readiness, measure, write the result.

Started by ``run.py`` with the BLAS thread variables set to 1, so all work
runs on one thread.  The process imports posinv from the checkout's
``src/`` and refuses any other copy.  It prints ``perfbench-ready`` once the
workload's fixed inputs exist; the time from process start up to that line
is one ``setup_s`` sample.  With ``--setup-only`` it exits there.

Otherwise it runs passes for about ``--seconds``.  With ``--trace 0`` it
also takes up to ``SETUP_SAMPLES`` setup samples, spread evenly over the
run: between two passes it starts a ``--setup-only`` copy of itself and
waits for it to end, so only one process computes at a time.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, and the result
holds the per-layer metrics; with ``--trace 0`` it holds the end-to-end
metrics.  Metric values are per pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

READY = "perfbench-ready"
ROOT = Path(__file__).resolve().parent.parent
#: Setup samples a ``--trace 0`` run takes besides its own setup.
SETUP_SAMPLES = 24


def time_setup(cmd: list[str]) -> float:
    """Start a ``--setup-only`` worker; return seconds from its start to its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        sys.stderr.write(proc.stdout.read())
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != READY:
        raise RuntimeError(f"setup-only process exited with {code} before its ready line")
    return ready


def run_passes(workload, budget: float, tracer=None, stats=None, setup_cmd=None) -> tuple[list, list]:
    """Closed loop: run one pass, then another while half a typical pass fits in ``budget``.

    With ``setup_cmd``, setup samples are taken between passes, as many as
    keep their count in step with the share of ``budget`` used.
    """
    records, lengths, setups = [], [], []
    start = time.perf_counter()
    while not records or time.perf_counter() - start + 0.5 * statistics.median(lengths) < budget:
        began = time.perf_counter()
        records.append(workload.run_pass())
        if tracer is not None:
            tracer.fold(stats)
        while setup_cmd and len(setups) < SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / budget):
            setups.append(time_setup(setup_cmd))
        lengths.append(time.perf_counter() - began)
    return records, setups


def pass_seconds(records: list) -> float:
    """Seconds per pass: the sum over operations of each one's median time in the run."""
    return sum(statistics.median(r.ops[op] for r in records) for op in records[0].ops)


def end_to_end(records: list) -> dict:
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    return {
        "wall_s": pass_seconds(records),
        "passed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(stats: dict, traced: list, untraced: list) -> dict:
    from posinv.experiments import EXPERIMENT_IDS
    from tracer import PROBES

    n = len(traced)

    def per(key):
        return stats.get(key, 0.0) / n

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    names = [f"{layer}.{attr}" for layer, attrs in PROBES.items() for attr in attrs]
    names += [f"experiments.run_experiment.{exp_id}" for exp_id in EXPERIMENT_IDS]
    for name in names:
        calls, seconds = per(f"{name}.calls"), per(f"{name}.s")
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = seconds
        out[f"{name}.self_s"] = per(f"{name}.self_s")
        out[f"{name}.us_per_call"] = ratio(seconds, calls, 1e6)

    steps = per("integrators.integrate.steps")
    out["integrators.integrate.steps"] = steps
    out["integrators.integrate.failed"] = per("integrators.integrate.failed")
    out["integrators.integrate.overhead_us_per_step"] = ratio(
        out["integrators.integrate.self_s"], steps, 1e6)
    out["integrators.solve_tau.calls_per_step"] = ratio(
        out["integrators.solve_tau.calls"], per("step_calls"))
    rows = per("experiments.write_csv.rows")
    out["experiments.write_csv.rows"] = rows
    out["experiments.write_csv.bytes"] = per("experiments.write_csv.bytes")
    out["linalg.expm_apply.calls_per_row"] = ratio(out["linalg.expm_apply.calls"], rows)

    for key in ("checks.passed", "checks.failed"):
        out[f"experiments.{key}"] = sum(r.counts.get(key, 0) for r in traced) / n

    wall = sum(r.wall for r in traced) / n
    for layer in PROBES:
        out[f"{layer}.self_s"] = sum(v for k, v in stats.items()
                                     if k.startswith(f"{layer}.") and k.endswith(".self_s")) / n
    out["outside.self_s"] = wall - per("top_s")
    out["trace.wall_s"] = wall
    base = statistics.median(r.wall for r in untraced)
    out["trace.overhead_frac"] = statistics.median(r.wall for r in traced) / base - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import posinv

    if Path(posinv.__file__).resolve().parent != (src / "posinv").resolve():
        print(f"posinv imported from {posinv.__file__}, not from {src}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    print(READY, flush=True)
    if args.setup_only:
        return 0

    traced = []
    if args.trace:
        from tracer import Tracer, dump_spans

        untraced, setups = run_passes(workload, args.seconds / 2)
        stats = defaultdict(float)
        with Tracer() as tracer:
            traced, _ = run_passes(workload, args.seconds / 2, tracer, stats)
        dump_spans(tracer.last_pass, str(Path(args.scratch) / f"spans-{args.workload}-seed{args.seed}.csv"))
        metrics = per_layer(stats, traced, untraced)
    else:
        setup_cmd = [
            sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--scratch", args.scratch, "--setup-only",
        ]
        untraced, setups = run_passes(workload, args.seconds, setup_cmd=setup_cmd)
        metrics = end_to_end(untraced)

    records = untraced + traced
    result = {
        "metrics": metrics,
        "setup_samples_s": setups,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "correct": not any(r.violations for r in records),
        "info": {
            "numpy": numpy.__version__,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "pass_wall_s": [r.wall for r in untraced],
            "traced_pass_wall_s": [r.wall for r in traced],
            "failures": sorted({f for r in records for f in r.failures}),
            "violations": sorted({v for r in records for v in r.violations}),
            **workload.info(untraced),
        },
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
