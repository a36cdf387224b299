#!/usr/bin/env python3
"""Run one posinv benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; posinv is imported from its ``src/``.
Workloads: reproduce, stiff-sweep (see perfbench/NOTES.md).

The workload runs in a fresh single-threaded process (BLAS thread variables
set to 1).  ``setup_s`` is the median of that process's setup time and of
the setup-only processes it starts between its passes (see worker.py).
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones.  The last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``; the line
before it, prefixed ``info``, records the environment and the run's details,
which are also written to ``.perfbench_out/``.

Exit status: 0 when the run completed (``correct`` may still be false),
1 when a workload process fails or posinv is missing, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "stiff-sweep")
DEFAULT_SEED = 0
#: Not used while the benchmark was tuned; kept back for re-checking claims.
HELD_OUT_SEED = 7919
#: Every process of one run must have ended this many seconds after the start.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY = "perfbench-ready"


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline: float, result: Path) -> float:
    """Run the workload process to completion; return seconds from start to its ready line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(OUT), "--result", str(result),
    ]
    start = time.perf_counter()
    # its own process group, so a kill also reaches the setup-only processes it starts
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    setup = None
    try:
        while setup is None:
            line = proc.stdout.readline()
            if not line:
                break
            if line.strip() == READY:
                setup = time.perf_counter() - start
            else:
                sys.stderr.write(line)
        sys.stderr.write(proc.stdout.read())
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise WorkerFailed(f"workload process exited with {code} (ready line {'seen' if setup else 'missing'})")
    return setup


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "posinv" / "__init__.py").is_file():
        print(f"no posinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"worker-{os.getpid()}.json"
    deadline = started + DEADLINE_S
    try:
        setups = [spawn(args, deadline, result_path)]
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setups += result["setup_samples_s"]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        result_path.unlink(missing_ok=True)

    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    info = dict(environment(args), setup_samples_s=setups, **result["info"])
    record = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, info=info), indent=2) + "\n", encoding="utf-8")

    for key, metric in metrics.items():
        print(f"{key:50s} {metric['value']:>14.6g} {metric['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
