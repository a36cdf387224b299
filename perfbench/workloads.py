"""The posinv benchmark workloads.

Each workload builds its fixed inputs in ``__init__`` (part of ``setup_s``)
and runs one closed-loop pass per ``run_pass`` call: one call into posinv at
a time, the next only after the previous returns.  ``PassRecord.wall`` adds
up the time spent inside posinv calls only, so the correctness gates the
benchmark applies to their outputs are not timed.  ``PassRecord.ops`` holds
the same time per operation, the unit ``wall_s`` is built from.

Posinv functions are looked up on their modules at call time, so the traced
run sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from posinv import integrators, pds, stability

POSITIVE_SCHEMES = ("geco1", "geco2", "gbbks1", "gbbks2")
#: Largest relative drift of a linear invariant a trajectory may show.
INVARIANT_TOL = 1e-12


@dataclass
class PassRecord:
    """Outcome of one pass.

    An operation that raises or misses a gate counts once in ``failed``.
    A gate miss that means a wrong output, rather than a refusal, is also
    listed in ``violations``; any violation makes the run incorrect.
    """

    wall: float = 0.0
    #: Seconds per operation; an operation that stopped early is scaled up
    #: to its planned work at its own measured cost.
    ops: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def timed(self, op: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops[op] = time.perf_counter() - start
            self.wall += self.ops[op]

    def fail(self, what: str, wrong: bool = False) -> None:
        self.failed += 1
        self.failures.append(what)
        if wrong:
            self.violations.append(what)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _trajectory_problems(traj, positive: bool) -> list[str]:
    problems = []
    if not np.all(np.isfinite(np.asarray(traj.states))):
        problems.append("non-finite state")
    if positive and min(traj.min_component) < 0.0:
        problems.append(f"negative component {min(traj.min_component):.3e}")
    if not max(traj.invariant_defect) <= INVARIANT_TOL:
        problems.append(f"invariant defect {max(traj.invariant_defect):.3e}")
    return problems


class Reproduce:
    """Every experiment id into a fresh directory, plus the README's CLI integrate."""

    #: Checks that fail at the seed commit, each analysed in tests/test_acceptance.py.
    KNOWN_RED_CHECKS = frozenset({"crossing_time_K10", "crossing_time_K100", "order_geco1"})
    CLI_ARGS = (
        "integrate", "--model", "builtin:paper-5x5", "--scheme", "gbbks2",
        "--dt", "0.1", "--steps", "5000",
    )
    CLI_STEPS = 5000

    def __init__(self, seed: int, scratch: str):
        from posinv import cli, experiments

        self.cli = cli
        self.experiments = experiments
        self.scratch = scratch

    def run_pass(self) -> PassRecord:
        rec = PassRecord()
        outdir = tempfile.mkdtemp(prefix="reproduce-", dir=self.scratch)
        try:
            outcomes = {}
            for exp_id in self.experiments.EXPERIMENT_IDS:
                try:
                    outcomes[exp_id] = rec.timed(exp_id, self.experiments.run_experiment, exp_id, outdir)[1]
                except Exception as exc:  # a failing experiment is counted, not fatal
                    outcomes[exp_id] = exc
            cli_csv = os.path.join(outdir, "cli_integrate.csv")
            try:
                code = rec.timed("cli", self.cli.main, [*self.CLI_ARGS, "--out", cli_csv])
            except Exception as exc:
                code = _describe(exc)
            self._gate(rec, outcomes, code, cli_csv)
            rec.digests = {
                name: _sha256(os.path.join(outdir, name))
                for name in sorted(os.listdir(outdir))
                if name.endswith(".csv")
            }
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return rec

    def info(self, records: list[PassRecord]) -> dict:
        """SHA-256 of every CSV of the first pass; whether every pass wrote the same bytes."""
        first = records[0].digests
        return {"csv_sha256": first, "csv_sha256_stable": all(r.digests == first for r in records)}

    def _gate(self, rec: PassRecord, outcomes: dict, code, cli_csv: str) -> None:
        for exp_id, checks in outcomes.items():
            rec.attempted += 1
            if isinstance(checks, Exception):
                rec.fail(f"{exp_id}: {_describe(checks)}")
                continue
            red = {c.name for c in checks if not c.passed}
            rec.count("checks.passed", len(checks) - len(red))
            rec.count("checks.failed", len(red))
            unexpected = sorted(red - self.KNOWN_RED_CHECKS)
            if unexpected:
                rec.fail(f"{exp_id}: unexpected failing checks {unexpected}", wrong=True)
        rec.attempted += 1
        if code != 0:
            rec.fail(f"cli integrate: exit {code}")
            return
        problems = self._cli_problems(cli_csv)
        if problems:
            rec.fail(f"cli integrate: {'; '.join(problems)}", wrong=True)

    def _cli_problems(self, path: str) -> list[str]:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
        expected = ["step", "t", "y_1", "y_2", "y_3", "y_4", "y_5", "inv_defect", "err"]
        if header != expected or table.shape != (self.CLI_STEPS + 1, len(expected)):
            return [f"table shape {table.shape} with header {header}"]
        problems = []
        if not np.array_equal(table[:, 0], np.arange(self.CLI_STEPS + 1)):
            problems.append("step column is not 0..N")
        if not np.all(np.isfinite(table)):
            problems.append("non-finite cell")
        if np.min(table[:, 2:7]) < 0.0:
            problems.append(f"negative component {np.min(table[:, 2:7]):.3e}")
        if not np.max(table[:, 7]) <= INVARIANT_TOL:
            problems.append(f"invariant defect {np.max(table[:, 7]):.3e}")
        # both the scheme and the exact flow settle on the same steady state
        if not table[-1, 8] <= 1e-8:
            problems.append(f"final error {table[-1, 8]:.3e} against the exponential")
        return problems


@dataclass(frozen=True)
class Run:
    label: str
    model: object
    y0: np.ndarray
    scheme: integrators.SchemeSpec
    dt: float
    steps: int


class StiffSweep:
    """Library ``integrate`` only: the 5x5, stiff paper-stiff runs and one random:16 system."""

    FIVE_STEPS = 1000
    STIFF_STEPS = 500
    RANDOM_STEPS = 1000
    RANDOM_DIM = 16
    #: ``K=1e+06`` is rejected by the parse_qsl '+' bug, so K is spelled out.
    STIFF_KS = ("1000", "1000000")
    STIFF_DTS = (1e-2, 1.0, 1e3, 1e12)

    def __init__(self, seed: int, scratch: str):
        schemes = {name: integrators.make_scheme(name) for name in integrators.SCHEME_IDS}
        runs = []
        five = pds.resolve_builtin("builtin:paper-5x5")
        five_model = five.build()
        for name in integrators.SCHEME_IDS:
            runs.append(Run("paper-5x5", five_model, five.y0, schemes[name], 0.1, self.FIVE_STEPS))
        for k in self.STIFF_KS:
            doc = pds.resolve_builtin(f"builtin:paper-stiff?K={k}")
            model = doc.build()
            for dt in self.STIFF_DTS:
                for name in POSITIVE_SCHEMES:
                    runs.append(Run(f"paper-stiff K={k}", model, doc.y0, schemes[name], dt, self.STIFF_STEPS))
        model = stability.random_conservative_system(seed, self.RANDOM_DIM)
        # below the critical step of both baselines, so every scheme converges
        dt = 0.5 * min(stability.critical_step(model, schemes[b]).dt_star for b in ("euler", "heun"))
        for name in integrators.SCHEME_IDS:
            runs.append(
                Run(f"random:{self.RANDOM_DIM} seed {seed}", model, np.ones(self.RANDOM_DIM),
                    schemes[name], dt, self.RANDOM_STEPS)
            )
        self.runs = runs

    def run_pass(self) -> PassRecord:
        rec = PassRecord()
        for i, run in enumerate(self.runs):
            sid = run.scheme.id
            rec.attempted += 1
            start = time.perf_counter()
            try:
                traj = integrators.integrate(run.model, run.scheme, run.y0, run.dt, run.steps)
                error = None
            except Exception as exc:  # a failing run is counted, not fatal
                traj = getattr(exc, "trajectory", None)
                error = exc
            elapsed = time.perf_counter() - start
            rec.wall += elapsed
            done = len(traj) - 1 if traj is not None else 0
            # a run that fails today counts at its planned steps, so a fix
            # that lets it finish reads neither faster nor slower
            rec.ops[f"{i}:{sid}"] = run.steps * elapsed / max(done, 1)
            rec.count(f"s.{sid}", elapsed)
            rec.count(f"steps.{sid}", done)
            problems = [] if traj is None else _trajectory_problems(traj, sid in POSITIVE_SCHEMES)
            what = f"{sid} on {run.label} dt={run.dt:g}"
            if problems:
                rec.fail(f"{what}: {'; '.join(problems)}", wrong=True)
            elif error is not None:
                rec.fail(f"{what}: {_describe(error)}")
        return rec

    def info(self, records: list[PassRecord]) -> dict:
        """Completed steps per second of each scheme's integrate time, median over passes."""
        return {
            "steps_per_s": {
                s: statistics.median(r.counts[f"steps.{s}"] / r.counts[f"s.{s}"] for r in records)
                for s in integrators.SCHEME_IDS
            }
        }


WORKLOADS = {
    "reproduce": Reproduce,
    "stiff-sweep": StiffSweep,
}
