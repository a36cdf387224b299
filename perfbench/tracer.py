"""In-memory timing spans around posinv's public functions.

Used by the traced run only.  ``Tracer`` rebinds each probed function, in
every loaded ``posinv`` module that holds a reference to it, to a wrapper
that records one span per call: name, parent span, start and end.  Nothing
under ``src/`` changes, and leaving the ``with`` block puts every original
object back.  Spans stay in memory during a pass; ``fold`` turns them into
per-name counts, inclusive seconds and self seconds after the pass, outside
the timed region.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from posinv.integrators import SCHEME_IDS

#: Probed names per layer; a layer is the posinv module that defines them.
PROBES = {
    "integrators": ("integrate", *(f"{s}_step" for s in SCHEME_IDS), "solve_tau", "phi"),
    "linalg": ("expm_apply", "eigenvalues", "nullspace", "validate_system"),
    "pds": ("LinearPds.from_matrix", "steady_state_for", "resolve_builtin"),
    "stability": ("critical_step", "numerical_jacobian", "closed_form_jacobian"),
    "experiments": ("run_experiment", "write_csv"),
    "cli": ("main",),
}

STEP_SPANS = frozenset(f"integrators.{scheme}_step" for scheme in SCHEME_IDS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _experiment_label(args, kwargs):
    return f"experiments.run_experiment.{_arg(args, kwargs, 0, 'exp_id')}"


def _integrate_note(args, kwargs, result, exc):
    traj = result if exc is None else getattr(exc, "trajectory", None)
    return {"steps": len(traj) - 1 if traj is not None else 0, "failed": int(exc is not None)}


def _write_csv_note(args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    size = os.path.getsize(path) if exc is None else 0
    return {"bytes": size, "rows": len(_arg(args, kwargs, 2, "rows"))}


#: Spans whose name depends on the call's arguments.
LABELS = {"experiments.run_experiment": _experiment_label}
#: Extra counters taken from a call's result, added up per span name.
NOTES = {"integrators.integrate": _integrate_note, "experiments.write_csv": _write_csv_note}


class Tracer:
    """Context manager that installs the span wrappers and restores the originals."""

    def __init__(self):
        #: Spans of the current pass as [name, parent index, start, end, note].
        self.spans: list[list] = []
        #: Spans of the last folded pass, kept for ``dump_spans``.
        self.last_pass: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "posinv" or n.startswith("posinv.")]
        for layer, attrs in PROBES.items():
            module = sys.modules.get(f"posinv.{layer}")
            if module is None:  # not imported by this workload, so never called
                continue
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[fn_name]
                    self._rebind(owner, fn_name, raw, classmethod(self._wrap(raw.__func__, name)))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(original, name, LABELS.get(name), NOTES.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, key, original = self._originals.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._originals.append((owner, key, original))

    def _wrap(self, fn, name: str, label=None, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def close(span, args, kwargs, result, exc):
            span[3] = clock()
            stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result, exc)

        def wrapper(*args, **kwargs):
            span = [label(args, kwargs) if label else name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(span, args, kwargs, None, exc)
                raise
            close(span, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self, stats: defaultdict) -> None:
        """Add this pass's spans to ``stats`` and start an empty pass.

        Keys are ``<name>.calls``, ``<name>.s`` (inclusive), ``<name>.self_s``
        (minus child spans), ``<name>.<note key>``, plus ``top_s`` (time inside
        outermost spans) and ``step_calls`` (scheme steps not nested in
        another scheme step).
        """
        spans = self.last_pass = list(self.spans)
        self.spans.clear()
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, note) in enumerate(spans):
            duration = end - start
            stats[f"{name}.calls"] += 1
            stats[f"{name}.s"] += duration
            stats[f"{name}.self_s"] += duration - child[i]
            for key, value in (note or {}).items():
                stats[f"{name}.{key}"] += value
            if parent < 0:
                stats["top_s"] += duration
            if name in STEP_SPANS and (parent < 0 or spans[parent][0] not in STEP_SPANS):
                stats["step_calls"] += 1


def dump_spans(spans: list[list], path: str) -> None:
    """Write one pass's spans as CSV, times relative to the first span's start."""
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,name,start_s,end_s\n")
        for i, (name, parent, start, end, _) in enumerate(spans):
            handle.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
