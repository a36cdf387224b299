#!/usr/bin/env python3
"""Time every step kernel on two ``src/`` trees, in alternating processes.

    python3 scripts/kernel_timing.py BASE_SRC [SRC] [--rounds N]

Each round runs one process per tree, BASE_SRC first in odd rounds and SRC
first in even ones (default SRC: the ``src/`` next to this script, 5
rounds).  A process imports posinv from its tree and, for each model and
scheme, calls the unchecked kernel ``SCHEMES[scheme].kernel`` on the first
20 states of the scheme's own 20-step trajectory from the model's start;
a call's time is the best of 7 repeats of 50 sweeps over those states.
Models: ``paper-stiff?K=1000`` (N = 3), ``paper-5x5``, and
``random_conservative_system(0, N)`` for N = 16 and 64 at dt 0.01 from
all ones.  Prints, per model and scheme, the best µs per call over the
rounds on each tree and their ratio.

    python3 scripts/kernel_timing.py --child SRC

prints one process's timings as JSON.
"""

from __future__ import annotations

import json
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import numpy as np

    from posinv import integrators, pds, stability

    cases = [
        ("paper-stiff?K=1000", pds.resolve_builtin("builtin:paper-stiff?K=1000"), 1.0),
        ("paper-5x5", pds.resolve_builtin("builtin:paper-5x5"), 0.1),
    ]
    cases = [(label, doc.build(), doc.y0, dt) for label, doc, dt in cases]
    for n in (16, 64):
        cases.append((f"random:{n}", stability.random_conservative_system(0, n), np.ones(n), 0.01))
    timings = {}
    for label, model, y0, dt in cases:
        for name in integrators.SCHEME_IDS:
            spec = integrators.make_scheme(name)
            kernel = integrators.SCHEMES[name].kernel
            states = integrators.integrate(model, spec, y0, dt, 20).states[:20]

            def sweep():
                for y in states:
                    kernel(model, y, dt, spec)

            best = min(timeit.repeat(sweep, number=50, repeat=7))
            timings[f"{label} {name}"] = best / (50 * len(states)) * 1e6
    print(json.dumps(timings))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return
    rounds = 5
    if "--rounds" in argv:
        at = argv.index("--rounds")
        rounds = int(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    trees = {"base": argv[0], "new": argv[1] if len(argv) > 1 else str(ROOT / "src")}
    best: dict[str, dict[str, float]] = {"base": {}, "new": {}}
    for k in range(rounds):
        order = ("base", "new") if k % 2 == 0 else ("new", "base")
        for side in order:
            out = subprocess.run([sys.executable, __file__, "--child", trees[side]],
                                 check=True, capture_output=True, text=True).stdout
            for key, us in json.loads(out).items():
                best[side][key] = min(us, best[side].get(key, us))
    print(f"base {trees['base']}\nnew  {trees['new']}\n")
    print(f"{'model and scheme':28s} {'base us':>8s} {'new us':>8s} {'ratio':>6s}")
    for key, base_us in best["base"].items():
        new_us = best["new"][key]
        print(f"{key:28s} {base_us:8.2f} {new_us:8.2f} {new_us / base_us:6.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
