"""Command-line front end.

Subcommands::

    posinv integrate  --model M --scheme S [--alpha A] --dt D --steps N [--out F]
    posinv stability  --model M --scheme S [--alpha A] [--dt D]
    posinv reproduce  ID|all [--outdir DIR]
    posinv order      --model M --scheme S [--alpha A] --tmax T --dt0 D --levels L [--out F]

Models are addressed as ``builtin:name?params``, a model-file path, or
``random:N`` (a seeded member of the conservative Metzler class; ``--seed K``
goes before the subcommand or after ``integrate``, ``stability`` or
``order``, and the one after it wins).  Exit codes: 0 ok, 1 a ``reproduce``
check failed, 2 usage or model error, an ``--out``/``--outdir`` path that
cannot be written (a full device included) or a run too large for memory,
3 numerical failure.  Identical command lines produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments, stability
from .errors import ModelError, PosinvError
from .integrators import SCHEME_IDS, integrate, make_scheme
from .pds import LinearPds, load_model, steady_state_for

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICS = 3


def _resolve_model(address: str, seed: int) -> tuple[LinearPds, np.ndarray]:
    if address.startswith("random:"):
        try:
            n = int(address.split(":", 1)[1])
        except ValueError as exc:
            raise ModelError(f"bad random model address {address!r}") from exc
        model = stability.random_conservative_system(seed, n)
        return model, np.ones(n)
    doc = load_model(address)
    return doc.build(), doc.y0


def _positive_float(text: str) -> float:
    """argparse type of step sizes and horizons: a positive finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _emit(path: str | None, header, rows) -> None:
    if path is None:
        experiments.write_rows(sys.stdout, header, rows)
    else:
        experiments.write_csv(path, header, rows)


def cmd_integrate(args) -> int:
    model, y0 = _resolve_model(args.model, args.seed)
    scheme = make_scheme(args.scheme, args.alpha)
    traj = integrate(model, scheme, y0, dt=args.dt, n_steps=args.steps)
    header = experiments.state_header(model.dimension, False, flow_error="err")
    _emit(args.out, header, experiments.TrajectoryRows(model, traj, y0))
    return EXIT_OK


def cmd_stability(args) -> int:
    model, y0 = _resolve_model(args.model, args.seed)
    scheme = make_scheme(args.scheme, args.alpha)
    crit = stability.critical_step(model, scheme)
    if crit.unconditional:
        print("critical dt: unconditional")
    else:
        print(f"critical dt: {crit.dt_star:.10g}")
        lam = crit.binding_eigenvalue
        print(f"binding eigenvalue: {lam.real:.10g}{lam.imag:+.10g}j")
        print(f"bracket width: {crit.bracket_width:.3g}")
    cert = stability.unconditional_certificate(model)
    print(
        f"certificate: M={cert.m_value:.10g} trace(S-)={cert.trace_s_minus:.10g} "
        f"product={cert.product:.10g} holds={cert.holds}"
    )
    if args.dt is not None:
        y_star = steady_state_for(model, y0)
        if np.any(y_star <= 0.0):
            print(f"verdict at dt={args.dt:g}: skipped (steady state not positive)")
        else:
            report = stability.classify_fixed_point(model, scheme, y_star, args.dt)
            print(
                f"verdict at dt={args.dt:g}: {report.verdict} "
                f"(kernel eigenvalues: {report.kernel_count}, "
                f"non-kernel radius: {report.non_kernel_radius:.10g})"
            )
    return EXIT_OK


def cmd_reproduce(args) -> int:
    every = args.experiment == "all"
    n_fail = 0
    for exp_id in experiments.EXPERIMENT_IDS if every else (args.experiment,):
        files, checks = experiments.run_experiment(exp_id, args.outdir)
        prefix = f"{exp_id:10s} " if every else ""
        for check in checks:
            flag = "PASS" if check.passed else "FAIL"
            n_fail += 0 if check.passed else 1
            print(f"{prefix}[{flag}] {check.name}: expected {check.expected} "
                  f"(tol {check.tolerance}), observed {check.observed}")
        for path in files:
            print(f"{prefix}wrote {path}")
    if every:
        print(f"\n{n_fail} failing checks")
    return EXIT_CHECK_FAILED if n_fail else EXIT_OK


def cmd_order(args) -> int:
    model, y0 = _resolve_model(args.model, args.seed)
    scheme = make_scheme(args.scheme, args.alpha)
    if args.levels < 1:
        raise ModelError("--levels must be >= 1")
    dts = [args.dt0 * 2.0**-k for k in range(args.levels)]
    table = experiments.observed_orders(model, scheme, y0, args.tmax, dts)
    rows = [[dt, err, "" if math.isnan(order) else order] for dt, err, order in table]
    _emit(args.out, ["dt", "err", "order"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posinv",
        description="Positivity- and invariant-preserving integrators with a stability toolkit.",
    )
    seed_help = "seed for random:N model addresses"
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: a subcommand without --seed keeps the value given before it
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=seed_help)
    common.add_argument("--model", required=True)
    common.add_argument("--scheme", required=True, choices=SCHEME_IDS)
    common.add_argument("--alpha", type=float, default=None)

    p_int = sub.add_parser("integrate", parents=[common],
                           help="run one scheme and emit the trajectory as CSV")
    p_int.add_argument("--dt", type=_positive_float, required=True)
    p_int.add_argument("--steps", type=int, required=True)
    p_int.add_argument("--out", default=None)
    p_int.set_defaults(func=cmd_integrate)

    p_st = sub.add_parser("stability", parents=[common],
                          help="critical step, certificate, fixed-point verdict")
    p_st.add_argument("--dt", type=_positive_float, default=None)
    p_st.set_defaults(func=cmd_stability)

    p_rep = sub.add_parser("reproduce", help="run a reference experiment recipe, or all of them")
    p_rep.add_argument("experiment", choices=(*experiments.EXPERIMENT_IDS, "all"))
    p_rep.add_argument("--outdir", default=".")
    p_rep.set_defaults(func=cmd_reproduce)

    p_ord = sub.add_parser("order", parents=[common],
                           help="observed convergence orders against the exponential")
    p_ord.add_argument("--tmax", type=_positive_float, required=True)
    p_ord.add_argument("--dt0", type=_positive_float, required=True)
    p_ord.add_argument("--levels", type=int, required=True)
    p_ord.add_argument("--out", default=None)
    p_ord.set_defaults(func=cmd_order)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # the arrays of the run do not fit: fewer --steps would
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:
            raise  # names no path, so it is no --out or --outdir that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PosinvError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
