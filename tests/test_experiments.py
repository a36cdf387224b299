"""The reference-flow rows of the experiment CSVs, and the CSV cell rule.

``experiments.reference_flow`` builds the ``err_ref`` column from one
propagator per trajectory, a block of rows at a time; tests that need the
whole flow or table concatenate its blocks.  Its rows are compared with
exp(n*dt*A) y0 evaluated by mpmath at 40 decimal digits at rows
{0, 1, 7, n/2, n-1, n}.
The bound is 1e-11*max|y0| (1e-9 on ``K=1e+06``, where the Pade core of
``linalg.expm`` is itself off by up to 4.5e-10); measured worst values are
1.2e-15 on the 5x5, 1.7e-13 on ``K=1000`` and 3.5e-10 on ``K=1e+06``.
"""

import io
import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from posinv import experiments, integrate, linalg, make_scheme, stability
from posinv.cli import main
from posinv.errors import NumericsError
from posinv.linalg import expm
from posinv.pds import resolve_builtin, steady_state_for


def flow_at_40_digits(a, y0, dt, n):
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(a.tolist()) * (mpmath.mpf(dt) * n))
        return np.array([float(v) for v in e * mpmath.matrix(y0.tolist())])


def geco2_near_critical_dt():
    model = resolve_builtin("builtin:paper-5x5").build()
    return stability.critical_step(model, make_scheme("geco2")).dt_star * (1.0 - 1e-3)


CASES = [
    ("paper-5x5", 0.1, 5000, 1e-11),
    ("paper-5x5", "geco2", 5000, 1e-11),
    ("paper-stiff?K=10", 0.1, 1000, 1e-11),
    ("paper-stiff?K=100", 0.1, 1000, 1e-11),
    *(("paper-stiff?K=1000", dt, 500, 1e-11) for dt in (1e-2, 1.0, 1e12)),
    *(("paper-stiff?K=1e+06", dt, 500, 1e-9) for dt in (1e-2, 1.0, 1e12)),
]


def whole(blocks):
    return np.concatenate(list(blocks))


def check_rows(model, y0, dt, n, flow, bound):
    assert flow.shape == (n + 1, len(y0))
    scale = float(np.max(np.abs(y0)))
    for k in sorted({0, 1, 7, n // 2, n - 1, n}):
        err = float(np.max(np.abs(flow[k] - flow_at_40_digits(model.a, y0, dt, k))))
        assert err <= bound * scale, f"row {k}: error {err:.3e}"


@pytest.mark.parametrize("address,dt,n,bound", CASES)
def test_reference_rows_match_40_digit_flow(address, dt, n, bound):
    doc = resolve_builtin(f"builtin:{address}")
    model = doc.build()
    if dt == "geco2":
        dt = geco2_near_critical_dt()
    flow = whole(experiments.reference_flow(model, doc.y0, dt, n))
    check_rows(model, doc.y0, dt, n, flow, bound)


@pytest.mark.parametrize("address", ["paper-5x5", "paper-stiff?K=1e+06"])
def test_rows_follow_the_propagator_recurrence_bitwise(address):
    """Row n + 1 is y_inf + P @ (deviation n), bit for bit: the in-place gemv is ``prop @ row``."""
    doc = resolve_builtin(f"builtin:{address}")
    model = doc.build()
    y_inf = steady_state_for(model, doc.y0)
    prop = expm(model.a, 0.1)
    flow = whole(experiments.reference_flow(model, doc.y0, 0.1, 300))
    deviation = doc.y0 - y_inf
    for n in range(300):
        deviation = prop @ deviation
        assert flow[n + 1].tobytes() == (deviation + y_inf).tobytes(), n


@pytest.mark.parametrize("address", ["paper-2x2?a=1&b=1&c=1", "paper-5x5"])
def test_order_reference_has_the_bits_of_expm_apply(monkeypatch, address):
    """``observed_orders`` compares each final state with the bits of ``linalg.expm_apply``."""
    doc = resolve_builtin(f"builtin:{address}")
    model = doc.build()
    seen = []

    class Final:
        def __sub__(self, reference):
            seen.append(reference)
            return reference

    monkeypatch.setattr(experiments, "integrate", lambda *args, **kwargs: SimpleNamespace(final=Final()))
    experiments.observed_orders(model, make_scheme("gbbks2"), doc.y0, 1.0, [0.5, 0.25])
    want = linalg.expm_apply(model.a, doc.y0, 1.0).tobytes()
    assert [ref.tobytes() for ref in seen] == [want, want]


@pytest.mark.parametrize("tmax, dts", [
    (1.0, [0.5, 0.0]),
    (1e300, [1e-10]),
    (1.0, [0.5, 0.3]),
], ids=["dt-zero", "steps-overflow", "dt-does-not-divide"])
def test_order_checks_every_level_before_the_exponential(monkeypatch, tmax, dts):
    """A bad level is a ``ValueError`` whether or not ``expm(A, tmax)`` overflows.

    Whether it overflows at ``tmax`` 1e300 depends on the BLAS kernel: the
    squarings reach inf under OpenBLAS's Haswell kernels and 0 under SkylakeX.
    """

    def overflowed(a, t):
        raise NumericsError("matrix exponential overflowed")

    monkeypatch.setattr(experiments, "expm", overflowed)
    doc = resolve_builtin("builtin:paper-2x2")
    with pytest.raises(ValueError, match="^dt "):
        experiments.observed_orders(doc.build(), make_scheme("geco1"), doc.y0, tmax, dts)


def test_plain_propagator_when_no_steady_state(monkeypatch):
    """A model whose steady state cannot be determined still gets its rows."""

    def singular(model, y0):
        raise NumericsError("singular invariant system")

    monkeypatch.setattr(experiments, "steady_state_for", singular)
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    check_rows(model, doc.y0, 0.1, 5000, whole(experiments.reference_flow(model, doc.y0, 0.1, 5000)), 1e-11)

    traj = integrate(model, make_scheme("euler"), doc.y0, 0.1, 20)
    rows = whole(experiments.TrajectoryRows(model, traj, doc.y0))
    assert len(rows) == 21 and rows[0][-1] == 0.0


def steady_errors(traj, y_star):
    """The error vs the steady state, one entry per state, as the recipes compute it."""
    return np.max(np.abs(traj.states - y_star), axis=1)


def test_zero_steps_give_the_start_row():
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    flow = whole(experiments.reference_flow(model, doc.y0, 0.1, 0))
    assert flow.shape == (1, 5)
    npt.assert_array_equal(flow[0], doc.y0)

    traj = integrate(model, make_scheme("geco1"), doc.y0, 0.1, 0)
    y_star = np.full(5, 2.6)
    rows = whole(experiments.TrajectoryRows(model, traj, doc.y0, err_steady=steady_errors(traj, y_star)))
    start_row = [0, 0.0, *doc.y0.tolist(), 0.0, 0.0, float(np.max(np.abs(doc.y0 - y_star)))]
    assert rows.tolist() == [start_row]


def test_steady_state_errors_are_a_keyword_series_of_one_entry_per_state():
    """A steady state where the error series belongs is refused, by name and by length."""
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    traj = integrate(model, make_scheme("geco1"), doc.y0, 0.1, 0)
    y_star = np.full(5, 2.6)
    with pytest.raises(TypeError):
        experiments.TrajectoryRows(model, traj, doc.y0, y_star)
    with pytest.raises(ValueError, match="one entry per state"):
        experiments.TrajectoryRows(model, traj, doc.y0, err_steady=y_star)


def test_row_columns_match_per_state_evaluation():
    """States, defects and the steady-state error are the per-state values, bit for bit."""
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    y_star = np.full(5, 2.6)
    traj = integrate(model, make_scheme("geco2"), doc.y0, 0.3, 40)
    rows = whole(experiments.TrajectoryRows(model, traj, doc.y0, err_steady=steady_errors(traj, y_star)))
    flow = whole(experiments.reference_flow(model, doc.y0, 0.3, 40))
    for n, (row, y) in enumerate(zip(rows, traj.states)):
        assert row[:7].tolist() == [n, n * 0.3, *y.tolist()]
        assert row[7] == traj.invariant_defect[n]
        assert row[8] == float(np.max(np.abs(y - flow[n])))
        assert row[9] == float(np.max(np.abs(y - y_star)))


def whole_table(model, traj, start, y_star=None):
    """The table formed whole, one column_stack of full columns over the full flow."""
    start = np.asarray(start, dtype=float)
    try:
        y_inf = experiments.steady_state_for(model, start)
    except NumericsError:
        y_inf = np.zeros_like(start)
    prop = expm(model.a, traj.dt)
    deviations = np.empty((len(traj), start.size))
    deviations[0] = start - y_inf
    for n in range(len(traj) - 1):
        np.dot(prop, deviations[n], out=deviations[n + 1])
    flow = deviations + y_inf
    flow[0] = start
    columns = [np.arange(len(traj)), traj.times, traj.states, traj.invariant_defect,
               np.max(np.abs(traj.states - flow), axis=1)]
    if y_star is not None:
        columns.append(np.max(np.abs(traj.states - y_star), axis=1))
    return np.column_stack(columns)


def written(header, rows):
    """``rows`` as :func:`experiments.write_rows` writes them; a whole float table takes its per-row path."""
    out = io.StringIO()
    experiments.write_rows(out, header, rows)
    return out.getvalue()


def no_steady_state(model, y0):
    raise NumericsError("singular invariant system")


@pytest.mark.parametrize("steady", [True, False], ids=["steady-state", "plain-propagator"])
@pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 1000])
def test_streamed_table_has_the_bytes_of_the_whole_table(monkeypatch, capsys, tmp_path, steps, steady):
    """Around the block edges, file, stdout and the ``err_steady`` column carry the whole table's bits."""
    if not steady:
        monkeypatch.setattr(experiments, "steady_state_for", no_steady_state)
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    traj = integrate(model, make_scheme("geco2"), doc.y0, 0.1, steps)
    argv = ["integrate", "--model", "builtin:paper-5x5", "--scheme", "geco2", "--dt", "0.1",
            "--steps", str(steps)]
    want = written(experiments.state_header(5, False)[:-1] + ["err"], whole_table(model, traj, doc.y0))
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == want

    y_star = np.full(5, 2.6)
    header = experiments.state_header(5, True)
    errors = steady_errors(traj, y_star)
    rows = experiments.TrajectoryRows(model, traj, doc.y0, err_steady=errors)
    experiments.write_csv(str(tmp_path / "steady.csv"), header, rows)
    table = whole_table(model, traj, doc.y0, y_star)
    assert (tmp_path / "steady.csv").read_text(encoding="utf-8") == written(header, table)
    last = np.loadtxt(tmp_path / "steady.csv", delimiter=",", skiprows=1, ndmin=2)[:, -1]
    assert last.tobytes() == errors.tobytes()


def test_export_memory_does_not_grow_with_the_run(tmp_path):
    """An export takes the trajectory's own arrays plus one block of rows.

    The budget is far below the 3.6 MB that forming the whole flow and table
    of 18,000 more rows takes (about five times their states).
    """
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    trajs = [integrate(model, make_scheme("geco1"), doc.y0, 0.01, n) for n in (2000, 20000)]
    header = experiments.state_header(5, False)
    peaks = []
    for traj in trajs:
        tracemalloc.start()
        try:
            experiments.write_csv(str(tmp_path / "run.csv"), header,
                                  experiments.TrajectoryRows(model, traj, doc.y0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 128 * 1024, peaks


def test_trajectory_rows_are_formed_once():
    doc = resolve_builtin("builtin:paper-5x5")
    model = doc.build()
    rows = experiments.TrajectoryRows(model, integrate(model, make_scheme("geco1"), doc.y0, 0.1, 3), doc.y0)
    assert len(rows) == 4 and len(whole(rows)) == 4
    with pytest.raises(RuntimeError, match="once"):
        list(rows)


def test_csv_cells_are_17g_numbers_and_verbatim_strings(tmp_path):
    """Array and list rows share one rule: integers exact, floats 17 digits, strings as given."""
    path = tmp_path / "table.csv"
    rows = [
        np.array([3.0, 0.1, -0.0, 5e-324, 1e300]),
        [12, "gbbks2", "", 2.0 / 3.0, np.float64(-1.5)],
    ]
    experiments.write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
    assert path.read_bytes() == (
        b"a,b,c,d,e\n"
        b"3,0.10000000000000001,-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
        b"12,gbbks2,,0.66666666666666663,-1.5\n"
    )
    with pytest.raises(ValueError, match="row width"):
        experiments.write_csv(str(path), ["a", "b"], [[1.0]])


def test_float_table_blocks_match_the_per_cell_rule(tmp_path):
    """A 2-D float array, written a block of rows at a time, gives the per-cell bytes."""
    cells = [3.0, 0.1, -0.0, 5e-324, 1e300, 2.0 / 3.0, -1.5, math.inf, -math.nan]
    table = np.resize(np.array(cells), (2 * experiments._ROW_BLOCK + 3, 4))
    header = ["a", "b", "c", "d"]
    blocks, cellwise = tmp_path / "blocks.csv", tmp_path / "cells.csv"
    experiments.write_csv(str(blocks), header, table)
    experiments.write_csv(str(cellwise), header, table.tolist())
    assert blocks.read_bytes() == cellwise.read_bytes()
    assert blocks.read_bytes().count(b"\n") == len(table) + 1
    with pytest.raises(ValueError, match="row width"):
        experiments.write_csv(str(blocks), header, table[:, :3])


def crossing_by_scan(times, diff, skip_before):
    """The element-by-element scan ``crossing_time`` had, kept as its oracle."""
    for k in range(len(times) - 1):
        if times[k] < skip_before:
            continue
        if diff[k] == 0.0:
            return float(times[k])
        if diff[k] * diff[k + 1] < 0.0:
            frac = diff[k] / (diff[k] - diff[k + 1])
            return float(times[k] + frac * (times[k + 1] - times[k]))
    raise ValueError("no sign change found in the sampled window")


def fig6_crossing_inputs():
    """fig6's limit reference grid and its two geco1 runs, as ``run_fig6`` passes them."""
    times = np.arange(0.0, 2.0 + 1e-4, 1e-4)
    cases = {"limit": (times, 2.0 * 0.99 * np.exp(-times) - 1.0, 1e-4 / 2)}
    for K in (10.0, 100.0):
        doc = resolve_builtin(f"builtin:paper-stiff?K={K:g}")
        traj = integrate(doc.build(), make_scheme("geco1"), doc.y0, dt=0.1, n_steps=1000)
        cases[f"K{K:g}"] = (traj.times, traj.states[:, 1] - traj.states[:, 2], 0.1)
    return cases


def test_crossing_time_has_the_bits_of_the_scan():
    """The vectorised search returns the scan's float, or raises where it raises."""
    t = np.arange(6) * 0.5
    cases = {
        "exact zero": (t, np.array([1.0, 0.5, 0.0, -0.5, -1.0, -2.0]), 0.25),
        "zero before skip_before": (t, np.array([0.0, 1.0, 2.0, -1.0, -2.0, -3.0]), 0.25),
        "change at skip_before": (t, np.array([1.0, -1.0, 2.0, 3.0, 4.0, 5.0]), 0.5),
        "zero at the last point": (t, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 0.0]), 0.0),
        **fig6_crossing_inputs(),
    }
    rng = np.random.default_rng(7)
    for i in range(20):
        times = np.cumsum(rng.random(40))
        diff = rng.integers(-1, 4, 40) * rng.random(40)  # exact zeros and long one-signed runs
        cases[f"random {i}"] = (times, diff, times[rng.integers(40)])
    for name, (times, diff, skip_before) in cases.items():
        try:
            want = crossing_by_scan(times, diff, skip_before)
        except ValueError:
            with pytest.raises(ValueError, match="no sign change"):
                experiments.crossing_time(times, diff, skip_before)
            continue
        assert repr(experiments.crossing_time(times, diff, skip_before)) == repr(want), name
    assert experiments.crossing_time(*cases["exact zero"]) == 1.0
    assert experiments.crossing_time(*cases["change at skip_before"]) == 0.5 + (-1.0 / (-1.0 - 2.0)) * 0.5
    with pytest.raises(ValueError, match="no sign change"):
        experiments.crossing_time(*cases["zero at the last point"])
