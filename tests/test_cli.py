"""CLI surface: subcommands, CSV format, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posinv
from posinv import experiments
from posinv.cli import EXIT_CHECK_FAILED, main
from posinv.pds import resolve_builtin

from test_pds import document_text

GECO1_RUN = ["integrate", "--model", "builtin:paper-5x5", "--scheme", "geco1",
             "--dt", "1", "--steps", "200"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_long_run_reaches_steady_state(self, capsys):
        code, out, _ = run(capsys, *GECO1_RUN)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,t,y_1,y_2,y_3,y_4,y_5,inv_defect,err"
        assert len(lines) == 202
        last = lines[-1].split(",")
        assert float(last[-1]) < 1e-10  # error vs the exponential reference
        assert float(last[-2]) <= 1e-12  # invariant defect

    def test_exponent_with_plus_sign_in_address(self, capsys):
        code, out, _ = run(capsys, "integrate", "--model", "builtin:paper-stiff?K=1e+06",
                           "--scheme", "geco1", "--dt", "0.1", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert float(lines[-1].split(",")[2]) >= 0.0

    def test_zero_steps_single_row(self, capsys):
        code, out, _ = run(capsys, "integrate", "--model", "builtin:paper-2x2",
                           "--scheme", "heun", "--dt", "0.5", "--steps", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "0" and float(row[2]) == 2.0 and float(row[3]) == 1.0

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["integrate", "--model", "builtin:paper-5x5", "--scheme", "gbbks2",
                "--alpha", "1.0", "--dt", "0.25", "--steps", "40"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_invalid_alpha_exits_2(self, capsys):
        """Alpha is checked before the gbbks2 preset divides by it, in both commands."""
        for alpha in ("0.4", "0"):
            for command in (["integrate", "--steps", "1"], ["stability"]):
                code, _, err = run(capsys, command[0], "--model", "builtin:paper-2x2",
                                   "--scheme", "gbbks2", "--alpha", alpha, "--dt", "1",
                                   *command[1:])
                assert code == 2
                assert "gbbks2 requires a finite alpha >= 1/2" in err

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_exits_2(self, capsys, alpha):
        """A usage error, not a numerical failure in the first step."""
        code, _, err = run(capsys, "integrate", "--model", "builtin:paper-2x2",
                           "--scheme", "gbbks2", "--alpha", alpha,
                           "--dt", "0.1", "--steps", "2")
        assert code == 2
        assert "gbbks2 requires a finite alpha >= 1/2" in err

    def test_alpha_on_wrong_scheme_exits_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--model", "builtin:paper-2x2",
                           "--scheme", "geco1", "--alpha", "1.0", "--dt", "1", "--steps", "1")
        assert code == 2
        assert "scheme 'geco1' does not take alpha" in err

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--model", "builtin:paper-9x9",
                           "--scheme", "geco1", "--dt", "1", "--steps", "1")
        assert code == 2
        assert "unknown builtin" in err

    def test_document_text_as_model_exits_2(self, capsys):
        """``--model`` takes an address or a path, not the text of a model file."""
        code, _, err = run(capsys, "integrate", "--model", "kind linear\ndim 1\nmatrix\n0\ny0 1\n",
                           "--scheme", "geco1", "--dt", "1", "--steps", "1")
        assert code == 2
        assert "cannot read model file" in err

    def test_unreadable_model_file_exits_2(self, capsys, tmp_path):
        """A model file that is not UTF-8 is a usage error, as a missing one is."""
        path = tmp_path / "model.txt"
        path.write_bytes(b"kind linear\ndim 1\nmatrix\n0\ny0 \xff\n")
        code, _, err = run(capsys, "integrate", "--model", str(path),
                           "--scheme", "geco1", "--dt", "1", "--steps", "1")
        assert code == 2
        assert "cannot read model file" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        """A missing directory in ``--out`` is a usage error: one ``error:`` line, no traceback."""
        code, out, err = run(capsys, "integrate", "--model", "builtin:paper-2x2", "--scheme",
                             "euler", "--dt", "0.1", "--steps", "3",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_out_on_a_full_device_exits_2(self, capsys):
        """A write that fails for want of space names the ``--out`` path: one ``error:`` line, no traceback."""
        code, out, err = run(capsys, "integrate", "--model", "builtin:paper-2x2", "--scheme",
                             "euler", "--dt", "0.1", "--steps", "3", "--out", "/dev/full")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "/dev/full" in err

    def test_run_too_large_for_memory_exits_2(self, capsys, monkeypatch):
        """A ``MemoryError`` (numpy's, when a run's arrays cannot be allocated) is one ``error:`` line.

        It is raised by a stand-in: a real allocation of that size might be
        granted by a host that overcommits memory, and then fill it.
        """
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (100000000001, 2)")

        monkeypatch.setattr("posinv.cli.integrate", too_large)
        code, out, err = run(capsys, "integrate", "--model", "builtin:paper-2x2", "--scheme",
                             "euler", "--dt", "0.1", "--steps", "100000000000")
        assert code == 2
        assert out == ""
        assert err == "error: Unable to allocate 1.46 TiB for an array with shape (100000000001, 2)\n"

    def test_unknown_scheme_exits_2(self, capsys):
        code, _, _ = run(capsys, "integrate", "--model", "builtin:paper-2x2",
                         "--scheme", "rk4", "--dt", "1", "--steps", "1")
        assert code == 2

    def test_numerical_blowup_exits_3(self, capsys):
        code, _, err = run(capsys, "integrate", "--model", "builtin:paper-stiff?K=10",
                           "--scheme", "euler", "--dt", "100", "--steps", "400")
        assert code == 3
        assert "failed" in err

    def test_overflowed_flow_writes_no_partial_table(self, capsys, tmp_path):
        """The propagator is formed before the header, so neither stdout nor --out gets a line."""
        argv = ["integrate", "--model", "builtin:paper-5x5", "--scheme", "geco2", "--dt", "1e308",
                "--steps", "3"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (3, "")
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 3 and not (tmp_path / "x.csv").exists()

    def test_power_of_a_zero_component_prints_no_warning(self):
        """gbbks2 at alpha 0.5 forms y^-1 on paper-5x5's y0, which has a 0.0: stderr stays empty.

        The inf is off the active set, where a non-finite sigma would fail the
        step.  Run in a fresh process, since Python reports a warning only once
        per place and another test may have triggered it before.
        """
        src = str(Path(posinv.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from posinv.cli import main; sys.exit(main())",
             "integrate", "--model", "builtin:paper-5x5", "--scheme", "gbbks2", "--alpha", "0.5",
             "--dt", "0.3", "--steps", "400"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert len(result.stdout.splitlines()) == 402


class TestStability:
    def test_gbbks1_critical_step(self, capsys):
        code, out, _ = run(capsys, "stability", "--model", "builtin:paper-5x5",
                           "--scheme", "gbbks1")
        assert code == 0
        assert "critical dt: 0.2970862902" in out

    def test_geco1_unconditional_with_certificate(self, capsys):
        code, out, _ = run(capsys, "stability", "--model", "builtin:paper-5x5",
                           "--scheme", "geco1")
        assert code == 0
        assert "critical dt: unconditional" in out
        assert "product=5.941725804" in out
        assert "holds=True" in out

    def test_geco2_verdict_above_critical(self, capsys):
        code, out, _ = run(capsys, "stability", "--model", "builtin:paper-5x5",
                           "--scheme", "geco2", "--dt", "0.3576")
        assert code == 0
        assert "verdict at dt=0.3576: unstable" in out

    def test_random_model_address(self, capsys):
        code, out, _ = run(capsys, "--seed", "3", "stability",
                           "--model", "random:4", "--scheme", "geco1")
        assert code == 0
        assert "critical dt: unconditional" in out
        assert "holds=True" in out

    def test_seed_after_the_subcommand(self, capsys):
        """``--seed`` after the subcommand selects the model that it selects before it."""
        args = ["stability", "--model", "random:4", "--scheme", "euler"]
        code, after, _ = run(capsys, *args, "--seed", "7")
        assert code == 0
        assert after == run(capsys, "--seed", "7", *args)[1]
        assert after != run(capsys, *args)[1]
        assert run(capsys, "--seed", "0", *args, "--seed", "7")[1] == after

    @pytest.mark.filterwarnings("error")
    def test_tiny_rates_are_analysed_like_unit_rates(self, capsys):
        """Rates of 1e-12 give 1e12 times the dt* of unit rates, not a rejected model."""
        code, out, err = run(capsys, "stability", "--model", "builtin:paper-2x2?a=1e-12&b=1e-12",
                             "--scheme", "euler")
        assert (code, err) == (0, "")
        assert "critical dt: 1e+12\n" in out

    @pytest.mark.parametrize("k", [-40, 40])
    @pytest.mark.filterwarnings("error")
    def test_scaled_model_file_scales_the_critical_step(self, capsys, tmp_path, k):
        """A model file of 2^k times the 5x5 matrix has 2^-k times its gbbks2 dt*, 0.2970862902."""
        doc = resolve_builtin("builtin:paper-5x5")
        path = tmp_path / "model.txt"
        path.write_text(document_text(2.0**k * doc.matrix, doc.y0))
        code, out, err = run(capsys, "stability", "--model", str(path), "--scheme", "gbbks2")
        assert (code, err) == (0, "")
        dt_star = float(out.split("critical dt: ", 1)[1].split("\n", 1)[0])
        assert dt_star == pytest.approx(2.0**-k * 0.2970862902, rel=1e-9)

    def test_bad_random_address(self, capsys):
        code, _, _ = run(capsys, "stability", "--model", "random:x", "--scheme", "geco1")
        assert code == 2

    def test_verdict_skipped_where_the_steady_state_is_not_positive(self, capsys):
        """``paper-stiff``'s steady state (0, 0, 1) is not positive: no verdict at the given dt, exit 0."""
        code, out, _ = run(capsys, "stability", "--model", "builtin:paper-stiff", "--scheme", "geco1",
                           "--dt", "0.5")
        assert code == 0
        assert "verdict at dt=0.5: skipped (steady state not positive)\n" in out


class TestReproduce:
    def test_fig2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "fig2", "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "fig2_summary.json").read_text())
        assert summary["passed"]
        header = (tmp_path / "fig2.csv").read_text().splitlines()[0]
        assert header.startswith("step,t,y_1")
        assert "[PASS]" in out

    def test_remark8_flags_reported_bracket(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "remark8", "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "remark8_summary.json").read_text())
        assert summary["passed"]
        assert not summary["agrees_with_reported"]
        assert summary["z_star"] == pytest.approx(-3.92235950274, abs=1e-9)

    def test_jacobians(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reproduce", "jacobians", "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "jacobians_summary.json").read_text())
        assert summary["passed"]
        rows = (tmp_path / "jacobians.csv").read_text().splitlines()
        assert len(rows) == 9  # header + 4 schemes x 2 models

    def test_fig6_crossings_reported_honestly(self, capsys, tmp_path):
        """The stiff run reports its computed crossings, judged against the
        closed-form crossings of the discrete geco1 map, not against the
        stated 7/70, which the scheme gives at dt=1.0, not 0.1 (see note)."""
        code, _, _ = run(capsys, "reproduce", "fig6", "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "fig6_summary.json").read_text())
        checks = {c["name"]: c for c in summary["checks"]}
        assert checks["limit_reference_crossing"]["passed"]
        # closed form against the 40-digit oracle of scripts/gen_oracle_values.py
        assert checks["crossing_time_K10"]["expected"] == pytest.approx(
            1.25934467891005266, rel=1e-12)
        assert checks["crossing_time_K100"]["expected"] == pytest.approx(
            6.96545665982226180, rel=1e-12)
        assert summary["passed"]
        assert summary["crossings"]["K10"] == pytest.approx(1.259, abs=0.01)
        assert summary["crossings"]["K100"] == pytest.approx(6.965, abs=0.01)
        assert "note" in summary

    def test_fig4a_contracts(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reproduce", "fig4a", "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "fig4a_summary.json").read_text())
        assert summary["passed"]
        assert summary["dt"] == pytest.approx(0.29708629 * (1 - 1e-3), rel=1e-6)

    def test_outdir_that_is_a_file_exits_2(self, capsys, tmp_path):
        """An ``--outdir`` that names an existing file is a usage error, not a failed check."""
        path = tmp_path / "taken"
        path.write_text("")
        code, out, err = run(capsys, "reproduce", "fig2", "--outdir", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "taken" in err

    def test_summary_on_a_full_device_exits_2(self, capsys, monkeypatch, tmp_path):
        """A full device while the JSON summary is written is a usage error that names it, as for a CSV."""
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(experiments.json, "dump", full)
        code, out, err = run(capsys, "reproduce", "remark8", "--outdir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "remark8_summary.json" in err

    def test_unknown_experiment_exits_2(self, capsys):
        code, _, _ = run(capsys, "reproduce", "fig9")
        assert code == 2

    def test_failed_check_exits_1(self, capsys, monkeypatch, tmp_path):
        failing = experiments.Check("forced", 0.0, 0.0, 1.0, False)
        monkeypatch.setattr(experiments, "run_experiment", lambda exp_id, outdir: ([], [failing]))
        code, out, _ = run(capsys, "reproduce", "fig2", "--outdir", str(tmp_path))
        assert code == EXIT_CHECK_FAILED == 1
        assert "[FAIL] forced" in out

    @pytest.mark.parametrize("passed,want", [(True, 0), (False, 1)])
    def test_reproduce_all_exit_code(self, capsys, monkeypatch, tmp_path, passed, want):
        """``reproduce all`` runs every experiment and exits 1 when any check fails."""
        ran = []
        check = experiments.Check("forced", 0.0, 0.0, 0.0, passed)

        def fake(exp_id, outdir):
            ran.append(exp_id)
            return [], [check]

        monkeypatch.setattr(experiments, "run_experiment", fake)
        code, out, _ = run(capsys, "reproduce", "all", "--outdir", str(tmp_path))
        assert code == want
        assert ran == list(experiments.EXPERIMENT_IDS)
        n_fail = 0 if passed else len(ran)
        assert out.endswith(f"\n\n{n_fail} failing checks\n")
        assert f"fig2       [{'PASS' if passed else 'FAIL'}] forced" in out

    def test_reproduce_all_help_exits_0_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        """``--help`` prints the usage; it is not taken as an experiment id."""
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "reproduce", "all", "--help")
        assert code == 0
        assert out.startswith("usage: posinv reproduce [-h] [--outdir OUTDIR]")
        assert list(tmp_path.iterdir()) == []


class TestOrder:
    def test_second_order_scheme(self, capsys):
        code, out, _ = run(capsys, "order", "--model", "builtin:paper-2x2",
                           "--scheme", "geco2", "--tmax", "1", "--dt0", "0.125",
                           "--levels", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dt,err,order"
        assert len(lines) == 8
        assert lines[1].endswith(",")  # first row has no order value
        tail_order = float(lines[-1].split(",")[2])
        assert 1.9 <= tail_order <= 2.1

    def test_single_level_has_no_order(self, capsys):
        code, out, _ = run(capsys, "order", "--model", "builtin:paper-2x2",
                           "--scheme", "gbbks1", "--tmax", "0.5", "--dt0", "0.25",
                           "--levels", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 and lines[1].endswith(",")

    def test_no_levels_exits_2(self, capsys):
        code, out, err = run(capsys, "order", "--model", "builtin:paper-2x2", "--scheme", "geco1",
                             "--tmax", "1", "--dt0", "0.25", "--levels", "0")
        assert (code, out, err) == (2, "", "error: --levels must be >= 1\n")

    def test_non_dividing_dt_exits_2(self, capsys):
        code, _, _ = run(capsys, "order", "--model", "builtin:paper-2x2",
                         "--scheme", "geco1", "--tmax", "1", "--dt0", "0.3",
                         "--levels", "2")
        assert code == 2

    @pytest.mark.parametrize("tmax, dt0, levels", [
        ("1", "5e-324", "1"),
        ("1e300", "1e-10", "1"),
        (repr(2.0**-1064), repr(2.0**-1064), "12"),  # level 11 halves dt to 0.0
    ], ids=["dt0-subnormal", "steps-overflow", "dt-underflows-to-0"])
    def test_step_count_that_is_not_finite_exits_2(self, capsys, tmax, dt0, levels):
        """A level whose ``tmax / dt`` is not finite is a usage error, not a traceback."""
        code, out, err = run(capsys, "order", "--model", "builtin:paper-2x2", "--scheme", "geco1",
                             "--tmax", tmax, "--dt0", dt0, "--levels", levels)
        assert code == 2
        assert out == ""
        assert err.startswith("error: dt ") and err.count("\n") == 1

    def test_zero_error_has_no_order(self, capsys):
        """An error of exactly 0 leaves the order cell empty instead of dividing by it."""
        tiny = repr(2.0**-1064)
        code, out, _ = run(capsys, "order", "--model", "builtin:paper-2x2", "--scheme", "geco1",
                           "--tmax", tiny, "--dt0", tiny, "--levels", "2")
        assert code == 0
        assert [line.split(",")[1:] for line in out.splitlines()[1:]] == [["0", ""], ["0", ""]]

    def test_overflowed_reference_exits_3(self, capsys, tmp_path):
        """A finite y0 whose exact flow overflows stops ``order`` instead of printing inf rows."""
        path = tmp_path / "model.txt"
        path.write_text("kind linear\ndim 2\nmatrix\n-1 0\n1 0\ny0 1.7e308 1.7e308\n")
        code, out, err = run(capsys, "order", "--model", str(path), "--scheme", "geco1",
                             "--tmax", "1", "--dt0", "0.5", "--levels", "1")
        assert code == 3
        assert out == ""
        assert "matrix exponential overflowed" in err


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--model", "builtin:paper-5x5", "--scheme", "geco2", "--dt", "1e308",
      "--steps", "3"], "matrix exponential overflowed"),
    (["order", "--model", "builtin:paper-2x2", "--scheme", "geco2", "--tmax", "1e308",
      "--dt0", "1e308", "--levels", "1"], "matrix exponential overflowed"),
    (["stability", "--model", "builtin:paper-5x5", "--scheme", "heun", "--dt", "1e300"],
     "scheme produced a non-finite state"),
    (["stability", "--model", "builtin:paper-5x5", "--scheme", "geco2", "--dt", "1e300"],
     "closed-form and finite-difference Jacobians disagree by 3.550e+300"),
    (["stability", "--model", "builtin:paper-5x5", "--scheme", "gbbks2", "--dt", "1e300"],
     "closed-form Jacobian is not finite"),
], ids=["integrate-flow", "order-reference", "stability-heun-step", "stability-geco2-jacobian",
        "stability-gbbks2-jacobian"])
@pytest.mark.filterwarnings("error")
def test_overflow_exits_3_with_one_line_and_no_warning(capsys, argv, message):
    """Overflow that posinv reports is one stderr line; a warning of any category fails the test."""
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["stability", "--model", "builtin:paper-stiff?K=1e308", "--scheme", "geco1"],
     "matrix norm overflows: a row or column sum of |A| is not finite"),
    (["integrate", "--model", "builtin:paper-stiff?K=1e308", "--scheme", "geco1", "--dt", "0.1",
      "--steps", "3"], "matrix norm overflows: a row or column sum of |A| is not finite"),
    (["integrate", "--model", "builtin:paper-2x2?a=1&a=2", "--scheme", "geco1", "--dt", "0.1",
      "--steps", "3"], "repeated parameter 'a' in 'builtin:paper-2x2?a=1&a=2'"),
], ids=["stability-norm-overflow", "integrate-norm-overflow", "integrate-repeated-parameter"])
@pytest.mark.filterwarnings("error")
def test_model_error_exits_2_with_one_line_and_no_warning(capsys, argv, message):
    """A model refused as it loads prints nothing on stdout and one stderr line."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


INTEGRATE_2X2 = ["integrate", "--model", "builtin:paper-2x2", "--scheme", "geco1", "--steps", "1"]
STABILITY_5X5 = ["stability", "--model", "builtin:paper-5x5", "--scheme", "geco2"]
ORDER_2X2 = ["order", "--model", "builtin:paper-2x2", "--scheme", "geco1", "--levels", "2"]


@pytest.mark.parametrize("argv,option", [
    ([*INTEGRATE_2X2, "--dt", "0"], "--dt"),
    ([*INTEGRATE_2X2, "--dt", "-1"], "--dt"),
    ([*INTEGRATE_2X2, "--dt", "nan"], "--dt"),
    ([*INTEGRATE_2X2, "--dt", "inf"], "--dt"),
    ([*STABILITY_5X5, "--dt", "0"], "--dt"),
    ([*ORDER_2X2, "--tmax", "0", "--dt0", "0.25"], "--tmax"),
    ([*ORDER_2X2, "--tmax", "-1", "--dt0", "0.25"], "--tmax"),
    ([*ORDER_2X2, "--tmax", "1", "--dt0", "inf"], "--dt0"),
    ([*ORDER_2X2, "--tmax", "1", "--dt0", "nan"], "--dt0"),
])
def test_step_sizes_and_horizons_must_be_positive_and_finite(capsys, argv, option):
    """A usage error (exit 2), not a numerical failure, a failed check or a table of inf."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {option}: must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    GECO1_RUN,
    ["order", "--model", "builtin:paper-2x2", "--scheme", "gbbks2", "--tmax", "1",
     "--dt0", "0.125", "--levels", "5"],
])
def test_stdout_matches_out_file(capsys, tmp_path, argv):
    """Printing a table and writing it with --out give the same bytes."""
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert main([*argv, "--out", str(path)]) == 0
    assert out.encode("utf-8") == path.read_bytes()
