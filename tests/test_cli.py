"""Tests for the command-line interface: parsing, precedence, exit codes."""

import dataclasses
import math
import struct

import pytest

from gwharvest import cli, sweep
from gwharvest.closedform import (
    OBSERVABLES,
    SMALL_OMEGA_CUTOFF,
    evaluate,
    transition_probability,
)
from gwharvest.model import params_from_mapping
from gwharvest.oracle import CheckRecord

FOUR_PI_INV = 1.0 / (4.0 * math.pi)


def _point_output(capsys):
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        name, _, value = line.partition("=")
        values[name] = float(value)
    return values


# --- argument handling -------------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_figure_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "fig9"])
    assert exc.value.code == 2


def _run(argv, capsys):
    """Exit code, stdout and stderr of one cli.main call."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_parser_is_built_once_and_serves_successive_commands(tmp_path, capsys):
    # The cached parser keeps no state between calls: each command prints
    # what it prints on a freshly built parser, in either order.
    csv = str(tmp_path / "scan.csv")
    two_axes = ["--axis", "D_sigma:0.5:2:3", "--axis", "Omega_sigma:0:1:2"]
    commands = [
        ["sweep", *two_axes, "-o", csv],
        ["point", "--Omega_sigma", "0.5", "--A", "0.15"],
        ["sweep", "--axis", "D_sigma:0.5:2:3", "-o", csv],
        ["--help"],
        ["sweep", "--help"],
    ]
    alone = []
    for argv in commands:
        cli._build_parser.cache_clear()
        alone.append(_run(argv, capsys))
    cli._build_parser.cache_clear()
    for argv, expected in zip(commands + commands[::-1], alone + alone[::-1]):
        assert _run(argv, capsys) == expected, argv
    assert cli._build_parser() is cli._build_parser()
    assert "usage: gwharvest" in alone[3][1] and "verify" in alone[3][1]


# --- point -------------------------------------------------------------------


def test_point_prints_all_observables(capsys):
    rc = cli.main(["point", "--Omega_sigma", "0"])
    assert rc == 0
    values = _point_output(capsys)
    assert list(values) == list(OBSERVABLES)
    assert abs(values["p_norm"] - FOUR_PI_INV) < 1e-15
    assert f"{values['p_norm']:.6g}" == "0.0795775"


@pytest.mark.parametrize("omega", [2.0, SMALL_OMEGA_CUTOFF / 2])
def test_point_prints_the_report_row_bit_for_bit(omega, capsys):
    m = {"A": 0.05, "omega_sigma": omega, "Omega_sigma": -0.7, "D_sigma": 1.3,
         "t0_sigma": 0.4}
    assert cli.main(["point", *(f"--{k}={v!r}" for k, v in m.items())]) == 0
    printed = _point_output(capsys)
    row = evaluate(params_from_mapping(m)).row
    assert list(printed) == list(OBSERVABLES)
    assert [struct.pack("<d", v) for v in printed.values()] == [
        struct.pack("<d", v) for v in row
    ]


def test_point_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# detector gap\nOmega_sigma = 2.0\n")
    rc = cli.main(["point", "--config", str(cfg)])
    assert rc == 0
    assert _point_output(capsys)["p_norm"] == transition_probability(2.0)

    rc = cli.main(["point", "--config", str(cfg), "--Omega_sigma", "0"])
    assert rc == 0
    assert abs(_point_output(capsys)["p_norm"] - FOUR_PI_INV) < 1e-15


def test_point_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Omega_squiggle = 1\n")
    assert cli.main(["point", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_point_config_with_a_duplicated_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("A = 0.1\nA = 0.2\n")
    assert cli.main(["point", "--config", str(cfg)]) == 2
    assert "'A' is already set on line 1" in capsys.readouterr().err


def test_point_emits_validation_warnings_to_stderr(capsys):
    rc = cli.main(["point", "--A", "0.15"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning: AmplitudeBeyondLinearRegime" in err


def test_point_outside_first_order_validity_prints_its_flag(capsys):
    # |x_m| ~ e^{-Omega^2} is below FIRST_ORDER_XM_FLOOR at Omega = 5.4 but
    # far above the degenerate floor: the point evaluates, flagged.
    assert cli.main(["point", "--Omega_sigma", "5.4"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == len(OBSERVABLES)
    assert "flag: outside first-order validity" in captured.err.splitlines()


def test_point_degenerate_parameters_exit_usage_error(capsys):
    # |x_m| underflows at a huge gap: the input's fault, not the program's.
    assert cli.main(["point", "--Omega_sigma", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # After the soft-limit warning on the gap.
    assert captured.err.splitlines()[-1].startswith("error: |x_m| = 0 at Omega=30")


def test_point_non_finite_observables_exit_usage_error(capsys):
    # Finite but extreme: the arithmetic overflows; no number is printed.
    argv = ["point", "--D_sigma", "1e100", "--omega_sigma", "1e-4", "--A", "0.05"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite re_x_gw, ")


@pytest.mark.parametrize(
    "argv, error",
    [
        # D^2 underflows to zero and divides, above and below the
        # small-omega cutoff, and at a subnormal D.
        (["--D_sigma", "1e-170"], "ZeroDivisionError"),
        (["--D_sigma", "1e-320"], "ZeroDivisionError"),
        (["--D_sigma", "1e-200", "--omega_sigma", "1e-4"], "ZeroDivisionError"),
        # omega^2 overflows.
        (["--omega_sigma", "1e155"], "OverflowError"),
        (["--omega_sigma", "1e308"], "OverflowError"),
        # Omega*D overflows to inf, whose sine the math library rejects.
        (["--Omega_sigma", "1.9", "--D_sigma", "1e308"], "ValueError"),
    ],
)
def test_point_out_of_float_range_exits_usage_error(argv, error, capsys):
    # A closed form that raises an ArithmeticError, or a ValueError from the
    # math library, has met an input out of floating-point range: the
    # input's fault, not the program's.
    assert cli.main(["point", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error} at omega=")


def test_point_at_a_vast_separation_exits_usage_error(capsys):
    # At D = 1e200, |x_m| ~ e^{-Omega^2}/(2 pi D^2) underflows to 0.
    assert cli.main(["point", "--D_sigma", "1e200", "--A", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |x_m| = 0 ")


@pytest.mark.parametrize(
    "flag",
    ["--A=nan", "--Omega_sigma=nan", "--omega_sigma=inf", "--D_sigma=inf",
     "--t0_sigma=inf", "--lambda=-inf"],
)
def test_non_finite_parameter_is_usage_error(flag, tmp_path, capsys):
    name = flag[2:].split("=")[0]
    assert cli.main(["point", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: parameter '{name}' must be finite" in captured.err
    out = tmp_path / "scan.csv"
    axis = "D_sigma:0.5:1:3" if name == "Omega_sigma" else "Omega_sigma:0:1:3"
    argv = ["sweep", "--axis", axis, flag, "-o", str(out)]
    assert cli.main(argv) == 2
    assert f"parameter '{name}' must be finite" in capsys.readouterr().err
    assert not out.exists()


# --- sweep -------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(
        ["sweep", "--axis", "omega_sigma:0.2:8:101", "--A", "0.05",
         "-o", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 102  # header + 101 points
    assert "wrote" in capsys.readouterr().out


def test_sweep_reports_failed_points(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["sweep", "--axis", "D_sigma:-1:1:3", "-o", str(out)])
    assert rc == 0
    assert "(2 failed; see status column)" in capsys.readouterr().out


def test_sweep_row_fails_where_point_exits_usage_error(tmp_path, capsys):
    # The envelope's (omega - 2 Omega) ** 2 overflows: each row's status is
    # the error `gwharvest point` prints there, commas written as ";".
    out = tmp_path / "scan.csv"
    argv = ["sweep", "--axis", "omega_sigma:1e155:2e155:2", "-o", str(out)]
    assert cli.main(argv) == 0
    assert "(2 failed; see status column)" in capsys.readouterr().out
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    for row, omega in zip(rows, ("1e155", "2e155")):
        assert cli.main(["point", "--omega_sigma", omega]) == 2
        error = capsys.readouterr().err.strip().removeprefix("error: ")
        assert error.startswith("OverflowError at omega=")
        assert row.rsplit(",", 1)[1] == "DomainTooLarge: " + error.replace(",", ";")


def test_sweep_checks_fixed_values_not_swept_flag_values(tmp_path, capsys):
    # A flag for a swept key is overridden by the axis, so it is not checked.
    out = tmp_path / "scan.csv"
    argv = ["sweep", "--axis", "D_sigma:0.5:2:4", "--D_sigma=-1", "-o", str(out)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "4 points" in captured.out
    assert "failed" not in captured.out
    assert captured.err == ""
    # A bad fixed value is still a usage error.
    argv = ["sweep", "--axis", "A:0:0.3:4", "--D_sigma=-1", "-o", str(out)]
    assert cli.main(argv) == 2
    assert "error: D/sigma must be > 0, got -1.0" in capsys.readouterr().err


def test_sweep_warns_over_the_swept_range(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["sweep", "--axis", "A:0:0.3:4", "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("warning: AmplitudeBeyondLinearRegime") == 1
    assert "A = 0.3 exceeds" in err
    # Each distinct warning once, whichever corners of the plane give it
    # (|Omega| = 3 at two corners, A = -0.1 at two).
    rc = cli.main(["sweep", "--axis", "Omega_sigma:-3:3:5",
                   "--axis", "A:-0.1:0.05:3", "-o", str(out)])
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1].strip() for line in lines] == [
        "AmplitudeNegative", "GapBeyondFirstOrderValidity",
    ]


def test_sweep_corner_failing_validation_adds_no_warning(tmp_path, capsys):
    # Every grid point has D <= 0: the rows fail, and no corner is valid.
    out = tmp_path / "scan.csv"
    rc = cli.main(["sweep", "--axis", "D_sigma:-2:-1:3", "--A", "0.3",
                   "-o", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "(3 failed; see status column)" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(workers, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["sweep", "--axis", "A:0:0.1:3", "--workers", workers, "-o", str(out)]
    assert cli.main(argv) == 2
    assert f"error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()
    argv = ["figure", "fig2", "--workers", workers, "-o", str(tmp_path / "f")]
    assert cli.main(argv) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_sweep_rejects_three_axes(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--axis", "omega_sigma:1:2:3", "--axis", "D_sigma:1:2:3",
         "--axis", "Omega_sigma:1:2:3", "-o", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "at most two" in capsys.readouterr().err


def test_sweep_rejects_malformed_axis(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "omega_sigma:0:8",
                   "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "expected NAME:MIN:MAX:COUNT" in capsys.readouterr().err
    rc = cli.main(["sweep", "--axis", "sigma:0:1:5",
                   "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = cli.main(["sweep", "--axis", "omega_sigma:0:inf:5",
                   "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sweep_unwritable_output_is_usage_error(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--axis", "omega_sigma:1:2:3",
         "-o", str(tmp_path / "no" / "such" / "dir" / "x.csv")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --- figure ------------------------------------------------------------------


def test_figure_writes_into_output_dir(tmp_path, capsys):
    rc = cli.main(["figure", "fig2", "-o", str(tmp_path / "figs")])
    assert rc == 0
    assert (tmp_path / "figs" / "fig2.csv").exists()
    assert (tmp_path / "figs" / "fig2.svg").exists()
    out = capsys.readouterr().out
    assert out.count("wrote") == 2


def test_figure_honors_outdir_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GWHARVEST_OUTDIR", str(tmp_path))
    rc = cli.main(["figure", "fig2"])
    assert rc == 0
    assert (tmp_path / "fig2.csv").exists()
    assert (tmp_path / "fig2.svg").exists()


def test_figure_with_a_failed_grid_point_is_internal_error(tmp_path, monkeypatch, capsys):
    # A preset's points never fail; if one did, the figure is refused.
    real_run_preset = sweep.run_preset

    def one_failed(preset):
        points = real_run_preset(preset)
        status = ["DomainTooLarge: planted"] + points.status[1:]
        return dataclasses.replace(points, status=status)

    monkeypatch.setattr(sweep, "run_preset", one_failed)
    assert cli.main(["figure", "fig2", "-o", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: 1 of 808 grid points failed; first: DomainTooLarge: planted\n"
    )
    assert not (tmp_path / "fig2.svg").exists()


# --- verify ------------------------------------------------------------------


def test_verify_minimal_grid_passes(capsys):
    rc = cli.main(["verify", "--grid", "minimal"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_verify_failure_exits_nonzero(monkeypatch, capsys):
    bad = CheckRecord(
        quantity="transition_probability",
        params=(("Omega_sigma", 1.0),),
        value=1.0,
        reference=2.0,
        abs_error=1.0,
        rel_error=0.5,
        tolerance=1e-5,
        passed=False,
        oracle_error_estimate=1e-9,
        note="",
    )
    monkeypatch.setattr("gwharvest.oracle.verify_suite", lambda grid=None: [bad])
    rc = cli.main(["verify"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "0/1 checks passed" in out


def test_verify_prints_no_reason_for_a_converged_fail(monkeypatch, capsys):
    bad = CheckRecord(
        quantity="transition_probability",
        params=(("Omega_sigma", 1.0),),
        value=1.0,
        reference=2.0,
        abs_error=1.0,
        rel_error=0.5,
        tolerance=1e-5,
        passed=False,
        oracle_error_estimate=1e-9,
    )
    monkeypatch.setattr("gwharvest.oracle.verify_suite", lambda grid=None: [bad])
    assert cli.main(["verify"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.endswith("rel_err=5.000e-01 tol=1.0e-05")


def test_verify_names_an_unconverged_oracle_on_its_fail_lines(monkeypatch, capsys):
    # Below what the quadratures reach (I1-I4 and P at this point), their
    # records fail with a relative error inside tolerance; each such line
    # says why.  Every
    # other line is printed as without the patch, byte for byte.
    assert cli.main(["verify", "--grid", "minimal"]) == 0
    plain = capsys.readouterr().out.splitlines()
    monkeypatch.setattr("gwharvest.oracle._FINE_TOL", 1e-14)
    assert cli.main(["verify", "--grid", "minimal"]) == 1
    patched = capsys.readouterr().out.splitlines()
    assert len(patched) == len(plain)
    unconverged = 0
    for before, after in zip(plain[:-1], patched[:-1]):
        if after.startswith("PASS "):
            assert after == before
            continue
        assert before.startswith("PASS ")
        prefix = "FAIL" + before[len("PASS"):]
        assert after.startswith(prefix)
        reason = after[len(prefix):]
        assert reason.startswith("  oracle not converged (error estimate ")
        assert reason.endswith(")")
        assert float(reason.split("estimate ")[1][:-1]) > 1e-14
        unconverged += 1
    assert unconverged >= 2  # integral_I1 and integral_I3 at least
