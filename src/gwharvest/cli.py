"""Command-line interface.

Subcommands:

  point    evaluate one parameter point and print every observable
  sweep    evaluate a 1- or 2-axis grid and write a CSV file
  figure   run a figure preset, writing <id>.csv and <id>.svg
  verify   cross-check the closed forms against quadrature oracles

Parameter precedence, lowest to highest: built-in defaults, then a
--config file (key=value lines), then explicit command-line flags.

Exit codes: 0 on success, 1 on an internal or verification failure,
2 on a usage or validation error.  The only environment variable read
is GWHARVEST_OUTDIR, the default output directory for `figure`.

Only `verify` loads the quadrature oracle layer; it is imported on first
use, so the other commands start without it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from typing import Iterable, Sequence

from . import closedform, sweep
from .model import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    IncompleteGrid,
    InvalidCoupling,
    InvalidGeometry,
    ValidationWarning,
    params_from_mapping,
    read_config,
    validate,
)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    for name in CONFIG_KEYS:
        parser.add_argument(
            f"--{name}",
            type=float,
            default=None,
            dest=name,
            metavar="X",
            help=f"{name} (default {CONFIG_DEFAULTS[name]:g})",
        )


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="kept for compatibility, checked >= 1; evaluation runs in this "
        "process (default 1)",
    )


def _merged_params(args: argparse.Namespace) -> dict[str, float]:
    values = dict(CONFIG_DEFAULTS)
    if args.config:
        values.update(read_config(args.config))
    for name in CONFIG_KEYS:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    return values


def _parse_axis(text: str) -> sweep.AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad axis {text!r}: expected NAME:MIN:MAX:COUNT"
        )
    name, lo, hi, count = parts
    try:
        return sweep.AxisSpec(name, float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ValueError(f"bad axis {text!r}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gwharvest",
        description=(
            "Entanglement-harvesting observables for a pair of Gaussian-"
            "switched detectors in a gravitational-wave background."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser(
        "point", help="evaluate one parameter point and print the observables"
    )
    _add_param_flags(p_point)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate a parameter grid and write a CSV file"
    )
    _add_param_flags(p_sweep)
    p_sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME:MIN:MAX:COUNT",
        help="swept axis (repeat once more for a 2-axis grid)",
    )
    p_sweep.add_argument("-o", "--output", required=True, help="CSV output path")
    _add_workers_flag(p_sweep)

    p_fig = sub.add_parser(
        "figure", help="run a figure preset and write its CSV and SVG"
    )
    p_fig.add_argument(
        "figure_id",
        choices=sorted(sweep.PRESETS),
        help="which preset figure to build",
    )
    p_fig.add_argument(
        "-o",
        "--output",
        default=None,
        help="output directory (default: $GWHARVEST_OUTDIR or the current "
        "directory)",
    )
    _add_workers_flag(p_fig)

    p_verify = sub.add_parser(
        "verify",
        help="cross-check every closed form against quadrature oracles",
    )
    p_verify.add_argument(
        "--grid",
        choices=("default", "minimal"),
        default="default",
        help="verification grid size (default: default)",
    )

    return parser


def _print_warnings(warnings: Iterable[ValidationWarning]) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")


def _sweep_warnings(
    fixed: dict[str, float], axes: Sequence[sweep.AxisSpec]
) -> Iterable[ValidationWarning]:
    """Distinct soft-limit warnings over the corners of the swept range.

    The soft limits are thresholds on A, |Omega| and omega, so the axis
    endpoints decide them.  A corner that fails hard validation adds
    nothing: its grid points fail row by row.
    """
    warnings: dict[ValidationWarning, None] = {}
    names = [ax.name for ax in axes]
    for corner in itertools.product(*((ax.minimum, ax.maximum) for ax in axes)):
        try:
            params = params_from_mapping({**fixed, **dict(zip(names, corner))})
        except (InvalidGeometry, InvalidCoupling):
            continue
        warnings.update(dict.fromkeys(validate(params)))
    return warnings


def _cmd_point(args: argparse.Namespace) -> int:
    params = params_from_mapping(_merged_params(args))
    _print_warnings(validate(params))
    report = closedform.evaluate(params)
    # The CSV's names and repr() formatting, so a printed value round-trips
    # to the identical double a one-point sweep writes.
    for name, value in zip(closedform.OBSERVABLES, report.row):
        print(f"{name}={value!r}")
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if len(args.axis) > 2:
        raise ValueError(f"at most two --axis flags supported, got {len(args.axis)}")
    _check_workers(args.workers)
    axes = [_parse_axis(a) for a in args.axis]
    axis_names = {ax.name for ax in axes}
    fixed = {
        k: v for k, v in _merged_params(args).items() if k not in axis_names
    }
    spec = sweep.GridSpec(
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        fixed=fixed,
    )
    # Fixed values are checked whole; swept ones fail per point.
    params_from_mapping(fixed)
    _print_warnings(_sweep_warnings(fixed, axes))
    points = sweep.run_grid(spec)
    sweep.emit_csv(points, args.output)
    failed = len(points) - points.status.count("ok")
    print(
        f"wrote {args.output}: {len(points)} points"
        + (f" ({failed} failed; see status column)" if failed else "")
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    out_dir = args.output or os.environ.get("GWHARVEST_OUTDIR") or "."
    csv_path, svg_path = sweep.build_figure(args.figure_id, out_dir)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle  # no other command needs the oracle layer

    grid = oracle.MINIMAL_VERIFY_GRID if args.grid == "minimal" else None
    records = oracle.verify_suite(grid)
    for rec in records:
        tag = "PASS" if rec.passed else "FAIL"
        pstr = ", ".join(f"{k}={v:g}" for k, v in rec.params)
        line = (
            f"{tag} {rec.quantity:28s} [{pstr}] rel_err={rec.rel_error:.3e} "
            f"tol={rec.tolerance:.1e}"
        )
        if rec.note:
            line += f"  ({rec.note})"
        if not rec.converged:
            line += (
                "  oracle not converged "
                f"(error estimate {rec.oracle_error_estimate:.3e})"
            )
        print(line)
    n_fail = sum(1 for r in records if not r.passed)
    print(f"{len(records) - n_fail}/{len(records)} checks passed")
    return 0 if n_fail == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "point": _cmd_point,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except IncompleteGrid as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ConfigError, InvalidGeometry and InvalidCoupling are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
