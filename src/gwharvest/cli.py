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
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Mapping, Sequence

from . import closedform, oracle, sweep
from .model import (
    CONFIG_DEFAULTS,
    ConfigError,
    IncompleteGrid,
    InvalidCoupling,
    InvalidGeometry,
    params_from_mapping,
    read_config,
    validate,
)

_PARAM_FLAGS = ("A", "omega_sigma", "Omega_sigma", "D_sigma", "t0_sigma", "lambda")

def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    for name in _PARAM_FLAGS:
        parser.add_argument(
            f"--{name}",
            type=float,
            default=None,
            dest=name,
            metavar="X",
            help=f"{name} (default {CONFIG_DEFAULTS[name]:g})",
        )


def _merged_params(args: argparse.Namespace) -> dict[str, float]:
    values = dict(CONFIG_DEFAULTS)
    if args.config:
        values.update(read_config(args.config))
    for name in _PARAM_FLAGS:
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


def _build_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )

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
    p_fig.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )

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


def _emit_warnings(values: Mapping[str, float]) -> None:
    params = params_from_mapping(values)
    for warning in validate(params):
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_point(args: argparse.Namespace) -> int:
    values = _merged_params(args)
    _emit_warnings(values)
    report = closedform.evaluate(params_from_mapping(values))
    # The CSV's names and repr() formatting, so a printed value round-trips
    # to the identical double a one-point sweep writes.
    for name, value in zip(closedform.OBSERVABLES, report.as_row()):
        print(f"{name}={value!r}")
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if len(args.axis) > 2:
        raise ValueError(f"at most two --axis flags supported, got {len(args.axis)}")
    axes = [_parse_axis(a) for a in args.axis]
    values = _merged_params(args)
    axis_names = {ax.name for ax in axes}
    fixed = {k: v for k, v in values.items() if k not in axis_names}
    spec = sweep.GridSpec(
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        fixed=fixed,
    )
    _emit_warnings(values)
    points = sweep.run_grid(spec, workers=args.workers)
    sweep.emit_csv(points, args.output)
    failed = len(points) - points.status.count("ok")
    print(
        f"wrote {args.output}: {len(points)} points"
        + (f" ({failed} failed; see status column)" if failed else "")
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    out_dir = args.output or os.environ.get("GWHARVEST_OUTDIR") or "."
    csv_path, svg_path = sweep.build_figure(
        args.figure_id, out_dir, workers=args.workers
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
    except (ConfigError, InvalidGeometry, InvalidCoupling, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
