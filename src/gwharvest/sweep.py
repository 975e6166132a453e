"""Parameter sweeps, figure presets, and CSV/SVG emission.

A sweep is defined by a GridSpec: one or two swept axes plus fixed values
for the remaining parameters.  run_grid evaluates every point row-major
(first axis outer, second inner) into a GridResult, a set of columns:
parameters, observables and one status per point.  Every grid has the
same parameter columns in one fixed order, the CSV's then lambda.  It
never aborts on a point failure — the error is recorded in that point's
status — and is deterministic: every point is a pure function of its
parameters, so the same grid produces byte-identical CSV output.  Every
point, small omega and invalid parameters included, is evaluated as
arrays by closedform.evaluate_arrays.  Its row is non-finite exactly
where closedform.evaluate raises (or the point cannot be built, as for
an invalid lambda), so such a point goes one by one through evaluate
only for its status text, the name of its failure.

emit_csv and emit_svg take a GridResult.  CSV rows carry the full
parameter tuple, every observable, and a status column; floats are
written as repr() writes them, Python's shortest round-trip decimal
form, by the array formatter in _shortest (repr itself only for zeros,
inf, nan and subnormals).  The file contains exactly one header line plus
one line per grid point — no comment or metadata lines, so an N-point
sweep is an (N+1)-line file.
Figure metadata lives in the SVG output as XML comments.

A FigurePreset's chart kind follows its grids: one two-axis grid is a
heatmap, one-axis grids over one axis a line chart with a curve per grid.
Both kinds share one SVG document, frame-and-ticks and axis-label writer.
The presets reproduce the package's reference plots:

  fig1a  concurrence/lambda^2 heatmap over (Omega, D), flat spacetime
  fig1b  same heatmap with a GW background (A=0.05), t0=0
  fig1c  same with t0=1
  fig2   theta_gw vs omega, curves over Omega and D panels, t0=0
  fig3   same as fig2 with t0=1
  fig4   psi_gw vs omega, curves over Omega and D panels, t0=0
  fig5   same as fig4 with t0=1
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import _shortest, closedform
from .model import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    IncompleteGrid,
    params_from_mapping,
)

__all__ = [
    "AXIS_NAMES",
    "CSV_HEADER",
    "AxisSpec",
    "GridSpec",
    "GridResult",
    "FigurePreset",
    "PRESETS",
    "run_grid",
    "run_preset",
    "emit_csv",
    "emit_svg",
    "build_figure",
]

# Every parameter but the coupling, which only scales the normalized outputs.
AXIS_NAMES = tuple(key for key in CONFIG_KEYS if key != "lambda")

# The parameter columns of the CSV, also the argument order of
# closedform.evaluate_arrays.
_PARAM_COLUMNS = ("omega_sigma", "Omega_sigma", "D_sigma", "t0_sigma", "A")

# The parameter columns of every grid: the CSV's, then the coupling.
_GRID_COLUMNS = _PARAM_COLUMNS + ("lambda",)

CSV_HEADER = ",".join(_PARAM_COLUMNS + closedform.OBSERVABLES + ("status",))

# Points per evaluate_arrays call and per block of CSV lines: bounds the
# kernel's temporaries (a few dozen arrays of this length) and a block's
# byte buffer and mask (about 1.2 MB each at 20 columns of 56 bytes),
# whatever the grid size.
_BLOCK = 1024

_NAN_ROW = (math.nan,) * len(closedform.OBSERVABLES)


@dataclass(frozen=True)
class AxisSpec:
    """One swept axis: an inclusive linear range with at least two points."""

    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(
                f"unknown axis {self.name!r} (axes: {', '.join(AXIS_NAMES)})"
            )
        if self.count < 2:
            raise ValueError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if not self.minimum < self.maximum:
            raise ValueError(
                f"axis {self.name}: need min < max, got {self.minimum!r} "
                f">= {self.maximum!r}"
            )
        if not math.isfinite(self.maximum - self.minimum):
            raise ValueError(
                f"axis {self.name}: need a finite range, got {self.minimum!r} "
                f"to {self.maximum!r}"
            )

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(
            float(v) for v in np.linspace(self.minimum, self.maximum, self.count)
        )


@dataclass(frozen=True)
class GridSpec:
    """One or two swept axes plus fixed values for everything else.

    Missing fixed parameters take their model.CONFIG_DEFAULTS values.
    """

    axis1: AxisSpec
    axis2: AxisSpec | None = None
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        axis_names = {self.axis1.name}
        if self.axis2 is not None:
            if self.axis2.name == self.axis1.name:
                raise ValueError(f"both axes sweep {self.axis1.name!r}")
            axis_names.add(self.axis2.name)
        for key in self.fixed:
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if key in axis_names:
                raise ValueError(f"{key!r} is both swept and fixed")

    def columns(self) -> np.ndarray:
        """The points' parameters as an (N, len(_GRID_COLUMNS)) array,
        column j holding _GRID_COLUMNS[j], row-major (axis1 outer)."""
        base = {**CONFIG_DEFAULTS, **self.fixed}
        inner = self.axis2.count if self.axis2 is not None else 1
        params = np.empty((self.axis1.count * inner, len(_GRID_COLUMNS)))
        params[:] = [base[name] for name in _GRID_COLUMNS]
        params[:, _GRID_COLUMNS.index(self.axis1.name)] = np.repeat(
            self.axis1.values, inner
        )
        if self.axis2 is not None:
            params[:, _GRID_COLUMNS.index(self.axis2.name)] = np.tile(
                self.axis2.values, self.axis1.count
            )
        return params

@dataclass(frozen=True, eq=False)
class GridResult:
    """Evaluated grid points, held as columns.

    params[:, j] holds parameter _GRID_COLUMNS[j] of every point (the
    CSV's parameter columns, then lambda), values the
    closedform.OBSERVABLES of every point (nan where it failed) and status
    its status text.  len gives the number of points.
    """

    params: np.ndarray
    values: np.ndarray
    status: list[str]

    def __len__(self) -> int:
        return len(self.status)

    def column(self, name: str) -> np.ndarray:
        """One parameter or observable over all points."""
        if name in _GRID_COLUMNS:
            return self.params[:, _GRID_COLUMNS.index(name)]
        return self.values[:, closedform.OBSERVABLES.index(name)]


def _evaluate_point(
    items: tuple[tuple[str, float], ...]
) -> tuple[tuple[float, ...], str]:
    """Scalar evaluation of one point: (observables, status).

    An error lands in the status and leaves the observables nan.
    """
    try:
        report = closedform.evaluate(params_from_mapping(dict(items)))
    except Exception as exc:
        status = f"{type(exc).__name__}: {exc}".replace(",", ";")
        return _NAN_ROW, " ".join(status.split())
    return report.row, "ok"


def _evaluate(params: np.ndarray) -> GridResult:
    """Observables and status of each point (row) of params.

    Every point goes through evaluate_arrays, _BLOCK at a time, and only
    an invalid coupling, which is no kernel input, is masked.  Points
    whose row is not finite go one by one through the scalar evaluate, so
    their values and status are those `gwharvest point` gives:
    evaluate_arrays leaves a row non-finite exactly where evaluate raises.
    """
    values = np.empty((len(params), len(_NAN_ROW)))
    for start in range(0, len(params), _BLOCK):
        block = params[start : start + _BLOCK, : len(_PARAM_COLUMNS)]
        values[start : start + _BLOCK] = closedform.evaluate_arrays(*block.T)
    lam = params[:, -1]  # the coupling, last of _GRID_COLUMNS
    values[~(np.isfinite(lam) & (lam > 0.0))] = math.nan
    status = ["ok"] * len(params)
    for i in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
        items = tuple(zip(_GRID_COLUMNS, params[i].tolist()))
        values[i], status[i] = _evaluate_point(items)
    return GridResult(params, values, status)


def run_grid(spec: GridSpec) -> GridResult:
    """Evaluate a grid row-major; failures are per-point, never fatal."""
    return _evaluate(spec.columns())


# --- CSV -------------------------------------------------------------------


def emit_csv(points: GridResult, path: str) -> str:
    """Write a GridResult as CSV: header line plus one line per point.

    No comment or metadata lines are emitted, so the file always has
    exactly len(points) + 1 lines.  Floats are written as repr() writes
    them, the shortest decimal that round-trips to the identical double.
    Each block of _BLOCK lines is laid out in one byte buffer: every
    float's field (_shortest.csv_fields), then the line's status and
    newline, each zero-padded to a fixed width.  One mask keeps the text
    bytes, and the block is written as the bytes it keeps.
    """
    # Each distinct status once: its line's end in UTF-8, zero-padded to
    # whole words so that every line's float words stay aligned.
    statuses = {status: i for i, status in enumerate(dict.fromkeys(points.status))}
    ends = [f"{status}\n".encode() for status in statuses]
    width = 8 * -(-max(map(len, ends), default=0) // 8)
    end_text = _shortest.padded_words(ends, width // 8).view(np.uint8)
    end_len = np.array([len(end) for end in ends], np.intp)
    line_end = np.array([statuses[status] for status in points.status], np.intp)

    # The CSV's float columns: every parameter but lambda, then the values.
    params = points.params[:, : len(_PARAM_COLUMNS)]
    floats = (len(_PARAM_COLUMNS) + len(_NAN_ROW)) * _shortest.WORDS * 8
    lines = min(_BLOCK, len(points))
    buffer = np.empty((lines, floats + width), np.uint8)
    keep = np.empty(buffer.shape, bool)
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for start in range(0, len(points), _BLOCK):
            rows = slice(start, start + _BLOCK)
            block = np.hstack((params[rows], points.values[rows]))
            text, kept = buffer[: len(block)], keep[: len(block)]
            _shortest.csv_fields(
                block,
                text[:, :floats].view(np.uint64).reshape(block.shape + (-1,)),
            )
            np.not_equal(text[:, :floats], 0, out=kept[:, :floats])
            end = line_end[rows]
            text[:, floats:] = end_text[end]
            np.less(np.arange(width), end_len[end, None], out=kept[:, floats:])
            fh.write(text[kept])
    return path


# --- figure presets ---------------------------------------------------------


@dataclass(frozen=True)
class FigurePreset:
    """A reference figure: grids to run and the observable to plot.

    The chart kind follows the grids: one two-axis grid is a heatmap, and
    one-axis grids over one axis (same name, minimum and maximum) are a
    line chart with one curve per grid.  Any other shape, or a quantity
    not in closedform.OBSERVABLES, raises ValueError.
    """

    figure_id: str
    quantity: str  # closedform.OBSERVABLES entry to plot
    grids: tuple[GridSpec, ...]
    description: str

    def __post_init__(self) -> None:
        x_axes = {(g.axis1.name, g.axis1.minimum, g.axis1.maximum) for g in self.grids}
        if self.quantity not in closedform.OBSERVABLES:
            problem = f"unknown quantity {self.quantity!r}"
        elif len(x_axes) != 1:
            problem = "its grids must sweep one axis (same name, minimum, maximum)"
        elif len(self.grids) > 1 and any(g.axis2 is not None for g in self.grids):
            problem = "a heatmap is exactly one two-axis grid"
        else:
            return
        raise ValueError(f"preset {self.figure_id!r}: {problem}")

    @property
    def kind(self) -> str:
        """The chart kind, "heatmap" or "lines", read from the grids."""
        return "lines" if self.grids[0].axis2 is None else "heatmap"


def _fig1_grid(A: float, t0: float) -> GridSpec:
    return GridSpec(
        axis1=AxisSpec("Omega_sigma", -2.0, 2.0, 61),
        axis2=AxisSpec("D_sigma", 0.25, 4.0, 61),
        fixed={"omega_sigma": 2.0, "t0_sigma": t0, "A": A},
    )


_LINE_OMEGAS = (0.5, 1.0, 1.5, 2.0)
_LINE_DS = (0.5, 2.0)


def _line_grids(t0: float) -> tuple[GridSpec, ...]:
    return tuple(
        GridSpec(
            axis1=AxisSpec("omega_sigma", 0.2, 8.0, 101),
            fixed={"Omega_sigma": Om, "D_sigma": D, "t0_sigma": t0, "A": 0.05},
        )
        for D in _LINE_DS
        for Om in _LINE_OMEGAS
    )


PRESETS: dict[str, FigurePreset] = {
    preset.figure_id: preset
    for preset in (
        FigurePreset("fig1a", "concurrence", (_fig1_grid(A=0.0, t0=0.0),),
                     "concurrence per lambda^2 over (Omega, D), flat spacetime"),
        FigurePreset("fig1b", "concurrence", (_fig1_grid(A=0.05, t0=0.0),),
                     "concurrence per lambda^2 over (Omega, D), GW background, t0=0"),
        FigurePreset("fig1c", "concurrence", (_fig1_grid(A=0.05, t0=1.0),),
                     "concurrence per lambda^2 over (Omega, D), GW background, t0=1"),
        FigurePreset("fig2", "theta_gw", _line_grids(t0=0.0),
                     "GW shift of |X| per unit strain vs omega, t0=0"),
        FigurePreset("fig3", "theta_gw", _line_grids(t0=1.0),
                     "GW shift of |X| per unit strain vs omega, t0=1"),
        FigurePreset("fig4", "psi_gw", _line_grids(t0=0.0), "GW shift of the "
                     "correlation function per unit strain vs omega, t0=0"),
        FigurePreset("fig5", "psi_gw", _line_grids(t0=1.0), "GW shift of the "
                     "correlation function per unit strain vs omega, t0=1"),
    )
}


def run_preset(preset: FigurePreset) -> GridResult:
    """Run every grid of a preset, the points concatenated in grid order."""
    return _evaluate(np.concatenate([grid.columns() for grid in preset.grids]))


# --- SVG -------------------------------------------------------------------

# Dark-blue -> teal -> yellow perceptual ramp (anchor stops).
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

_LINE_COLORS = ("#4053d3", "#ddb310", "#b51d14", "#00beff",
                "#fb49b0", "#00b25d", "#cacaca", "#5d5d5d")


_RAMP_T = np.array([t for t, _ in _RAMP])
_RAMP_RGB = np.array([rgb for _, rgb in _RAMP], dtype=float)


def _ramp_colors(t: np.ndarray) -> list[str]:
    """The ramp's "rgb(r,g,b)" fill at each t, clamped to [0, 1].

    A nan t takes the first stop's color.  t falls in the segment of the
    first stop t1 with t <= t1, and each channel is a + u * (b - a) with
    u = (t - t0) / (t1 - t0), rounded half to even.  Each distinct color
    is formatted once.
    """
    t = np.clip(np.nan_to_num(np.asarray(t, dtype=float), nan=0.0), 0.0, 1.0)
    k = np.searchsorted(_RAMP_T[1:], t)
    t0, t1 = _RAMP_T[k], _RAMP_T[k + 1]
    a, b = _RAMP_RGB[k], _RAMP_RGB[k + 1]
    u = ((t - t0) / (t1 - t0))[:, None]
    rgb = np.rint(a + u * (b - a)).astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    distinct, inverse = np.unique(packed, return_inverse=True)
    text = [f"rgb({c >> 16},{(c >> 8) & 255},{c & 255})" for c in distinct.tolist()]
    return [text[i] for i in inverse.tolist()]


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """Round tick locations covering [lo, hi], where lo < hi.

    Tick k is first + k * step, not the previous tick plus step, so ticks
    do not drift, and spread over the range even where step is below its
    float spacing (near 1e16).  A tick rounded to zero is +0, never -0.
    """
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    count = math.floor((hi - first) / step + 1e-9) + 1
    return [round(first + k * step, 12) + 0.0 for k in range(count)]


def _fmt(v: float) -> str:
    return f"{v:g}"


def _require_complete(points: GridResult, expected: int) -> None:
    if len(points) != expected:
        raise IncompleteGrid(f"expected {expected} grid points, got {len(points)}")
    bad = [status for status in points.status if status != "ok"]
    if bad:
        raise IncompleteGrid(
            f"{len(bad)} of {len(points)} grid points failed; first: {bad[0]}"
        )


class _Canvas(NamedTuple):
    """A chart's size, its plot box (left, top, width, height), the
    baseline of its title and the column of its y-axis label."""

    width: int
    height: int
    box: tuple[int, int, int, int]
    title_y: int
    ylabel_x: int


# Margins (left, right, top, bottom): heatmap 80, 140 (color bar), 50, 70;
# line chart 90, 210 (legend), 40, 70.
_HEATMAP_CANVAS = _Canvas(860, 640, (80, 50, 640, 520), title_y=28, ylabel_x=22)
_LINES_CANVAS = _Canvas(860, 600, (90, 40, 560, 490), title_y=24, ylabel_x=26)


def _svg_document(
    preset: FigurePreset,
    canvas: _Canvas,
    xaxis: AxisSpec,
    meta: str,
    parts: list[str],
) -> str:
    """The standalone SVG: metadata comment, background, title, parts."""
    w, h = canvas.width, canvas.height
    ml, _, pw, _ = canvas.box
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h}" viewBox="0 0 {w} {h}">\n'
        f"<!-- figure={preset.figure_id} kind={preset.kind} "
        f"quantity={preset.quantity} x={xaxis.name}[{_fmt(xaxis.minimum)}.."
        f"{_fmt(xaxis.maximum)} n={xaxis.count}] {meta} -->\n"
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<text x="{ml + pw / 2:.2f}" y="{canvas.title_y}" text-anchor="middle" '
        f'font-size="15">{preset.description}</text>\n'
        + "\n".join(parts)
        + "\n</svg>\n"
    )


def _svg_frame(
    canvas: _Canvas,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    fx: Callable[[float], float],
    fy: Callable[[float], float],
) -> list[str]:
    """The plot frame and its ticks, placed by the chart's fx and fy."""
    ml, mt, pw, ph = canvas.box
    parts = [
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>'
    ]
    for t in _ticks(*x_range):
        x = fx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
            f'y2="{mt + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-size="12">{_fmt(t)}</text>'
        )
    for t in _ticks(*y_range):
        y = fy(t)
        parts.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
            f'stroke="#333"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">{_fmt(t)}</text>'
        )
    return parts


def _svg_axis_labels(canvas: _Canvas, xlabel: str, ylabel: str) -> list[str]:
    ml, mt, pw, ph = canvas.box
    mid_x, mid_y, lx = ml + pw / 2, mt + ph / 2, canvas.ylabel_x
    return [
        f'<text x="{mid_x:.2f}" y="{canvas.height - 25}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="{lx}" y="{mid_y:.2f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 {lx} {mid_y:.2f})">'
        f"{ylabel}</text>",
    ]


def _svg_heatmap(preset: FigurePreset, points: GridResult) -> str:
    grid = preset.grids[0]
    xs = grid.axis1.values
    ys = grid.axis2.values
    _require_complete(points, len(xs) * len(ys))

    vals = points.column(preset.quantity)
    # Python's min and max keep the first of equal extremes, which fixes
    # the sign of a zero color-bar label.
    listed = vals.tolist()
    vmin, vmax = min(listed), max(listed)
    span = vmax - vmin if vmax > vmin else 1.0

    canvas = _HEATMAP_CANVAS
    ml, mt, pw, ph = canvas.box
    cw, ch = pw / len(xs), ph / len(ys)

    # Point k is cell (i, j): the grid is row-major, axis1 outer, as
    # product() pairs them.  The larger axis2 value is toward the top.
    columns = [f'<rect x="{ml + i * cw:.2f}" ' for i in range(len(xs))]
    rows = [
        f'y="{mt + (len(ys) - 1 - j) * ch:.2f}" width="{cw + 0.5:.2f}" '
        f'height="{ch + 0.5:.2f}" fill="'
        for j in range(len(ys))
    ]
    fills = _ramp_colors((vals - vmin) / span)
    cells = [
        f'{x}{y}{fill}"/>' for (x, y), fill in zip(product(columns, rows), fills)
    ]

    def fx(t: float) -> float:
        return ml + (t - xs[0]) / (xs[-1] - xs[0]) * pw

    def fy(t: float) -> float:
        return mt + ph - (t - ys[0]) / (ys[-1] - ys[0]) * ph

    axes = _svg_frame(canvas, (xs[0], xs[-1]), (ys[0], ys[-1]), fx, fy)
    axes += _svg_axis_labels(canvas, grid.axis1.name, grid.axis2.name)

    # Color bar.
    bx, bw_ = ml + pw + 30, 22
    nseg = 64
    bar = [
        f'<rect x="{bx}" y="{mt + ph - (k + 1) * ph / nseg:.2f}" width="{bw_}" '
        f'height="{ph / nseg + 0.5:.2f}" fill="{fill}"/>'
        for k, fill in enumerate(_ramp_colors((np.arange(nseg) + 0.5) / nseg))
    ]
    bar.append(
        f'<rect x="{bx}" y="{mt}" width="{bw_}" height="{ph}" fill="none" '
        f'stroke="#333"/>'
    )
    for frac, val in ((0.0, vmin), (0.5, (vmin + vmax) / 2), (1.0, vmax)):
        yy = mt + ph - frac * ph
        bar.append(
            f'<text x="{bx + bw_ + 6}" y="{yy + 4:.2f}" font-size="11">'
            f"{val:.3g}</text>"
        )
    bar.append(
        f'<text x="{bx + bw_ / 2:.2f}" y="{mt - 10}" text-anchor="middle" '
        f'font-size="12">{preset.quantity}</text>'
    )

    meta = (
        f"y={grid.axis2.name}[{_fmt(ys[0])}..{_fmt(ys[-1])} n={len(ys)}] "
        f"fixed={dict(sorted(grid.fixed.items()))!r}"
    )
    return _svg_document(preset, canvas, grid.axis1, meta, cells + axes + bar)


def _svg_lines(preset: FigurePreset, points: GridResult) -> str:
    sizes = [g.axis1.count for g in preset.grids]
    _require_complete(points, sum(sizes))

    # Each grid's curve is the next run of points, in grid order.
    bounds = np.cumsum([0] + sizes).tolist()

    xaxis = preset.grids[0].axis1
    all_x = points.column(xaxis.name).tolist()
    all_y = points.column(preset.quantity).tolist()
    ymin, ymax = min(all_y), max(all_y)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    canvas = _LINES_CANVAS
    ml, mt, pw, ph = canvas.box
    x0, x1 = xaxis.minimum, xaxis.maximum

    def fx(v: float) -> float:
        return ml + (v - x0) / (x1 - x0) * pw

    def fy(v: float) -> float:
        return mt + (ymax - v) / (ymax - ymin) * ph

    body = _svg_frame(canvas, (x0, x1), (ymin, ymax), fx, fy)
    if ymin < 0.0 < ymax:
        body.append(
            f'<line x1="{ml}" y1="{fy(0.0):.2f}" x2="{ml + pw}" '
            f'y2="{fy(0.0):.2f}" stroke="#999" stroke-dasharray="4 4"/>'
        )

    # Each curve is labelled by the Omega and D of its first point,
    # except the one the curves sweep.
    labelled = [
        (short, points.column(name).tolist())
        for short, name in (("Omega", "Omega_sigma"), ("D", "D_sigma"))
        if name != xaxis.name
    ]
    legend = []
    for k, (start, end) in enumerate(zip(bounds, bounds[1:])):
        color = _LINE_COLORS[k % len(_LINE_COLORS)]
        coords = " ".join(
            f"{fx(x):.2f},{fy(y):.2f}"
            for x, y in zip(all_x[start:end], all_y[start:end])
        )
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        label = ", ".join(f"{short}={_fmt(col[start])}" for short, col in labelled)
        ly = mt + 16 + 18 * k
        legend.append(
            f'<line x1="{ml + pw + 14}" y1="{ly - 4}" x2="{ml + pw + 40}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>'
        )
        legend.append(
            f'<text x="{ml + pw + 46}" y="{ly}" font-size="12">{label}</text>'
        )

    body += _svg_axis_labels(canvas, xaxis.name, preset.quantity)
    t0 = points.column("t0_sigma")[0]
    meta = f"curves={len(sizes)} t0_sigma={_fmt(t0)}"
    return _svg_document(preset, canvas, xaxis, meta, body + legend)


def emit_svg(preset: FigurePreset, points: GridResult, path: str) -> str:
    """Render a preset's GridResult to a standalone SVG file.

    Heatmap for a two-axis grid, line chart for one-axis grids.
    Raises IncompleteGrid if any point is missing or failed: a partial
    figure would silently misrepresent the grid.  The figure is rendered
    before path is opened, so a failure leaves path as it was.
    """
    render = _svg_heatmap if preset.kind == "heatmap" else _svg_lines
    text = render(preset, points)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def build_figure(figure_id: str, out_dir: str) -> tuple[str, str]:
    """Run a preset end to end: evaluate, write CSV and SVG, return paths."""
    if figure_id not in PRESETS:
        raise ValueError(
            f"unknown figure {figure_id!r} (have: {', '.join(sorted(PRESETS))})"
        )
    preset = PRESETS[figure_id]
    points = run_preset(preset)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{figure_id}.csv")
    svg_path = os.path.join(out_dir, f"{figure_id}.svg")
    emit_csv(points, csv_path)
    emit_svg(preset, points, svg_path)
    return csv_path, svg_path
