"""Parameter sweeps, figure presets, and CSV/SVG emission.

A sweep is defined by a GridSpec: one or two swept axes plus fixed values
for the remaining parameters.  run_grid evaluates every point row-major
(first axis outer, second inner) into a GridResult: parameters,
observables and one status per point.  Every grid has the same parameter
columns in one fixed order, the CSV's then lambda.  It never aborts on a
point failure — the error is recorded in that point's status — and is
deterministic: every point is a pure function of its parameters, so the
same grid produces byte-identical CSV output.

A grid is an outer product of its axes, and it stays one until its bytes
are written.  run_grid cuts it into blocks of at most _BLOCK points, each
whole rows of the second axis (the first axis as a (k, 1) column against
the second as a (1, n) row, fixed values 0-d) or, for a second axis
longer than _BLOCK, a run of one row.  One-axis grids over the same axis
values, as a line chart's curves, are one such product with a row per
grid.  closedform's array kernel computes each factor of a block at the
shape its own parameters span, so a value that depends only on the
first axis is computed once per row, and the GridResult keeps every
column at that shape.  A block's row of a point is non-finite exactly
where closedform.evaluate raises (or the point cannot be built, as for
an invalid lambda); such a block falls back to full shape, and the point
goes one by one through evaluate only for its status text, the name of
its failure.

emit_csv and emit_svg take a GridResult.  CSV rows carry the full
parameter tuple, every observable, and a status column; floats are
written as repr() writes them, Python's shortest round-trip decimal
form, by the array formatter in _shortest (repr itself only for inf, nan
and subnormals).  emit_csv formats each column of a block at its own
shape and broadcasts the text over the block's lines.  The file contains
exactly one header line plus one line per grid point — no comment or
metadata lines, so an N-point sweep is an (N+1)-line file.
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

import functools
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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

# Points per block.  A block is a broadcast product of its parameters,
# evaluated by one kernel call with each column at the shape it spans,
# and written as one byte buffer of CSV lines, each column formatted at
# its own shape.  The size bounds the kernel's temporaries (a few dozen
# arrays of at most this many points) and a block's byte buffer and mask
# (about 0.66 MB each at 20 columns of 32 bytes), whatever the grid size.
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


def _flat(columns, shape: tuple[int, ...]) -> np.ndarray:
    """Columns that broadcast to shape, as a (points, columns) array over
    its points row-major."""
    out = np.empty(shape + (len(columns),))
    for j, column in enumerate(columns):
        out[..., j] = column
    return out.reshape(-1, len(columns))


class _Block(NamedTuple):
    """A run of grid points, row-major over shape, as columns that
    broadcast to it: the _GRID_COLUMNS parameters and the
    closedform.OBSERVABLES, each at the shape it spans."""

    shape: tuple[int, ...]
    params: tuple
    values: tuple


@dataclass(frozen=True, eq=False, init=False)
class GridResult:
    """Evaluated grid points, held as blocks of columns.

    params[:, j] holds parameter _GRID_COLUMNS[j] of every point (the
    CSV's parameter columns, then lambda), values the
    closedform.OBSERVABLES of every point (nan where it failed) and status
    its status text.  len gives the number of points.

    run_grid keeps each block's columns at the shapes they span, so a
    value shared by a row or a whole block is held once; params and values
    are the full arrays, built on first use and read-only.  A result built
    from full arrays holds them as given, in blocks of _BLOCK points.
    """

    status: list[str]
    blocks: tuple[_Block, ...]

    def __init__(self, params=None, values=None, status=(), *, blocks=None):
        """A result of full arrays, params (N, len(_GRID_COLUMNS)) and
        values (N, len(OBSERVABLES)), or of blocks."""
        if blocks is None:
            blocks = tuple(
                _Block((min(_BLOCK, len(status) - i),), tuple(params[i : i + _BLOCK].T),
                       tuple(values[i : i + _BLOCK].T))
                for i in range(0, len(status), _BLOCK)
            )
            object.__setattr__(self, "params", params)
            object.__setattr__(self, "values", values)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "blocks", blocks)

    def _full(self, part: str) -> np.ndarray:
        out = np.concatenate(
            [_flat(getattr(block, part), block.shape) for block in self.blocks]
        )
        out.flags.writeable = False
        return out

    @functools.cached_property
    def params(self) -> np.ndarray:
        return self._full("params")

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._full("values")

    def __len__(self) -> int:
        return len(self.status)

    def column(self, name: str) -> np.ndarray:
        """One parameter or observable over all points."""
        if name in _GRID_COLUMNS:
            part, j = "params", _GRID_COLUMNS.index(name)
        else:
            part, j = "values", closedform.OBSERVABLES.index(name)
        return np.concatenate([
            np.broadcast_to(getattr(block, part)[j], block.shape).ravel()
            for block in self.blocks
        ])


# A block's parameters, in _GRID_COLUMNS order, and the shape they span.
_Params = tuple[tuple[np.ndarray, ...], tuple[int, int]]


def _product(
    axis: AxisSpec, rows: Mapping[str, np.ndarray], fixed: Mapping[str, float]
) -> Iterator[_Params]:
    """The blocks of a product grid: a row per entry of the rows' arrays
    (one row without rows), axis along each row.

    Each block is (params, shape): the _GRID_COLUMNS parameters as arrays
    that broadcast to shape = (row count, axis points), the axis as (1, n),
    each of rows as (k, 1), fixed values 0-d.  A block is as many whole
    rows as _BLOCK points hold, or, for an axis longer than _BLOCK, one
    row's run of _BLOCK points.
    """
    count = len(next(iter(rows.values()))) if rows else 1
    along = np.array(axis.values)
    step, width = max(1, _BLOCK // axis.count), min(axis.count, _BLOCK)
    for r in range(0, count, step):
        for c in range(0, axis.count, width):
            params = tuple(
                along[None, c : c + width] if name == axis.name
                else rows[name][r : r + step, None] if name in rows
                else np.array(fixed[name], dtype=float)
                for name in _GRID_COLUMNS
            )
            yield params, (min(step, count - r), min(width, axis.count - c))


def _blocks(grids: Sequence[GridSpec]) -> Iterator[_Params]:
    """The points of grids, grid by grid, as _product blocks.

    One-axis grids over the same axis values are one product, a row per
    grid with its parameters as (grids, 1) columns; a two-axis grid is a
    row per axis1 value.
    """
    bases = [{**CONFIG_DEFAULTS, **grid.fixed} for grid in grids]
    axis = grids[0].axis1
    if len(grids) > 1 and all(g.axis2 is None and g.axis1 == axis for g in grids):
        rows = {
            name: np.array([base[name] for base in bases], dtype=float)
            for name in _GRID_COLUMNS if name != axis.name
        }
        yield from _product(axis, rows, {})
        return
    for grid, base in zip(grids, bases):
        if grid.axis2 is None:
            yield from _product(grid.axis1, {}, base)
        else:
            rows = {grid.axis1.name: np.array(grid.axis1.values)}
            yield from _product(grid.axis2, rows, base)


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


def _evaluate(blocks: Iterator[_Params]) -> GridResult:
    """Observables and status of each point of the blocks.

    Each block goes through the array kernel at the shapes its parameters
    span, and only an invalid coupling, which is no kernel input, is
    masked.  A block with a point whose values are not finite falls back
    to full shape, and those points go one by one through the scalar
    evaluate, so their values and status are those `gwharvest point`
    gives: the kernel leaves a point non-finite exactly where evaluate
    raises.
    """
    done, status = [], []
    for params, shape in blocks:
        values = closedform._observable_columns(*params[: len(_PARAM_COLUMNS)])
        lam = params[-1]  # the coupling, last of _GRID_COLUMNS
        coupled = np.isfinite(lam) & (lam > 0.0)
        block_status = ["ok"] * math.prod(shape)
        if not (coupled.all() and all(np.isfinite(v).all() for v in values)):
            table = _flat(values, shape)
            table[~np.broadcast_to(coupled, shape).ravel()] = math.nan
            points = _flat(params, shape)
            for i in np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist():
                items = tuple(zip(_GRID_COLUMNS, points[i].tolist()))
                table[i], block_status[i] = _evaluate_point(items)
            values = tuple(column.reshape(shape) for column in table.T)
        done.append(_Block(shape, params, values))
        status += block_status
    return GridResult(status=status, blocks=tuple(done))


def run_grid(spec: GridSpec) -> GridResult:
    """Evaluate a grid row-major; failures are per-point, never fatal."""
    return _evaluate(_blocks([spec]))


# --- CSV -------------------------------------------------------------------


def _block_fields(block: _Block, out: np.ndarray) -> None:
    """Lay out the CSV float fields of a block's points in out, of shape
    block.shape + (CSV float columns, _shortest.WORDS).

    Every column is formatted at its own shape, all in one csv_fields
    call, and its words are broadcast over the block's points.
    """
    columns = [
        np.asarray(column, dtype=float)
        for column in block.params[: len(_PARAM_COLUMNS)] + block.values
    ]
    flat = np.concatenate([column.ravel() for column in columns])
    words = np.empty((len(flat), 1, _shortest.WORDS), np.uint64)
    _shortest.csv_fields(flat[:, None], words)
    at = 0
    for j, column in enumerate(columns):
        out[..., j, :] = words[at : at + column.size, 0].reshape(column.shape + (-1,))
        at += column.size


def emit_csv(points: GridResult, path: str) -> str:
    """Write a GridResult as CSV: header line plus one line per point.

    No comment or metadata lines are emitted, so the file always has
    exactly len(points) + 1 lines.  Floats are written as repr() writes
    them, the shortest decimal that round-trips to the identical double.
    Each block of points is laid out in one byte buffer: every float's
    field (_block_fields), then the line's status and newline, each
    zero-padded to a fixed width.  One mask keeps the text bytes, and the
    block is written as the bytes it keeps.
    """
    # Each distinct status once: its line's end in UTF-8, zero-padded to
    # whole words so that every line's float words stay aligned.
    statuses = {status: i for i, status in enumerate(dict.fromkeys(points.status))}
    ends = [f"{status}\n".encode() for status in statuses]
    width = 8 * -(-max(map(len, ends), default=0) // 8)
    end_text = _shortest.padded_words(ends, width // 8).view(np.uint8)
    line_end = np.array([statuses[status] for status in points.status], np.intp)

    # The CSV's float columns: every parameter but lambda, then the values.
    columns = len(_PARAM_COLUMNS) + len(_NAN_ROW)
    floats = columns * _shortest.WORDS * 8
    lines = max((math.prod(block.shape) for block in points.blocks), default=0)
    buffer = np.empty((lines, floats + width), np.uint8)
    keep = np.empty(buffer.shape, bool)
    start = 0
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for block in points.blocks:
            size = math.prod(block.shape)
            text, kept = buffer[:size], keep[:size]
            fields = text[:, :floats].view(np.uint64)
            _block_fields(block, fields.reshape(block.shape + (columns, -1)))
            text[:, floats:] = end_text[line_end[start : start + size]]
            # A status is "ok" or the text of an exception raised on float
            # parameters, written from their repr: it holds no NUL, and
            # UTF-8 writes no other character with a zero byte.  So the
            # zero bytes of a line are its padding, float fields and end
            # alike.
            np.not_equal(text, 0, out=kept)
            fh.write(text[kept])
            start += size
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
    return _evaluate(_blocks(preset.grids))


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


def _ramp_palette(t: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ramp's distinct "rgb(r,g,b)" fills over t, clamped to [0, 1],
    and the index of each t's fill among them.

    A nan t takes the first stop's color.  t falls in the segment of the
    first stop t1 with t <= t1, and each channel is a + u * (b - a) with
    u = (t - t0) / (t1 - t0), rounded half to even.
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
    return text, inverse


def _ramp_colors(t: np.ndarray) -> list[str]:
    """The ramp's fill at each t (_ramp_palette), each distinct color
    formatted once."""
    text, inverse = _ramp_palette(t)
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

    # Point k is cell (k // len(ys), k % len(ys)): the grid is row-major,
    # axis1 outer.  The larger axis2 value is toward the top.  A cell's
    # text is its column's, its row's and its fill's, each formatted once
    # and picked by index; the cells are one part of the document.
    columns = [f'<rect x="{ml + i * cw:.2f}" ' for i in range(len(xs))]
    rows = [
        f'y="{mt + (len(ys) - 1 - j) * ch:.2f}" width="{cw + 0.5:.2f}" '
        f'height="{ch + 0.5:.2f}" fill="'
        for j in range(len(ys))
    ]
    palette, fill = _ramp_palette((vals - vmin) / span)
    cells = np.empty((len(vals), 4), object)
    cells[:, 0] = np.repeat(np.array(columns, object), len(ys))
    cells[:, 1] = np.tile(np.array(rows, object), len(xs))
    cells[:, 2] = np.array([f'{color}"/>' for color in palette], object)[fill]
    cells[:, 3] = "\n"

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
    parts = ["".join(cells.ravel()[:-1].tolist())] + axes + bar
    return _svg_document(preset, canvas, grid.axis1, meta, parts)


def _svg_lines(preset: FigurePreset, points: GridResult) -> str:
    sizes = [g.axis1.count for g in preset.grids]
    _require_complete(points, sum(sizes))

    # Each grid's curve is the next run of points, in grid order.
    bounds = np.cumsum([0] + sizes).tolist()

    xaxis = preset.grids[0].axis1
    ys = points.column(preset.quantity)
    listed = ys.tolist()
    ymin, ymax = min(listed), max(listed)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    canvas = _LINES_CANVAS
    ml, mt, pw, ph = canvas.box
    x0, x1 = xaxis.minimum, xaxis.maximum

    # fx and fy take a float or, elementwise with the same bits, an array.
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
    # Every vertex at once through fx and fy, each x text formatted once
    # per axis value.
    xs, x_at = np.unique(points.column(xaxis.name), return_inverse=True)
    x_text = np.array([f"{x:.2f}," for x in fx(xs).tolist()], object)[x_at]
    y_text = list(map("{:.2f}".format, fy(ys).tolist()))
    vertices = list(map(operator.add, x_text.tolist(), y_text))
    legend = []
    for k, (start, end) in enumerate(zip(bounds, bounds[1:])):
        color = _LINE_COLORS[k % len(_LINE_COLORS)]
        coords = " ".join(vertices[start:end])
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
