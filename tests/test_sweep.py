"""Tests for grid sweeps, CSV emission, figure presets, and SVG rendering."""

import contextlib
import dataclasses
import math
import re
import signal
from itertools import product

import numpy as np
import pytest

from gwharvest import cli, closedform, sweep
from gwharvest.model import CONFIG_DEFAULTS, IncompleteGrid, params_from_mapping
from gwharvest.sweep import (
    CSV_HEADER,
    PRESETS,
    AxisSpec,
    FigurePreset,
    GridResult,
    GridSpec,
    build_figure,
    emit_csv,
    emit_svg,
    run_grid,
    run_preset,
)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- axis and grid specs -----------------------------------------------------


def test_axis_values_are_linspace():
    ax = AxisSpec("omega_sigma", 0.0, 1.0, 5)
    assert ax.values == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert ax.values == tuple(np.linspace(0.0, 1.0, 5))


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("not_a_parameter", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        AxisSpec("D_sigma", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        AxisSpec("D_sigma", 2.0, 1.0, 5)
    # linspace over an infinite or overflowing range yields nan and inf.
    with pytest.raises(ValueError, match="finite range"):
        AxisSpec("A", 0.0, math.inf, 3)
    with pytest.raises(ValueError, match="finite range"):
        AxisSpec("D_sigma", -1e308, 1e308, 3)


def test_grid_validation():
    ax = AxisSpec("D_sigma", 0.5, 2.0, 3)
    with pytest.raises(ValueError, match="both axes sweep"):
        GridSpec(axis1=ax, axis2=AxisSpec("D_sigma", 1.0, 2.0, 3))
    with pytest.raises(ValueError, match="unknown fixed parameter"):
        GridSpec(axis1=ax, fixed={"sigma": 1.0})
    with pytest.raises(ValueError, match="both swept and fixed"):
        GridSpec(axis1=ax, fixed={"D_sigma": 1.0})


def test_point_values_row_major_with_defaults():
    spec = GridSpec(
        axis1=AxisSpec("Omega_sigma", 0.0, 1.0, 2),
        axis2=AxisSpec("D_sigma", 1.0, 2.0, 3),
        fixed={"A": 0.05},
    )
    params = _grid_points([spec])
    assert params.shape == (6, len(sweep._GRID_COLUMNS))
    pts = [dict(zip(sweep._GRID_COLUMNS, row)) for row in params.tolist()]
    first = pts[0]
    # Unswept, unfixed parameters take the library defaults.
    assert first["omega_sigma"] == 2.0
    assert first["t0_sigma"] == 0.0
    assert first["A"] == 0.05
    assert first["lambda"] == 1.0
    # axis1 is the outer loop, axis2 the inner one.
    coords = [(p["Omega_sigma"], p["D_sigma"]) for p in pts]
    assert coords == [
        (0.0, 1.0), (0.0, 1.5), (0.0, 2.0),
        (1.0, 1.0), (1.0, 1.5), (1.0, 2.0),
    ]


# --- run_grid ----------------------------------------------------------------


def test_run_grid_captures_per_point_failures():
    # D <= 0 is invalid geometry: those points must fail in isolation
    # while the rest of the grid evaluates.
    spec = GridSpec(axis1=AxisSpec("D_sigma", -1.0, 1.0, 3))
    pts = run_grid(spec)
    assert [status == "ok" for status in pts.status] == [False, False, True]
    for status, row in zip(pts.status[:2], pts.values[:2]):
        assert np.isnan(row).all()
        assert status.startswith("InvalidGeometry")
        assert "," not in status  # status must stay a single CSV field
        assert "\n" not in status
    assert np.isfinite(pts.values[2]).all()
    assert pts.status[2] == "ok"


def _parallel_spec():
    # 5 x 7 = 35 points.  The D <= 0 column fails, so failed rows are in the
    # file too.
    return GridSpec(
        axis1=AxisSpec("Omega_sigma", 0.2, 1.4, 5),
        axis2=AxisSpec("D_sigma", -0.5, 2.5, 7),
        fixed={"A": 0.05, "omega_sigma": 2.0},
    )


def test_workers_flag_leaves_sweep_and_figure_bytes_unchanged(tmp_path):
    spec = _parallel_spec()
    sweep_argv = ["sweep"]
    for ax in (spec.axis1, spec.axis2):
        sweep_argv += ["--axis", f"{ax.name}:{ax.minimum!r}:{ax.maximum!r}:{ax.count}"]
    for key, value in spec.fixed.items():
        sweep_argv.append(f"--{key}={value!r}")
    expected = _read(emit_csv(run_grid(spec), str(tmp_path / "lib.csv")))
    assert "InvalidGeometry" in expected
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        path = str(out / "scan.csv")
        out.mkdir()
        assert cli.main(sweep_argv + ["-o", path, "--workers", workers]) == 0
        assert _read(path) == expected
        assert cli.main(["figure", "fig2", "-o", str(out), "--workers", workers]) == 0
        for name in ("fig2.csv", "fig2.svg"):
            assert (out / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


def _scalar_point(items):
    """(observables, status) of one point through the scalar evaluate."""
    try:
        rep = closedform.evaluate(params_from_mapping(dict(items)))
    except Exception as exc:
        status = f"{type(exc).__name__}: {exc}".replace(",", ";")
        return (math.nan,) * 15, " ".join(status.split())
    return rep.row, "ok"


# Invalid D, omega below SMALL_OMEGA_CUTOFF and ordinary points; then gaps
# where |x_m| ~ e^{-Omega^2} is outside first-order validity (24), below
# DEGENERATE_XM_FLOOR but not zero (27: the kernel's arithmetic gives a
# finite row, which it must not report), and zero (30); the last two raise
# DegenerateDirection.  Last, valid points at which the closed forms
# themselves fail, below the small-omega cutoff (omega = 1e-4) and inside
# the array kernel's domain (omega = 1e308).
MIXED_GRIDS = [
    GridSpec(
        axis1=AxisSpec("omega_sigma", 0.0, 0.003, 4),
        axis2=AxisSpec("D_sigma", -1.0, 2.0, 4),
        fixed={"A": 0.05, "t0_sigma": 0.5},
    ),
    GridSpec(axis1=AxisSpec("Omega_sigma", 24.0, 30.0, 3), fixed={"A": 0.05}),
    GridSpec(
        axis1=AxisSpec("omega_sigma", 1e-4, 1e308, 2),
        axis2=AxisSpec("D_sigma", 1e-170, 2.0, 2),
        fixed={"A": 0.05},
    ),
    # At D = 1e100 below the cutoff the kernel row is non-finite, and so
    # is evaluate's.
    GridSpec(
        axis1=AxisSpec("D_sigma", 1.0, 1e100, 2),
        fixed={"A": 0.05, "omega_sigma": 1e-4},
    ),
    # A point that evaluates, two with a degenerate |x_m|, and one whose
    # Omega*D overflows to inf, whose sine the math library rejects.
    GridSpec(
        axis1=AxisSpec("Omega_sigma", 1.0, 1e155, 2),
        axis2=AxisSpec("D_sigma", 1.0, 1e155, 2),
        fixed={"A": 0.05},
    ),
    # The envelope's (omega - 2 Omega) ** 2 overflows from omega = 1.3e154,
    # where numpy's pow gives inf and e^{-inf} a finite row.
    GridSpec(axis1=AxisSpec("omega_sigma", 2.0, 1e155, 2), fixed={"A": 0.05}),
]


@pytest.mark.parametrize("spec", MIXED_GRIDS)
def test_run_grid_matches_pointwise_scalar_evaluation(spec):
    pts = run_grid(spec)
    params = _grid_points([spec])
    assert len(pts) == len(params)
    np.testing.assert_array_equal(pts.params, params)
    for got, got_status, point in zip(
        pts.values.tolist(), pts.status, params.tolist()
    ):
        row, status = _scalar_point(zip(sweep._GRID_COLUMNS, point))
        assert got_status == status
        for a, b in zip(got, row):
            if math.isnan(b):
                assert math.isnan(a)
            else:
                assert abs(a - b) <= 1e-12 * abs(b) + 1e-15
    assert len({status.split(":")[0] for status in pts.status}) >= 2


@pytest.mark.parametrize(
    "spec, index, error",
    [
        # (omega, D) = (1e-4, 1e-170): 1/(4 D^2 pi^{3/2}) divides by the
        # zero D^2 underflows to.
        pytest.param(MIXED_GRIDS[2], 0, ZeroDivisionError, id="0-ZeroDivisionError"),
        # (omega, D) = (1e308, 2): (omega - 2 Omega) ** 2 in the envelope
        # overflows before any sine of omega D/2 = inf is taken.
        pytest.param(MIXED_GRIDS[2], 3, OverflowError, id="3-OverflowError"),
        # (Omega, D) = (1e155, 1e155): math.sin of Omega*D = inf raises
        # ValueError, which evaluate must not pass on unnamed.
        pytest.param(MIXED_GRIDS[4], 3, ValueError, id="3-ValueError"),
        # omega = 1e155: the envelope's first ** overflows.
        pytest.param(MIXED_GRIDS[5], 1, OverflowError, id="1-OverflowError"),
    ],
)
def test_closed_form_failures_keep_their_exception_class(spec, index, error):
    # The point is out of floating-point range, an input error: evaluate
    # raises DomainTooLarge from the arithmetic's own exception, and the
    # status names both classes.
    point = dict(zip(sweep._GRID_COLUMNS, _grid_points([spec])[index].tolist()))
    with pytest.raises(closedform.DomainTooLarge) as raised:
        closedform.evaluate(params_from_mapping(point))
    assert type(raised.value.__cause__) is error
    status = run_grid(spec).status[index]
    assert status.startswith(f"DomainTooLarge: {error.__name__} at omega=")


def test_non_finite_row_fails_with_a_named_status():
    pts = run_grid(MIXED_GRIDS[3])
    assert pts.status[0] == "ok"
    assert pts.status[1].startswith("DomainTooLarge: non-finite re_x_gw; im_x_gw; ")
    assert np.isnan(pts.values[1]).all()


def test_run_grid_evaluates_only_fallback_points_one_by_one(monkeypatch):
    calls = {"params": 0, "evaluate": 0}
    real_params, real_evaluate = sweep.params_from_mapping, closedform.evaluate

    def counted_params(values):
        calls["params"] += 1
        return real_params(values)

    def counted_evaluate(params):
        calls["evaluate"] += 1
        return real_evaluate(params)

    monkeypatch.setattr(sweep, "params_from_mapping", counted_params)
    monkeypatch.setattr(closedform, "evaluate", counted_evaluate)
    # 16 points: omega in {0, 0.001, 0.002, 0.003} x D in {-1, 0, 1, 2}.
    # D <= 0 fails validation (8 points, no evaluate call).  The other 8
    # points take the array kernel, omega = 0 below the cutoff included.
    pts = run_grid(MIXED_GRIDS[0])
    assert pts.status.count("ok") == 8
    assert calls == {"params": 8, "evaluate": 0}
    # Only the two degenerate gaps fall back on the second grid.
    calls.update(params=0, evaluate=0)
    run_grid(MIXED_GRIDS[1])
    assert calls == {"params": 2, "evaluate": 2}


def test_non_finite_kernel_row_at_an_evaluable_point_keeps_evaluate(monkeypatch):
    # Were the kernel to leave a row non-finite at a point evaluate accepts,
    # the sweep would report evaluate's values, not a failure.
    real_columns = closedform._observable_columns

    def spoiled(*args):
        columns = list(real_columns(*args))
        k = closedform.OBSERVABLES.index("theta_gw")
        columns[k] = np.array(np.broadcast_to(columns[k], (1, 3)))
        columns[k][0, 1] = math.nan
        return tuple(columns)

    monkeypatch.setattr(closedform, "_observable_columns", spoiled)
    spec = GridSpec(axis1=AxisSpec("D_sigma", 0.5, 2.0, 3), fixed={"A": 0.05})
    pts = run_grid(spec)
    assert pts.status == ["ok"] * 3
    point = dict(zip(sweep._GRID_COLUMNS, pts.params[1].tolist()))
    expected = closedform.evaluate(params_from_mapping(point))
    assert pts.values[1].tolist() == list(expected.row)


def test_run_grid_reports_non_finite_parameters_per_point():
    spec = GridSpec(axis1=AxisSpec("D_sigma", 0.5, 1.0, 3), fixed={"A": math.nan})
    pts = run_grid(spec)
    assert pts.status == ["ConfigError: parameter 'A' must be finite (got nan)"] * 3
    assert np.isnan(pts.values).all()


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_run_grid_rejects_the_couplings_a_point_rejects(lam):
    spec = GridSpec(AxisSpec("D_sigma", 0.5, 2.0, 3), fixed={"lambda": lam})
    pts = run_grid(spec)
    for row, status in zip(_grid_points([spec]).tolist(), pts.status):
        items = tuple(zip(sweep._GRID_COLUMNS, row))
        assert status == sweep._evaluate_point(items)[1] != "ok"
    assert np.isnan(pts.values).all()


def test_grid_result_sequence_behaviour():
    spec = GridSpec(axis1=AxisSpec("D_sigma", -1.0, 2.0, 4), fixed={"A": 0.05})
    pts = run_grid(spec)
    assert isinstance(pts, GridResult)
    assert len(pts) == 4
    assert pts.column("D_sigma")[-1] == 2.0
    point = dict(zip(sweep._GRID_COLUMNS, pts.params[3].tolist()))
    expected = closedform.evaluate(params_from_mapping(point))
    assert pts.values[3].tolist() == list(expected.row)
    assert pts.status[0] != "ok"
    assert np.isnan(pts.values[0]).all()


# --- CSV ---------------------------------------------------------------------


def test_emit_csv_shape_and_roundtrip(tmp_path):
    spec = GridSpec(axis1=AxisSpec("omega_sigma", 0.5, 2.0, 4),
                    fixed={"A": 0.05})
    pts = run_grid(spec)
    path = emit_csv(pts, str(tmp_path / "grid.csv"))
    text = _read(path)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # header + one line per point, nothing else
    assert text.endswith("\n") and not text.endswith("\n\n")
    header = lines[0].split(",")
    assert len(header) == 21
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 21
        assert fields[-1] == "ok"
        # Every numeric field round-trips through float exactly.
        for name, field in zip(header[:-1], fields[:-1]):
            float(field)
    # repr round-trip: re-parsing and re-repring reproduces the text.
    row = lines[1].split(",")
    assert repr(float(row[5])) == row[5]


def test_emit_csv_failed_points_are_nan(tmp_path):
    spec = GridSpec(axis1=AxisSpec("D_sigma", -1.0, 1.0, 3))
    path = emit_csv(run_grid(spec), str(tmp_path / "bad.csv"))
    lines = _read(path).splitlines()
    bad = lines[1].split(",")
    assert bad[5:20] == ["nan"] * 15
    assert bad[20].startswith("InvalidGeometry")
    good = lines[3].split(",")
    assert good[20] == "ok"
    assert not math.isnan(float(good[5]))


def _plain_csv(points):
    """The CSV text emit_csv must write, one repr() per float."""
    table = np.column_stack(
        [points.column(name) for name in sweep._PARAM_COLUMNS] + [points.values]
    )
    lines = [CSV_HEADER]
    for row, status in zip(table.tolist(), points.status):
        lines.append(",".join(map(repr, row)) + "," + status)
    return "\n".join(lines) + "\n"


def _grid_result(params_by_name, values, status):
    n = len(status)
    params = np.column_stack(
        [params_by_name.get(name, np.ones(n)) for name in sweep._GRID_COLUMNS]
    )
    return GridResult(params, np.asarray(values, dtype=float), status)


def test_emit_csv_keeps_negative_zero_apart_from_zero(tmp_path):
    # -0.0 == 0.0, so a value-keyed deduplication would print one of them
    # for both.
    n = 6
    signed = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])
    values = np.tile(signed[:, None], (1, len(closedform.OBSERVABLES)))
    values[:, 3] = [1.5, -0.0, 1.5, 0.0, -1.5, -0.0]
    points = _grid_result(
        {"omega_sigma": signed, "Omega_sigma": np.full(n, 1.0),
         "D_sigma": np.full(n, 2.0), "t0_sigma": -signed, "A": np.full(n, 0.05)},
        values, ["ok"] * n,
    )
    text = _read(emit_csv(points, str(tmp_path / "zeros.csv")))
    assert text == _plain_csv(points)
    assert text.splitlines()[2].startswith("-0.0,1.0,2.0,0.0,")


def test_emit_csv_writes_failed_rows_as_plain_nan(tmp_path):
    points = run_grid(GridSpec(axis1=AxisSpec("D_sigma", -1.0, 1.0, 5),
                               axis2=AxisSpec("A", 0.0, 0.1, 3)))
    assert 0 < points.status.count("ok") < len(points)
    # A nan of another bit pattern (sign set) prints as nan too.  A result
    # of run_grid is read-only, so the spoiled one is built from copies.
    values = points.values.copy()
    values[0, 0] = -math.nan
    points = GridResult(points.params.copy(), values, points.status)
    assert np.signbit(points.values[0, 0])
    text = _read(emit_csv(points, str(tmp_path / "failed.csv")))
    assert text == _plain_csv(points)
    # Subnormal parameters, which repr formats itself, on failed rows.
    points = run_grid(GridSpec(axis1=AxisSpec("D_sigma", 1e-310, 1e-300, 2)))
    assert "ok" not in points.status
    text = _read(emit_csv(points, str(tmp_path / "subnormal.csv")))
    assert text == _plain_csv(points)
    assert text.splitlines()[1].split(",")[2] == "1e-310"


def test_emit_csv_repeats_straddle_block_boundaries(tmp_path):
    # Runs of equal values cross the line blocks at 1024 and 2048, and
    # each block must format them as a row-by-row writer would.
    n = 2 * sweep._BLOCK + 300
    k = np.arange(n)
    rng = np.random.default_rng(17)
    values = rng.standard_normal((n, len(closedform.OBSERVABLES)))
    values[:, ::2] = (k[:, None] // 37) * 0.1
    values[sweep._BLOCK - 5 : sweep._BLOCK + 5, 1] = 1.0 / 3.0
    points = _grid_result(
        {"omega_sigma": 0.2 + (k // 50) * 0.01, "Omega_sigma": (k % 7) * 0.3,
         "D_sigma": np.full(n, 1.0), "t0_sigma": rng.choice([0.0, -0.0, 0.1], n),
         "A": np.full(n, 0.05)},
        values, ["ok" if i % 11 else "failed" for i in range(n)],
    )
    text = _read(emit_csv(points, str(tmp_path / "long.csv")))
    assert text == _plain_csv(points)


def _grid_points(grids):
    """The _GRID_COLUMNS of each grid's points in order, built point by
    point, axis1 outer."""
    rows = []
    for grid in grids:
        axes = [ax for ax in (grid.axis1, grid.axis2) if ax is not None]
        for values in product(*(ax.values for ax in axes)):
            point = {**CONFIG_DEFAULTS, **grid.fixed,
                     **dict(zip((ax.name for ax in axes), values))}
            rows.append([point[name] for name in sweep._GRID_COLUMNS])
    return np.array(rows)


def _check_layout(points, grids, tmp_path):
    # Every point has its own parameters, evaluate's bits and status, and
    # the CSV is what a plain writer makes of them.
    params = _grid_points(grids)
    assert points.params.tobytes() == params.tobytes()
    for row, status, point in zip(points.values, points.status, params.tolist()):
        expected, expected_status = _scalar_point(zip(sweep._GRID_COLUMNS, point))
        assert status == expected_status
        assert row.tobytes() == np.array(expected).tobytes(), point
    text = _read(emit_csv(points, str(tmp_path / "layout.csv")))
    assert text == _plain_csv(points)


def test_emit_csv_two_axis_block_layouts(tmp_path):
    n = sweep._BLOCK
    grids = [
        # A second axis longer than a block: runs of one row, omega = 0
        # below the small-omega cutoff.
        GridSpec(AxisSpec("Omega_sigma", -1.0, 1.0, 2),
                 AxisSpec("omega_sigma", 0.0, 3.0, n + 40),
                 {"A": 0.05, "t0_sigma": 1.0}),
        # A second axis that does not divide a block: whole rows, the last
        # block shorter.
        GridSpec(AxisSpec("D_sigma", 0.25, 4.0, 5),
                 AxisSpec("Omega_sigma", -2.0, 2.0, n // 3 + 1), {"A": 0.05}),
        # Failed points inside shaped blocks: D <= 0, and a degenerate
        # |x_m| at Omega = 30.
        GridSpec(AxisSpec("Omega_sigma", 1.0, 30.0, 3),
                 AxisSpec("D_sigma", -0.5, 2.0, 6), {"A": 0.05}),
    ]
    for grid in grids:
        _check_layout(run_grid(grid), [grid], tmp_path)


def test_emit_csv_line_preset_layouts(tmp_path):
    n = sweep._BLOCK // 3 + 1
    curves = ((0.5, 0.5), (1.0, -1.0), (1.5, 2.0), (30.0, 1.0))
    # Curves over the same axis values are one product, a few curves per
    # block; one fails as a whole (D < 0), one at a degenerate |x_m|.
    shared = tuple(
        GridSpec(AxisSpec("omega_sigma", 0.0, 8.0, n),
                 fixed={"Omega_sigma": Om, "D_sigma": D, "t0_sigma": 1.0, "A": 0.05})
        for Om, D in curves
    )
    # Curves over different axis values are evaluated grid by grid.
    apart = (
        GridSpec(AxisSpec("omega_sigma", 0.0, 8.0, 5),
                 fixed={"Omega_sigma": 1.0, "D_sigma": 0.5, "A": 0.05}),
        GridSpec(AxisSpec("omega_sigma", 0.0, 8.0, 7),
                 fixed={"Omega_sigma": -1.5, "D_sigma": 2.0, "t0_sigma": 1.0}),
    )
    for grids in (shared, apart):
        preset = FigurePreset("layout", "theta_gw", grids, "layout")
        _check_layout(run_preset(preset), grids, tmp_path)


def test_presets_evaluate_as_products():
    # A heatmap is whole rows of D against Omega rows, a line preset one
    # (curves, omega) block; values that depend only on a row stay one
    # column per row.
    heatmap = run_preset(PRESETS["fig1a"])
    assert [block.shape for block in heatmap.blocks] == [(16, 61)] * 3 + [(13, 61)]
    lines = run_preset(PRESETS["fig2"])
    assert [block.shape for block in lines.blocks] == [(8, 101)]
    p_norm = closedform.OBSERVABLES.index("p_norm")
    assert np.shape(heatmap.blocks[0].values[p_norm]) == (16, 1)
    assert np.shape(lines.blocks[0].values[p_norm]) == (8, 1)


@pytest.mark.parametrize(
    "test",
    [test_emit_csv_writes_failed_rows_as_plain_nan,
     test_emit_csv_repeats_straddle_block_boundaries,
     test_emit_csv_two_axis_block_layouts,
     test_emit_csv_line_preset_layouts],
    ids=lambda test: test.__name__,
)
def test_emit_csv_blocks_of_seven_lines(test, tmp_path, monkeypatch):
    # Many blocks, the last one shorter (15 = 7 + 7 + 1 and 314 = 44 * 7 +
    # 6 lines), each laid out in the buffer the first one sized; a second
    # axis of 47 points in runs of 7, one of 3 points two rows a block,
    # and line presets of one or two curves a block.
    monkeypatch.setattr(sweep, "_BLOCK", 7)
    test(tmp_path)


@pytest.mark.parametrize("figure_id", sorted(PRESETS))
def test_emit_csv_matches_a_plain_writer_on_every_preset(figure_id, tmp_path):
    points = run_preset(PRESETS[figure_id])
    text = _read(emit_csv(points, str(tmp_path / f"{figure_id}.csv")))
    assert text == _plain_csv(points)


# --- presets -----------------------------------------------------------------


def test_preset_catalog_structure():
    assert sorted(PRESETS) == ["fig1a", "fig1b", "fig1c", "fig2", "fig3",
                               "fig4", "fig5"]
    for fid, preset in PRESETS.items():
        assert preset.figure_id == fid
    for fid in ("fig1a", "fig1b", "fig1c"):
        p = PRESETS[fid]
        assert p.kind == "heatmap"
        assert p.quantity == "concurrence"
        assert len(p.grids) == 1
        g = p.grids[0]
        assert (g.axis1.name, g.axis1.count) == ("Omega_sigma", 61)
        assert (g.axis2.name, g.axis2.count) == ("D_sigma", 61)
        assert g.fixed["omega_sigma"] == 2.0
    assert PRESETS["fig1a"].grids[0].fixed["A"] == 0.0
    assert PRESETS["fig1b"].grids[0].fixed["A"] == 0.05
    assert PRESETS["fig1b"].grids[0].fixed["t0_sigma"] == 0.0
    assert PRESETS["fig1c"].grids[0].fixed["t0_sigma"] == 1.0
    for fid, quantity, t0 in [("fig2", "theta_gw", 0.0),
                              ("fig3", "theta_gw", 1.0),
                              ("fig4", "psi_gw", 0.0),
                              ("fig5", "psi_gw", 1.0)]:
        p = PRESETS[fid]
        assert p.kind == "lines"
        assert p.quantity == quantity
        assert len(p.grids) == 8  # D in {0.5, 2} x Omega in {0.5, 1, 1.5, 2}
        for g in p.grids:
            assert (g.axis1.name, g.axis1.count) == ("omega_sigma", 101)
            assert g.axis2 is None
            assert g.fixed["t0_sigma"] == t0
            assert g.fixed["A"] == 0.05
        assert sorted({g.fixed["D_sigma"] for g in p.grids}) == [0.5, 2.0]
        assert sorted({g.fixed["Omega_sigma"] for g in p.grids}) == [
            0.5, 1.0, 1.5, 2.0]


# --- SVG ---------------------------------------------------------------------


def _tiny_heatmap_preset():
    grid = GridSpec(
        axis1=AxisSpec("Omega_sigma", 0.5, 1.0, 3),
        axis2=AxisSpec("D_sigma", 0.5, 1.0, 4),
        fixed={"A": 0.05},
    )
    return FigurePreset("tiny", "concurrence", (grid,), "test grid")


def test_emit_svg_heatmap(tmp_path):
    preset = _tiny_heatmap_preset()
    pts = run_preset(preset)
    path = emit_svg(preset, pts, str(tmp_path / "tiny.svg"))
    text = _read(path)
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<!-- figure=tiny kind=heatmap" in text
    assert text.count("<rect") >= 12  # one cell per grid point
    assert "Omega_sigma" in text and "D_sigma" in text
    # Deterministic output: no timestamps, identical on re-render.
    again = emit_svg(preset, pts, str(tmp_path / "tiny2.svg"))
    assert _read(again) == text


def test_emit_svg_lines(tmp_path):
    preset = FigurePreset(
        "tinyline",
        "theta_gw",
        (
            GridSpec(axis1=AxisSpec("omega_sigma", 0.5, 4.0, 8),
                     fixed={"Omega_sigma": 1.0, "D_sigma": 1.0, "A": 0.05}),
            GridSpec(axis1=AxisSpec("omega_sigma", 0.5, 4.0, 8),
                     fixed={"Omega_sigma": 1.5, "D_sigma": 1.0, "A": 0.05}),
        ),
        "test lines",
    )
    pts = run_preset(preset)
    path = emit_svg(preset, pts, str(tmp_path / "lines.svg"))
    text = _read(path)
    assert text.count("<polyline") == 2
    assert "Omega=1, D=1" in text
    assert "Omega=1.5, D=1" in text
    assert "<!-- figure=tinyline kind=lines" in text


def test_emit_svg_lines_draws_each_grid_as_one_curve(tmp_path):
    # fig2 concatenates eight omega grids; each must be its own polyline
    # spanning the plot from left (x = 90) to right (x = 650).
    preset = PRESETS["fig2"]
    path = emit_svg(preset, run_preset(preset), str(tmp_path / "fig2.svg"))
    curves = re.findall(r'<polyline points="([^"]*)"', _read(path))
    assert len(curves) == len(preset.grids)
    for grid, coords in zip(preset.grids, curves):
        xs = [pair.split(",")[0] for pair in coords.split()]
        assert len(xs) == grid.axis1.count
        assert (xs[0], xs[-1]) == ("90.00", "650.00")
        assert all(a < b for a, b in zip(map(float, xs), map(float, xs[1:])))


def test_emit_svg_rejects_incomplete_grids(tmp_path):
    preset = _tiny_heatmap_preset()
    pts = run_preset(preset)
    short = GridResult(pts.params[:-1], pts.values[:-1], pts.status[:-1])
    with pytest.raises(IncompleteGrid):
        emit_svg(preset, short, str(tmp_path / "x.svg"))
    # The figure is drawn before its file is opened: a failure creates no
    # file, and leaves an existing one as it was.
    assert not (tmp_path / "x.svg").exists()
    good = emit_svg(preset, pts, str(tmp_path / "good.svg"))
    before = _read(good)
    with pytest.raises(IncompleteGrid):
        emit_svg(preset, short, good)
    assert _read(good) == before
    # A failed point is as fatal as a missing one.
    bad_grid = GridSpec(
        axis1=AxisSpec("Omega_sigma", 0.5, 1.0, 3),
        axis2=AxisSpec("D_sigma", -0.5, 1.0, 4),
        fixed={"A": 0.05},
    )
    bad_preset = FigurePreset("tiny", "concurrence", (bad_grid,), "broken")
    bad_pts = run_preset(bad_preset)
    with pytest.raises(IncompleteGrid, match="failed"):
        emit_svg(bad_preset, bad_pts, str(tmp_path / "y.svg"))
    assert not (tmp_path / "y.svg").exists()
    with pytest.raises(IncompleteGrid, match="failed"):
        emit_svg(bad_preset, bad_pts, good)
    assert _read(good) == before


def test_emit_svg_heatmap_colors_each_cell_by_its_grid_point(tmp_path):
    # Cells are told apart by their pixel position alone: column i is the
    # i-th distinct x from the left, row j the j-th distinct y from the
    # bottom.  Each must carry the color of the point at (xs[i], ys[j]).
    preset = _tiny_heatmap_preset()
    grid = preset.grids[0]
    pts = run_preset(preset)
    text = _read(emit_svg(preset, pts, str(tmp_path / "tiny.svg")))
    n = grid.axis1.count * grid.axis2.count
    cells = re.findall(
        r'<rect x="([\d.]+)" y="([\d.]+)" width="[\d.]+" height="[\d.]+" '
        r'fill="(rgb\([^"]*\))"/>',
        text,
    )[:n]
    assert len(cells) == n
    cols = sorted({float(x) for x, _, _ in cells})
    rows = sorted({float(y) for _, y, _ in cells}, reverse=True)
    assert (len(cols), len(rows)) == (grid.axis1.count, grid.axis2.count)
    om = pts.column("Omega_sigma").tolist()
    d = pts.column("D_sigma").tolist()
    conc = pts.column("concurrence").tolist()
    lo, hi = min(conc), max(conc)
    for x, y, fill in cells:
        i, j = cols.index(float(x)), rows.index(float(y))
        (v,) = [c for o, dd, c in zip(om, d, conc)
                if (o, dd) == (grid.axis1.values[i], grid.axis2.values[j])]
        assert fill == sweep._ramp_colors([(v - lo) / (hi - lo)])[0]


def _scalar_ramp_color(t):
    """The ramp one t at a time, as Python floats and round()."""
    t = min(1.0, max(0.0, t))
    for (t0, c0), (t1, c1) in zip(sweep._RAMP, sweep._RAMP[1:]):
        if t <= t1:
            u = (t - t0) / (t1 - t0)
            r, g, b = (round(a + u * (b - a)) for a, b in zip(c0, c1))
            return f"rgb({r},{g},{b})"
    raise AssertionError(f"t={t} is past the last stop")


def test_ramp_colors_match_the_scalar_ramp():
    stops = [t for t, _ in sweep._RAMP]
    assert stops == [0.0, 0.25, 0.5, 0.75, 1.0]
    ts = list(stops)
    ts += [math.nextafter(t, -math.inf) for t in stops]
    ts += [math.nextafter(t, math.inf) for t in stops]
    ts += [-0.3, -0.0, 1.7, -math.inf, math.inf, math.nan]
    # Channels exactly on .5 before rounding, which goes to the even
    # integer: green 145 + 56/16 = 148.5 -> 148, blue 140 - 42/4 = 129.5
    # -> 130.
    halves = [0.5 + 0.25 / 16, 0.5 + 0.25 / 4]
    ts += halves
    ts += np.linspace(-0.1, 1.1, 241).tolist()
    assert sweep._ramp_colors(ts) == [_scalar_ramp_color(t) for t in ts]
    assert sweep._ramp_colors(halves) == ["rgb(37,148,137)", "rgb(48,159,130)"]
    assert sweep._ramp_colors([math.nan]) == sweep._ramp_colors([0.0])


def _plain_polylines(preset, points):
    """The polyline points emit_svg must write, one f-string per vertex."""
    ml, mt, pw, ph = sweep._LINES_CANVAS.box
    x0, x1 = preset.grids[0].axis1.minimum, preset.grids[0].axis1.maximum
    xs = points.column(preset.grids[0].axis1.name).tolist()
    ys = points.column(preset.quantity).tolist()
    ymin, ymax = min(ys), max(ys)
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    curves, start = [], 0
    for grid in preset.grids:
        end = start + grid.axis1.count
        curves.append(" ".join(
            f"{ml + (x - x0) / (x1 - x0) * pw:.2f},"
            f"{mt + (ymax - y) / (ymax - ymin) * ph:.2f}"
            for x, y in zip(xs[start:end], ys[start:end])
        ))
        start = end
    return curves


def _plain_cells(preset, points):
    """The heatmap cells emit_svg must write, one f-string per cell."""
    ml, mt, pw, ph = sweep._HEATMAP_CANVAS.box
    nx, ny = preset.grids[0].axis1.count, preset.grids[0].axis2.count
    cw, ch = pw / nx, ph / ny
    vals = points.column(preset.quantity).tolist()
    vmin, vmax = min(vals), max(vals)
    span = vmax - vmin if vmax > vmin else 1.0
    return [
        f'<rect x="{ml + (k // ny) * cw:.2f}" y="{mt + (ny - 1 - k % ny) * ch:.2f}" '
        f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
        f'fill="{_scalar_ramp_color((v - vmin) / span)}"/>'
        for k, v in enumerate(vals)
    ]


def _uneven_lines_preset():
    # Curves of 8, 5 and 8 points over one range: the x values differ
    # between curves and repeat within the grid's points.
    return FigurePreset("uneven", "psi_gw", tuple(
        GridSpec(axis1=AxisSpec("omega_sigma", 0.5, 4.0, n),
                 fixed={"Omega_sigma": om, "D_sigma": 1.0, "A": 0.05})
        for n, om in ((8, 1.0), (5, 1.5), (8, 2.0))
    ), "uneven curves")


@pytest.mark.parametrize("figure_id", ["fig1c", "fig2", "fig5", "tiny", "uneven"])
def test_svg_shapes_match_a_per_point_writer(figure_id, tmp_path):
    made = {"tiny": _tiny_heatmap_preset, "uneven": _uneven_lines_preset}
    preset = made[figure_id]() if figure_id in made else PRESETS[figure_id]
    points = run_preset(preset)
    text = _read(emit_svg(preset, points, str(tmp_path / "x.svg")))
    if preset.kind == "lines":
        drawn = re.findall(r'<polyline points="([^"]*)"', text)
        assert drawn == _plain_polylines(preset, points)
    else:
        # The cells follow the background and the title, before the
        # frame and the color bar's 64 segments.
        cells = _plain_cells(preset, points)
        assert text.splitlines()[4:4 + len(cells)] == cells
        assert text.count('fill="rgb(') == len(cells) + 64


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail, instead of hanging, when the body runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_ticks_end_when_the_step_is_below_float_spacing(tmp_path):
    # Near 1e16 the float spacing is 2, so adding a tick step of 1 does
    # not move a tick; the number of ticks must still be finite.
    with _time_limit(5):
        ticks = sweep._ticks(1e16, 1e16 + 4)
    assert len(ticks) == 5
    assert all(1e16 <= t <= 1e16 + 4 for t in ticks)
    # Tick k is first + k * step: the ticks spread over the range instead
    # of all staying at 1e16.
    assert ticks[0] == 1e16 and ticks[-1] == 1e16 + 4
    assert ticks == sorted(ticks)
    assert sweep._ticks(0.2, 8.0) == [2.0, 4.0, 6.0, 8.0]
    preset = FigurePreset(
        "far",
        "theta_gw",
        (GridSpec(AxisSpec("t0_sigma", 1e16, 1e16 + 4, 3), fixed={"A": 0.05}),),
        "switching centred far from the wave's origin",
    )
    pts = run_preset(preset)
    assert pts.status == ["ok"] * 3
    with _time_limit(5):
        text = _read(emit_svg(preset, pts, str(tmp_path / "far.svg")))
    assert text.count("<polyline") == 1


def test_tick_labels_print_no_negative_zero(tmp_path):
    # fig2's y axis ends just above zero: its last tick must read 0 even
    # where the sum that makes it rounds to -0.
    preset = PRESETS["fig2"]
    text = _read(emit_svg(preset, run_preset(preset), str(tmp_path / "fig2.svg")))
    assert ">0</text>" in text
    assert ">-0<" not in text
    ticks = sweep._ticks(-0.11733160318812808, 0.006199485278827098)
    assert ticks == [-0.1, -0.075, -0.05, -0.025, 0.0]
    assert math.copysign(1.0, ticks[-1]) == 1.0


def test_emit_svg_lines_labels_curves_from_the_point_columns(tmp_path):
    # Omega and D are left at their defaults (1 and 1): the legend reads
    # them from the evaluated points, not from the grid's fixed values.
    grid = GridSpec(AxisSpec("omega_sigma", 0.5, 3, 5), fixed={"A": 0.05})
    preset = FigurePreset("defaults", "theta_gw", (grid,), "default Omega and D")
    text = _read(emit_svg(preset, run_preset(preset), str(tmp_path / "d.svg")))
    assert ">Omega=1, D=1</text>" in text
    assert "curves=1 t0_sigma=0 -->" in text
    # A curve that sweeps D is not labelled with one D value.
    grid = GridSpec(AxisSpec("D_sigma", 0.5, 3, 5), fixed={"Omega_sigma": 2.0})
    preset = FigurePreset("overD", "p_norm", (grid,), "sweeps D")
    text = _read(emit_svg(preset, run_preset(preset), str(tmp_path / "D.svg")))
    assert ">Omega=2</text>" in text


def test_figure_preset_one_axis_grid_is_a_line_chart(tmp_path):
    fields = [f.name for f in dataclasses.fields(FigurePreset)]
    assert fields == ["figure_id", "quantity", "grids", "description"]
    grid = GridSpec(AxisSpec("Omega_sigma", 0.5, 1.0, 3), fixed={"A": 0.05})
    preset = FigurePreset("one", "concurrence", (grid,), "one axis")
    assert preset.kind == "lines"
    with pytest.raises(AttributeError):
        preset.kind = "heatmap"
    text = _read(emit_svg(preset, run_preset(preset), str(tmp_path / "one.svg")))
    assert "<!-- figure=one kind=lines" in text
    assert text.count("<polyline") == 1


def test_figure_preset_two_axis_grid_is_a_heatmap(tmp_path):
    grid = GridSpec(
        axis1=AxisSpec("Omega_sigma", 0.5, 1.0, 3),
        axis2=AxisSpec("D_sigma", 0.5, 1.0, 3),
        fixed={"A": 0.05},
    )
    preset = FigurePreset("two", "concurrence", (grid,), "two axes")
    assert preset.kind == "heatmap"
    text = _read(emit_svg(preset, run_preset(preset), str(tmp_path / "two.svg")))
    assert "<!-- figure=two kind=heatmap" in text
    assert "<polyline" not in text


def test_figure_preset_rejects_grids_over_different_axes():
    omega = GridSpec(AxisSpec("omega_sigma", 0.5, 4.0, 8))
    cases = {
        "names": (omega, GridSpec(AxisSpec("Omega_sigma", 0.5, 4.0, 8))),
        "minimum": (omega, GridSpec(AxisSpec("omega_sigma", 0.25, 4.0, 8))),
        "maximum": (omega, GridSpec(AxisSpec("omega_sigma", 0.5, 5.0, 8))),
        "none": (),
    }
    for name, grids in cases.items():
        with pytest.raises(ValueError, match=f"preset '{name}': its grids"):
            FigurePreset(name, "theta_gw", grids, "mixed axes")
    # A heatmap is exactly one two-axis grid.
    plane = _tiny_heatmap_preset().grids[0]
    for grids in ((plane, plane), (plane, GridSpec(plane.axis1))):
        with pytest.raises(ValueError, match="preset 'pair': a heatmap is"):
            FigurePreset("pair", "concurrence", grids, "two planes")
    # Curves may differ in their point count and fixed values.
    FigurePreset(
        "ok",
        "theta_gw",
        (omega, GridSpec(AxisSpec("omega_sigma", 0.5, 4.0, 5), fixed={"A": 0.1})),
        "same axis",
    )


def test_figure_preset_rejects_unknown_quantity():
    with pytest.raises(ValueError, match="preset 'q': unknown quantity 'theta'"):
        FigurePreset("q", "theta", _tiny_heatmap_preset().grids, "typo")


def test_build_figure_unknown_id(tmp_path):
    with pytest.raises(ValueError, match="unknown figure"):
        build_figure("fig9", str(tmp_path))


def test_build_figure_writes_both_files(tmp_path):
    csv_path, svg_path = build_figure("fig2", str(tmp_path / "out"))
    csv_text = _read(csv_path)
    assert csv_path.endswith("fig2.csv")
    assert svg_path.endswith("fig2.svg")
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 8 * 101 + 1
    assert "<svg " in _read(svg_path)


# --- physics invariants of the reference figures -----------------------------


def _conc_map(points):
    assert set(points.status) == {"ok"}
    keys = zip(
        points.column("Omega_sigma").tolist(), points.column("D_sigma").tolist()
    )
    return dict(zip(keys, points.column("concurrence").tolist()))


def test_gw_background_only_degrades_harvesting_at_t0_zero():
    # At t0 = 0 the strain correction to the concurrence is nonpositive
    # over the whole (Omega, D) plane at omega = 2: the GW can only
    # reduce what the detectors harvest there.
    flat = _conc_map(run_preset(PRESETS["fig1a"]))
    gw = _conc_map(run_preset(PRESETS["fig1b"]))
    assert flat.keys() == gw.keys()
    harvesting = {k for k, v in flat.items() if v > 0.0}
    assert len(harvesting) > 1000  # a substantial harvesting region exists
    assert all(gw[k] <= flat[k] for k in harvesting)


def test_gw_background_enhances_somewhere_at_t0_one():
    # With the switching centered a sigma later the strain term changes
    # sign and regions of enhancement must appear alongside regions of
    # degradation.
    flat = _conc_map(run_preset(PRESETS["fig1a"]))
    gw = _conc_map(run_preset(PRESETS["fig1c"]))
    harvesting = {k for k, v in flat.items() if v > 0.0}
    above = sum(1 for k in harvesting if gw[k] > flat[k])
    below = sum(1 for k in harvesting if gw[k] < flat[k])
    assert above > 0
    assert below > 0
