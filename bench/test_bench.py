"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Smoke runs of every workload in both modes, the metric names and units
against BENCHMARK.json, and one deliberately wrong output per check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

UNTIMED = workloads.Stopwatch(calibrate=None)

# End-to-end metrics defined for this benchmark that BENCHMARK.json does
# not gate under that name, and why.  A gated metric must exist on every
# workload and may never read 0.  Each is still printed, with its unit, on
# the workloads where it exists (PRINTED below).
DROPPED = {
    "points_per_s": "gated as items_per_s (grid points, or evaluate calls on point_stream)",
    "checks_per_s": "gated as items_per_s (oracle checks on verify)",
    "points_per_s_w2": "the parallel passes' rate (two workers, or two clients): its "
    "spread over runs of the same code on a two-core shared host reached 0.29 of its "
    "median, more than the largest bound (0.25); printed and recorded, not gated",
    "point_latency_p50_us": "point_stream only; in a one-client closed loop it is "
    "close to the reciprocal of items_per_s, which is gated",
    "point_latency_p99_us": "point_stream only, so printed and recorded but not gated",
    "fail_ratio": "0 at baseline and a gated metric may not read 0; the result line's "
    "failed/attempted carry it and any failure makes the run incorrect",
}
END_TO_END = (
    "setup_s", "wall_s", "points_per_s", "points_per_s_w2", "point_latency_p50_us",
    "point_latency_p99_us", "checks_per_s", "peak_rss_mb", "fail_ratio",
)
COMMON = {"setup_s": "s", "wall_s": "s", "raw_wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1"}
PRINTED = {
    "plane_sweep": {**COMMON, "points_per_s": "1/s", "points_per_s_w2": "1/s"},
    "figures": {**COMMON, "points_per_s": "1/s", "points_per_s_w2": "1/s"},
    "point_stream": {
        **COMMON, "points_per_s": "1/s", "points_per_s_2clients": "1/s",
        "point_latency_p50_us": "us", "point_latency_p99_us": "us",
    },
    "verify": {**COMMON, "checks_per_s": "1/s", "checks_per_s_2clients": "1/s"},
}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {}
        for line in lines[:-1]:
            name, eq, rest = line[2:].partition(" = ")
            if line.startswith("# ") and eq:
                printed[name] = rest.split()[1]
        assert printed == PRINTED[workload]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("point_stream", 0, cwd=str(tmp_path))
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout


def _session_processes(sid: int) -> list[str]:
    """Processes of session sid still present, read from /proc (Linux)."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(f"{pid} ({fields[0]})")
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("workload", ["plane_sweep", "point_stream"])
def test_run_leaves_no_process_behind(workload):
    # plane_sweep starts calibration helpers, point_stream a client pool;
    # both are "spawn" processes, which also start a resource tracker.
    proc = subprocess.Popen(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert _session_processes(proc.pid) == []


def test_every_metric_is_gated_or_its_drop_explained():
    kept = {m["name"] for m in SPEC["end_to_end"]}
    for name in END_TO_END:
        assert name in kept or name in DROPPED, name
    assert set(DROPPED).isdisjoint(kept)


def test_traced_metrics_match_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


# --- each output check fails on a perturbed output --------------------------


@pytest.fixture(scope="module")
def gw():
    return workloads.load_program()


def _rewrite_field(path: str, row: int, column: str, transform) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[row + 1].split(",")
    k = checks.COLUMNS.index(column)
    fields[k] = transform(fields[k])
    lines[row + 1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _nudge(text: str) -> str:
    return repr(float(text) * (1.0 + 1e-6) + 1e-12)


@pytest.fixture()
def sweep(gw, tmp_path):
    w = workloads.PlaneSweep(gw, 5, True, str(tmp_path))
    w.setup()
    w.serial_pass(UNTIMED)
    w.parallel_pass(UNTIMED)
    w.check_serial(0)
    w.check_parallel(0)
    return w


def _sampled_row(w) -> int:
    return checks.sample_indices(w.seed, w.items, workloads.SAMPLE_ROWS, "sweep0")[0]


def test_sweep_check_catches_a_wrong_value(sweep):
    _rewrite_field(sweep.paths[1], _sampled_row(sweep), "theta_gw", _nudge)
    with pytest.raises(CheckFailed, match="theta_gw"):
        sweep.check_serial(0)


def test_sweep_check_catches_a_wrong_parameter(sweep):
    _rewrite_field(sweep.paths[1], _sampled_row(sweep), "D_sigma", _nudge)
    with pytest.raises(CheckFailed, match="parameters"):
        sweep.check_serial(0)


def test_sweep_check_catches_a_failed_status(sweep):
    _rewrite_field(sweep.paths[1], 1, "status", lambda s: "DegenerateDirection: x")
    with pytest.raises(CheckFailed, match="not ok"):
        sweep.check_serial(0)


def test_sweep_check_catches_a_missing_row(sweep):
    with open(sweep.paths[1], encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(sweep.paths[1], "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(CheckFailed, match="data rows"):
        sweep.check_serial(0)


def test_sweep_check_catches_a_wrong_header(sweep):
    _rewrite_field(sweep.paths[1], -1, "corr", lambda s: "correlation")
    with pytest.raises(CheckFailed, match="header"):
        sweep.check_serial(0)


def test_worker_check_catches_a_differing_two_worker_csv(sweep):
    _rewrite_field(sweep.paths[2], 0, "p_norm", _nudge)
    with pytest.raises(CheckFailed, match="differ"):
        sweep.check_parallel(0)


@pytest.fixture(scope="module")
def figures(gw, tmp_path_factory):
    w = workloads.Figures(gw, 5, True, str(tmp_path_factory.mktemp("figures")))
    w.setup()
    w.serial_pass(UNTIMED)
    w.check_serial(0)
    return w


def test_figure_check_catches_a_wrong_value(figures):
    path = os.path.join(figures.dirs[1], "fig2.csv")
    row = checks.sample_indices(figures.seed, 808, workloads.SAMPLE_ROWS, "fig2:0")[0]
    _rewrite_field(path, row, "psi_gw", _nudge)
    try:
        with pytest.raises(CheckFailed, match="psi_gw"):
            figures.check_serial(0)
    finally:
        figures.serial_pass(UNTIMED)


def test_reference_check_catches_a_value_off_the_reference(figures):
    path = os.path.join(figures.dirs[1], "fig1a.csv")
    rows = checks.read_csv(path, workloads.FIGURE_ROWS["fig1a"])
    reference = checks.load_reference()["figures"]["fig1a"]
    checks.check_reference(path, rows, reference)
    k = reference[0]["row"]
    rows[k][checks.COLUMNS.index("concurrence")] = _nudge(rows[k][checks.COLUMNS.index("concurrence")])
    with pytest.raises(CheckFailed, match="reference"):
        checks.check_reference(path, rows, reference)


def test_point_check_catches_a_wrong_value(gw, tmp_path):
    w = workloads.PointStream(gw, 5, True, str(tmp_path))
    w.setup()
    w.serial_pass(UNTIMED)
    w.check_serial(0)
    k = checks.sample_indices(w.seed, w.items, workloads.SAMPLE_ROWS, "stream0")[0]
    w.reports[k] = dataclasses.replace(w.reports[k], corr=w.reports[k].corr * (1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="corr"):
        w.check_serial(0)


def test_point_check_passes_negative_values_in_exponent_form(gw, tmp_path):
    # `gwharvest point --Omega_sigma -9.4e-05` is an argument error; the
    # check must pass such values as --Omega_sigma=-9.4e-05.
    w = workloads.PointStream(gw, 5, True, str(tmp_path))
    w.setup()
    for k in checks.sample_indices(w.seed, w.items, workloads.SAMPLE_ROWS, "stream0"):
        w.points[k]["Omega_sigma"] = -9.380115480439599e-05
    w.serial_pass(UNTIMED)
    w.check_serial(0)


def test_cli_argument_error_is_a_check_failure(gw):
    with pytest.raises(CheckFailed, match="expected one argument"):
        workloads.run_cli(gw, ["point", "--Omega_sigma", "-9.4e-05"])


def test_verify_check_catches_a_failed_record(gw):
    text = workloads.run_cli(gw, ["verify", "--grid", "minimal"])
    assert checks.check_verify_output(text) == checks.verify_counts(text)[0]
    lines = text.splitlines()
    lines[0] = "FAIL" + lines[0][4:]
    n = len(lines) - 1
    lines[-1] = f"{n - 1}/{n} checks passed"
    with pytest.raises(CheckFailed, match="failed"):
        checks.check_verify_output("\n".join(lines))
    with pytest.raises(CheckFailed, match="summary"):
        checks.check_verify_output(text.replace("checks passed", "checks run"))


def test_run_reports_incorrect_and_exits_1_on_a_wrong_number(gw, monkeypatch, capsys):
    import run

    emit_csv = gw.sweep.emit_csv

    def emit_wrong_csv(points, path):
        emit_csv(points, path)
        for row in range(len(points)):
            _rewrite_field(path, row, "theta_gw", _nudge)
        return path

    monkeypatch.setattr(gw.sweep, "emit_csv", emit_wrong_csv)
    rc = run.main(["--workload", "plane_sweep", "--seed", "3", "--seconds", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["metrics"] == {}
