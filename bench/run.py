"""gwharvest benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload plane_sweep --seed 1 --seconds 20 --trace 0

Workloads: plane_sweep, figures, point_stream, verify (see workloads.py
and README.md in this directory).  With --trace 0 the result carries the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run
(see tracing.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The lines before
it give the numbers under the names used in README.md, each with its
unit, and the run environment.  A full record of the run, and the spans
of a traced run, are written under .bench_out/ in the checkout.

The exit status is 0 when every output check passed, 1 when one failed
(the result line then says "correct": false), and 2 when the program
could not be imported or set up, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

# Set-up is measured in this many fresh processes, one after each of the
# first passes so that they sample the machine across the run; the median
# is reported.
SETUP_PROBES = 5
# Each run times at least this many serial and parallel passes.
MIN_PASSES = 3

# The end-to-end metrics of the result line, with units.  Every workload
# reports all of them; "items" are grid points on plane_sweep and figures,
# evaluate() calls on point_stream and oracle checks on verify.  The
# parallel passes' rate (items_per_s_w2) is printed with the others but
# left out here: on a two-core shared host its spread over runs of the
# same code reached 0.29 of its median, more than any bound may be.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs, one pass each, one set-up probe (for the benchmark's tests)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workdir(tag: str) -> str:
    path = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(args) -> None:
    """Time import, input generation and the warm-up call in this process."""
    workdir = make_workdir(f"probe-{args.workload}")
    watch = workloads.Stopwatch()
    try:
        gw = watch.time(workloads.load_program)
        w = workloads.WORKLOADS[args.workload](gw, args.seed, args.smoke, workdir)
        try:
            watch.time(w.setup)
        finally:
            w.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"raw_s": watch.raw, "setup_s": watch.scaled}))


def setup_sample(args) -> dict:
    """Run one set-up probe in a fresh process and return its times."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[k])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w, cores, deadline: float, min_passes: int, record: dict, between) -> dict:
    """Time serial passes, then parallel passes, until the deadline; check each.

    The first serial and parallel pass run as a pair, so that peak memory
    is read before any check runs.  The gated metrics come from serial
    passes, so they get the time left but what min_passes parallel passes
    need: serial passes first, then parallel ones.  The two kinds are not
    interleaved, because a `--workers 2` pass forks this process, and the
    copy-on-write faults that follow a fork slow whatever it runs next.
    cores calibrates `--workers 2` passes.  between() runs after each
    pass; its time does not count against the deadline.
    """
    serial, parallel = [], []
    parallel_cal = cores if w.uses_worker_flag else None

    def timed(run_pass, passes, calibrate=workloads.calibration_loop) -> float:
        """Run and record one pass; return its wall time with calibration."""
        started = time.perf_counter()
        watch = workloads.Stopwatch(calibrate)
        run_pass(watch)
        passes.append(watch)
        return time.perf_counter() - started

    def check_and_wait(check, passes) -> float:
        """Check the last pass and run between(); return the check's time.

        between()'s time is added to the deadline.
        """
        nonlocal deadline
        started = time.perf_counter()
        check(len(passes) - 1)
        checked = time.perf_counter()
        between()
        deadline += time.perf_counter() - checked
        return checked - started

    timed(w.serial_pass, serial)
    parallel_cost = timed(w.parallel_pass, parallel, parallel_cal)
    # Read before any check runs, so the checks' own memory is not counted.
    rss = peak_rss_mb()
    check_and_wait(w.check_serial, serial)
    parallel_cost += check_and_wait(w.check_parallel, parallel)
    reserve = (min_passes - len(parallel)) * parallel_cost
    while len(serial) < min_passes or time.perf_counter() < deadline - reserve:
        timed(w.serial_pass, serial)
        check_and_wait(w.check_serial, serial)
    while len(parallel) < min_passes:
        timed(w.parallel_pass, parallel, parallel_cal)
        check_and_wait(w.check_parallel, parallel)
    record["samples"] = {"serial_passes": len(serial), "parallel_passes": len(parallel)}
    record["pass_seconds"] = {"serial": [p.scaled for p in serial], "parallel": [p.scaled for p in parallel]}
    record["raw_pass_seconds"] = {"serial": [p.raw for p in serial], "parallel": [p.raw for p in parallel]}
    record["attempted"] = w.items * len(serial) + w.parallel_items * len(parallel)
    record["typical_unit_seconds"] = {
        "serial": typical_units(serial),
        "parallel": typical_units(parallel),
    }
    record["raw_typical_pass_seconds"] = {
        "serial": sum(typical_units(serial, raw=True)),
        "parallel": sum(typical_units(parallel, raw=True)),
    }
    wall = typical_pass(serial)
    return {
        "wall_s": wall,
        "items_per_s": w.items / wall,
        "items_per_s_w2": w.parallel_items / typical_pass(parallel),
        "peak_rss_mb": rss,
    }


def typical_units(passes, raw: bool = False) -> list[float]:
    """Each unit's median over the passes (scaled times, or raw ones).

    Every pass of a run times the same units in the same order, so a unit
    slowed by a burst of load in one pass is outvoted by the other passes.
    """
    return [statistics.median(unit) for unit in zip(*(p.raw_units if raw else p.units for p in passes))]


def typical_pass(passes) -> float:
    """The time of a pass made of typical units."""
    return sum(typical_units(passes))


def report_lines(w, metrics: dict, record: dict) -> list[tuple[str, float, str]]:
    """The end-to-end metrics under their per-workload names, with units."""
    lines = [
        ("setup_s", metrics["setup_s"], "s"),
        ("wall_s", metrics["wall_s"], "s"),
        ("raw_wall_s", statistics.median(record["raw_pass_seconds"]["serial"]), "s"),
    ]
    if w.name == "verify":
        lines += [
            ("checks_per_s", metrics["items_per_s"], "1/s"),
            ("checks_per_s_2clients", metrics["items_per_s_w2"], "1/s"),
        ]
    elif w.name == "point_stream":
        lat = sorted(w.latencies_ns)
        record["samples"]["latency_samples"] = len(lat)
        record["samples"]["latency_samples_beyond_p99"] = len(lat) - math.ceil(0.99 * len(lat))
        lines += [
            ("points_per_s", metrics["items_per_s"], "1/s"),
            ("points_per_s_2clients", metrics["items_per_s_w2"], "1/s"),
            ("point_latency_p50_us", percentile(lat, 0.50) / 1e3, "us"),
            ("point_latency_p99_us", percentile(lat, 0.99) / 1e3, "us"),
        ]
    else:
        lines += [
            ("points_per_s", metrics["items_per_s"], "1/s"),
            ("points_per_s_w2", metrics["items_per_s_w2"], "1/s"),
        ]
    lines += [
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("fail_ratio", w.failed / record["attempted"], "1"),
    ]
    return lines


def raw_pass(run_pass) -> float:
    """Raw seconds of one pass; traced runs are not calibrated."""
    watch = workloads.Stopwatch(calibrate=None)
    run_pass(watch)
    return watch.raw


def run_traced(w, args, deadline: float, min_passes: int, record: dict) -> dict:
    """Alternate traced and untraced serial passes; trace one parallel pass."""
    untraced, traced = [], []
    per_pass: list[dict] = []
    passes = 0
    raw_pass(w.serial_pass)
    w.check_serial(passes)
    passes += 1
    while True:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            origin = time.perf_counter()
            wall = raw_pass(w.serial_pass)
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracing.serial_metrics(tracer, wall))
        serial_tracer, serial_origin = tracer, origin
        w.check_serial(passes)
        passes += 1
        untraced.append(raw_pass(w.serial_pass))
        w.check_serial(passes)
        passes += 1
        if len(traced) >= min_passes and time.perf_counter() >= deadline:
            break
    parallel_tracer = None
    n_parallel = 0
    if w.uses_worker_flag:
        parallel_tracer = tracing.Tracer()
        parallel_tracer.install()
        try:
            raw_pass(w.parallel_pass)
        finally:
            parallel_tracer.uninstall()
        w.check_parallel(0)
        n_parallel = 1
    metrics = {
        name: statistics.fmean(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics.update(tracing.parallel_metrics(serial_tracer, parallel_tracer))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
    serial_tracer.write(spans_path, serial_origin)
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record["missing_targets"] = serial_tracer.missing
    record["samples"] = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced) + 1,
        "parallel_passes": n_parallel,
    }
    record["pass_seconds"] = {"traced": traced, "untraced": untraced}
    record["attempted"] = w.items * (2 * len(traced) + 1 + n_parallel)
    missing = set(tracing.LAYER_METRICS) - set(metrics)
    if missing:
        raise RuntimeError(f"traced run did not produce {sorted(missing)}")
    return {name: metrics[name] for name in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_target = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    setup_samples = []

    def more_setup() -> None:
        if len(setup_samples) < setup_target:
            setup_samples.append(setup_sample(args))

    try:
        gw = workloads.load_program()
        more_setup()
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot set up gwharvest in {ROOT}: {exc}", file=sys.stderr)
        return 2

    record = {"env": environment(args)}
    workdir = make_workdir(args.workload)
    w = workloads.WORKLOADS[args.workload](gw, args.seed, args.smoke, workdir)
    correct = True
    error = None
    lines = []
    cores = None
    min_passes = 1 if args.smoke else MIN_PASSES
    try:
        w.setup()
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            metrics = run_traced(w, args, deadline, min_passes, record)
            units = tracing.LAYER_METRICS
        else:
            w.start_clients()
            if w.uses_worker_flag:
                cores = workloads.CoreCalibrators()
            deadline = time.perf_counter() + args.seconds
            metrics = run_untraced(w, cores, deadline, min_passes, record, more_setup)
            while len(setup_samples) < setup_target:
                more_setup()
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in setup_samples)
            units = END_TO_END_UNITS
            lines = report_lines(w, metrics, record)
    except CheckFailed as exc:
        correct = False
        error = str(exc)
        metrics, units = {}, {}
    finally:
        if cores is not None:
            cores.close()
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record["env"]["samples"] = {
        "items_per_pass": w.items,
        "setup_probes": len(setup_samples),
        **record.get("samples", {}),
    }
    record.update(correct=correct, error=error, failed=w.failed, setup_samples=setup_samples)
    result = {
        "correct": correct,
        "attempted": max(int(record.get("attempted", w.items)), 1),
        "failed": int(w.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record["metrics"] = result["metrics"]
    record["report"] = {name: {"value": value, "unit": unit} for name, value, unit in lines}
    record_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if error:
        print(f"# CHECK FAILED: {error}")
    for name, value, unit in lines:
        print(f"# {name} = {value:.6g} {unit}")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        workloads.stop_resource_tracker()
    sys.exit(status)
