"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload makes its inputs from the seed, drives the program only
through its public API (`cli.main`, `evaluate`/`params_from_mapping`),
and checks every output it times.  A pass is one unit of user work:

  plane_sweep   one `gwharvest sweep` over a 2-axis (Omega, D) grid
  figures       all seven `gwharvest figure` presets
  point_stream  a closed loop of single-point `evaluate` calls, one client
  verify        one `gwharvest verify` on the default grid

A serial pass runs with one worker.  A parallel pass uses two worker
processes: `--workers 2` where the CLI has that flag (plane_sweep,
figures), and otherwise two clients in two worker processes each running
the whole pass at once (point_stream, verify).

This module imports gwharvest only inside functions, so that importing it
costs nothing the set-up time should count.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import multiprocessing
import os
import random
import statistics
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

import checks
from checks import CheckFailed

DEFAULT_SEED = 0
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Full-size and smoke-size inputs.  The smoke sizes exist for the
# benchmark's own tests; a measured run is always full size.  A 60 x 60
# sweep keeps one pass near a third of a second, short next to the
# machine's speed changes (see Stopwatch), and per-point costs still
# dominate it.
SWEEP_GRID = {False: 60, True: 6}
STREAM_POINTS = {False: 10_000, True: 200}
STREAM_CHUNK = 1000
FIGURE_IDS = {
    False: ("fig1a", "fig1b", "fig1c", "fig2", "fig3", "fig4", "fig5"),
    True: ("fig1a", "fig2"),
}
# Rows per preset, from the preset definitions in README: a 61 x 61
# (Omega, D) heatmap, or eight 101-point omega curves.
FIGURE_ROWS = {
    "fig1a": 3721, "fig1b": 3721, "fig1c": 3721,
    "fig2": 808, "fig3": 808, "fig4": 808, "fig5": 808,
}

STRAIN_A = 0.05
# point_stream: this share of the points has omega below the closed
# forms' small-omega cutoff (1e-3), where I2 and I4 take the Richardson
# fallback at about twice the cost of a direct call.
SMALL_OMEGA_SHARE = 0.1
SMALL_OMEGA_RANGE = (1.0e-5, 1.0e-3)

# Rows compared against a direct evaluate() in each checked CSV, and
# points compared against `gwharvest point` in each point_stream pass.
SAMPLE_ROWS = 24
REFERENCE_ROWS = 8


# The speed of a small shared machine is not constant.  On the two-core
# machine this benchmark was written on, the same Python code runs at one
# speed most of the time and up to 1.8 times faster for stretches of 0.1 s
# to several seconds, on each core independently, as other tenants load the
# host.  Each timed unit of work is therefore bracketed by runs of a fixed
# calibration loop on the cores it keeps busy, and its time is also given
# at the loop's reference speed: raw seconds * CAL_REF_S / loop seconds.
# CAL_REF_S is about the loop's time in that machine's usual state, so
# there scaled times read close to wall times.
CAL_REF_S = 0.008
# The loop runs in CAL_ROUNDS short rounds and counts the fastest, times
# CAL_ROUNDS.  A single long round read up to four times its usual time
# when it ran on a core that had just been idle or was interrupted.
CAL_ROUNDS = 3
CAL_ITERATIONS = 500


class _Probe:
    __slots__ = ("x", "z")

    def __init__(self, x: float, z: complex):
        self.x = x
        self.z = z


def _calibration_round() -> float:
    start = time.perf_counter()
    lines = []
    for i in range(CAL_ITERATIONS):
        d = {"x": i * 0.1, "y": -i * 1e-3}
        p = _Probe(d["x"], complex(d["y"], 1.0))
        v = p.x * 2.0 + cmath.sqrt(p.z)
        lines.append(",".join((repr(v.real), repr(v.imag), repr(math.erf(i * 1e-3)))))
    "\n".join(lines)
    return time.perf_counter() - start


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work the program does.

    Object creation, dict lookups, complex and real math and float
    formatting, as in one evaluated and written grid point.  It calls no
    numpy, scipy or gwharvest code, so no change to the program moves it.
    """
    return CAL_ROUNDS * min(_calibration_round() for _ in range(CAL_ROUNDS))


def _calibrator(conn) -> None:
    """Run the calibration loop each time the parent sends True."""
    while conn.recv():
        conn.send(calibration_loop())


class CoreCalibrators:
    """Two processes that run the calibration loop at the same time.

    A `--workers 2` pass needs both cores, and each core has its own
    speed, so it is calibrated by these two processes, one per core,
    rather than by the loop in this process.  Work shared out over both
    cores runs at the sum of their speeds, so the two loop times combine
    as a harmonic mean.  Call close() to stop them.
    """

    def __init__(self, n: int = 2):
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_calibrator, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def __call__(self) -> float:
        for conn in self._conns:
            conn.send(True)
        return statistics.harmonic_mean([conn.recv() for conn in self._conns])

    def close(self) -> None:
        for conn in self._conns:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()


class Stopwatch:
    """Times the units of one pass, raw and at reference speed.

    calibrate returns the calibration loop's current time; None means no
    calibration (scaled times then equal raw times).  Units of one pass run
    back to back, so the calibration after one unit is also the one before
    the next.  units holds the scaled time of each unit in order, and
    raw_units the raw one.
    """

    def __init__(self, calibrate=calibration_loop):
        self.calibrate = calibrate
        self.raw = 0.0
        self.scaled = 0.0
        self.units: list[float] = []
        self.raw_units: list[float] = []
        self._last_cal = None

    def _calibrate(self) -> float:
        return self.calibrate() if self.calibrate is not None else CAL_REF_S

    def add(self, raw: float, scaled: float) -> None:
        """Record a unit timed elsewhere."""
        self.raw += raw
        self.scaled += scaled
        self.units.append(scaled)
        self.raw_units.append(raw)

    def time(self, fn):
        before = self._last_cal if self._last_cal is not None else self._calibrate()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self._last_cal = after = self._calibrate()
        self.add(elapsed, elapsed * CAL_REF_S / ((before + after) / 2.0))
        return result


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started one.

    Starting a "spawn" process starts the tracker as a child of this
    process.  Left alone it outlives this process for a moment; stopping
    it here means the benchmark leaves no process behind when it exits.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
        return
    # Python versions without ResourceTracker._stop: close the tracker's
    # pipe, which ends it, and wait for it.
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None
        if pid is not None:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            tracker._pid = None


def load_program():
    """Import the package from the checkout's src/ and return it.

    Raises ImportError when src/ is missing or gwharvest resolves to a copy
    installed elsewhere, which the benchmark must not measure.
    """
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import gwharvest
    import gwharvest.cli  # noqa: F401  (cli is not imported by the package)

    if not os.path.abspath(gwharvest.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"gwharvest was imported from {gwharvest.__file__}, not from {SRC_DIR}")
    return gwharvest


def run_cli(gw, argv: list[str]) -> str:
    """Call cli.main with its output captured; a non-zero exit is a failure.

    An argument error exits through SystemExit with its message on the
    captured stderr, so it is turned into a failure here too.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gw.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise CheckFailed(
            f"gwharvest {' '.join(argv)} exited {rc}: {err.getvalue().strip()[:300]}"
        )
    return out.getvalue()


def direct_values(gw, params: dict[str, float]) -> tuple[float, ...]:
    return checks.report_values(gw.evaluate(gw.params_from_mapping(params)))


class Workload:
    """One workload; subclasses fill in the pass and the checks."""

    name = ""
    # True when the parallel pass is the program's own `--workers 2`.
    uses_worker_flag = False

    def __init__(self, gw, seed: int, smoke: bool, workdir: str):
        self.gw = gw
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.items = 0  # work items per pass
        self.failed = 0  # failed items over all passes
        self._clients = None

    def setup(self) -> None:
        """Generate the inputs and make the first warm-up call."""
        raise NotImplementedError

    def serial_pass(self, watch: Stopwatch) -> None:
        raise NotImplementedError

    def check_serial(self, pass_no: int) -> None:
        raise NotImplementedError

    @property
    def parallel_items(self) -> int:
        """Work items in one parallel pass."""
        return self.items if self.uses_worker_flag else 2 * self.items

    def start_clients(self) -> None:
        """Start the two client processes and run one untimed round."""
        if self.uses_worker_flag or self._clients is not None:
            return
        self._clients = ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_client_init,
            initargs=(self.name, self.seed, self.smoke, self.workdir),
        )
        for f in [self._clients.submit(_client_pass) for _ in range(2)]:
            f.result()

    def parallel_pass(self, watch: Stopwatch) -> None:
        """Two clients, each running a whole pass at once in its own process.

        Each client times its own pass against the calibration loop on its
        own core; the pass counts as the mean of the two scaled times.
        """
        self.start_clients()
        start = time.perf_counter()
        futures = [self._clients.submit(_client_pass) for _ in range(2)]
        self._client_results = [f.result() for f in futures]
        watch.add(time.perf_counter() - start, statistics.fmean(r[2] for r in self._client_results))
        self.failed += sum(r[0] for r in self._client_results)

    def check_parallel(self, pass_no: int) -> None:
        for failed, digest, _ in self._client_results:
            if failed:
                raise CheckFailed(f"{self.name}: {failed} items failed in a client process")
            if digest != self.digest:
                raise CheckFailed(f"{self.name}: client output differs from the serial pass")

    def client_pass(self, watch: Stopwatch) -> tuple[int, str]:
        """Run and time one pass in a client process: (failed items, output digest)."""
        raise NotImplementedError

    def close(self) -> None:
        if self._clients is not None:
            self._clients.shutdown(wait=True)
            self._clients = None


# --- plane_sweep ------------------------------------------------------------


class PlaneSweep(Workload):
    """`gwharvest sweep` over Omega x D at A = 0.05, omega and t0 from the seed."""

    name = "plane_sweep"
    uses_worker_flag = True

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.omega = rng.uniform(0.5, 8.0)
        self.t0 = rng.uniform(0.0, 1.0)
        self.n = SWEEP_GRID[self.smoke]
        self.items = self.n * self.n
        self.paths = {w: os.path.join(self.workdir, f"sweep_w{w}.csv") for w in (1, 2)}
        self._sweep(1, os.path.join(self.workdir, "warmup.csv"), 4)

    def _sweep(self, workers: int, path: str, n: int) -> None:
        argv = [
            "sweep",
            "--axis", f"Omega_sigma:-2:2:{n}",
            "--axis", f"D_sigma:0.25:4:{n}",
            "--A", repr(STRAIN_A),
            "--omega_sigma", repr(self.omega),
            "--t0_sigma", repr(self.t0),
            "-o", path,
            "--workers", str(workers),
        ]
        run_cli(self.gw, argv)

    def serial_pass(self, watch: Stopwatch) -> None:
        watch.time(lambda: self._sweep(1, self.paths[1], self.n))

    def parallel_pass(self, watch: Stopwatch) -> None:
        watch.time(lambda: self._sweep(2, self.paths[2], self.n))

    def expected_params(self, k: int) -> list[float]:
        """The documented grid: Omega outer, D inner, both inclusive linspaces."""
        i, j = divmod(k, self.n)
        om = -2.0 + 4.0 * i / (self.n - 1)
        d = 0.25 + 3.75 * j / (self.n - 1)
        return [self.omega, om, d, self.t0, STRAIN_A]

    def check_serial(self, pass_no: int) -> None:
        path = self.paths[1]
        rows = checks.read_csv(path, self.items)
        self.failed += len(checks.failed_rows(rows))
        checks.check_all_ok(path, rows)
        sample = checks.sample_indices(self.seed, self.items, SAMPLE_ROWS, f"sweep{pass_no}")
        for k in sample:
            got = [float(t) for t in rows[k][:5]]
            if not all(checks.close(a, b) for a, b in zip(got, self.expected_params(k))):
                raise CheckFailed(f"{path} row {k}: parameters {got} are not grid point {k}")
        checks.check_rows_evaluate(path, rows, sample, lambda p: direct_values(self.gw, p))
        if self.seed == DEFAULT_SEED and not self.smoke:
            checks.check_reference(path, rows, checks.load_reference()["plane_sweep"])

    def check_parallel(self, pass_no: int) -> None:
        checks.check_identical(self.paths[1], self.paths[2])


# --- figures ----------------------------------------------------------------


class Figures(Workload):
    """All seven figure presets; the seed only picks the rows sampled."""

    name = "figures"
    uses_worker_flag = True

    def setup(self) -> None:
        self.ids = FIGURE_IDS[self.smoke]
        self.items = sum(FIGURE_ROWS[f] for f in self.ids)
        self.dirs = {w: os.path.join(self.workdir, f"figures_w{w}") for w in (1, 2)}
        run_cli(self.gw, ["figure", "fig2", "-o", os.path.join(self.workdir, "warmup"), "--workers", "1"])

    def _figures(self, watch: Stopwatch, workers: int) -> None:
        for fid in self.ids:
            argv = ["figure", fid, "-o", self.dirs[workers], "--workers", str(workers)]
            watch.time(lambda: run_cli(self.gw, argv))

    def serial_pass(self, watch: Stopwatch) -> None:
        self._figures(watch, 1)

    def parallel_pass(self, watch: Stopwatch) -> None:
        self._figures(watch, 2)

    def check_serial(self, pass_no: int) -> None:
        # The presets are fixed, so the reference applies to every seed.
        reference = checks.load_reference()["figures"]
        for fid in self.ids:
            path = os.path.join(self.dirs[1], f"{fid}.csv")
            rows = checks.read_csv(path, FIGURE_ROWS[fid])
            self.failed += len(checks.failed_rows(rows))
            checks.check_all_ok(path, rows)
            sample = checks.sample_indices(self.seed, len(rows), SAMPLE_ROWS, f"{fid}:{pass_no}")
            checks.check_rows_evaluate(path, rows, sample, lambda p: direct_values(self.gw, p))
            checks.check_reference(path, rows, reference[fid])
            with open(os.path.join(self.dirs[1], f"{fid}.svg"), "r", encoding="utf-8") as fh:
                if not fh.read(4) == "<svg":
                    raise CheckFailed(f"{fid}.svg is not an SVG document")

    def check_parallel(self, pass_no: int) -> None:
        # README: figures are byte-identical across --workers settings.
        for fid in self.ids:
            for ext in ("csv", "svg"):
                checks.check_identical(
                    os.path.join(self.dirs[1], f"{fid}.{ext}"),
                    os.path.join(self.dirs[2], f"{fid}.{ext}"),
                )


# --- point_stream -----------------------------------------------------------


def stream_points(seed: int, count: int) -> list[dict[str, float]]:
    """Seeded points over the presets' full domain, a fixed share at small omega."""
    rng = random.Random(seed)
    n_small = round(SMALL_OMEGA_SHARE * count)
    points = []
    for k in range(count):
        if k < n_small:
            lo, hi = SMALL_OMEGA_RANGE
            omega = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        else:
            omega = rng.uniform(0.2, 8.0)
        points.append(
            {
                "A": STRAIN_A,
                "omega_sigma": omega,
                "Omega_sigma": rng.uniform(-2.0, 2.0),
                "D_sigma": rng.uniform(0.25, 4.0),
                "t0_sigma": rng.uniform(0.0, 1.0),
            }
        )
    rng.shuffle(points)
    return points


def point_params(m: dict[str, float]) -> list[float]:
    return [m[name] for name in checks.PARAM_COLUMNS]


class PointStream(Workload):
    """Closed loop, one client: evaluate(params_from_mapping(m)) per call."""

    name = "point_stream"

    def setup(self) -> None:
        self.points = stream_points(self.seed, STREAM_POINTS[self.smoke])
        self.items = len(self.points)
        self.latencies_ns = array("q")
        self.gw.evaluate(self.gw.params_from_mapping(self.points[0]))

    def _loop(self, points, reports: list, latencies: array | None) -> int:
        """Evaluate points one call at a time; returns the number that failed."""
        # Looked up per call of _loop, so that a traced pass calls the wrappers.
        evaluate = self.gw.evaluate
        params_from_mapping = self.gw.params_from_mapping
        clock = time.perf_counter_ns
        failed = 0
        for m in points:
            t0 = clock()
            try:
                report = evaluate(params_from_mapping(m))
            except Exception as exc:  # a failed call is counted; the loop goes on
                report = exc
                failed += 1
            if latencies is not None:
                latencies.append(clock() - t0)
            reports.append(report)
        return failed

    def rows(self) -> list[list[str]]:
        """The last serial pass as CSV-like rows: parameters, then observables."""
        return [
            [repr(v) for v in point_params(m) + list(checks.report_values(r))]
            for m, r in zip(self.points, self.reports)
        ]

    def _digest(self, reports: list) -> str:
        h = hashlib.sha256()
        for r in reports:
            h.update(repr(checks.report_values(r)).encode())
        return h.hexdigest()

    def serial_pass(self, watch: Stopwatch) -> None:
        # Timed in chunks, so that each unit is short next to the machine's
        # speed changes; the calibration runs between chunks, not between calls.
        self.reports = []
        for k in range(0, self.items, STREAM_CHUNK):
            chunk = self.points[k:k + STREAM_CHUNK]
            self.failed += watch.time(lambda: self._loop(chunk, self.reports, self.latencies_ns))

    def client_pass(self, watch: Stopwatch) -> tuple[int, str]:
        reports = []
        failed = 0
        for k in range(0, self.items, STREAM_CHUNK):
            chunk = self.points[k:k + STREAM_CHUNK]
            failed += watch.time(lambda: self._loop(chunk, reports, None))
        return failed, "" if failed else self._digest(reports)

    def check_serial(self, pass_no: int) -> None:
        errors = [(k, r) for k, r in enumerate(self.reports) if isinstance(r, Exception)]
        if errors:
            k, exc = errors[0]
            raise CheckFailed(f"point {k} {self.points[k]} failed: {type(exc).__name__}: {exc}")
        for k, r in enumerate(self.reports):
            if not all(math.isfinite(v) for v in checks.report_values(r)):
                raise CheckFailed(f"point {k} {self.points[k]}: non-finite observable")
        sample = checks.sample_indices(self.seed, self.items, SAMPLE_ROWS, f"stream{pass_no}")
        for k in sample:
            m = self.points[k]
            argv = ["point"]
            # --name=value: argparse reads a separate "-1e-05" as an option.
            argv += [f"--{name}={value!r}" for name, value in m.items()]
            printed = dict(line.split("=", 1) for line in run_cli(self.gw, argv).splitlines())
            expected = [float(printed[name]) for name in checks.VALUE_COLUMNS]
            checks.check_values(f"point {k} vs `gwharvest point`", checks.report_values(self.reports[k]), expected)
        if self.seed == DEFAULT_SEED and not self.smoke:
            checks.check_reference("point_stream", self.rows(), checks.load_reference()["point_stream"])
        if pass_no == 0:
            self.digest = self._digest(self.reports)


# --- verify -----------------------------------------------------------------


class Verify(Workload):
    """`gwharvest verify` on the default grid (minimal grid when smoke)."""

    name = "verify"

    def setup(self) -> None:
        self.argv = ["verify", "--grid", "minimal" if self.smoke else "default"]
        run_cli(self.gw, ["verify", "--grid", "minimal"])

    def _verify(self) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.gw.cli.main(self.argv)
        text = out.getvalue()
        if rc != 0 and not checks.verify_counts(text)[1]:
            raise CheckFailed(f"gwharvest verify exited {rc}: {err.getvalue().strip()[:300]}")
        return text

    def serial_pass(self, watch: Stopwatch) -> None:
        self.text = watch.time(self._verify)
        self.failed += checks.verify_counts(self.text)[1]

    def client_pass(self, watch: Stopwatch) -> tuple[int, str]:
        total, failed = checks.verify_counts(watch.time(self._verify))
        return failed, str(total)

    def check_serial(self, pass_no: int) -> None:
        n = checks.check_verify_output(self.text)
        if pass_no == 0:
            self.items = n
            self.digest = str(n)
        elif n != self.items:
            raise CheckFailed(f"verify ran {n} checks, earlier pass ran {self.items}")


WORKLOADS = {cls.name: cls for cls in (PlaneSweep, Figures, PointStream, Verify)}


# --- client processes for the two-client parallel pass ----------------------

_client: Workload | None = None


def _client_init(name: str, seed: int, smoke: bool, workdir: str) -> None:
    global _client
    _client = WORKLOADS[name](load_program(), seed, smoke, workdir)
    _client.setup()


def _client_pass() -> tuple[int, str, float]:
    watch = Stopwatch()
    failed, digest = _client.client_pass(watch)
    return failed, digest, watch.scaled
