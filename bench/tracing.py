"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each gwharvest module and
replaces every binding of them in every gwharvest namespace, so that
`from .model import params_from_mapping` in sweep and cli, the package
re-exports, oracle's private `_scipy_quad` alias and the recursive calls
of faddeeva_w and scaled_erf_product through their module globals all go
through the wrapper.  Nothing in src/ changes; uninstall() puts every
original binding back.

A span records name, start, end and parent span.  Spans are kept in
memory in flat arrays and written out when the run ends.  Self time is a
span's duration minus the time covered by its child spans.  Functions
called from inside quadrature integrands (sinc, quad) are only counted:
a span per integrand call would swamp the oracle layer.

Worker processes are not traced.  Forked workers inherit the wrappers
and pay their cost, but their spans stay in the worker and are dropped,
so two-worker numbers come from the run_grid span in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

SMALL_OMEGA_CUTOFF = 1.0e-3

# (layer, module, attribute, kind).  kind "span" records a span, "count"
# only counts calls.  An attribute with a dot names a class member.
TARGETS = (
    ("specfun", "gwharvest.specfun", "faddeeva_w", "span"),
    ("specfun", "gwharvest.specfun", "scaled_erf_product", "span"),
    ("specfun", "gwharvest.specfun", "sinc", "count"),
    ("closedform", "gwharvest.closedform", "evaluate", "span"),
    ("closedform", "gwharvest.closedform", "transition_probability", "span"),
    ("closedform", "gwharvest.closedform", "x_minkowski", "span"),
    ("closedform", "gwharvest.closedform", "c_minkowski", "span"),
    ("closedform", "gwharvest.closedform", "x_gw", "span"),
    ("closedform", "gwharvest.closedform", "c_gw", "span"),
    ("closedform", "gwharvest.closedform", "integral_I1", "span"),
    ("closedform", "gwharvest.closedform", "integral_I2", "span"),
    ("closedform", "gwharvest.closedform", "integral_I3", "span"),
    ("closedform", "gwharvest.closedform", "integral_I4", "span"),
    ("model", "gwharvest.model", "params_from_mapping", "span"),
    ("sweep", "gwharvest.sweep", "GridSpec.point_values", "span"),
    ("sweep", "gwharvest.sweep", "run_grid", "span"),
    ("sweep", "gwharvest.sweep", "emit_csv", "span"),
    ("sweep", "gwharvest.sweep", "emit_svg", "span"),
    ("oracle", "gwharvest.oracle", "verify_suite", "span"),
    ("oracle", "gwharvest.oracle", "oracle_P", "span"),
    ("oracle", "gwharvest.oracle", "oracle_XM", "span"),
    ("oracle", "gwharvest.oracle", "oracle_CM", "span"),
    ("oracle", "gwharvest.oracle", "oracle_I2", "span"),
    ("oracle", "gwharvest.oracle", "oracle_I4", "span"),
    ("oracle", "gwharvest.oracle", "oracle_delta_prime", "span"),
    ("oracle", "scipy.integrate", "quad", "count"),
    ("cli", "gwharvest.cli", "main", "span"),
)
LAYERS = ("specfun", "closedform", "model", "sweep", "oracle", "cli")


def _short(module: str, attr: str) -> str:
    """Metric prefix: 'specfun.faddeeva_w', 'sweep.point_values', 'oracle.quad'."""
    layer = "oracle" if module == "scipy.integrate" else module.split(".")[-1]
    return f"{layer}.{attr.split('.')[-1]}"


def _elements(x):
    # numpy is imported here, not at module level, so that importing this
    # module does not take numpy's import out of the measured set-up time.
    import numpy as np

    return np.asarray(x).ravel()


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.run_grid_s: Counter = Counter()  # run_grid duration by workers > 1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks: counts taken at the same wrappers --------------------------

    def _hook_faddeeva(self, args, kwargs, result, dt):
        z = args[0] if args else kwargs["z"]
        if isinstance(z, (int, float, complex)):
            z = complex(z)
            self.counts["faddeeva_w.elements"] += 1
            self.counts["faddeeva_w.reflected"] += z.real < 0.0 or z.imag < 0.0
        else:
            a = _elements(z)
            self.counts["faddeeva_w.elements"] += a.size
            self.counts["faddeeva_w.reflected"] += int(((a.real < 0) | (a.imag < 0)).sum())

    def _hook_small_omega(self, args, kwargs, result, dt):
        w = args[0] if args else kwargs["omega"]
        if isinstance(w, (int, float)):
            self.counts["I24.elements"] += 1
            self.counts["I24.small"] += abs(w) < SMALL_OMEGA_CUTOFF
        else:
            a = _elements(w)
            self.counts["I24.elements"] += a.size
            self.counts["I24.small"] += int((abs(a) < SMALL_OMEGA_CUTOFF).sum())

    def _hook_run_grid(self, args, kwargs, result, dt):
        parallel = kwargs.get("workers", 1) > 1
        self.counts["run_grid.pools"] += parallel
        self.run_grid_s[parallel] += dt

    def _hook_bytes(self, key):
        def hook(args, kwargs, result, dt):
            self.counts[key] += os.path.getsize(result)

        return hook

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        hooks = {
            "specfun.faddeeva_w": self._hook_faddeeva,
            "closedform.integral_I2": self._hook_small_omega,
            "closedform.integral_I4": self._hook_small_omega,
            "sweep.run_grid": self._hook_run_grid,
            "sweep.emit_csv": self._hook_bytes("emit_csv.bytes"),
            "sweep.emit_svg": self._hook_bytes("emit_svg.bytes"),
        }
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if n == "gwharvest" or n.startswith("gwharvest.")
        ]
        for _layer, module, attr, kind in TARGETS:
            short = _short(module, attr)
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(short)
                continue
            if kind == "span":
                wrapper = self._span(original, short, hooks.get(short))
            else:
                wrapper = self._count(original, short)
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def function_stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, top-level calls, inclusive and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {
            name: {"calls": 0, "top_calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(n):
            name_id = self.span_name[i]
            s = stats[self.names[name_id]]
            p = self.span_parent[i]
            s["calls"] += 1
            s["top_calls"] += p < 0 or self.span_name[p] != name_id
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return stats

    def write(self, path: str, origin: float) -> None:
        """Write the spans as columns; times in microseconds from origin."""
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_us": [round((t - origin) * 1e6, 3) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6, 3) for t in self.span_end],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-layer metrics reported by a traced run, with units.
LAYER_METRICS = {
    "specfun.faddeeva_w.calls": "count",
    "specfun.faddeeva_w.top_calls": "count",
    "specfun.faddeeva_w.self_s": "s",
    "specfun.faddeeva_w.reflect_ratio": "ratio",
    "specfun.scaled_erf_product.calls": "count",
    "specfun.scaled_erf_product.top_calls": "count",
    "specfun.scaled_erf_product.self_s": "s",
    "specfun.sinc.calls": "count",
    "closedform.evaluate.calls": "count",
    "closedform.evaluate.self_s": "s",
    "closedform.evaluate.us_per_point": "us",
    "closedform.integral_I1.self_s": "s",
    "closedform.integral_I2.self_s": "s",
    "closedform.integral_I3.self_s": "s",
    "closedform.integral_I4.self_s": "s",
    "closedform.x_minkowski.self_s": "s",
    "closedform.c_minkowski.self_s": "s",
    "closedform.transition_probability.self_s": "s",
    "closedform.x_gw.self_s": "s",
    "closedform.c_gw.self_s": "s",
    "closedform.small_omega_ratio": "ratio",
    "model.params_from_mapping.calls": "count",
    "model.params_from_mapping.self_s": "s",
    "sweep.point_values.self_s": "s",
    "sweep.run_grid.self_s": "s",
    "sweep.run_grid.pools": "count",
    "sweep.run_grid.parallel_efficiency": "ratio",
    "sweep.emit_csv.self_s": "s",
    "sweep.emit_csv.bytes": "B",
    "sweep.emit_svg.self_s": "s",
    "sweep.emit_svg.bytes": "B",
    "oracle.verify_suite.self_s": "s",
    "oracle.oracle_P.self_s": "s",
    "oracle.oracle_XM.self_s": "s",
    "oracle.oracle_CM.self_s": "s",
    "oracle.oracle_I2.self_s": "s",
    "oracle.oracle_I4.self_s": "s",
    "oracle.oracle_delta_prime.self_s": "s",
    "oracle.quad.calls": "count",
    "cli.main.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def serial_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced serial pass that took wall_s."""
    stats = tracer.function_stats()
    zero = {"calls": 0, "top_calls": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        prefix, _, field = metric.rpartition(".")
        if field in ("calls", "top_calls", "self_s") and prefix.count(".") == 1:
            if prefix in tracer.counts:
                out[metric] = tracer.counts[prefix]
            else:
                out[metric] = stats.get(prefix, zero)[field]
    c = tracer.counts
    out["specfun.faddeeva_w.reflect_ratio"] = _ratio(c["faddeeva_w.reflected"], c["faddeeva_w.elements"])
    ev = stats.get("closedform.evaluate", zero)
    out["closedform.evaluate.us_per_point"] = _ratio(ev["total_s"] * 1e6, ev["calls"])
    out["closedform.small_omega_ratio"] = _ratio(c["I24.small"], c["I24.elements"])
    out["sweep.emit_csv.bytes"] = c["emit_csv.bytes"]
    out["sweep.emit_svg.bytes"] = c["emit_svg.bytes"]
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))
        out[f"{layer}.share"] = _ratio(layer_self, wall_s)
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.span_name)
    return out


def parallel_metrics(serial: Tracer, parallel: Tracer | None) -> dict[str, float]:
    """Pool count and parallel efficiency from run_grid spans in the parent."""
    if parallel is None:
        return {"sweep.run_grid.pools": 0, "sweep.run_grid.parallel_efficiency": 0.0}
    return {
        "sweep.run_grid.pools": parallel.counts["run_grid.pools"],
        "sweep.run_grid.parallel_efficiency": _ratio(
            serial.run_grid_s[False], 2.0 * parallel.run_grid_s[True]
        ),
    }
