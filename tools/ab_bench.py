"""Alternated parent/change pairs of the benchmark, written as one JSON file.

Runs `bench/run.py` in two source trees, PARENT and CHANGE, as pairs: in
pair i both trees run the same workload, seed and length, and which one
runs first alternates, so a drift in the host's speed falls on both sides
alike.  Each run's result line (the last line of its standard output)
gives the end-to-end metrics and the "correct" verdict; its record under
`.bench_out/` gives the raw serial pass times next to the calibrated ones.

For every workload and metric the output holds both sides' values, their
medians, the ratio change/parent, how many pairs the change won (by the
metric's "better" direction in BENCHMARK.json) and the interquartile range
of the parent's values.  `raw_wall_s` and `raw_items_per_s` come from the
raw serial pass times, so a verdict that only the calibration decides
shows.  The Markdown table that CHANGES.md entries use is printed on
standard output.  Only the standard library is used.

Usage, from anywhere:

    python tools/ab_bench.py PARENT CHANGE --pairs 10 --seconds 20 \\
        [--workload figures ...] [--seed 0] -o BENCH_<PR>.json

where PARENT and CHANGE are the roots of the two trees.  Without
--workload every workload of CHANGE's BENCHMARK.json runs.  Exits 0 when
every run was "correct", else 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# Metrics read from each run's record: (name, unit, better).
RAW_METRICS = (("raw_wall_s", "s", "lower"), ("raw_items_per_s", "1/s", "higher"))


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in tree: its result line and record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    record_path = tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    raw = record.get("raw_typical_pass_seconds", {}).get("serial")
    items = record["env"]["samples"]["items_per_pass"]
    if raw:
        metrics.update(raw_wall_s=raw, raw_items_per_s=items / raw)
    return {"correct": result["correct"], "metrics": metrics, "env": record["env"]}


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, ratio, wins and the parent's IQR of one metric's pairs."""
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else None,
        "wins": won,
        "pairs": len(parent),
        "parent_iqr": quartiles[2] - quartiles[0],
    }


def _number(value: float, unit: str) -> str:
    if unit == "1/s":
        return f"{value:,.0f}"
    if unit == "s":
        return f"{value:.4g} s"
    return f"{value:.2f}"


def table(doc: dict) -> str:
    """The Markdown table of CHANGES.md: a row per workload and metric."""
    rows = [
        "| workload (pairs) | metric | parent median | change median "
        "| change/parent | change won | parent IQR |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            unit = m["unit"]
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
            rows.append(
                f"| {workload} ({m['pairs']}) | {name} | {_number(m['parent_median'], unit)} "
                f"| {_number(m['change_median'], unit)} | {ratio} "
                f"| {m['wins']}/{m['pairs']} | {_number(m['parent_iqr'], unit)} |"
            )
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: all")
    parser.add_argument("-o", "--output", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
    metrics += list(RAW_METRICS)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]

    doc = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "commits": {},
        "env": {},
        "workloads": {},
    }
    all_correct = True
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, args.seed, args.seconds)
                runs[side].append(run)
                doc["commits"][side] = run["env"]["git_commit"]
                print(f"# {workload} pair {i + 1}/{args.pairs} {side}: "
                      f"correct={run['correct']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
        env = runs["change"][-1]["env"]
        doc["env"] = {k: env[k] for k in ("nproc", "cpus_usable", "cpu_model", "python",
                                          "numpy", "scipy", "platform") if k in env}
        correct = {side: [run["correct"] for run in runs[side]] for side in SIDES}
        all_correct &= all(correct["parent"]) and all(correct["change"])
        entry = {"correct": correct, "metrics": {}}
        for name, unit, better in metrics:
            values = {side: [run["metrics"].get(name) for run in runs[side]] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                continue
            entry["metrics"][name] = {"unit": unit, "better": better,
                                      **summary(values["parent"], values["change"], better)}
        doc["workloads"][workload] = entry

    args.output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(table(doc))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
