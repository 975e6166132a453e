"""Regenerate bench/reference.json from the program in this checkout.

    python3 bench/make_reference.py

The reference holds a few sampled rows of each CSV-producing workload at
the default seed (for figures, at every seed, since the presets are
fixed).  A benchmark run compares the same rows against it, so regenerate
it only when a change to the program's outputs is intended, and say so.
"""

from __future__ import annotations

import json
import os
import shutil

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sampled(rows: list[list[str]]) -> list[dict]:
    picks = checks.sample_indices(workloads.DEFAULT_SEED, len(rows), workloads.REFERENCE_ROWS, "reference")
    return [
        {"row": k, "params": [float(t) for t in rows[k][:5]], "values": [float(t) for t in rows[k][5:20]]}
        for k in picks
    ]


def main() -> None:
    gw = workloads.load_program()
    workdir = os.path.join(ROOT, ".bench_out", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    try:
        sweep = workloads.PlaneSweep(gw, seed, False, workdir)
        sweep.setup()
        sweep.serial_pass(workloads.Stopwatch(calibrate=None))
        figures = workloads.Figures(gw, seed, False, workdir)
        figures.setup()
        figures.serial_pass(workloads.Stopwatch(calibrate=None))
        stream = workloads.PointStream(gw, seed, False, workdir)
        stream.setup()
        stream.serial_pass(workloads.Stopwatch(calibrate=None))
        reference = {
            "seed": seed,
            "plane_sweep": sampled(checks.read_csv(sweep.paths[1], sweep.items)),
            "figures": {
                fid: sampled(checks.read_csv(os.path.join(figures.dirs[1], f"{fid}.csv"), workloads.FIGURE_ROWS[fid]))
                for fid in figures.ids
            },
            "point_stream": sampled(stream.rows()),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
