"""Compare the outputs of two gwharvest source trees.

Runs the same commands in each tree, from its own src/ directory, and
compares what they write:

  figure fig1a .. fig5       each preset's CSV and SVG
  sweep                      a 60 x 60 (Omega, D) plane at A = 0.05,
                             omega = 2 and t0 = 0.5
  point                      at omega = 2 and omega = 5e-4 (below the
                             small-omega cutoff), other flags at their
                             defaults
  verify                     its stdout

For every output it prints the sha256 on both sides.  For each table that
differs (a CSV, or a point's name=value lines), it prints per numeric
column the count of changed values, the largest distance in units in the
last place (ulp) and the largest relative change; a text column prints
its count of changed values.  For verify it prints the record kinds (the
quantity a line checks) whose lines changed.  Only the standard library
and numpy are used.

Usage, from anywhere:

    python tools/output_diff.py PARENT CHANGE

where PARENT and CHANGE are the roots of the two trees.  Exits 0 when
every output is byte-identical, else 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

FIGURES = ("fig1a", "fig1b", "fig1c", "fig2", "fig3", "fig4", "fig5")
SWEEP = [
    "sweep",
    "--axis", "Omega_sigma:-2:2:60",
    "--axis", "D_sigma:0.25:4:60",
    "--A", "0.05",
    "--omega_sigma", "2",
    "--t0_sigma", "0.5",
    "-o", "plane.csv",
]
POINTS = {"point_omega_2.txt": "2", "point_omega_5e-4.txt": "5e-4"}


def run_outputs(tree: pathlib.Path, out: pathlib.Path) -> dict[str, bytes]:
    """Every output of tree's gwharvest, by name, written under out."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))

    def cli(*args: str) -> bytes:
        return subprocess.run(
            [sys.executable, "-m", "gwharvest.cli", *args],
            cwd=out, env=env, check=True, capture_output=True,
        ).stdout

    for fid in FIGURES:
        cli("figure", fid, "-o", str(out))
    cli(*SWEEP)
    outputs = {
        path.name: path.read_bytes()
        for path in sorted(out.iterdir())
        if path.suffix in (".csv", ".svg")
    }
    for name, omega in POINTS.items():
        outputs[name] = cli("point", "--omega_sigma", omega)
    outputs["verify.txt"] = cli("verify")
    return outputs


def table(name: str, data: bytes) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a CSV, or of a point's name=value lines."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text)))
        return header, rows
    pairs = [line.split("=", 1) for line in text.splitlines()]
    return [k for k, _ in pairs], [[v for _, v in pairs]]


def ordered(x: np.ndarray) -> np.ndarray:
    """float64 bits as int64s that count ulps: adjacent doubles differ by 1."""
    bits = x.view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


def column_report(a: list[str], b: list[str]) -> str:
    """How column b differs from column a, one line."""
    changed = sum(x != y for x, y in zip(a, b))
    try:
        x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    except ValueError:
        return f"{changed} changed (text)"
    moved = (x != y) & ~(np.isnan(x) & np.isnan(y))
    if not moved.any():
        return f"{changed} changed (same values)"
    x, y = x[moved], y[moved]
    with np.errstate(all="ignore"):
        ulp = np.abs(ordered(x) - ordered(y)).astype(float)
        rel = np.abs(y - x) / np.maximum(np.abs(x), np.abs(y))
    return (
        f"{changed} changed, max {np.nanmax(ulp):.3g} ulp,"
        f" max rel {np.nanmax(rel):.3g}"
    )


def table_diff(name: str, old: bytes, new: bytes) -> list[str]:
    """Per-column lines for a table that differs."""
    (head_a, rows_a), (head_b, rows_b) = table(name, old), table(name, new)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"  columns or row count differ: {len(rows_a)} -> {len(rows_b)} rows"]
    lines = []
    for k, col in enumerate(head_a):
        a, b = [r[k] for r in rows_a], [r[k] for r in rows_b]
        if a != b:
            lines.append(f"  {col}: {column_report(a, b)}")
    return lines


def verify_diff(old: bytes, new: bytes) -> list[str]:
    """The record kinds whose verify lines changed."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    if len(a) != len(b):
        return [f"  line count differs: {len(a)} -> {len(b)}"]
    kinds: dict[str, int] = {}
    for x, y in zip(a, b):
        if x != y:
            kind = x.split()[1] if len(x.split()) > 1 else x
            kinds[kind] = kinds.get(kind, 0) + 1
    return [f"  {kind}: {n} lines changed" for kind, n in kinds.items()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/output_diff.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        sides = []
        for label, tree in zip(("parent", "change"), argv):
            out = pathlib.Path(scratch, label)
            out.mkdir()
            sides.append(run_outputs(pathlib.Path(tree), out))
    old, new = sides
    same = True
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, b""), new.get(name, b"")
        ha, hb = hashlib.sha256(a).hexdigest(), hashlib.sha256(b).hexdigest()
        print(f"{'same' if ha == hb else 'DIFF'} {name}\n  parent {ha}\n  change {hb}")
        if ha == hb:
            continue
        same = False
        if name == "verify.txt":
            print("\n".join(verify_diff(a, b)))
        elif name.endswith((".csv", ".txt")):
            print("\n".join(table_diff(name, a, b)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
