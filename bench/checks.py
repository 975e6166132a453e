"""Output checks shared by the benchmark workloads.

Every check raises CheckFailed with a message naming the file, row and
column that disagreed.  Nothing here imports gwharvest: the checks read
the program's outputs as a user would, and the caller passes in the
functions that compute the expected values.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Callable, Iterable, Sequence

# The CSV header documented in README ("CSV format"); the benchmark checks
# the program against this contract, not against the program's own constant.
CSV_HEADER = (
    "omega_sigma,Omega_sigma,D_sigma,t0_sigma,A,"
    "p_norm,re_x_m,im_x_m,re_c_m,im_c_m,re_x_gw,im_x_gw,re_c_gw,im_c_gw,"
    "theta_m,theta_gw,concurrence,psi_m,psi_gw,corr,status"
)
COLUMNS = tuple(CSV_HEADER.split(","))
PARAM_COLUMNS = COLUMNS[:5]
VALUE_COLUMNS = COLUMNS[5:20]

# A value read back from the program matches the expected one when
# |a - b| <= RTOL * |b| + ATOL.  RTOL admits the last-digit differences a
# reordered or vectorized evaluation produces (ROADMAP item 2 asks for
# "a few ulp"); ATOL covers observables that cancel to near zero.  Any
# change visible at 1e-9 relative is reported.
RTOL = 1.0e-9
ATOL = 1.0e-15

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(AssertionError):
    """An output of the program is wrong or incomplete."""


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= RTOL * abs(b) + ATOL


def report_values(report) -> tuple[float, ...]:
    """The 15 observables of a HarvestReport in CSV column order."""
    r = report
    return tuple(
        float(v)
        for v in (
            r.p_norm,
            r.x_m.real,
            r.x_m.imag,
            r.c_m.real,
            r.c_m.imag,
            r.x_gw.real,
            r.x_gw.imag,
            r.c_gw.real,
            r.c_gw.imag,
            r.theta_m,
            r.theta_gw,
            r.concurrence,
            r.psi_m,
            r.psi_gw,
            r.corr,
        )
    )


def read_csv(path: str, expected_rows: int) -> list[list[str]]:
    """Read a sweep or figure CSV and check its shape.

    Returns the data rows split into fields.  Raises CheckFailed if the
    header is not the documented one, the row count is not expected_rows,
    or a row has the wrong number of fields.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"{path}: header is {lines[:1]!r}, expected the documented header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        raise CheckFailed(f"{path}: {len(rows)} data rows, expected {expected_rows}")
    bad = [i for i, row in enumerate(rows) if len(row) != len(COLUMNS)]
    if bad:
        raise CheckFailed(f"{path}: row {bad[0]} has {len(rows[bad[0]])} fields")
    return rows


def failed_rows(rows: Sequence[Sequence[str]]) -> list[int]:
    return [i for i, row in enumerate(rows) if row[-1] != "ok"]


def check_all_ok(path: str, rows: Sequence[Sequence[str]]) -> None:
    bad = failed_rows(rows)
    if bad:
        raise CheckFailed(
            f"{path}: {len(bad)} of {len(rows)} rows not ok; first is row {bad[0]}: "
            f"{rows[bad[0]][-1]!r}"
        )


def row_params(row: Sequence[str]) -> dict[str, float]:
    return {name: float(text) for name, text in zip(PARAM_COLUMNS, row)}


def sample_indices(seed: int, n: int, k: int, salt: str) -> list[int]:
    """A seeded sample of k distinct indices out of n, in increasing order."""
    rng = random.Random(f"{seed}:{salt}")
    return sorted(rng.sample(range(n), min(k, n)))


def check_values(where: str, got: Sequence[float], expected: Sequence[float]) -> None:
    for name, a, b in zip(VALUE_COLUMNS, got, expected):
        if not close(a, b):
            raise CheckFailed(f"{where} {name}: got {a!r}, expected {b!r}")


def check_rows_evaluate(
    path: str,
    rows: Sequence[Sequence[str]],
    indices: Iterable[int],
    evaluate: Callable[[dict[str, float]], Sequence[float]],
) -> None:
    """Each sampled row's values, re-parsed with float(), match evaluate(params)."""
    for i in indices:
        row = rows[i]
        got = [float(text) for text in row[5:20]]
        check_values(f"{path} row {i}", got, evaluate(row_params(row)))


def check_identical(path_a: str, path_b: str) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            raise CheckFailed(f"{path_a} and {path_b} differ")


def check_reference(where: str, rows: Sequence[Sequence[str]], reference: Sequence[dict]) -> None:
    """Rows at the reference indices equal the recorded parameters and values."""
    for entry in reference:
        i = entry["row"]
        if i >= len(rows):
            raise CheckFailed(f"{where}: reference row {i} is missing")
        params = [float(text) for text in rows[i][:5]]
        if not all(close(a, b) for a, b in zip(params, entry["params"])):
            raise CheckFailed(f"{where} row {i}: parameters {params} != reference {entry['params']}")
        check_values(f"{where} row {i} vs reference", [float(t) for t in rows[i][5:20]], entry["values"])


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify_counts(text: str) -> tuple[int, int]:
    """(checks, failed checks) in `gwharvest verify` output."""
    lines = text.splitlines()
    return (
        sum(line.startswith(("PASS ", "FAIL ")) for line in lines),
        sum(line.startswith("FAIL ") for line in lines),
    )


def check_verify_output(text: str) -> int:
    """Check `gwharvest verify` output: every record passed.

    Returns the number of checks.  The summary line must agree with the
    per-record lines.
    """
    lines = text.splitlines()
    records = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    failed = [line for line in records if line.startswith("FAIL ")]
    if not lines:
        raise CheckFailed("verify printed nothing")
    summary = lines[-1]
    expected_summary = f"{len(records) - len(failed)}/{len(records)} checks passed"
    if summary != expected_summary:
        raise CheckFailed(f"verify summary {summary!r}, expected {expected_summary!r}")
    if not records:
        raise CheckFailed("verify reported no checks")
    if failed:
        raise CheckFailed(f"verify: {len(failed)} of {len(records)} checks failed; first: {failed[0]}")
    return len(records)
