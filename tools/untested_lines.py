"""List the lines of src/gwharvest that no tier-1 test reaches.

Runs the tier-1 suite (pytest over tests/) in this process under
sys.settrace, then prints each module's executable lines that never ran,
as ranges of consecutive line numbers.  A line only a subprocess runs
(the `if __name__ == "__main__":` body of cli.py, say) is listed too:
the trace sees this process only.  Only the standard library is used,
besides pytest to run the suite; the suite runs several times slower
than untraced.

Usage, from the repository root:

    python tools/untested_lines.py [extra pytest arguments]
"""

from __future__ import annotations

import collections
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gwharvest"


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines of path that hold bytecode, nested code objects included."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a-b, c" runs of consecutive numbers."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = collections.defaultdict(set)
    prefix = f"{PACKAGE}/"

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # Only frames of the package are traced line by line; the call
        # itself reaches the function's first line (def or decorator).
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        exit_code = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unreached_total = 0
    print("\nExecutable lines of src/gwharvest that no test reached:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached[str(path)])
        total += len(lines)
        unreached_total += len(unreached)
        if unreached:
            print(f"  {path.name}: {ranges(unreached)}")
    print(f"{unreached_total} of {total} lines unreached (pytest exit {exit_code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
