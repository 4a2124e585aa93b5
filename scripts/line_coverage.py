#!/usr/bin/env python3
"""List the statements of src/pqnorm that a pytest run never executes.

    python3 scripts/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on tests/, quietly) under a
sys.settrace line tracer, so coverage.py is not needed, and prints for each
module of src/pqnorm the lines that hold code but never ran, as ranges.
The lines that hold code are the line starts of every code object compiled
from the file (dis.findlinestarts): a docstring or a comment is never
listed, and a statement spread over several lines may list a continuation
line on its own.  Threads started after the tracer is installed are traced
too (threading.settrace), as the sweep's thread pool is.  Only frames of
src/pqnorm get a line trace, so the run is a few times slower than plain
pytest, not a hundred.  The exit status is pytest's.
"""

from __future__ import annotations

import dis
import glob
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def code_lines(path: str) -> set:
    """The line numbers at which some code object of the file starts a line."""
    with open(path, encoding="utf-8") as fp:
        stack = [compile(fp.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list) -> str:
    """'3, 7-9, 12' for [3, 7, 8, 9, 12] (consecutive code lines merge)."""
    out, start, prev = [], None, None
    for line in lines + [None]:
        if start is not None and (line is None or line != prev + 1):
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
        if start is None:
            start = line
        prev = line
    return ", ".join(out)


def main(argv: list) -> int:
    import pytest

    files = sorted(glob.glob(os.path.join(SRC, "pqnorm", "*.py")))
    hit = {os.path.realpath(f): set() for f in files}
    by_name: dict = {}  # co_filename -> its module's set of hit lines, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, False)
        if lines is False:
            lines = by_name[name] = hit.get(os.path.realpath(name))
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, SRC)  # and for the tests' subprocesses, which run untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    print("statements of src/pqnorm never executed:")
    for path in files:
        code = code_lines(path)
        miss = sorted(code - hit[os.path.realpath(path)])
        total, missed = total + len(code), missed + len(miss)
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {len(miss)} of {len(code)}" + (f": {ranges(miss)}" if miss else ""))
    print(f"total: {missed} of {total} code lines never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
