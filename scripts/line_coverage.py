"""Run the tier-1 tests in this process and list every line of src/relent that never ran.

Usage, from anywhere (extra arguments go to pytest):

    python scripts/line_coverage.py

The tests run with ``--hypothesis-seed=0``, so every run draws the same examples,
under a ``sys.settrace`` tracer that follows only frames whose code lives in
src/relent. A line counts as code when a code object's ``co_lines()`` maps some
bytecode to it; each such line that no trace event reached is printed as
``path:line``. The exit status is 1 when a line never ran, else pytest's own.
Lines that run only in a subprocess a test starts are not seen, so a test that
covers one runs it in this process.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "relent"


def code_lines(code: types.CodeType) -> set[int]:
    """Every line that ``code`` or a code object nested in it maps bytecode to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    # as tier-1's PYTHONPATH=src, for the subprocesses some tests start
    paths = (str(SRC), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None  # no line events in frames outside the package
        return local(frame, event, arg)

    import pytest  # before the tracer, so that only the tests' own calls are traced

    sys.settrace(on_call)  # no test starts a thread, so one thread's tracer sees every line
    try:
        status = pytest.main(["-q", "--hypothesis-seed=0", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    import relent

    if Path(relent.__file__).resolve().parent != PACKAGE:
        print(f"relent was imported from {relent.__file__}, not from {PACKAGE}")
        return 1
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(code_lines(code))
                   if (str(path), line) not in ran]
    for line in missed:
        print(line)
    print(f"{len(missed)} lines of {PACKAGE.relative_to(ROOT)} never ran in tier-1")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
