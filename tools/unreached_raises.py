"""Print each `raise` statement in src/ecgmatch that the tier-1 tests never execute.

Runs the tier-1 suite (pytest from the repository root, as ROADMAP.md gives
it) in this process under `sys.settrace`, records the lines run in the
package's own modules, and prints `path:line` for every raise statement whose
first line never ran, in file order. It exits 1 when it prints a line, and
with pytest's exit code otherwise, so "every raise is reached by a tier-1
test" is checked by the exit code. Code that a test runs in another process
(a fresh interpreter, a gridsearch worker) is not traced, so a raise reached
only there is listed. Tracing slows the suite about twofold.

    python tools/unreached_raises.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecgmatch"


def raise_lines(path: Path) -> list[int]:
    """The first line of every raise statement in the module at `path`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Raise))


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout, not an installed copy
    import pytest

    executed: dict = {}  # code file name -> its set of executed lines, or None outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in executed:
            executed[name] = set() if Path(name).resolve().parent == PACKAGE else None
        return None if executed[name] is None else trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run: dict = {}
    for name, lines in executed.items():
        if lines is not None:
            run.setdefault(Path(name).resolve(), set()).update(lines)
    unreached = [f"{path.relative_to(ROOT)}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in raise_lines(path) if line not in run.get(path, ())]
    for entry in unreached:
        print(entry)
    return 1 if unreached else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
