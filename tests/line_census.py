"""Line census: which function lines of src/wtan does tier-1 never run?

Run from anywhere, with no arguments:

    python tests/line_census.py

It installs a line tracer for src/wtan (sys.settrace and
threading.settrace) before anything imports wtan, runs the tier-1 suite
in this process through pytest.main, and then lists every line of a
function under src/wtan that never ran, as `file:line: source`.  The
lines a function can run are read from its compiled code object, nested
code objects included (co_consts, dis.findlinestarts); module and class
bodies are skipped, since they run at import, before any test.  Child
processes that some tests start are not traced.

Exit status: 0 when every function line ran and tier-1 passed, 1
otherwise.  Line tables depend on the interpreter: from Python 3.12 on,
comprehensions are inlined into their function (PEP 709), so the census
is meant for 3.11.
"""

import dis
import inspect
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "wtan")

ran: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PACKAGE):
        return None
    ran.add((filename, frame.f_lineno))
    return _local


def function_lines(path: str) -> dict[int, str]:
    """Every line that starts an instruction of a function in the file at
    `path` (lambdas and comprehensions too), with its source text."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    lines = {}
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:     # not a module or class body
            for _, line in dis.findlinestarts(code):
                if line is not None:
                    lines[line] = text[line - 1].strip()
    return lines


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(_global)
    sys.settrace(_global)
    import pytest

    status = pytest.main(["-q", "--continue-on-collection-errors",
                          os.path.join(ROOT, "tests")])
    sys.settrace(None)
    threading.settrace(None)
    unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for line, source in sorted(function_lines(path).items()):
            if (path, line) not in ran:
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source}")
                unrun += 1
    print(f"{unrun} function lines of src/wtan not run; tier-1 exit status {int(status)}")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
