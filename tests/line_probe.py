"""Every executable line of src/fldp/ runs under the fast tests.

Runs the tests not marked slow in this process under ``sys.settrace``
(and ``threading.settrace``, for the OLH tally's worker threads), records
each line of ``src/fldp/`` that executes, and fails, listing them, if any
executable line did not run and is not on ``ALLOWED``. A line is
executable when the compiler emits an instruction for it: the line
numbers ``co_lines()`` gives for the module's code objects, nested ones
included. An allowed line that runs, or that no longer exists, fails the
probe too, so the list cannot go stale.

Its name keeps pytest from collecting it. From the repository root:

    python tests/line_probe.py

A traced run takes about twice as long as an untraced one.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fldp"

# (file, stripped source text) -> why no test runs the line
ALLOWED = {
    ("__main__.py", "import sys"): "runs only as python -m fldp",
    ("__main__.py", "from .cli import main"): "runs only as python -m fldp",
    ("__main__.py", 'if __name__ == "__main__":'): "runs only as python -m fldp",
    ("__main__.py", "sys.exit(main())"): "runs only as python -m fldp",
    ("cli.py", "sys.exit(main())"): "runs only as python -m fldp.cli",
    (
        "wire.py",
        'raise AssertionError("a chunk failed to convert, yet every report is an int64")',
    ): "defensive: a chunk numpy refused holds a report the walk names first",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiler emits instructions for in ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's first instruction sits on line 0, which holds no source
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "-m", "not slow", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"line probe: the tests failed (pytest exit {status})")
        return int(status)

    unreached, allowed, total = [], set(), 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached[name]):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    stale = [f"{file}: {text}" for file, text in ALLOWED if (file, text) not in allowed]
    print(f"line probe: {total - len(unreached) - len(allowed)} of {total} executable lines "
          f"of src/fldp ran; {len(allowed)} allowed lines did not")
    for entry in unreached:
        print(f"unreached: {entry}")
    for entry in stale:
        print(f"allowed but ran or gone: {entry}")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
