"""Line census: run the unit tests under the stdlib ``trace`` module and list
every executable line of ``src/`` that no test ran.

    python3 tools/line_census.py

The tests run as ``pytest -m "not hypothesis"`` without
``tests/test_acceptance.py``: the property tests draw their inputs at random,
so a line they alone reach is not reached reliably, and the acceptance suite's
wall-time budgets do not hold under tracing.  Lines under
``if __name__ == "__main__":`` and statements marked ``# pragma: no cover``
are left out of the census; such a mark carries its reason in the comment.

Exits 0 when every other line ran, 1 when a test failed or a line did not
run, listing each such line as ``path:line``.  Line tables differ between
Python versions; CI runs the census on Python 3.11.
"""

from __future__ import annotations

import ast
import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider", "-m", "not hypothesis",
    "--ignore", str(ROOT / "tests" / "test_acceptance.py"), str(ROOT / "tests"),
]
PRAGMA = "# pragma: no cover"
MAIN_GUARD = "__name__ == '__main__'"


def excluded_lines(source: str) -> set[int]:
    """The lines of every statement that is a ``__main__`` guard or whose
    first line carries the pragma, bodies included."""
    lines = source.splitlines()
    out: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        main_guard = isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_GUARD
        if isinstance(node, ast.stmt) and (main_guard or PRAGMA in lines[node.lineno - 1]):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


class _SrcOnly:
    """The tracer's test of which frames to skip: all but those of ``src/``.
    trace's own test caches its answer by module basename, so it would skip
    the package's ``__init__.py`` once it had skipped any other one."""

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(str(SRC) + os.sep)


def main() -> int:
    # Tracing starts before anything imports the package, so module-level
    # lines count as run.
    sys.path.insert(0, str(SRC))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _SrcOnly()
    status = tracer.runfunc(pytest.main, PYTEST_ARGS)
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}

    missed = []
    for path in sorted(SRC.rglob("*.py")):
        skip = excluded_lines(path.read_text(encoding="utf-8"))
        for line in sorted(trace._find_executable_linenos(str(path))):
            # line 0 is a module's entry, which raises no line event
            if line and line not in skip and (path.resolve(), line) not in ran:
                missed.append(f"{path.relative_to(ROOT)}:{line}")
    for where in missed:
        print(f"not run: {where}")
    print(f"census: {len(missed)} unexecuted src/ lines; pytest exit status {int(status)}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
