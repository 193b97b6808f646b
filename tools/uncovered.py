"""List the statements of src/uhfree that a pytest run never executes.

Usage, from the repository root:

    python tools/uncovered.py [pytest arguments]

The arguments go to pytest unchanged (default: the whole suite, quiet).
pytest runs in this process under a `sys.settrace` hook that records the
lines executed in the package's source files; the hook is installed
before the package is imported, so module-level statements count.  Then
every statement that no line event reached is printed as
`path:line: source`, and a count per file.  Docstrings are not
statements here.  A compound statement (def, if, for, with, ...) counts
as executed when its header ran, and a `try` is left out: its body and
handlers are listed on their own.

Hypothesis runs under a derandomized profile (`derandomize=True`, which
also turns off its example database), loaded before pytest imports the
tests, so each property test draws the same examples on every run and
the list is a function of the tree.

Only this process is traced.  Tests that run `python -m uhfree.cli` in a
subprocess execute nothing here, so what only they reach is listed too,
such as the body of `cli._lazy`'s loader and the `__main__` guard.
Line tracing slows the package down several times, so tests that assert
a wall time may fail under the hook; the pytest exit status is printed,
and such a failure can leave the rest of its test unexecuted.

Besides the standard library it needs only pytest and hypothesis, the
suite's own dependencies.  This is a manual tool, not part of the suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uhfree"


def statements(path: Path) -> dict[int, tuple[int, int]]:
    """Each statement's first line, mapped to the lines that count as running it."""
    tree = ast.parse(path.read_text(), str(path))
    found: dict[int, tuple[int, int]] = {}

    def visit(body: list[ast.stmt]) -> None:
        for k, node in enumerate(body):
            docstring = (
                k == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if not (docstring or isinstance(node, ast.Try)):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                inner = [getattr(node, name, None) for name in ("body", "orelse", "handlers")]
                starts = [block[0].lineno for block in inner if block]
                last = max(node.lineno, min(starts) - 1) if starts else node.end_lineno
                found[node.lineno] = (first, last)
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, None) or [])
            for handler in getattr(node, "handlers", ()):
                last = max(handler.lineno, handler.body[0].lineno - 1)
                found[handler.lineno] = (handler.lineno, last)
                visit(handler.body)

    visit(tree.body)
    return found


class Derandomized:
    """A pytest plugin that loads a derandomized hypothesis profile before
    the test modules, whose @settings read the loaded profile, are imported."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("uncovered", derandomize=True)
        settings.load_profile("uncovered")


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}
    # a code object's file name as the import gave it, resolved once
    known: dict[str, str | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in hit else None
        if known[name] is None:
            return None
        lines = hit[known[name]]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    if any(name == "uhfree" or name.startswith("uhfree.") for name in sys.modules):
        raise SystemExit("uhfree is imported already; its module-level lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Derandomized]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        lines = path.read_text().splitlines()
        missed = [
            start
            for start, (first, last) in sorted(statements(path).items())
            if not hit[name].intersection(range(first, last + 1))
        ]
        rel = path.relative_to(ROOT)
        for start in missed:
            print(f"{rel}:{start}: {lines[start - 1].strip()}")
        if missed:
            print(f"{rel}: {len(missed)} statements never executed")
        total += len(missed)
    print(f"{total} statements never executed; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
