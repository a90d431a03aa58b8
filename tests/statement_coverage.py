"""Fail when the Tier-1 suite leaves a statement of ``src/antimagic`` unrun.

Run from the repository root, under Python 3.12 or later:

    PYTHONPATH=src python tests/statement_coverage.py [pytest arguments]

It lists every statement under ``src/antimagic`` that runs code, which
leaves out docstrings and ``global`` and ``nonlocal``, and runs the Tier-1
suite in this process through ``pytest.main``, any arguments passed on to it
after ``--hypothesis-seed=0``, so that the random tests reach the same lines
on every run and the verdict does not flap.  A ``sys.monitoring`` (PEP 669)
LINE callback records each line the first time it runs and then disables
itself there, so the run costs little more than an untraced one.  Lines run
only in a child process are not seen.

A statement's own lines are its decorators and its lines up to its body, or
all its lines if it has no body.  It has run when one of its own lines ran,
or, for a compound statement, when its first body statement has.  A line
that two statements own is refused, as its run would not show that both
ran.

The exit status is pytest's when pytest fails, else 1 when some statement
never ran, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antimagic"


def _runs_code(node: ast.AST) -> bool:
    """A statement, but not a docstring (the only string statements here),
    ``global`` or ``nonlocal``, which compile to no code."""
    return isinstance(node, ast.stmt) and not (
        isinstance(node, (ast.Global, ast.Nonlocal))
        or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> set[int]:
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno, *(d.lineno for d in decorators)])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else node.end_lineno
    return set(range(first, max(last, node.lineno) + 1))


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """Each statement of the module at ``path`` that runs code: its first
    line, and the lines any one of whose runs shows that it ran."""
    found, owners = [], Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if not _runs_code(node):
            continue
        own = _own_lines(node)
        owners.update(own)
        body = [n for n in getattr(node, "body", []) if _runs_code(n)]
        found.append((node.lineno, own | (_own_lines(body[0]) if body else set())))
    shared = sorted(line for line, count in owners.items() if count > 1)
    if shared:
        sys.exit(f"{path}: two statements share line {shared[0]}")
    return sorted(found)


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("statement_coverage.py needs Python 3.12 or later (sys.monitoring)")
    import pytest

    targets = {path: statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    hits: set[tuple[str, int]] = set()

    def on_line(code, line):
        hits.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "statement_coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0", *argv]
        )
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    ran: dict[str, set[int]] = {}
    for name, line in hits:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    total = sum(map(len, targets.values()))
    missed = [
        f"{path.relative_to(PACKAGE.parents[1])}:{line}"
        for path, found in targets.items()
        for line, shows in found
        if not shows & ran.get(str(path), set())
    ]
    print(f"statement coverage: {total - len(missed)} of {total} statements reached")
    for where in missed:
        print(f"unreached statement: {where}")
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
