"""Fail when the Tier-1 suite leaves a ``raise`` in ``src/antimagic`` unreached.

Run from the repository root, under Python 3.12 or later:

    PYTHONPATH=src python tests/raise_coverage.py [pytest arguments]

It lists every ``raise`` statement under ``src/antimagic`` and runs the
Tier-1 suite in this process through ``pytest.main``, any arguments passed on
to it after ``--hypothesis-seed=0``, so that the random tests reach the same
lines on every run and the verdict does not flap.  A ``sys.monitoring``
(PEP 669) LINE callback records each line the first time it runs and then
disables itself there, so the run costs little more than an untraced one.
Lines run only in a child process are not seen.

The exit status is pytest's when pytest fails, else 1 when some ``raise``
line never ran and no entry of ``ALLOWED`` names it, or when an entry names
no ``raise`` or a ``raise`` that ran; else 0.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from collections import Counter
from pathlib import Path

# each raise that Tier-1 may leave unreached, named by its function and the
# start of its message as written (an f-string's fields as in the source),
# with the reason it stays
ALLOWED = [
    ("partition_ap", "{t}x{s} partition does not cover the AP",
     "the partition command's certificate of its cover, as certify is a build's"),
    ("partition_ap", "{t}x{s} partition has unequal block sums",
     "the partition command's certificate of its equal sums, as certify is a build's"),
]

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antimagic"


def _message(source: str, node: ast.Raise) -> str:
    """The first string argument of the raise's exception, else its first
    argument, as written, without a string's prefix and quotes."""
    args = node.exc.args if isinstance(node.exc, ast.Call) else []
    if not args:
        return ""
    first = next((a for a in args if isinstance(a, ast.JoinedStr)
                  or isinstance(a, ast.Constant) and isinstance(a.value, str)), args[0])
    text = ast.get_source_segment(source, first)
    return re.sub(r"""^[rbfuRBFU]*(['"])(.*)\1$""", r"\2", text, flags=re.S)


def raises(path: Path) -> list[tuple[int, str, str]]:
    """Each raise in the module at ``path``: its line, the qualified name of
    the function that holds it and its message (:func:`_message`).  A raise
    that shares its first line with another statement is refused, as a run
    of that line would not show that the raise ran."""
    source = path.read_text()
    found, starts = [], Counter()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                starts[child.lineno] += 1
            if isinstance(child, ast.Raise):
                found.append((child.lineno, ".".join(scope), _message(source, child)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (*scope, child.name) if named else scope)

    visit(ast.parse(source), ())
    shared = [line for line, _, _ in found if starts[line] > 1]
    if shared:
        sys.exit(f"{path}: a raise shares line {shared[0]} with another statement")
    return found


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("raise_coverage.py needs Python 3.12 or later (sys.monitoring)")
    import pytest

    targets = {path: raises(path) for path in sorted(PACKAGE.glob("*.py"))}
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    hits: set[tuple[str, int]] = set()

    def on_line(code, line):
        hits.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "raise_coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0", *argv]
        )
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    reached = {(os.path.realpath(name), line) for name, line in hits}
    total = sum(map(len, targets.values()))
    missed, unreached, matched = [], 0, {}
    for path, found in targets.items():
        for line, function, message in found:
            ran = (str(path), line) in reached
            unreached += not ran
            entries = [e for e in ALLOWED if e[0] == function and message.startswith(e[1])]
            for entry in entries:
                matched[entry] = matched.get(entry, False) or ran
            if not (ran or entries):
                where = path.relative_to(PACKAGE.parents[1])
                missed.append(f"{where}:{line} in {function}: {message}")

    print(f"raise coverage: {total - unreached} of {total} raise lines reached, "
          f"{unreached - len(missed)} unreached on the allow-list")
    for where in missed:
        print(f"unreached raise: {where}")
    stale = [entry for entry in ALLOWED if matched.get(entry, True)]
    for entry in stale:
        why = "its raise was reached" if entry in matched else "it matches no raise"
        print(f"stale allow-list entry {entry[0]}: {entry[1]}: {why}")
    if status != 0:
        return int(status)
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
