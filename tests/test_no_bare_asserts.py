"""`python -O` strips `assert` statements, so a check in src that must
hold in every run raises a typed error instead.  An assert kept in src
on purpose is listed here by enclosing function and count (none is); a
new one fails this test until it is turned into a raise or listed."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mulab"

ALLOWED = {}


def _asserts(tree, scope=()):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _asserts(node, scope + (node.name,))
        else:
            if isinstance(node, ast.Assert):
                yield ".".join(scope) or "<module>"
            yield from _asserts(node, scope)


def test_no_bare_asserts_outside_allowlist():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in _asserts(tree):
            found[(path.name, scope)] += 1
    assert dict(found) == ALLOWED
