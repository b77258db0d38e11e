"""A ratchet on dead code: the top-level functions and classes of
`src/mulab/*.py`, and the methods of its classes other than dunders,
that no src module and no `bench/*.py` refers to are listed here, and a
new one fails this test until it gets a caller, moves into the test that
uses it, or is deleted.

A name counts as referred to when it occurs in some other place of those
files as a name, an attribute, an imported name or a string constant
that is a whole identifier (the benchmark's trace points name functions
in such strings); words inside longer strings and docstrings do not
count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mulab").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# (module, name) for a top-level symbol, (module, "Class.method") for a
# method; these are used by tests only
ALLOWED = set()

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree):
    """(name, qualified name) of each top-level function and class and of
    each method that is not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, _FUNCTIONS)
                    and not (m.name.startswith("__")
                             and m.name.endswith("__"))]
    return out


def _referred(tree):
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_no_dead_symbols_outside_allowlist():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in SRC + BENCH}
    referred = set().union(*map(_referred, trees.values()))
    dead = {(path.name, qualified) for path in SRC
            for name, qualified in _defined(trees[path])
            if name not in referred}
    assert dead == ALLOWED
