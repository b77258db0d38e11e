"""A ratchet on source size: the statements of each `src/mulab` module,
counted with `ast` so that docstrings and comments never count, stay at
or below the ceiling recorded here for it.

A change that shrinks a module lowers its ceiling to the new count; one
that raises a ceiling says why in CHANGES.md.  The counts are printed,
so `pytest -s` shows them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mulab").glob("*.py"))

CEILINGS = {
    "__init__": 1,
    "analysis": 271,
    "arith": 130,
    "cli": 158,
    "dirichlet": 108,
    "elliptic": 152,
    "errors": 21,
    "group_model": 81,
    "iwasawa_modules": 164,
    "liftlab": 811,
    "linalg": 119,
    "mazur_tate": 108,
    "modp": 62,
    "modsym": 392,
    "padic": 55,
    "residual": 257,
}


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> int:
    """The statements of a module at every depth, bare strings left out."""
    return sum(isinstance(node, ast.stmt) and not _is_docstring(node)
               for node in ast.walk(ast.parse(source)))


def test_statement_counting_skips_docstrings_and_comments():
    plain = "def f(x):\n    y = x + 1\n    return y\n"
    noted = ('"""Module."""\n# a comment\ndef f(x):\n    """Doc."""\n'
             '    # another\n    y = x + 1  # inline\n    return y\n')
    assert statements(plain) == statements(noted) == 3


def test_each_module_stays_within_its_ceiling():
    counts = {path.stem: statements(path.read_text()) for path in SRC}
    print(counts)
    assert set(counts) == set(CEILINGS), "record a ceiling for each module"
    over = {name: (count, CEILINGS[name]) for name, count in counts.items()
            if count > CEILINGS[name]}
    assert over == {}, over
