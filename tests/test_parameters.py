"""A ratchet on defaulted parameters: every parameter with a default
value of a function or method in `src/mulab/*.py` is listed here with
the reason it keeps one, and a new one fails this test until it is
justified here or becomes a constant.

A default that no caller overrides is a constant in disguise, and one
that callers always pass is a required argument; either way the other
values it admits are branches nothing runs.  The count is printed, so
`pytest -s` shows it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mulab").glob("*.py"))

_POLY_M = ("None works over Z or Q (elliptic, _kernel_stable, "
           "iwasawa_modules, the monic kernel); residual passes ell to work "
           "mod ell")

# (module, function or Class.method, parameter): why it keeps a default
ALLOWED = {
    ("analysis", "analyze", "N_prec"): "CLI-fed: --precision",
    ("analysis", "analyze", "layers"): "CLI-fed: --layers",
    ("analysis", "analyze", "ell_bound"): "CLI-fed: --ell-bound",
    ("analysis", "analyze", "cache_dir"): "CLI-fed: --cache",
    ("analysis", "analyze", "verify_cache"): "CLI-fed: --verify-cache",
    ("analysis", "analyze", "spaces"):
        "analyze_many and the bench share one SpaceCache across records",
    ("analysis", "analyze", "curve"):
        "analyze_many passes the model it built, so a_ell are counted once",
    ("analysis", "render_report", "fmt"): "CLI-fed: --format json|table",
    ("arith", "poly_add", "m"): _POLY_M,
    ("arith", "poly_sub", "m"): _POLY_M,
    ("arith", "poly_mul", "m"): _POLY_M,
    ("arith", "poly_monic", "m"): _POLY_M,
    ("arith", "poly_eval", "m"): _POLY_M,
    ("cli", "main", "argv"):
        "None reads sys.argv at the console entry point; tests pass a list",
    ("group_model", "group_from_permutations", "max_size"):
        "bench passes max_size=24; scenarios use 200",
    ("group_model", "group_from_matrices", "max_size"):
        "bench passes max_size=24; scenarios use 200",
    ("liftlab", "_coboundary", "last"):
        "cohomology passes the generators for Z^2, all elements for B",
    ("liftlab", "basis_cocycles", "y_param"):
        "versal_twists_stable passes y mod p^2; g_ram at y = 0 elsewhere",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(tree, module: str):
    """(module, qualified name, parameter) of each parameter with a
    default value, in the module's functions, methods and nested
    functions."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, _FUNCTIONS):
                a = child.args
                positional = a.posonlyargs + a.args
                names = [x.arg for x in
                         positional[len(positional) - len(a.defaults):]]
                names += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                out.update((module, prefix + child.name, x) for x in names)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_defaulted_parameters_match_the_allowlist():
    found = set()
    for path in SRC:
        found |= _defaulted(ast.parse(path.read_text(), filename=str(path)),
                            path.stem)
    print(f"{len(found)} defaulted parameters in src/mulab")
    assert found == set(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
