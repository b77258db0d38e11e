"""A standing mutation fuzz of the three subcommands: seeded JSON-level
mutants of the shipped inputs run through `cli.main` in-process, and
each must keep the documented contract.

- The exit code is 0, 2 (invariant violation) or 3 (input error or a
  refusal); an uncaught exception fails the case with its traceback.
- No traceback is printed.
- stderr is empty on exit 0, starts with `invariant violation:` on 2,
  and with `input error:` or `error:` on 3.
- Each case stays under CASE_SECONDS, and the whole fuzz under
  TOTAL_SECONDS.

A mutant changes one place of the document: it retypes a value (a key's
value or a list entry, the document itself included), drops a key of an
object, or duplicates a list entry next to itself.  The inputs are the
curve records of the shipped curve files, one record per document,
analyzed at `--p 5`; the `presentation` entries of
`tests/golden/lambda_invariants.json`; and the lift-lab scenarios of
`data/scenarios` and `tests/scenarios`.

The `analyze --config` file is mutated as well, exhaustively: each key
the CLI reads from it gets an int, a negative int, a quoted string or a
bool, or loses its line, and `data/curves_11a.json` is analyzed with
the mutant from a temporary working directory, so that a string `cache`
writes only there.

Each input that breaks the contract becomes a named regression case in
the test of its subcommand:
`test_cli_lambda_invariants_rejects_a_document_that_is_not_an_object`
is the first, `test_cli_rejects_config_format_and_cache_of_the_wrong_kind`
the second.
"""

import copy
import json
import random
import time
from pathlib import Path

from mulab.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEED = 28
CASES = {"analyze": 150, "lambda-invariants": 150, "lift-lab": 150}
CASE_SECONDS = 2.0
TOTAL_SECONDS = 10.0
PREFIXES = {2: ("invariant violation: ",), 3: ("input error: ", "error: ")}
# one value of each JSON type, and ints that are out of range almost
# everywhere
REPLACEMENTS = (None, True, 0, -1, 7, 2.5, "x", [], {}, [0])
# the analyze config the mutants start from, one line per key the CLI
# reads, and the values a line is given (None drops it)
CONFIG = {"p": "5", "precision": "6", "layers": "3", "ell_bound": "200",
          "format": '"table"', "cache": '"cache"'}
CONFIG_VALUES = ("7", "-1", '"x"', "true", None)


def _inputs():
    """(subcommand, list of input documents)."""
    curves = [[record] for name in ("corpus_reducible.json",
                                    "curves_11a.json")
              for record in json.loads((ROOT / "data" / name).read_text())]
    golden = json.loads(
        (ROOT / "tests" / "golden" / "lambda_invariants.json").read_text())
    presentations = [case["presentation"] for case in golden]
    scenarios = [json.loads(path.read_text()) for folder in
                 ("data/scenarios", "tests/scenarios")
                 for path in sorted((ROOT / folder).glob("*.json"))]
    return {"analyze": curves, "lambda-invariants": presentations,
            "lift-lab": scenarios}


def _places(doc, path=()):
    """(path, value) of the document and of every value inside it."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _places(value, path + (key,))


def _mutate(doc, rng):
    """(description, mutant) of one seeded mutation of doc."""
    places = list(_places(doc))
    kinds = ["retype"]
    if any(isinstance(v, dict) and v for _, v in places):
        kinds.append("drop")
    if any(isinstance(v, list) and v for _, v in places):
        kinds.append("duplicate")
    kind = rng.choice(kinds)
    if kind == "retype":
        path, old = rng.choice(places)
        new = rng.choice([r for r in REPLACEMENTS
                          if type(r) is not type(old)])
    else:
        want = dict if kind == "drop" else list
        path, old = rng.choice([(p, v) for p, v in places
                                if isinstance(v, want) and v])
        key = rng.choice(list(old) if kind == "drop" else range(len(old)))
        new = copy.deepcopy(old)
        if kind == "drop":
            del new[key]
        else:
            new.insert(key, copy.deepcopy(old[key]))
    mutant = copy.deepcopy(doc)
    if not path:
        return f"{kind} at the root", new
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return f"{kind} at {list(path)}", mutant


def _config_mutants():
    """(description, config text) for each key and each of
    CONFIG_VALUES."""
    for key in CONFIG:
        for value in CONFIG_VALUES:
            lines = ["[analyze]"] + [
                f"{k} = {value if k == key else v}" for k, v in CONFIG.items()
                if k != key or value is not None]
            what = f"{key} dropped" if value is None else f"{key} = {value}"
            yield what, "\n".join(lines) + "\n"


def _keeps_contract(rc, err: str) -> bool:
    if rc == 0:
        return err == ""
    return (rc in PREFIXES and err.startswith(PREFIXES[rc])
            and "Traceback" not in err)


def _argv(command, path):
    return {"analyze": ["analyze", "--curves", path, "--p", "5"],
            "lambda-invariants": ["lambda-invariants", "--presentation",
                                  path],
            "lift-lab": ["lift-lab", "run", path]}[command]


def test_cli_keeps_the_exit_contract_on_mutated_inputs(tmp_path, capsys,
                                                       monkeypatch):
    rng = random.Random(SEED)
    inputs = _inputs()
    broken, codes = [], {command: set() for command in CASES}
    codes["analyze --config"] = set()

    def run(command, case, argv):
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        case = f"{case} -> exit {rc}, {err[:80]!r}"
        if not _keeps_contract(rc, err):
            broken.append(case)
        elif elapsed > CASE_SECONDS:
            broken.append(f"{case} after {elapsed:.2f} s")
        else:
            codes[command].add(rc)

    start = time.perf_counter()
    for command, count in CASES.items():
        for i in range(count):
            doc = rng.choice(inputs[command])
            what, mutant = _mutate(doc, rng)
            path = tmp_path / f"{command}-{i}.json"
            path.write_text(json.dumps(mutant))
            run(command, f"{command} #{i}: {what}", _argv(command, str(path)))
    monkeypatch.chdir(tmp_path)
    curves = str(ROOT / "data" / "curves_11a.json")
    for i, (what, text) in enumerate(_config_mutants()):
        path = tmp_path / f"config-{i}.toml"
        path.write_text(text)
        run("analyze --config", f"analyze --config #{i}: {what}",
            ["analyze", "--curves", curves, "--config", str(path)])
    total = time.perf_counter() - start
    assert broken == []
    # some mutants of each input kind pass the input checks and run
    assert all({0, 3} <= seen for seen in codes.values()), codes
    assert total < TOTAL_SECONDS, total
