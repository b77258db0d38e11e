import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mulab.analysis import (
    CurveRecord,
    _same_radical,
    analyze,
    analyze_many,
    ingest,
    render_report,
)
from mulab.arith import factorize
from mulab.elliptic import Curve
from mulab import iwasawa_modules, liftlab
from mulab.cli import MAX_PRECISION, main
from mulab.errors import (
    BadReduction,
    InconsistentAp,
    InvalidModel,
    InvariantViolation,
    NoFrobeniusScalar,
    NotOrdinary,
    ParseError,
    SizeBound,
)
from mulab.modsym import MAX_CONDUCTOR
from mulab.residual import frobenius_scalar, kernel_polynomials


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_ingest_point_count_fill(tmp_path):
    path = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11}])
    (rec,) = ingest(path)
    assert rec.curve().ap(2) == -2


def test_ingest_rejects_wrong_ap(tmp_path):
    path = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11,
         "ap": {"2": 1}}])
    with pytest.raises(InconsistentAp):
        ingest(path)


def test_ingest_rejects_singular_and_bad_conductor(tmp_path):
    path = write_json(tmp_path, "c.json", [
        {"label": "x", "ainvs": [0, 0, 0, 0, 0], "conductor": 11}])
    with pytest.raises(InvalidModel):
        ingest(path)
    path = write_json(tmp_path, "c2.json", [
        {"label": "x", "ainvs": [0, -1, 1, -10, -20], "conductor": 15}])
    with pytest.raises(InvalidModel):
        ingest(path)


def test_ingest_refuses_a_huge_model_without_factoring(tmp_path, capsys):
    """The discriminant of this model has 90 digits and is no power of 11
    times a unit: the gcd comparison refuses it at once, where trial
    division of the discriminant did not finish."""
    path = write_json(tmp_path, "c.json", [
        {"label": "big", "ainvs": [0, -10**30, 1, -10, -20],
         "conductor": 11}])
    start = time.perf_counter()
    rc = main(["analyze", "--curves", path, "--p", "5"])
    assert time.perf_counter() - start < 1
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: big:")
    assert "conductor 11" in err


@pytest.mark.parametrize("conductor", [0, -11, True, "11", 11.0, None])
def test_cli_refuses_a_conductor_that_is_no_positive_int(tmp_path, capsys,
                                                         conductor):
    path = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": conductor}])
    assert main(["analyze", "--curves", path, "--p", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: 11a1: conductor must be a positive "
                          f"integer, got {conductor!r}"), err


def _same_primes_by_factoring(x: int, y: int) -> bool:
    """The comparison `_same_radical` replaced in `ingest`: the primes of
    both numbers by trial division."""
    return set(factorize(x)) == set(factorize(y))


def test_same_radical_matches_the_factored_comparison():
    """On every shipped curve against N, 2N, 3N, N^2 and 1, with the
    model's own bad primes as the oracle, and on seeded products of small
    prime powers."""
    checked = 0
    for path in ("data/corpus_reducible.json", "data/curves_11a.json"):
        for rec in json.loads(open(path).read()):
            E, N = Curve(*rec["ainvs"]), rec["conductor"]
            for M in (N, 2 * N, 3 * N, N * N, 1):
                assert _same_radical(abs(E.discriminant), M) == \
                    (set(E.bad_primes()) == set(factorize(M))), \
                    (rec["label"], M)
                checked += M == N
    assert checked == 19
    rng = random.Random(26)
    primes = [2, 3, 5, 7, 11, 13, 101]
    agree = 0
    for _ in range(400):
        x, y = (math.prod(q**rng.randint(1, 3) for q in
                          rng.sample(primes, rng.randint(0, 3)))
                for _ in range(2))
        if rng.random() < 0.3:
            y = x * rng.choice([1, x, 2, 9])
        want = _same_primes_by_factoring(x, y)
        assert _same_radical(x, y) == want, (x, y)
        agree += want
    assert agree > 50


def test_ingest_empty_and_parse_error(tmp_path):
    path = write_json(tmp_path, "c.json", [])
    assert ingest(path) == []
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        ingest(str(bad))
    with pytest.raises(ParseError):
        ingest(str(tmp_path / "missing.json"))


REC_11A1 = CurveRecord("11a1", (0, -1, 1, -10, -20), 11)
REC_37A1 = CurveRecord("37a1", (0, 0, 1, -1, 0), 37)
FROBENIUS_FIXTURE = json.loads(
    (Path(__file__).parent / "golden" / "frobenius_scalars.json")
    .read_text())


def supplied_kernels(rec: CurveRecord, p: int) -> CurveRecord:
    """rec with the kernels of the Frobenius fixture's record of the same
    label and p supplied as its kernel_polys at p."""
    fixture = next(r for r in FROBENIUS_FIXTURE
                   if (r["label"], r["p"]) == (rec.label, p))
    kernels = [tuple(Fraction(c) for c in k) for k in fixture["kernels"]]
    return replace(rec, kernel_polys={p: kernels})


# 11a1 at p = 5 with its two kernels supplied: each line's character
# comes from `frobenius_scalar`
REC_11A1_KERNELS = supplied_kernels(REC_11A1, 5)


def test_analyze_rejects_bad_p():
    with pytest.raises(BadReduction):
        analyze(REC_11A1, 11)
    # 37a1 has a_3 = -3: not ordinary at 3
    with pytest.raises(NotOrdinary):
        analyze(REC_37A1, 3)


def test_analyze_conductor_77_base_value():
    # the Tate model with a rational 3-torsion point at t = -8: L/Omega is
    # 2/9, which a period good to ~1e-16 failed to rationalize
    rep = analyze(CurveRecord("N77", (-8, 0, 1, 0, 0), 77), 3)
    assert rep["normalization"]["base_symbol_value"] == "2/9"


def test_analyze_propagates_unexpected_frobenius_errors(monkeypatch):
    from mulab import analysis

    def broken(*args, **kwargs):
        raise ZeroDivisionError("broken Frobenius scalar")

    monkeypatch.setattr(analysis, "frobenius_scalar", broken)
    with pytest.raises(ZeroDivisionError):
        analyze(REC_11A1_KERNELS, 5)


def test_analyze_irreducible_still_reports_mu():
    # the conductor-19 curve is irreducible at p = 5 (no 5-isogeny),
    # rank 0 and ordinary there; mu/lambda are still computed
    rep = analyze(CurveRecord("n19-1", (0, 1, 1, 1, 0), 19), 5, layers=2)
    assert rep["reducible"] is False
    assert rep["classification"] == "irreducible"
    assert "mu" in rep and "lambda" in rep


def test_analyze_11a1_report_fields():
    rep = analyze(REC_11A1, 5)
    assert rep["reducible"] and rep["ss"] == ["1", "chi"]
    assert rep["classification"] == "aligned"
    assert rep["alignment_degree"]["kind"] == "congruence-lower-bound"
    assert rep["mu"] == 1 and rep["lambda"] == 0
    assert rep["normalization"]["base_symbol_value"] == "1/5"
    assert rep["precision"]["N"] == 6
    assert any("main conjecture" in a for a in rep["assumptions"])


def test_analyze_many_isogeny_class_checks():
    recs = [CurveRecord("11a1", (0, -1, 1, -10, -20), 11),
            CurveRecord("11a3", (0, -1, 1, 0, 0), 11)]
    reports = analyze_many(recs, lambda r: 5)
    assert [r["mu"] for r in reports] == [1, 0]
    assert reports[0]["lambda"] == reports[1]["lambda"]


@pytest.mark.parametrize("labels, level, classes, walks", [
    pytest.param(("11a1", "11a2", "11a3"), 11, 1,
                 [(5, n) for n in range(4)], id="11a-one-class"),
    pytest.param(("n26-1", "n26-3"), 26, 2,
                 [(3, n) for n in range(4)] + [(7, n) for n in range(4)],
                 id="n26-two-classes"),
])
def test_one_space_cache_shares_what_a_class_shares(monkeypatch, labels,
                                                    level, classes, walks):
    """Corpus curves of one level through one SpaceCache, each at its p:
    one joint kernel per class (a nullspace of (T_q - a_q)^T, q the first
    match prime, and two restrictions) and one walk per class and
    (p, n), and each report is the one a fresh cache gives.  11a1, 11a2
    and 11a3 are one class; n26-1 and n26-3 share the level but not
    their a_ell, so they share nothing."""
    from mulab import mazur_tate, modsym
    from mulab.analysis import SpaceCache
    records = [rec for rec in ingest("data/corpus_reducible.json")
               if rec.label in labels]
    fresh = [analyze(rec, rec.p) for rec in records]
    nullspaces, walked = [], []
    nullspace, walk_sums = modsym.nullspace, mazur_tate._walk_sums

    def counted_nullspace(rows):
        nullspaces.append(len(rows))
        return nullspace(rows)

    def counted_walk(space, num, p, n):
        walked.append((p, n))
        return walk_sums(space, num, p, n)

    monkeypatch.setattr(modsym, "nullspace", counted_nullspace)
    monkeypatch.setattr(mazur_tate, "_walk_sums", counted_walk)
    spaces = SpaceCache()
    assert [analyze(rec, rec.p, spaces=spaces) for rec in records] == fresh
    assert len(nullspaces) == 3 * classes
    assert walked == walks
    assert len(spaces.get(level)._functionals) == classes


def test_report_determinism(tmp_path):
    recs = [REC_11A1]
    a = render_report(analyze_many(recs, lambda r: 5), "json")
    b = render_report(analyze_many(recs, lambda r: 5), "json")
    assert a == b
    table = render_report(analyze_many(recs, lambda r: 5), "table")
    assert "main conjecture" in table


def test_cache_roundtrip_and_verify(tmp_path):
    cache = str(tmp_path / "cache")
    rep1 = analyze(REC_11A1, 5, cache_dir=cache)
    # second run hits the cache; --verify-cache recomputes and compares
    rep2 = analyze(REC_11A1, 5, cache_dir=cache, verify_cache=True)
    assert rep1["mu"] == rep2["mu"]
    theta_file = tmp_path / "cache" / "11a1" / "5" / "theta_1.json"
    assert theta_file.exists()


def test_cli_analyze_exit_codes(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", "5",
               "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["mu"] == 1
    rc = main(["analyze", "--curves", str(tmp_path / "nope.json"),
               "--p", "5"])
    assert rc == 3


@pytest.mark.parametrize("argv, err", [
    pytest.param(["analyze", "--curves", "data/curves_11a.json", "--p", "5",
                  "--layers", "x"],
                 "mu-lab analyze: argument --layers: invalid int value: 'x'",
                 id="bad-int"),
    pytest.param(["analyze", "--curves", "data/curves_11a.json",
                  "--bogus"],
                 "mu-lab: unrecognized arguments: --bogus",
                 id="unknown-flag"),
    pytest.param(["analyze", "--p", "5"],
                 "mu-lab analyze: the following arguments are required: "
                 "--curves", id="missing-curves"),
    pytest.param([], "mu-lab: the following arguments are required: "
                     "command", id="no-subcommand"),
    pytest.param(["lift-lab"], "mu-lab lift-lab: the following arguments "
                               "are required: liftcmd",
                 id="lift-lab-without-run"),
])
def test_cli_usage_errors_exit_3(capsys, argv, err):
    """A usage error argparse finds is an input error: exit 3 with
    `input error:` and the usage line, not argparse's own exit 2, which
    the contract keeps for invariant violations."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"input error: {err}\n"), stderr
    assert "usage: mu-lab" in stderr


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"],
                                  ["lift-lab", "run", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mu-lab")


@pytest.mark.parametrize("p", ["2", "9", "1", "-5"])
def test_cli_rejects_p_not_odd_prime(tmp_path, capsys, p):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", p])
    assert rc == 3
    assert "input error:" in capsys.readouterr().err


def test_cli_rejects_large_composite_p_at_once(tmp_path, capsys):
    # (10^9 + 7)(10^9 + 9): trial division would take minutes
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    rc = main(["analyze", "--curves", curves,
               "--p", str((10**9 + 7) * (10**9 + 9))])
    assert rc == 3
    assert "input error: p must be an odd prime" in capsys.readouterr().err


def test_cli_rejects_p_beyond_theta_bound(tmp_path, capsys):
    # a prime; count_points alone would allocate a table of p entries
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", "1000000000000000003"])
    assert rc == 3
    assert "exceeds 100000" in capsys.readouterr().err
    rc = main(["analyze", "--curves", curves, "--p", "3",
               "--layers", "10"])
    assert rc == 3
    assert "p^(layers+1) = 3^11 exceeds 100000" in capsys.readouterr().err
    rc = main(["analyze", "--curves", curves, "--p", "17",
               "--layers", "2", "--format", "table"])
    assert rc == 0


def test_cli_refuses_layers_a_later_layer_contradicts(tmp_path, capsys):
    """[5,0,8,0,0] (N = 182) at p = 3: layers 1-2 read (1, 2) and layer 3
    reads (0, 10), so the default three layers refuse; with four, layers
    3-4 agree on (0, 10)."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "t182", "ainvs": [5, 0, 8, 0, 0], "conductor": 182}])
    rc = main(["analyze", "--curves", curves, "--p", "3"])
    assert rc == 3
    assert "NotStabilized" in capsys.readouterr().err
    rc = main(["analyze", "--curves", curves, "--p", "3", "--layers", "4",
               "--precision", "10"])
    assert rc == 0
    (rep,) = json.loads(capsys.readouterr().out)
    assert (rep["mu"], rep["lambda"], rep["stabilized_at"]) == (0, 10, 4)
    assert rep["layer_invariants"] == [[1, 2], [1, 2], [0, 10], [0, 10]]


def test_cli_adds_frobenius_primes_until_one_line_character_fits(
        tmp_path, capsys):
    """[-5,0,4,0,0] (N = 466) at p = 3: the line's character is one of
    the semisimplification pair (1, chi-bar), which differ at the first
    good prime ell = 5, where the scalar 1 picks the trivial character
    (six scalars alone leave two characters of the search modulus).
    mu = 0 on the Z/p side, as Greenberg-Vatsal predict."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "t466", "ainvs": [-5, 0, 4, 0, 0], "conductor": 466}])
    rc = main(["analyze", "--curves", curves, "--p", "3"])
    assert rc == 0
    (rep,) = json.loads(capsys.readouterr().out)
    assert rep["classification"] == "skew"
    assert rep["line_characters"] == ["1"]
    assert (rep["mu"], rep["lambda"]) == (0, 2)


def test_analyze_refuses_unmatched_line_scalars_at_once(monkeypatch):
    """A scalar on a supplied line that is neither root of
    X^2 - a_q X + q mod p at the separating prime q is a fault:
    InvariantViolation after the one call at q = 3 (11a1 at p = 5, roots
    1 and 3)."""
    from mulab import analysis
    calls = []

    def no_unit(E, k, ell, p):
        calls.append(ell)
        return 0

    monkeypatch.setattr(analysis, "frobenius_scalar", no_unit)
    with pytest.raises(InvariantViolation, match="Frob_3 scalar 0"):
        analyze(REC_11A1_KERNELS, 5)
    assert calls == [3]


def test_analyze_refuses_a_line_without_scalars(monkeypatch):
    """A supplied line that passed the kernel checks but is refused a
    scalar at its separating prime (NoFrobeniusScalar or BadReduction)
    is an internal fault: InvariantViolation after the one call at
    q = 3, with no other prime tried."""
    from mulab import analysis

    for error in (NoFrobeniusScalar, BadReduction):
        calls = []

        def refused(E, k, ell, p):
            calls.append(ell)
            raise error("refused")

        monkeypatch.setattr(analysis, "frobenius_scalar", refused)
        with pytest.raises(InvariantViolation,
                           match="no Frob_3 scalar .*: refused$"):
            analyze(REC_11A1_KERNELS, 5, ell_bound=20)
        assert calls == [3]


def supplied_three_ways(records, p_of):
    """(separating primes, [records, records, records]): each record with
    its computed kernels at its p supplied as kernel_polys, monic, times
    -3/7 and times its separating prime q (no line: an empty list)."""
    qs, ways = [], [[], [], []]
    for rec in records:
        p = p_of(rec)
        q, lines = kernel_polynomials(rec.curve(), p)
        qs.append(q)
        for way, scale in zip(ways, (1, Fraction(-3, 7), q)):
            way.append(replace(rec, kernel_polys={
                p: [tuple(c * scale for c in k) for k, _ in lines]}))
    return qs, ways


def test_corpus_takes_one_frobenius_scalar_per_kernel_line(monkeypatch):
    """analyze_many over the corpus and curves_11a.json (p = 5) takes no
    Frobenius scalar: each computed line's character comes from its
    separating prime q.  With every record's computed kernels supplied,
    monic, times a rational or times q, it gives the same report bytes
    with exactly one successful scalar per kernel line, at q, and none
    refused: 19 lines of the corpus and 4 of curves_11a.json."""
    from mulab import analysis
    ok, refused = [], []

    def counting(E, k, ell, p):
        try:
            lam = frobenius_scalar(E, k, ell, p)
        except (NoFrobeniusScalar, BadReduction):
            refused.append(ell)
            raise
        ok.append(ell)
        return lam

    monkeypatch.setattr(analysis, "frobenius_scalar", counting)
    counts = []
    for path, p_of in (("data/corpus_reducible.json", lambda rec: rec.p),
                       ("data/curves_11a.json", lambda rec: 5)):
        records = ingest(path)
        want = render_report(analyze_many(records, p_of))
        assert ok == refused == []
        qs, ways = supplied_three_ways(records, p_of)
        for supplied in ways:
            assert render_report(analyze_many(supplied, p_of)) == want
            assert ok == [q for q, rec in zip(qs, supplied)
                          for _ in rec.kernel_polys[p_of(rec)]]
            assert refused == []
            counts.append(len(ok))
            ok.clear()
    assert counts == [19] * 3 + [4] * 3


def test_supplied_empty_kernel_list_reports_no_kernel_data(monkeypatch):
    """An empty kernel_polys list at p is a reducible curve without line
    data, as before: no separating prime is sought and no scalar taken."""
    from mulab import analysis

    def never(*args):
        raise AssertionError("called")

    monkeypatch.setattr(analysis, "separating_prime", never)
    monkeypatch.setattr(analysis, "frobenius_scalar", never)
    rep = analyze(replace(REC_11A1, kernel_polys={5: []}), 5, layers=2)
    assert rep["classification"] == "reducible-no-kernel-data"
    assert (rep["kernel_count"], rep["line_characters"]) == (0, [])


def test_cli_refuses_a_pair_that_misses_the_separating_roots(
        monkeypatch, tmp_path, capsys):
    """11a1 at p = 5: Frob_3 has the roots {1, 3} of X^2 + X + 3 mod 5,
    which the pair (1, chi-bar) takes at 3.  A pair that takes other
    values there (here the trivial character twice) cannot be the
    semisimplification: exit 2, before any line gets a character."""
    from mulab import analysis
    semisimplification = analysis.semisimplification

    def mutated(*args):
        pair = semisimplification(*args)
        return pair[0], pair[0]

    monkeypatch.setattr(analysis, "semisimplification", mutated)
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "invariant violation: 11a1: the semisimplification pair takes "
        "[1, 1] at the separating prime 3, not the roots [1, 3] of "
        "X^2 - a_3 X + 3 mod 5\n")


def test_cli_and_analysis_do_not_import_numpy():
    """numpy would add ~13 MB to every analyze process; only lift-lab and
    lambda-invariants need it.  The subprocess also analyzes the corpus,
    so a lazy import on the analyze path fails this too."""
    corpus = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "data", "corpus_reducible.json")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mulab.cli, mulab.analysis, mulab.arith; "
         "from mulab.analysis import analyze_many, ingest; "
         f"reports = analyze_many(ingest({corpus!r}), lambda rec: rec.p); "
         "assert len(reports) == 16, len(reports); "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["lift-lab", "run", "data/scenarios/borel_z3.json"],
    ["lambda-invariants", "--presentation", "PRESENTATION"],
], ids=["lift-lab", "lambda-invariants"])
def test_other_subcommands_do_not_import_analysis(tmp_path, argv):
    """`cli` imports `analysis` in `cmd_analyze` only, so `lift-lab` and
    `lambda-invariants` finish without it and its imports (about 17 ms
    a call)."""
    pres = write_json(tmp_path, "p.json",
                      {"p": 5, "N": 3, "MT": 8,
                       "rows": [[[5], [0]], [[0], [25]]]})
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from mulab.cli import main\n"
         "rc = main(sys.argv[1:])\n"
         "print(rc, 'mulab.analysis' in sys.modules, file=sys.stderr)\n"]
        + [pres if a == "PRESENTATION" else a for a in argv],
        capture_output=True, text=True, check=True, cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stderr.splitlines()[-1] == "0 False"


def test_analyze_runs_without_mpmath():
    """No src module imports mpmath; only the tests' oracles use it.  A
    process that runs the fixed-point period, L-value and rationalized
    ratio of 11a1, then analyzes it and renders its report, never
    imports it."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; import mulab.cli; "
         "from mulab.analysis import CurveRecord, analyze, render_report; "
         "from mulab.elliptic import Curve; "
         "from mulab.modsym import l_value, rationalize, real_period, "
         "L_VALUE_BITS, PERIOD_BITS, RATIONAL_BITS; "
         "E = Curve(0, -1, 1, -10, -20); "
         "om, lv = real_period(E), l_value(E, 11); "
         "r = rationalize((lv << PERIOD_BITS + RATIONAL_BITS "
         "- L_VALUE_BITS) // om); "
         "assert str(r) == '1/5', r; "
         "rep = analyze(CurveRecord('11a1', E.ainvs(), 11), 5); "
         "assert '\"real_period\": \"1.26920930427955342168879461675\"' "
         "in render_report([rep]); "
         "print('mpmath' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("flag", ["--precision", "--layers", "--ell-bound"])
def test_cli_rejects_nonpositive_sizes(tmp_path, capsys, flag):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    for value in ("0", "-1"):
        rc = main(["analyze", "--curves", curves, "--p", "5", flag, value])
        assert rc == 3
        assert "input error:" in capsys.readouterr().err


def test_cli_rejects_bad_config_values(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    for body in ("p = 9\n", "p = 5\nprecision = 0\n",
                 'p = 5\nlayers = "3"\n'):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(body)
        rc = main(["analyze", "--curves", curves, "--config", str(cfg)])
        assert rc == 3
        assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, err", [
    pytest.param('format = "xml"', "format must be json or table, got 'xml'",
                 id="format-xml"),
    pytest.param("format = 3", "format must be json or table, got 3",
                 id="format-int"),
    pytest.param("cache = 5", "cache must be a directory path, got 5",
                 id="cache-int"),
    pytest.param("cache = true", "cache must be a directory path, got True",
                 id="cache-bool"),
])
def test_cli_rejects_config_format_and_cache_of_the_wrong_kind(
        tmp_path, monkeypatch, capsys, line, err):
    """A config format other than json or table was a ValueError
    traceback from `render_report`, and a cache that is no string a
    TypeError from `os.path.join`; both are input errors (exit 3), found
    before any curve is analyzed."""
    monkeypatch.chdir(tmp_path)
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(f"[analyze]\np = 5\n{line}\n")
    rc = main(["analyze", "--curves", curves, "--config", str(cfg)])
    out = capsys.readouterr()
    assert (rc, out.out) == (3, "")
    assert out.err == f"input error: {err}\n"


def test_cli_config_file(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('[analyze]\np = 5\nformat = "table"\nlayers = 2\n')
    rc = main(["analyze", "--curves", curves, "--config", str(cfg)])
    assert rc == 0
    assert "11a1" in capsys.readouterr().out


def test_cli_lambda_invariants(tmp_path, capsys):
    pres = write_json(tmp_path, "p.json",
                      {"p": 5, "N": 3, "MT": 8,
                       "rows": [[[5], [0]], [[0], [25]]]})
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu_vector"] == [1, 1] and out["mu"] == 3


@pytest.mark.parametrize("field, value", [
    ("p", 4), ("p", 1), ("p", 5.0), ("p", True),
    ("N", 0), ("N", -1), ("MT", 0)])
def test_cli_lambda_invariants_rejects_bad_sizes(tmp_path, capsys, field,
                                                 value):
    spec = {"p": 5, "N": 3, "MT": 8, "rows": [[[5], [0]], [[0], [25]]]}
    spec[field] = value
    pres = write_json(tmp_path, "p.json", spec)
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 3
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [5, True, None, 2.5])
def test_cli_lambda_invariants_rejects_a_document_that_is_not_an_object(
        tmp_path, capsys, doc):
    """A presentation file whose JSON is a number, a bool or null (the
    mutation fuzz's retyped root) was a TypeError traceback."""
    pres = write_json(tmp_path, "p.json", doc)
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "input error: a presentation is a JSON object")


@pytest.mark.parametrize("rows", [
    [[[5.9]]], [[["25"]]], [[[True]]], [[[5], [0]], [[0], ["25"]]],
    [[5]], [5], "rows"])
def test_cli_lambda_invariants_rejects_bad_coefficients(tmp_path, capsys,
                                                        rows):
    spec = {"p": 5, "N": 3, "MT": 4, "rows": rows}
    pres = write_json(tmp_path, "p.json", spec)
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 3
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec, err", [
    ({"p": 5, "N": 3, "MT": 8, "rows": [[[5], [0]]]},
     "error: NotTorsion:"),
    ({"p": 5, "N": 2, "MT": 8, "rows": [[[25]]]},
     "error: PrecisionInsufficient:")])
def test_cli_lambda_invariants_refusals_exit_3(tmp_path, capsys, spec, err):
    pres = write_json(tmp_path, "p.json", spec)
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 3
    assert capsys.readouterr().err.startswith(err)


def test_cli_lambda_invariants_truncation_unresolved_exits_3(
        tmp_path, capsys, monkeypatch):
    pres = write_json(tmp_path, "p.json",
                      {"p": 5, "N": 2, "MT": 8, "rows": [[[5]]]})
    monkeypatch.setattr(iwasawa_modules, "_graded_ranks_at",
                        lambda at, M: [1, 0] if M == 8 else [0, 0])
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "error: TruncationUnresolved:")


def test_cli_lambda_invariants_invariant_violation_exits_2(
        tmp_path, capsys, monkeypatch):
    pres = write_json(tmp_path, "p.json",
                      {"p": 5, "N": 2, "MT": 8, "rows": [[[5]]]})
    monkeypatch.setattr(iwasawa_modules, "profile_from_ranks",
                        lambda qs, N: iwasawa_modules.MuProfile(
                            (1,), 2, 1, 1))
    rc = main(["lambda-invariants", "--presentation", pres])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "invariant violation: inconsistent mu-profile")


@pytest.mark.parametrize("field, value", [("MT", 10**9), ("N", 40)])
def test_cli_lambda_invariants_rejects_oversized(tmp_path, capsys, field,
                                                 value):
    """Refused before any matrix is built: exit 3 well within 5 s."""
    spec = {"p": 5, "N": 3, "MT": 8, "rows": [[[5], [0]], [[0], [25]]]}
    spec[field] = value
    pres = write_json(tmp_path, "p.json", spec)
    t0 = time.monotonic()
    rc = main(["lambda-invariants", "--presentation", pres])
    assert time.monotonic() - t0 < 5
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert ("2^31" if field == "N" else "exceeds 1024") in err


def test_cli_lift_lab(capsys):
    rc = main(["lift-lab", "run", "data/scenarios/borel_z3.json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert all(s["status"] == "ok" for s in out["steps"])
    rc = main(["lift-lab", "run", "data/scenarios/obstructed_z3.json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps"][-1]["status"] == "obstructed"


def test_corpus_report_golden():
    """The report of the shipped corpus at each record's own p and the
    CLI defaults (precision 6, 3 layers, ell bound 200), byte for byte,
    as recorded under tests/golden before the integer modular-symbol
    core."""
    corpus = "data/corpus_reducible.json"
    with open(corpus) as fh:
        p_of_label = {r["label"]: r["p"] for r in json.load(fh)}
    reports = analyze_many(ingest(corpus), lambda rec: p_of_label[rec.label],
                           N_prec=6, layers=3, ell_bound=200)
    with open("tests/golden/corpus_report.json") as fh:
        assert render_report(reports) == fh.read()


def test_cli_analyze_uses_each_records_p(capsys):
    """Without --p or a config p, `analyze` takes each record's own p: the
    corpus report is the golden one, byte for byte, plus the newline that
    ends the printed output."""
    rc = main(["analyze", "--curves", "data/corpus_reducible.json"])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    with open("tests/golden/corpus_report.json") as fh:
        assert out.out == fh.read() + "\n"


def test_cli_analyze_11a1_at_p17_precision_100_golden(tmp_path, capsys):
    """stdout of 11a1 at --p 17 --precision 100 (3 layers, 17^4 units in
    theta_3), byte for byte, as recorded under tests/golden before the
    half-walk theta."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", "17",
               "--precision", "100"])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    with open("tests/golden/analyze_11a1_p17_prec100.json") as fh:
        assert out.out == fh.read()


def test_analyze_counts_each_ell_once_per_curve(monkeypatch):
    """One `analyze_many` pass over the corpus counts points at most once
    per (curve, ell): the a_ell table, the eigensymbol's primes, the
    L-value's a_n, the Frobenius scalars and the isogeny-class signature
    all read the one count."""
    from mulab.elliptic import Curve

    corpus = "data/corpus_reducible.json"
    with open(corpus) as fh:
        p_of_label = {r["label"]: r["p"] for r in json.load(fh)}
    records = ingest(corpus)
    counts = {}
    count_points = Curve.count_points

    def counting(self, ell):
        key = (self.ainvs(), ell)
        counts[key] = counts.get(key, 0) + 1
        return count_points(self, ell)

    monkeypatch.setattr(Curve, "count_points", counting)
    analyze_many(records, lambda rec: p_of_label[rec.label], N_prec=6,
                 layers=3, ell_bound=200)
    assert {rec.ainvs for rec in records} == {k[0] for k in counts}
    assert max(counts.values()) == 1


@pytest.mark.parametrize("p, err", [
    (None, "error: --p is required (flag or config)\n"),
    (9, "input error: 11a1: p must be an odd prime, got 9\n"),
    ("5", "input error: 11a1: p must be an odd prime, got '5'\n"),
    (1000003, "input error: 11a1: p^(layers+1) = 1000003^4 exceeds 100000"),
])
def test_cli_analyze_checks_each_records_p(tmp_path, capsys, p, err):
    """A record's p gets the checks of --p; a record without one, when
    neither --p nor the config gives p, is refused as before."""
    records = [{"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
                "conductor": 11}]
    if p is not None:
        records[0]["p"] = p
    records.insert(0, {"label": "11a3", "ainvs": [0, -1, 1, 0, 0],
                       "conductor": 11, "p": 5})
    curves = write_json(tmp_path, "c.json", records)
    rc = main(["analyze", "--curves", curves])
    out = capsys.readouterr()
    assert (rc, out.out) == (3, "")
    assert out.err.startswith(err)


def test_cli_p_flag_overrides_records_p(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11,
         "p": 3}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)[0]["p"] == 5


SCENARIOS = ("borel_z3", "obstructed_z3", "ordinary_z4_p5")


@pytest.mark.parametrize("name", SCENARIOS)
def test_cli_lift_lab_golden(capsys, name):
    """stdout of each shipped scenario, byte for byte, as recorded under
    tests/golden before the per-g cocycle check."""
    rc = main(["lift-lab", "run", f"data/scenarios/{name}.json"])
    assert rc == 0
    with open(f"tests/golden/lift_lab_{name}.json") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("name", ("repeated_generator_z3",
                                  "identity_generator_z3"))
def test_cli_lift_lab_golden_on_generator_lists_that_stress_the_tree(
        capsys, name):
    """stdout, byte for byte, of the mod-27 unipotent group given by a
    generator listed twice, and by the identity and a generator, as
    recorded under tests/golden before Z^1 was solved in generator
    coordinates."""
    rc = main(["lift-lab", "run", f"tests/scenarios/{name}.json"])
    assert rc == 0
    with open(f"tests/golden/lift_lab_{name}.json") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("name", ("tame_twist_z9", "tame_unrealizable_z3"))
def test_cli_lift_lab_golden_with_a_tame_condition(capsys, name):
    """stdout, byte for byte, of a scenario whose tame condition holds
    after a twist and of one whose condition no twist meets (a "failed"
    step), as recorded under tests/golden before weight 2 was fixed in
    liftlab."""
    rc = main(["lift-lab", "run", f"tests/scenarios/{name}.json"])
    assert rc == 0
    with open(f"tests/golden/lift_lab_{name}.json") as fh:
        assert capsys.readouterr().out == fh.read()


def _borel(**fields):
    spec = {"name": "borel", "p": 3, "levels": 2,
            "group": {"kind": "matrices", "generators": [[1, 1, 0, 1]],
                      "modulus": 27},
            "rhobar": [[1, 1, 0, 1]]}
    spec.update(fields)
    return {k: v for k, v in spec.items() if v is not None}


@pytest.mark.parametrize("spec", [
    _borel(p=None),
    _borel(p=4),
    _borel(p=2),
    _borel(p=True),
    _borel(p=3.0),
    _borel(levels=0),
    _borel(levels="2"),
    _borel(group={"kind": "cyclic", "generators": [[1, 2, 0]]}),
    _borel(group={"kind": "permutations", "generators": [[1, 1, 0]]}),
    _borel(group={"kind": "matrices", "generators": [[1, 1, 0, 1]]}),
    [_borel()],
    _borel(rhobar=[[1, 1, 0, 1], [1, 0, 0, 1]]),
    _borel(rhobar=[[1, 1, 0]]),
    _borel(rhobar=[[1, 1, 0, 1.0]]),
    _borel(rhobar=[[2, 0, 0, 1]]),
    _borel(det=[2]),
    _borel(module="sl2"),
    _borel(start_level=2, start_images=[[1, 3, 0, 1]], det=[1]),
    _borel(start_level=2, start_images=[[1, 4, 0, 1]], det=[2]),
    _borel(subgroups="x"),
    _borel(subgroups={"D": {"generators": [27]}}),
    _borel(subgroups={"D": {"generators": [0],
                            "condition": {"type": "weird"}}}),
    _borel(subgroups={"D": {"generators": [0],
                            "condition": {"type": "tame1"}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "tame5", "sigma": 0, "tau": 1, "v": 7}}}),
    _borel(group={"kind": "matrices", "generators": [[0, 1, 0, 0]],
                  "modulus": 3}),
    _borel(rhobar=[[1, 1, 0, 0]]),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "tame1", "sigma": 0, "tau": 1, "v": 3}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "tame1", "sigma": 0, "tau": 27, "v": 7}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "tame1", "sigma": 0, "tau": 1, "v": 5}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "tame1", "sigma": 0, "tau": 1, "v": 10}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "ordinary", "inertia": [0], "cochar": {"x": 1}}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "ordinary", "inertia": [99], "cochar": {}}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "ordinary", "inertia": [-1], "cochar": {}}}}),
    _borel(subgroups={"D": {"generators": [0], "condition": {
        "type": "ordinary", "inertia": [0], "cochar": {"99": 3}}}})],
    ids=["no-p", "p=4", "p=2", "p=True", "p=3.0", "levels=0",
         "levels-str", "kind-cyclic", "not-a-permutation", "no-modulus",
         "top-level-list", "rhobar-extra-matrix", "rhobar-3-entries",
         "rhobar-float", "rhobar-not-homomorphism", "det-not-reducing",
         "module", "start-images-not-reducing", "det-of-start-images",
         "subgroups-str", "subgroup-index-past-group", "condition-weird",
         "tame1-without-fields", "tame5", "singular-matrix-generator",
         "rhobar-singular", "tame-v-divisible-by-p", "tame-tau-past-group",
         "tame-v-not-1-mod-p", "tame-v-1-mod-p-squared",
         "cochar-key-not-index", "inertia-past-group", "inertia-negative",
         "cochar-key-past-group"])
def test_cli_lift_lab_rejects_malformed_scenarios(tmp_path, capsys, spec):
    path = write_json(tmp_path, "s.json", spec)
    rc = main(["lift-lab", "run", path])
    assert rc == 3
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_lift_lab_ignores_keys_a_condition_does_not_read(tmp_path,
                                                            capsys):
    """sigma and tau are read by the tame conditions only: on a `none`
    condition a string sigma was a TypeError traceback."""
    path = write_json(tmp_path, "s.json", _borel(subgroups={"D": {
        "generators": [0],
        "condition": {"type": "none", "sigma": "x", "tau": 99}}}))
    assert main(["lift-lab", "run", path]) == 0
    assert capsys.readouterr().err == ""


def test_cli_lift_lab_rejects_start_level_above_levels(tmp_path, capsys):
    """A scenario that starts above its last level would lift nothing
    and report reached_level = start_level: it is an input error."""
    path = write_json(tmp_path, "s.json", _borel(
        levels=1, start_level=3, start_images=[[1, 1, 0, 1]], det=[1]))
    rc = main(["lift-lab", "run", path])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "input error: start_level 3 is above levels 1")
    path = write_json(tmp_path, "s.json", _borel(
        start_level=2, start_images=[[1, 1, 0, 1]], det=[1]))
    assert main(["lift-lab", "run", path]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == [
        {"level": 3, "status": "ok"}]


def test_cli_lift_lab_refuses_group_over_size_bound(tmp_path, capsys):
    s6 = [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]
    path = write_json(tmp_path, "s.json", _borel(
        p=5, group={"kind": "permutations", "generators": s6},
        rhobar=[[1, 0, 0, 1]] * 2))
    rc = main(["lift-lab", "run", path])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: SizeBound")


def test_cli_lift_lab_invariant_violation(capsys, monkeypatch):
    monkeypatch.setattr(liftlab, "_cocycle2_identity_holds",
                        lambda *args: False)
    rc = main(["lift-lab", "run", "data/scenarios/borel_z3.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "invariant violation: obstruction cochain")


def test_cli_rejects_precision_beyond_bound(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("p = 5\nprecision = 1000000000\n")
    t0 = time.monotonic()
    for args in (["--p", "5", "--precision", "1000000000"],
                 ["--config", str(cfg)],
                 ["--p", "5", "--precision", str(MAX_PRECISION + 1)]):
        rc = main(["analyze", "--curves", curves, *args])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert str(MAX_PRECISION) in err
    assert time.monotonic() - t0 < 5
    rc = main(["analyze", "--curves", curves, "--p", "5", "--layers", "2",
               "--precision", str(MAX_PRECISION)])
    assert rc == 0


def test_cli_byte_determinism(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11}])
    outputs = []
    for _ in range(2):
        rc = main(["analyze", "--curves", curves, "--p", "5"])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_kernel_polys_short_circuit(tmp_path):
    """A supplied kernel_polys field bypasses the factorization."""
    path = write_json(tmp_path, "c.json", [
        {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11,
         "kernel_polys": {"5": [["0", "-1", "1"]]}}])
    (rec,) = ingest(path)
    rep = analyze(rec, 5, layers=2)
    assert rep["classification"] == "skew"
    assert rep["kernel_count"] == 1


def test_kernel_polys_accepts_any_rational_multiple(tmp_path):
    """A supplied kernel is checked in primitive integer form, so a
    rational multiple of 11a3's line x^2 - x passes."""
    path = write_json(tmp_path, "c.json", [
        {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11,
         "kernel_polys": {"5": [["0", "-1/2", "1/2"]]}}])
    (rec,) = ingest(path)
    rep = analyze(rec, 5, layers=2)
    assert rep["classification"] == "skew"
    assert rep["line_characters"] == ["1"]


@pytest.mark.parametrize("poly", [
    ["1", "1", "1"],          # does not divide psi_5
    ["-5", "1"],              # degree 1, not (p - 1)/2 = 2
    ["-29/5", "1", "0"],      # degree 2 by length, leading coefficient 0
    ["0"],                    # zero, whose monic form would be empty
    ["0", "0", "0"],          # zero of length 3
])
def test_cli_refuses_a_supplied_polynomial_that_is_no_kernel(
        tmp_path, capsys, poly):
    """11a1 at p = 5, its first kernel then poly: a supplied kernel must
    pass the checks a computed one passes (degree (p-1)/2, exact division
    of psi_5, roots closed under duplication), or the input error names
    the record and the entry."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11,
         "kernel_polys": {"5": [["-29/5", "1", "1"], poly]}}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 3
    assert capsys.readouterr().err == \
        "input error: 11a1: kernel_polys['5'][1] is not a 5-isogeny kernel\n"


@pytest.mark.parametrize("kernel_polys, complaint", [
    ({"5": [["x", "1"]]}, "Invalid literal for Fraction: 'x'"),
    ({"5": 7}, "must be a list of coefficient lists, got 7"),
    ({"5": [[0.5, 1]]}, "coefficient 0.5 is not an integer"),
    ({"5": [["1/0", "1"]]}, "kernel_polys['5']"),
    ([["0", "-1", "1"]], "kernel_polys must map p"),
    ({"x": [[1, 1]]}, "kernel_polys key 'x' is not a prime"),
    ({"05": [["-1", "1"]]}, "kernel_polys key '05' is not a prime"),
    ({"5": [["-1", "1"]], "05": [["0", "1"]]},
     "kernel_polys key '05' is not a prime below 10^24 written in "
     "canonical decimal"),
    ({"4": [["-1", "1"]]}, "kernel_polys key '4' is not a prime"),
    ({"-5": [["-1", "1"]]}, "kernel_polys key '-5' is not a prime"),
    ({" 5": [["-1", "1"]]}, "kernel_polys key ' 5' is not a prime"),
    ({"9" * 5000: [["-1", "1"]]}, "is not a prime below 10^24"),
])
def test_cli_malformed_kernel_polys_exit_3(tmp_path, capsys, kernel_polys,
                                           complaint):
    """A kernel_polys value that is not a list of coefficient lists, a
    coefficient that is not an integer or a rational string, or a key
    that is not a prime in canonical decimal (so that "05" cannot stand
    beside "5", or go unread), is an input error at ingest, not a
    traceback from analyze or a key analyze never reads."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11,
         "kernel_polys": kernel_polys}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: 11a3: ") and complaint in err


_11A3 = {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11}


@pytest.mark.parametrize("record, complaint", [
    ({**_11A3, "ainvs": [0, -1, 1, 0, "x"]},
     "11a3: ainvs must be a list of five integers"),
    ({**_11A3, "ainvs": [0, -1, 1, 0]},
     "11a3: ainvs must be a list of five integers"),
    (0, "record 0 is not an object: 0"),
    ({**_11A3, "ap": {"x": 1}}, "11a3: ap key 'x' is not a prime"),
    ({**_11A3, "ainvs": [0, -1, 1, 0, True]},
     "11a3: ainvs must be a list of five integers"),
    ({**_11A3, "label": 7}, "record 0: label must be a string, got 7"),
    ({**_11A3, "p": "5"}, "11a3: p must be an odd prime, got '5'"),
    ({**_11A3, "ap": {"2": "-2"}}, "11a3: ap['2'] must be an integer"),
    ({**_11A3, "ap": {"2": True}}, "11a3: ap['2'] must be an integer"),
    ({**_11A3, "ap": {"0": 0}}, "11a3: ap key '0' is not a prime"),
    ({**_11A3, "ap": {"4": 1}}, "11a3: ap key '4' is not a prime"),
    ({**_11A3, "ap": {"-3": 1}}, "11a3: ap key '-3' is not a prime"),
    ({**_11A3, "ap": {"9" * 5000: 1}}, "is not a prime below 10^24"),
    ({**_11A3, "ap": [1, 2]}, "11a3: ap must map primes to integers"),
    ({"label": "s43210", "ainvs": [1, 0, 0, 0, 10], "conductor": 43210},
     f"s43210: conductor 43210 exceeds {MAX_CONDUCTOR}"),
], ids=["ainvs-string-entry", "ainvs-four-entries", "record-not-object",
        "ap-key-x", "ainvs-bool-entry", "label-not-string", "p-string",
        "ap-value-string", "ap-value-bool", "ap-key-0", "ap-key-4",
        "ap-key-negative", "ap-key-5000-digits", "ap-not-object",
        "conductor-above-bound"])
def test_cli_record_schema_errors_exit_3(tmp_path, capsys, record,
                                         complaint):
    """A record that is not an object, or whose label, ainvs, p or ap has
    the wrong type or shape, is an input error at ingest naming the
    record and the field: each of these was a traceback (exit 1) or, for
    an ainvs entry true, read as 1.  So is a valid, semistable record
    above the level bound, checked before any space is built: at
    N = 43210 the P^1 table alone would take 15 GB."""
    curves = write_json(tmp_path, "c.json", [record])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and complaint in err


@pytest.mark.parametrize("ap", [{"03": 5, "3": -1}, {"3": -1, "03": 5}],
                         ids=["zero-first", "zero-last"])
def test_cli_refuses_an_ap_key_with_a_leading_zero(tmp_path, capsys, ap):
    """11a1 at p = 5 with a_3 supplied under "3" and under "03": ap keys
    are primes in canonical decimal, as kernel_polys keys are, so the
    two keys cannot name one prime and leave a_3 = 5 unchecked, in
    either order."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11,
         "ap": ap}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "input error: 11a1: ap key '03' is not a prime below 10^24 "
        "written in canonical decimal\n")


def test_library_refuses_a_level_above_the_bound(monkeypatch):
    """`analyze_many` on the N = 43210 record raises SizeBound naming N
    and the bound from `build_manin_space`, before any P^1 table or
    Manin space is allocated; the CLI's own check keeps its exit 3."""
    from mulab import modsym

    def allocated(*args):
        raise AssertionError("a space was allocated above the bound")

    monkeypatch.setattr(modsym, "P1", allocated)
    monkeypatch.setattr(modsym, "ManinSymbolSpace", allocated)
    rec = CurveRecord("s43210", (1, 0, 0, 0, 10), 43210)
    with pytest.raises(SizeBound, match=f"level 43210 exceeds "
                                        f"{MAX_CONDUCTOR}"):
        analyze_many([rec], lambda r: 3)
    with pytest.raises(SizeBound, match="5001"):
        modsym.build_manin_space(MAX_CONDUCTOR + 1)


def test_cli_null_p_reads_as_no_p(tmp_path, capsys):
    """"p": null is a record without a p of its own, so --p gives it."""
    curves = write_json(tmp_path, "c.json", [{**_11A3, "p": None}])
    rc = main(["analyze", "--curves", curves, "--p", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)[0]["p"] == 5


def test_ingest_keeps_a_well_typed_ap(tmp_path):
    path = write_json(tmp_path, "c.json", [
        {**_11A3, "ap": {"2": -2, "3": -1, "11": 1, "101": 2}, "p": 5}])
    (rec,) = ingest(path)
    assert rec.ap == {2: -2, 3: -1, 11: 1, 101: 2} and rec.p == 5


def test_cli_cache_and_verify(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cache = str(tmp_path / "cache")
    rc = main(["analyze", "--curves", curves, "--p", "5",
               "--cache", cache])
    assert rc == 0
    capsys.readouterr()
    rc = main(["analyze", "--curves", curves, "--p", "5",
               "--cache", cache, "--verify-cache"])
    assert rc == 0


@pytest.mark.parametrize("args,body,reason", [
    (["--layers", "1"], "", "two consecutive layers"),
    (["--precision", "3"], "", "precision >= mu + 4"),
    (["--precision", "1"], "", "precision >= mu + 4"),
    ([], "layers = 1\n", "two consecutive layers"),
    ([], "precision = 2\n", "precision >= mu + 4"),
], ids=["layers-1", "precision-3", "precision-1", "config-layers-1",
        "config-precision-2"])
def test_cli_rejects_sizes_that_cannot_stabilize(tmp_path, capsys, args,
                                                 body, reason):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("p = 5\n" + body)
    rc = main(["analyze", "--curves", curves, "--config", str(cfg)]
              + args)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and reason in err


def test_cli_smallest_sizes_accepted(tmp_path, capsys):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a3", "ainvs": [0, -1, 1, 0, 0], "conductor": 11}])
    rc = main(["analyze", "--curves", curves, "--p", "5",
               "--precision", "4", "--layers", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)[0]["mu"] == 0


def test_cache_keyed_by_curve_not_label(tmp_path):
    cache = str(tmp_path / "cache")
    first = analyze(CurveRecord("X", (0, -1, 1, -10, -20), 11), 5,
                    cache_dir=cache)
    again = analyze(CurveRecord("X", (0, -1, 1, 0, 0), 11), 5,
                    cache_dir=cache)
    fresh = analyze(CurveRecord("X", (0, -1, 1, 0, 0), 11), 5)
    assert (first["mu"], again["mu"]) == (1, 0)
    assert again == fresh


def test_cache_keyed_by_precision(tmp_path):
    # a theta cached at precision 6 is a miss at precision 8, not a
    # mismatch under --verify-cache
    cache = str(tmp_path / "cache")
    analyze(REC_11A1, 5, N_prec=6, cache_dir=cache)
    rep = analyze(REC_11A1, 5, N_prec=8, cache_dir=cache, verify_cache=True)
    assert rep == analyze(REC_11A1, 5, N_prec=8)


def _cached_run(tmp_path, capsys, *extra):
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    cache = str(tmp_path / "cache")
    rc = main(["analyze", "--curves", curves, "--p", "5",
               "--cache", cache, *extra])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_corrupt_cache_file_is_recomputed(tmp_path, capsys):
    rc, first, _ = _cached_run(tmp_path, capsys)
    assert rc == 0
    theta_file = tmp_path / "cache" / "11a1" / "5" / "theta_1.json"
    good = theta_file.read_text()
    theta_file.write_text(good[:len(good) // 2])
    rc, second, _ = _cached_run(tmp_path, capsys)
    assert (rc, second) == (0, first)
    assert theta_file.read_text() == good


def test_cli_tampered_cache_exits_2_under_verify(tmp_path, capsys):
    rc, _, _ = _cached_run(tmp_path, capsys)
    assert rc == 0
    theta_file = tmp_path / "cache" / "11a1" / "5" / "theta_1.json"
    data = json.loads(theta_file.read_text())
    # theta's first coefficient plus 1: still p^n numerators over a
    # positive denominator with gcd 1, so the file is read
    data["nums"][0] += data["den"]
    theta_file.write_text(json.dumps(data))
    rc, _, err = _cached_run(tmp_path, capsys, "--verify-cache")
    assert rc == 2
    assert err.startswith("invariant violation:")


@pytest.mark.parametrize("case", [
    "config-bad-line", "config-float", "config-directory", "config-not-utf8",
    "curves-directory", "curves-not-utf8", "scenario-not-utf8",
    "cache-regular-file"])
def test_cli_unreadable_inputs_exit_3(tmp_path, capsys, case):
    """Input files that cannot be read or parsed exit 3 with `input
    error:`, not with a traceback."""
    curves = write_json(tmp_path, "c.json", [
        {"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
         "conductor": 11}])
    bad = tmp_path / "bad"
    if case.endswith("not-utf8"):
        bad.write_bytes(b"\xff\xfe p = 5\n")
    elif case.endswith("directory"):
        bad.mkdir()
    elif case == "config-bad-line":
        bad.write_text("this is not valid\n")
    else:
        bad.write_text("p = 5.0\n")
    what = case.partition("-")[0]
    if what == "config":
        argv = ["analyze", "--curves", curves, "--config", str(bad)]
    elif what == "curves":
        argv = ["analyze", "--curves", str(bad), "--p", "5"]
    elif what == "scenario":
        argv = ["lift-lab", "run", str(bad)]
    else:
        argv = ["analyze", "--curves", curves, "--p", "5",
                "--cache", str(bad)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("input error:")
