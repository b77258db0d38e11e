"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances are exact integer matches unless stated;
runtime budgets are asserted as hard bounds."""

import itertools
import json
import random
import time

import numpy as np
import pytest

from mulab.analysis import CurveRecord, SpaceCache, analyze, ingest
from mulab.elliptic import Curve
from mulab.group_model import (
    group_from_matrices,
    group_from_permutations,
    mat_det,
    mat_mul,
)
from mulab.iwasawa_modules import LambdaPresentation, mu_profile
from mulab.liftlab import (
    AdjointModule,
    RepresentationModPn,
    enumerate_lifts,
    highly_versal_degree,
    is_coboundary,
    obstruction_class,
    twist,
    z1_basis,
    _layer_solver,
)
from mulab.padic import teichmuller
from mulab.residual import (
    classify_alignment,
    frobenius_scalar,
    search_characters,
    semisimplification,
)
from test_residual import (
    ModPnRepresentation,
    PrecisionLoss,
    identify_line_character,
    isogeny_transform,
    kernels_of,
)

CORPUS = "data/corpus_reducible.json"
ELEVEN_A = {
    "11a1": (0, -1, 1, -10, -20),
    "11a2": (0, -1, 1, -7820, -263580),
    "11a3": (0, -1, 1, 0, 0),
}


def _stamp(name, t0, extra=""):
    print(f"PASS {name} ({time.monotonic() - t0:.1f}s) {extra}")


@pytest.fixture(scope="module")
def spaces():
    return SpaceCache()


@pytest.fixture(scope="module")
def corpus_reports(spaces):
    records = ingest(CORPUS)
    with open(CORPUS) as fh:
        pmap = {r["label"]: r["p"] for r in json.load(fh)}
    return {rec.label: analyze(rec, pmap[rec.label], spaces=spaces)
            for rec in records}


def good_a_table(E, conductor, p, bound=200):
    return {ell: E.ap(ell) for ell in range(2, bound + 1)
            if all(ell % t for t in range(2, ell))
            and conductor % ell != 0 and ell != p}


def test_criterion_1_semisimplification():
    """11a1, 11a2, 11a3 at p = 5: reducible with ss = {chi-bar, 1}.
    Exact; < 10 s."""
    t0 = time.monotonic()
    for label, ainvs in ELEVEN_A.items():
        E = Curve(*ainvs)
        pair = semisimplification(good_a_table(E, 11, 5), 5, 11, 200)
        assert pair is not None, label
        phi1, phi2 = pair
        chars = search_characters(5, 11)
        conds = sorted([chars.conductor(phi1), chars.conductor(phi2)])
        assert conds == [1, 5], label
        nontriv = phi1 if chars.conductor(phi1) == 5 else phi2
        assert nontriv == chars.chi_bar, label
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _stamp("criterion 1 (ss = {chi, 1} for 11a at p=5)", t0)


def test_criterion_2_classification():
    """11a1 aligned, 11a2 aligned, 11a3 skew, including the
    kernel-polynomial work.  Exact; < 60 s."""
    t0 = time.monotonic()
    expected = {"11a1": "aligned", "11a2": "aligned", "11a3": "skew"}
    for label, ainvs in ELEVEN_A.items():
        E = Curve(*ainvs)
        kernels = kernels_of(E, 5)
        assert kernels, label
        chars = []
        for k in kernels:
            scal = {}
            ell = 2
            while len(scal) < 6:
                if 11 % ell and ell != 5 and all(
                        ell % t for t in range(2, ell)):
                    scal[ell] = frobenius_scalar(E, k, ell, 5)
                ell += 1
            chars.append(identify_line_character(scal, 5, 11))
        search = search_characters(5, 11)
        assert classify_alignment(chars, search) == expected[label], label
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _stamp("criterion 2 (aligned/aligned/skew)", t0)


def test_criterion_3_mu_invariants(spaces):
    """mu = 1, 2, 0 for 11a1, 11a2, 11a3 at p = 5, precision N = 6,
    layers <= 3, Neron-period normalization, stabilization across two
    consecutive layers.  Exact integer match; < 5 min total."""
    t0 = time.monotonic()
    expected = {"11a1": 1, "11a2": 2, "11a3": 0}
    lambdas = set()
    for label, ainvs in ELEVEN_A.items():
        rep = analyze(CurveRecord(label, ainvs, 11), 5, N_prec=6,
                      layers=3, spaces=spaces)
        assert rep["mu"] == expected[label], (label, rep["mu"])
        assert rep["stabilized_at"] <= 3
        assert rep["normalization"]["id"] == "neron"
        lambdas.add(rep["lambda"])
    assert len(lambdas) == 1  # isogeny invariance of lambda
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _stamp("criterion 3 (mu = 1, 2, 0)", t0)


def test_criterion_4_theorem_consistency(corpus_reports):
    """Congruence-evidence alignment degree <= computed mu for every
    curve in the shipped corpus (11a class plus >= 10 additional
    reducible curves at p in {3, 5, 7}).  Zero violations."""
    t0 = time.monotonic()
    reports = corpus_reports
    assert len(reports) >= 13  # 3 + >= 10
    primes = {rep["p"] for rep in reports.values()}
    assert primes == {3, 5, 7}
    extra = [r for r in reports.values()
             if r["label"] not in ("11a1", "11a2", "11a3")]
    assert len(extra) >= 10
    violations = []
    for rep in reports.values():
        assert rep["reducible"], rep["label"]
        deg = rep.get("alignment_degree", {}).get("n", 0)
        if deg > rep["mu"]:
            violations.append(rep["label"])
        # the aligned case of the positivity theorem: aligned => mu >= 1
        if rep.get("classification") == "aligned":
            assert rep["mu"] >= 1, rep["label"]
    assert violations == []
    _stamp("criterion 4 (alignment degree <= mu, full corpus)", t0,
           f"[{len(reports)} curves]")


def test_criterion_5_lattice_transform_property():
    """Over >= 100 random aligned mod-p^n tuples, the diag(p,1)^m
    conjugation yields a skew tuple with a unit lower-left entry and
    preserved per-generator trace and determinant.  Zero failures;
    < 10 s."""
    t0 = time.monotonic()
    rng = random.Random(20240817)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5])
        n = rng.randint(2, 4)
        mod = p**n
        mats = []
        for _ in range(rng.randint(1, 3)):
            while True:
                a, b, d = (rng.randrange(mod) for _ in range(3))
                c = p * rng.randrange(mod // p)
                if (a * d - b * c) % p != 0:
                    break
            mats.append((a, b, c, d))
        rep = ModPnRepresentation(p, n, tuple(mats))
        assert rep.is_aligned_shape()
        try:
            out = isogeny_transform(rep)
        except PrecisionLoss:
            continue
        checked += 1
        assert not out.is_aligned_shape()
        assert any(c % p != 0 for _, _, c, _ in out.matrices)
        newmod = p**out.n
        for (a, b, c, d), (a2, b2, c2, d2) in zip(rep.matrices,
                                                  out.matrices):
            assert (a + d - a2 - d2) % newmod == 0
            assert (a * d - b * c - (a2 * d2 - b2 * c2)) % newmod == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _stamp("criterion 5 (transform always skew)", t0,
           f"[{checked} tuples]")


def _zmul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _zadd(a, b, mod):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [(x + y) % mod for x, y in zip(a, b)]


def _random_module(rng, p, N):
    blocks = []
    mu_counts = {}
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(1, min(3, N - 1))
        blocks.append([p**i])
        mu_counts[i] = mu_counts.get(i, 0) + 1
    for _ in range(rng.randint(0, 2)):
        deg = rng.randint(1, 4)
        f = [rng.randrange(p**N) * p % p**N for _ in range(deg)] + [1]
        blocks.append(f)
    if not blocks:
        blocks = [[1]]
    c = len(blocks)
    rows = []
    for i, f in enumerate(blocks):
        row = [[0]] * c
        row[i] = f
        rows.append(row)
    t = max(mu_counts) if mu_counts else 0
    vec = tuple(mu_counts.get(i, 0) for i in range(1, t + 1)) if t \
        else (0,)
    return rows, vec


def _scramble(rng, rows, p, N):
    mod = p**N
    rows = [[list(e) for e in r] for r in rows]
    nr, nc = len(rows), len(rows[0])
    for _ in range(8):
        op = rng.randrange(4)
        if op == 0 and nr > 1:
            i, j = rng.sample(range(nr), 2)
            f = [rng.randrange(mod) for _ in range(rng.randint(1, 3))]
            rows[i] = [_zadd(a, _zmul(f, b, mod), mod)
                       for a, b in zip(rows[i], rows[j])]
        elif op == 1 and nc > 1:
            i, j = rng.sample(range(nc), 2)
            f = [rng.randrange(mod) for _ in range(rng.randint(1, 3))]
            for r in rows:
                r[i] = _zadd(r[i], _zmul(f, r[j], mod), mod)
        elif op == 2 and nr > 1:
            i, j = rng.sample(range(nr), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(nr)
            f = [rng.randrange(1, p)] + [rng.randrange(mod)
                                         for _ in range(2)]
            rows[i] = [_zmul(f, a, mod) for a in rows[i]]
    return rows


def test_criterion_6_structure_recovery():
    """>= 200 randomized modules (+)(Lambda/p^i)^(a_i) (+) Lambda/(f_j),
    i <= 3, distinguished degree <= 4, scrambled by unimodular
    operations: mu_profile recovers (mu-vector, mu, t, r) exactly, stable
    under doubling of the T-truncation (the doubling agreement is built
    into graded_ranks).  Zero failures; < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(987654321)
    for trial in range(200):
        p = rng.choice([3, 5])
        N = 4
        rows, vec = _random_module(rng, p, N)
        scrambled = _scramble(rng, rows, p, N)
        maxdeg = max(len(e) for r in scrambled for e in r)
        pres = LambdaPresentation(p, N, max(8, maxdeg + 4), scrambled)
        prof = mu_profile(pres)
        assert prof.mu_vector == vec, (trial, p, rows)
        expected_mu = sum((i + 1) * m for i, m in enumerate(vec)) \
            if vec != (0,) else 0
        assert prof.mu == expected_mu
        assert prof.r == (sum(vec) if vec != (0,) else 0)
        assert prof.t == (len(vec) if vec != (0,) else 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _stamp("criterion 6 (Lambda-module structure recovery)", t0,
           "[200 modules]")


def _torsor_scenarios():
    """Instances with |G| <= 24 and p in {3, 5}: (model, p, level,
    generator images at that level)."""
    out = []
    # S_3 standard rep mod 5 (coprime order)
    S3 = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    out.append(("S3/p5", S3, 5, 1, [(0, 4, 1, 4), (0, 1, 1, 0)]))
    # Z/4 diagonal mod 5
    Z4 = group_from_permutations([(1, 2, 3, 0)])
    out.append(("Z4/p5", Z4, 5, 1, [(2, 0, 0, 1)]))
    # Z/5 unipotent mod 5
    Z5 = group_from_permutations([(1, 2, 3, 4, 0)])
    out.append(("Z5-unip/p5", Z5, 5, 1, [(1, 1, 0, 1)]))
    # Z/3 unipotent mod 3
    Z3 = group_from_permutations([(1, 2, 0)])
    out.append(("Z3-unip/p3", Z3, 3, 1, [(1, 1, 0, 1)]))
    # SL_2(F_3), |G| = 24, inclusion mod 3
    SL23 = group_from_matrices([(1, 1, 0, 1), (1, 0, 1, 1)], 3,
                               max_size=24)
    out.append(("SL2F3/p3", SL23, 3, 1, list(SL23.elements)))
    # quaternion group inside SL_2(F_3) mod 3
    Q8 = group_from_matrices([(0, 1, 2, 0), (1, 1, 1, 2)], 3,
                             max_size=24)
    out.append(("Q8/p3", Q8, 3, 1, list(Q8.elements)))
    # dihedral of order 8 mod 3
    D4 = group_from_matrices([(0, 1, 2, 0), (1, 0, 0, 2)], 3,
                             max_size=24)
    out.append(("D4/p3", D4, 3, 1, list(D4.elements)))
    # engineered obstructed instances at level 2
    out.append(("Z3-obstructed/p3", Z3, 3, 2, [(1, 3, 0, 1)]))
    out.append(("Z5-obstructed/p5", Z5, 5, 2, [(1, 5, 0, 1)]))
    return out


def test_criterion_7_torsor_law():
    """On every scenario (|G| <= 24, p in {3,5}): the set of lifts of a
    fixed lower-level representation is empty or acted on simply
    transitively by Z^1 via twisting, and obstruction_class = 0 iff the
    lift set is nonempty.  Exhaustive; zero failures; < 5 min."""
    t0 = time.monotonic()
    for name, G, p, level, gen_images in _torsor_scenarios():
        if len(gen_images) == len(G):
            images = gen_images
            if level > 1:
                images = [tuple(x % p**level for x in m) for m in images]
        else:
            images = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, p**level))
        rho = RepresentationModPn(G, p, level, images)
        assert rho.verify(), name
        M = AdjointModule(G, rho.rhobar(), "ad0", p=p)
        # determinant target: Teichmuller lift of det rho-bar
        det_t = [teichmuller(mat_det(m, p), p, level + 1)
                 for m in rho.rhobar()]
        lifts = enumerate_lifts(rho, det_t)
        obs = obstruction_class(rho, det_t, M)
        solvable = is_coboundary(G, M, obs) is not None
        assert solvable == bool(lifts), name
        if not lifts:
            continue
        Z = z1_basis(G, M)
        assert len(lifts) == p**Z.shape[0], name
        base = lifts[0]
        orbit = set()
        for coeffs in itertools.product(range(p), repeat=Z.shape[0]):
            zv = np.zeros((len(G), 3), dtype=np.int64)
            for c, row in zip(coeffs, Z):
                zv = (zv + c * row.reshape(len(G), 3)) % p
            orbit.add(tuple(twist(base.images, zv, M, p, level)))
        assert orbit == {tuple(L.images) for L in lifts}, name
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _stamp("criterion 7 (Z^1 torsor law, obstruction iff empty)", t0,
           f"[{len(_torsor_scenarios())} scenarios]")


def test_criterion_8_versal_degree():
    """highly_versal_degree returns 3 for all four condition types at
    (p, v) in {(5, 11), (3, 7)}, by exhaustive enumeration of
    strict-equivalence classes (literal membership on every grid point)
    up to level 4.  Exact; < 2 min.  The layer map of the membership
    search is factored once per key: a handful of keys serve all eight
    sweeps."""
    t0 = time.monotonic()
    _layer_solver.cache_clear()
    for p, v in [(3, 7), (5, 11)]:
        for cond in ("type1", "type2", "type3", "type4"):
            assert highly_versal_degree(cond, v, p, 4) == 3, (p, v, cond)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    assert _layer_solver.cache_info().misses <= 20
    _stamp("criterion 8 (versality degree 3, all four types)", t0)


def test_criterion_9_headline_documented():
    """The characteristic-zero lifting headline is intentionally not
    reproduced at desk scale; the README documents the substitution by
    the finite-level property suites (criteria 4, 7, 8)."""
    t0 = time.monotonic()
    with open("README.md") as fh:
        readme = fh.read()
    assert "not reproduc" in readme.lower()
    for marker in ("criterion 4", "criterion 7", "criterion 8"):
        assert marker.lower() in readme.lower()
    _stamp("criterion 9 (headline substitution documented)", t0)
