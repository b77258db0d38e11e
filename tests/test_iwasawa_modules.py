import gc
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mulab import iwasawa_modules
from mulab.cli import main
from mulab.arith import poly_add, poly_eval, poly_mul, poly_sub
from mulab.errors import (
    InvariantViolation,
    MuLabError,
    NotTorsion,
    PrecisionInsufficient,
    TruncationUnresolved,
)
from mulab.linalg import _PRIMES
from mulab.modp import matmul_mod, rref_modp
from mulab.padic import val_int
from mulab.iwasawa_modules import (
    LambdaPresentation,
    MuProfile,
    _graded_ranks_at,
    graded_ranks,
    load_presentation,
    mu_profile,
    profile_from_ranks,
    smith_rank_over_power_series_field_char_p,
)
from fraction_linalg import fraction_rref
from test_modp import oracle_smith_zpk, smith_zpk


def P(*coeffs):
    return list(coeffs)


# (p, N, MT, rows) of the hand-made presentations of this file
EXAMPLES = {
    "direct_sum": (5, 3, 8, [[P(5), P(0)], [P(0), P(25)]]),
    "T": (5, 3, 8, [[P(0, 1)]]),
    "T2_plus_p": (5, 3, 8, [[P(5, 0, 1)]]),
    "pT": (5, 2, 8, [[P(0, 5)]]),
    "square_p2": (5, 3, 8, [[P(25), P(0)], [P(0), P(25)]]),
    "p2_at_N2": (5, 2, 8, [[P(25)]]),
    "one_row_two_columns": (5, 2, 8, [[P(5), P(0)]]),
    "p_at_N2": (5, 2, 8, [[P(5)]]),
    # Lambda/p, whose only nonzero 1 x 1 minor is the 65th
    "p_after_64_zero_rows": (5, 3, 8, [[P(0)]] * 64 + [[P(5)]]),
    # Lambda/T^5 twice: the minor T^10 vanishes mod T^8
    "T5_T5": (5, 3, 8, [[P(0, 0, 0, 0, 0, 1), P(0)],
                        [P(0), P(0, 0, 0, 0, 0, 1)]]),
    # T(T - 1) vanishes at T = 0 and T = 1
    "T_times_T_minus_1": (5, 3, 8, [[P(0, -1, 1)]]),
}


def example(name):
    return LambdaPresentation(*EXAMPLES[name])


def with_truncation(pres, M):
    """`pres` with its coefficients truncated or padded with zeros to M."""
    raw = np.zeros(pres.raw.shape[:2] + (M,), dtype=pres.raw.dtype)
    keep = min(M, pres.M)
    raw[:, :, :keep] = pres.raw[:, :, :keep]
    return LambdaPresentation(pres.p, pres.N, M, raw)


# -- the Smith path the p-adic lifting replaced: one Smith form over Z/p^N of
# the T-shifted relations, then one labelled elimination over F_p ----------


def _poly(coeffs, M, mod):
    cs = [c % mod for c in coeffs[:M]]
    return tuple(cs + [0] * (M - len(cs)))


def labelled_fpt_ranks(basis: np.ndarray, labels, p: int, M: int,
                       N: int) -> list[int]:
    """Ranks over F_p[[T]] of the T-stable subspaces W_1 <= ... <= W_N of
    (F_p[T]/(T^M))^c, where W_k is spanned by the rows of `basis` (c
    blocks of M coefficients) whose label is < k.

    W is a sum of cyclic pieces T^e F_p[T]/(T^M), and multiplying by T
    drops exactly one dimension from each piece with e < M, so the rank is
    dim W - dim TW.  One elimination over the T-shifted rows gives dim TW_k
    for every k: each column pivots on the live row of least label, so a
    row only ever takes multiples of rows of no larger label, every prefix
    keeps its span, and dim TW_k is the number of pivots with label < k.
    """
    labels = np.asarray(labels)
    # T shifts each block of M coefficients up by one and drops T^M
    R = np.zeros_like(basis)
    R[:, 1:] = basis[:, :-1] % p
    R[:, ::M] = 0
    live = np.ones(len(R), dtype=bool)
    pivot_labels = []
    for col in range(R.shape[1]):
        # live rows are zero left of col: earlier columns were cleared
        nz = np.flatnonzero(live & (R[:, col] != 0))
        if not nz.size:
            continue
        r = nz[labels[nz].argmin()]
        live[r] = False
        pivot_labels.append(int(labels[r]))
        rest = nz[nz != r]
        if rest.size:
            f = R[rest, col] * pow(int(R[r, col]), -1, p) % p
            R[rest, col:] = (R[rest, col:] - np.outer(f, R[r, col:])) % p
    return [int((labels < k).sum()) - sum(d < k for d in pivot_labels)
            for k in range(1, N + 1)]


def smith_graded_ranks_at(pres, M):
    """`_graded_ranks_at` by the Smith path: reduced mod p^k, the Smith
    basis of the (relations*M) x (generators*M) T-shift matrix is still a
    Smith basis with diagonal min(d_i, k), so the rows w_i with d_i < k,
    reduced mod p, are an F_p-basis of W_k for every k."""
    pres = with_truncation(pres, M)
    p, N, c = pres.p, pres.N, pres.ncols
    nr = len(pres.relations)
    rel = pres.relations.astype(object)
    G = np.zeros((nr, M, c, M), dtype=object)
    for t in range(M):
        G[:, t, :, t:] = rel[:, :, :M - t]
    diag, Minv = smith_zpk(G.reshape(nr * M, c * M), p, N)
    ranks = labelled_fpt_ranks(Minv[:len(diag)] % p, diag, p, M, N)
    return [c - rank for rank in ranks]


# -- oracle: one Smith form over Z/p^k per k, then a Smith form over
# F_p[T]/(T^M) by minimal-T-valuation pivoting ------------------------------


def _oracle_poly_mul(a, b, M, p):
    out = [0] * M
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j >= M:
                    break
                out[i + j] += x * y
    return tuple(c % p for c in out)


def _t_valuation(a, M):
    return next((i for i, c in enumerate(a) if c != 0), M)


def _series_inverse(a, M, p):
    """Inverse of a unit (a[0] != 0) in F_p[T]/(T^M)."""
    inv0 = pow(a[0], -1, p)
    out = [inv0] + [0] * (M - 1)
    for i in range(1, M):
        s = sum(a[j] * out[i - j] for j in range(1, i + 1) if j < len(a))
        out[i] = (-inv0 * s) % p
    return tuple(out)


def oracle_fpt_rank(rows, p, M):
    """Smith-form rank of a matrix over F_p[T]/(T^M): pivot on a globally
    minimal T-valuation entry, which keeps every update exact mod T^M."""
    A = [[_poly(e, M, p) for e in row] for row in rows]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    rank = 0
    while rank < nr and rank < nc:
        bv, bi, bj = min((_t_valuation(A[i][j], M), i, j)
                         for i in range(rank, nr) for j in range(rank, nc))
        if bv >= M:
            break
        r0 = c0 = rank
        A[r0], A[bi] = A[bi], A[r0]
        for row in A:
            row[c0], row[bj] = row[bj], row[c0]
        uinv = _series_inverse(A[r0][c0][bv:] + (0,) * bv, M, p)
        for i in range(r0 + 1, nr):
            e = A[i][c0]
            if not any(e):
                continue
            quot = _oracle_poly_mul(e[bv:] + (0,) * bv, uinv, M, p)
            for j in range(c0, nc):
                sub = _oracle_poly_mul(quot, A[r0][j], M, p)
                A[i][j] = tuple((x - y) % p for x, y in zip(A[i][j], sub))
        for j in range(c0 + 1, nc):
            A[r0][j] = (0,) * M
        rank += 1
    return rank


def oracle_graded_ranks_at(pres, M):
    p, N, c = pres.p, pres.N, pres.ncols
    qs = []
    for k in range(1, N + 1):
        pk = p**k
        stacked = []
        for row in pres.relations.tolist():
            row_k = [_poly(e, M, pk) for e in row]
            for t in range(M):
                stacked.append([x for e in row_k
                                for x in (0,) * t + e[:M - t]])
        G = np.array(stacked, dtype=object) if stacked else \
            np.zeros((0, c * M), dtype=object)
        diag, Minv = smith_zpk(G, p, k)
        # basis of (V intersect p^(k-1) R^c) / p^(k-1): rows w_i with
        # d_i <= k-1, reduced mod p
        basis_rows = [Minv[i, :] % p for i, d in enumerate(diag) if d < k]
        if not basis_rows:
            qs.append(c)
            continue
        poly_rows = [[tuple(int(x) for x in w[i * M:(i + 1) * M])
                      for i in range(c)] for w in basis_rows]
        qs.append(c - oracle_fpt_rank(poly_rows, p, M))
    return qs


def assert_matches_oracle(pres):
    for M in (pres.M, 2 * pres.M, 3):
        at = pres if M == pres.M else with_truncation(pres, M)
        assert _graded_ranks_at(at, M) == oracle_graded_ranks_at(at, M), \
            (pres.p, pres.N, M, pres.raw.tolist())


def t_span_basis(rows, p, M):
    """An F_p-basis of the span of every T-shift of the given rows."""
    shifts = [[x for e in row for x in (0,) * t + _poly(e, M, p)[:M - t]]
              for row in rows for t in range(M)]
    R, pivots = rref_modp(np.array(shifts, dtype=np.int64), p)
    return R[:len(pivots)]


def test_smith_rank_examples():
    for rows, rank in (([[(1,), (0,)], [(0,), (1,)]], 2),
                       ([[(0, 1), (0,)], [(0,), (0, 0, 0, 1)]], 2),
                       ([[(0, 1), (0, 1)], [(0, 1), (0, 1)]], 1)):
        basis = t_span_basis(rows, 5, 8)
        assert labelled_fpt_ranks(
            basis, [0] * len(basis), 5, 8, 1) == [rank]
        assert oracle_fpt_rank(rows, 5, 8) == rank
        # eight coefficients and the zero pad slot of the elimination
        G = np.array([[_poly(e, 8, 5) + (0,) for e in row] for row in rows])
        assert reslicing_level(G[:, :, :8], 5, 5) == (rank, None)
        assert smith_rank_over_power_series_field_char_p(G, 5, 5) == \
            (rank, None)


def quotient_cardinality(pres, k, j):
    """|M/(p^k, T^j)| computed by brute force over the finite quotient
    ring, as an independent oracle for graded-rank tests."""
    p = pres.p
    # M/(p^k,T^j) = R^c / (rows + p^k + T^j); count via Smith over Z/p^k of
    # the stacked relations T^t * row restricted to T-degree < j
    c = pres.ncols
    stacked = []
    pk = p**k
    for row in pres.relations.tolist():
        for t in range(j):
            vec = []
            for e in row:
                shifted = (0,) * t + tuple(e)[:j - t]
                vec.extend(x % pk for x in shifted)
            stacked.append(vec)
    G = np.array(stacked, dtype=object) if stacked else \
        np.zeros((0, c * j), dtype=object)
    diag, _ = smith_zpk(G, p, k)
    # |quotient| = p^(k * c * j) / |V| and |V| = prod p^(k - d_i)
    size_V = sum(k - d for d in diag)
    return p**(k * c * j - size_V)


def test_graded_ranks_direct_sum():
    # diag(p, p^2) over Lambda, p = 5, N = 3
    pres = example("direct_sum")
    assert graded_ranks(pres) == [2, 1, 0]
    prof = mu_profile(pres)
    assert prof == MuProfile((1, 1), 3, 2, 2)


def test_graded_ranks_distinguished():
    # single relation (T): Lambda/(T) = Z_p has no p-torsion
    pres = example("T")
    assert graded_ranks(pres) == [0, 0, 0]
    assert mu_profile(pres) == MuProfile((0,), 0, 0, 0)
    # T^2 + p: distinguished, no p-torsion
    pres = example("T2_plus_p")
    assert mu_profile(pres) == MuProfile((0,), 0, 0, 0)


def test_graded_ranks_pT():
    # Lambda/(pT): p-torsion part is (T)/(pT) = Lambda/p, so q = (1, 0)
    pres = example("pT")
    qs = graded_ranks(pres)
    # cardinality oracle: |M/(p^k, T^j)| = p^(k + j - 1) pins the module
    # structure Lambda/p (+) Lambda/T modulo finite junk
    for k in range(1, 3):
        for j in range(1, 6):
            assert quotient_cardinality(pres, k, j) == 5**(k + j - 1)
    assert qs == [1, 0]
    assert mu_profile(pres) == MuProfile((1,), 1, 1, 1)


def test_mu_profile_square_p2():
    pres = example("square_p2")
    assert graded_ranks(pres) == [2, 2, 0]
    assert mu_profile(pres) == MuProfile((0, 2), 4, 2, 2)


def test_precision_insufficient():
    # Lambda/p^2 at N = 2 cannot certify the exponent: q_N = 1 > 0, and
    # no truncated profile is returned in its place
    pres = example("p2_at_N2")
    assert graded_ranks(pres)[-1] > 0
    with pytest.raises(PrecisionInsufficient):
        mu_profile(pres)
    with pytest.raises(PrecisionInsufficient, match="q_N = 1 > 0 at N = 2"):
        profile_from_ranks(graded_ranks(pres), pres.N)


def test_not_torsion():
    pres = example("one_row_two_columns")
    with pytest.raises(NotTorsion):
        graded_ranks(pres)


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


def random_unimodular_scramble(rng, rows, p, N):
    """Unimodular row/column operations with exact polynomial arithmetic
    (coefficients mod p^N, no T-truncation, so the module is preserved)."""
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
            # multiply a row by a unit series
            i = rng.randrange(nr)
            f = [rng.randrange(1, p)] + \
                [rng.randrange(mod) for _ in range(2)]
            rows[i] = [_zmul(f, a, mod) for a in rows[i]]
    return rows


def build_module(rng, p, N, M):
    """Random (+) (Lambda/p^i)^(a_i) (+) Lambda/f_j with i <= 3 and
    distinguished degree <= 4; returns (presentation rows, expected mu
    vector)."""
    mod = p**N
    blocks = []
    mu_counts = {}
    n_p = rng.randint(0, 3)
    for _ in range(n_p):
        i = rng.randint(1, min(3, N - 1))
        blocks.append([p**i])
        mu_counts[i] = mu_counts.get(i, 0) + 1
    n_f = rng.randint(0, 2)
    for _ in range(n_f):
        deg = rng.randint(1, 4)
        f = [rng.randrange(mod) * p % mod for _ in range(deg)] + [1]
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
    vec = tuple(mu_counts.get(i, 0) for i in range(1, t + 1)) if t else (0,)
    return rows, vec


def structure_modules():
    """60 scrambled modules (+) Lambda/p^i (+) Lambda/f_j with their mu
    vectors."""
    rng = random.Random(20240817)
    for _ in range(60):
        p = rng.choice([3, 5])
        N = 4
        rows, vec = build_module(rng, p, N, 8)
        scrambled = random_unimodular_scramble(rng, rows, p, N)
        maxdeg = max(len(e) for r in scrambled for e in r)
        yield LambdaPresentation(p, N, max(8, maxdeg + 4), scrambled), vec


def test_structure_recovery_randomized():
    for trial, (pres, vec) in enumerate(structure_modules()):
        prof = mu_profile(pres)
        assert prof.mu_vector == vec, (trial, pres.p, pres.raw.tolist(), prof)
        assert_matches_oracle(pres)


def test_load_presentation(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(
        {"p": 5, "N": 3, "MT": 8, "rows": [[[5], [0]], [[0], [25]]]}))
    pres = load_presentation(str(path))
    assert mu_profile(pres).mu_vector == (1, 1)


def scrambled_diagonal_modules():
    """25 scrambled diag(p^a_1, .., p^a_c), c <= 3, with mu = sum a_i."""
    rng = random.Random(424242)
    for _ in range(25):
        p = rng.choice([3, 5])
        N = 4
        c = rng.randint(1, 3)
        rows = []
        mu_expected = 0
        for i in range(c):
            a = rng.randint(1, 3)
            mu_expected += a
            row = [[0]] * c
            row[i] = [p**a]
            rows.append(row)
        scrambled = random_unimodular_scramble(rng, rows, p, N)
        maxdeg = max(len(e) for r in scrambled for e in r)
        yield (LambdaPresentation(p, N, max(8, maxdeg + 4), scrambled),
               mu_expected)


def test_scrambled_diagonal_mu():
    for pres, mu_expected in scrambled_diagonal_modules():
        assert mu_profile(pres).mu == mu_expected
        assert_matches_oracle(pres)


# -- one labelled elimination for every graded rank, against the per-k
# -- ranks it replaces ---------------------------------------------------------


def oracle_fpt_rank_one(basis, p, M):
    """The one-rank routine the labelled elimination replaces: the
    F_p[[T]]-rank dim W - dim TW of one T-stable subspace W."""
    n = basis.shape[0]
    W = basis.reshape(n, -1, M)
    TW = np.zeros_like(W)
    TW[:, :, 1:] = W[:, :, :-1]
    return n - len(rref_modp(TW.reshape(n, -1), p)[1])


def oracle_graded_ranks_at_per_k(pres, M):
    """The graded ranks as computed before: one Smith form over Z/p^N,
    then one F_p rank per k."""
    p, N, c = pres.p, pres.N, pres.ncols
    nr = len(pres.relations)
    rel = pres.relations.astype(object)
    G = np.zeros((nr, M, c, M), dtype=object)
    for t in range(M):
        G[:, t, :, t:] = rel[:, :, :M - t]
    diag, Minv = oracle_smith_zpk(G.reshape(nr * M, c * M), p, N)
    qs = []
    for k in range(1, N + 1):
        basis = Minv[[i for i, d in enumerate(diag) if d < k]] % p
        if not len(basis):
            qs.append(c)
            continue
        qs.append(c - oracle_fpt_rank_one(basis, p, M))
    return qs


def per_k_modules():
    """200 scrambled modules over p in {2, 3, 5}."""
    rng = random.Random(31337)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        N = 4
        rows, _ = build_module(rng, p, N, 8)
        scrambled = random_unimodular_scramble(rng, rows, p, N)
        maxdeg = max(len(e) for r in scrambled for e in r)
        yield LambdaPresentation(p, N, max(6, maxdeg + 2), scrambled)


def test_graded_ranks_match_per_k_oracle():
    """>= 200 scrambled modules: the one labelled elimination gives the
    per-k graded ranks at the stated and at the doubled truncation."""
    for trial, pres in enumerate(per_k_modules()):
        for at in (pres, with_truncation(pres, 2 * pres.M)):
            assert _graded_ranks_at(at, at.M) == \
                oracle_graded_ranks_at_per_k(at, at.M), \
                (trial, pres.p, pres.raw.tolist())


def test_labelled_ranks_match_per_prefix_rref():
    """Independent rows with labels in any order: the k-th rank is
    dim W_k - dim TW_k for the rows of label < k, each prefix taken by its
    own elimination.  Pivoting on a live row other than one of least label
    mixes a larger label into a prefix and changes some rank."""
    rng = random.Random(2718)
    for trial in range(150):
        p = rng.choice([2, 3, 5])
        M = rng.randint(1, 4)
        c = rng.randint(1, 3)
        N = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, c * M)):
            row = [rng.randrange(p) if rng.random() < 0.6 else 0
                   for _ in range(c * M)]
            if len(rref_modp(np.array(rows + [row]), p)[1]) > len(rows):
                rows.append(row)
        basis = np.array(rows, dtype=np.int64).reshape(len(rows), c * M)
        labels = [rng.randrange(N) for _ in rows]
        want = []
        for k in range(1, N + 1):
            sub = basis[[i for i, d in enumerate(labels) if d < k]]
            want.append(oracle_fpt_rank_one(sub, p, M) if len(sub) else 0)
        got = labelled_fpt_ranks(basis, labels, p, M, N)
        assert got == want, (trial, p, M, basis, labels)
        assert all(type(r) is int for r in got)


def test_graded_ranks_unstable_under_doubling(monkeypatch):
    pres = example("p_at_N2")
    monkeypatch.setattr(iwasawa_modules, "_graded_ranks_at",
                        lambda at, M: [1, 0] if M == 8 else [0, 0])
    with pytest.raises(TruncationUnresolved, match="doubling"):
        graded_ranks(pres)


def test_graded_ranks_not_monotone(monkeypatch):
    pres = example("p_at_N2")
    monkeypatch.setattr(iwasawa_modules, "_graded_ranks_at",
                        lambda at, M: [0, 1])
    with pytest.raises(TruncationUnresolved, match="monotone"):
        graded_ranks(pres)


def test_mu_profile_consistency_raises():
    with pytest.raises(InvariantViolation, match="mu-profile"):
        MuProfile((1,), 2, 1, 1)
    with pytest.raises(InvariantViolation):
        MuProfile((0,), 0, 1, 0)
    with pytest.raises(InvariantViolation):
        MuProfile((1, 0), 1, 2, 1)


def test_mu_profile_consistency_raises_under_O():
    """The checks are no bare asserts, so `python -O` keeps them."""
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "from mulab.errors import InvariantViolation\n"
         "from mulab.iwasawa_modules import MuProfile\n"
         "try:\n"
         "    MuProfile((1,), 2, 1, 1)\n"
         "except InvariantViolation:\n"
         "    print('raised')\n"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "raised"


@pytest.mark.parametrize("field, value, match", [
    ("MT", 10**9, "doubled-truncation matrix"),
    ("N", 40, "2\\^31"),
    ("p", 2**31 + 11, "2\\^31")])
def test_load_presentation_bounds(tmp_path, field, value, match):
    spec = {"p": 5, "N": 3, "MT": 8, "rows": [[[5], [0]], [[0], [25]]]}
    spec[field] = value
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=match):
        load_presentation(str(path))


def test_load_presentation_bounds_are_inclusive(tmp_path, monkeypatch):
    """p^N = 2^31 loads; so do MT = MAX_TRUNCATION and a presentation
    whose certificate work equals the bound.  One past either bound
    does not."""
    path = tmp_path / "pres.json"

    def load(spec):
        path.write_text(json.dumps(spec))
        return load_presentation(str(path))

    assert load({"p": 2, "N": 31, "MT": 4, "rows": [[[2]]]}).M == 4
    top = iwasawa_modules.MAX_TRUNCATION
    assert load({"p": 5, "N": 3, "MT": top, "rows": [[[5]]]}).M == top
    with pytest.raises(ValueError, match=f"MT = {top + 1} exceeds"):
        load({"p": 5, "N": 3, "MT": top + 1, "rows": [[[5]]]})
    spec = {"p": 5, "N": 3, "MT": 20,
            "rows": [[[1], [2]], [[3], [4]], [[5], [6]]]}
    work = iwasawa_modules.certificate_work(3, 2, 20)
    monkeypatch.setattr(iwasawa_modules, "MAX_CERTIFICATE_WORK", work)
    assert load(spec).M == 20
    monkeypatch.setattr(iwasawa_modules, "MAX_CERTIFICATE_WORK", work - 1)
    with pytest.raises(ValueError, match="torsion certificate"):
        load(spec)


def test_load_presentation_takes_a_long_one_by_one(tmp_path):
    """1 x 1 at MT 708 was refused by the bound on the T-shift matrix
    the elimination no longer builds; 100 x 100 at MT 7, whose refused
    certificate ran 124 s, is now refused before any work."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"p": 5, "N": 3, "MT": 708,
                                "rows": [[[5]]]}))
    assert mu_profile(load_presentation(str(path))).mu_vector == (1,)
    rows = [[[1] * 7] * 100] * 100
    path.write_text(json.dumps({"p": 5, "N": 3, "MT": 7, "rows": rows}))
    with pytest.raises(ValueError, match="torsion certificate"):
        load_presentation(str(path))


# -- the torsion certificate: the rank of R(t) at one integer point, against
# -- the 64-subset determinant scan it replaces ---------------------------------


def _det(pres, row_idx):
    """Determinant of the square submatrix on the given rows (all
    columns), by subset dynamic programming over columns, with exact
    integer coefficients, truncated mod T^M."""
    n, M = pres.ncols, pres.M
    rows = pres.raw.tolist()
    # dp over subsets of used columns, rows taken in order
    cur = {0: [1]}
    for r in row_idx:
        nxt = {}
        for mask, v in cur.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                e = rows[r][j]
                if all(c == 0 for c in e):
                    continue
                # sign: parity of columns already used above j
                odd = bin(mask >> (j + 1)).count("1") % 2
                key = mask | bit
                nxt[key] = (poly_sub if odd else poly_add)(
                    nxt.get(key, []), poly_mul(v, e)[:M])
        cur = nxt
    det = cur.get((1 << n) - 1, [])
    return tuple(det) + (0,) * (M - len(det))


def oracle_torsion_certificate(pres, max_tries=64):
    """The certificate this one replaces: the first nonzero c x c minor
    mod T^M among the first `max_tries` row subsets, or NotTorsion."""
    if len(pres.relations) < pres.ncols:
        raise NotTorsion("fewer relations than generators")
    if pres.ncols == 0:
        return (1,) + (0,) * (pres.M - 1)
    tried = 0
    for combo in itertools.combinations(range(len(pres.relations)), pres.ncols):
        d = _det(pres, combo)
        tried += 1
        if any(c != 0 for c in d):
            return d
        if tried >= max_tries:
            break
    raise NotTorsion("no nonzero maximal minor found "
                     f"within {tried} submatrices")


def full_det(pres):
    """The determinant of a square presentation, untruncated: its degree
    is at most c(M - 1)."""
    c = pres.ncols
    return _det(with_truncation(pres, c * (pres.M - 1) + 1), range(c))


def repeated_column(c, seed):
    """A dense random c x c presentation at MT 20 whose last column
    repeats the first, so that it has rank c - 1 over Q(T)."""
    rng = random.Random(seed)
    rows = [[[rng.randrange(125) for _ in range(20)] for _ in range(c)]
            for _ in range(c)]
    for row in rows:
        row[-1] = list(row[0])
    return LambdaPresentation(5, 3, 20, rows)


def _load_workloads():
    """bench/workloads.py, loaded read-only; it imports its sibling
    hostspeed, so bench/ is on sys.path while it loads."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", bench / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def bench_modules():
    """One block of the lambda-modules benchmark (every shape once) for
    each of the seeds 1, 2 and 3."""
    workloads = _load_workloads()
    for seed in (1, 2, 3):
        for p, N, M, rows, _ in workloads.module_specs(seed,
                                                        workloads.SHAPES):
            yield LambdaPresentation(p, N, M, rows)


def presentations():
    """Every presentation this file puts through the graded ranks, and
    the bench's lambda-modules inputs."""
    for name in EXAMPLES:
        yield example(name)
    for pres, _ in structure_modules():
        yield pres
    for pres, _ in scrambled_diagonal_modules():
        yield pres
    yield from per_k_modules()
    for c in (2, 4, 8):
        yield repeated_column(c, c)
    yield from bench_modules()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MuLabError as exc:
        return type(exc).__name__


def test_torsion_certificate_against_subset_scan(monkeypatch):
    """Wherever the subset scan finds a nonzero minor, the rank at a point
    certifies torsion too, and graded_ranks is unchanged.  On a square
    presentation the point is the least t where the exact determinant is
    nonzero."""
    found = refused = 0
    for i, pres in enumerate(presentations()):
        c = pres.ncols
        try:
            oracle_torsion_certificate(pres)
        except NotTorsion:
            refused += 1
            continue
        found += 1
        t = pres.torsion_certificate()
        assert type(t) is int and 0 <= t <= c * (pres.M - 1), i
        if len(pres.relations) == c:
            det = full_det(pres)
            assert [s for s in range(t + 1) if poly_eval(det, s)] == [t], i
        new = _outcome(graded_ranks, pres)
        with monkeypatch.context() as m:
            m.setattr(LambdaPresentation, "torsion_certificate",
                      oracle_torsion_certificate)
            old = _outcome(graded_ranks, pres)
        assert new == old, (i, pres.raw.tolist())
    # refused: the three repeated columns, one row short of two columns,
    # Lambda/p after 64 zero rows and T^5 twice
    assert (found, refused) == (413, 6)


@pytest.mark.parametrize("name, vec", [("p_after_64_zero_rows", (1,)),
                                       ("T5_T5", (0,))])
def test_torsion_certificate_accepts_what_the_scan_refused(name, vec):
    pres = example(name)
    with pytest.raises(NotTorsion):
        oracle_torsion_certificate(pres)
    assert pres.torsion_certificate() in (0, 1)
    assert mu_profile(pres).mu_vector == vec


def test_torsion_certificate_returns_least_full_rank_point():
    assert example("T_times_T_minus_1").torsion_certificate() == 2
    assert example("T5_T5").torsion_certificate() == 1
    assert example("direct_sum").torsion_certificate() == 0


@pytest.mark.parametrize("c", [2, 4, 8])
def test_repeated_column_is_not_torsion(c):
    pres = repeated_column(c, c)
    assert not any(full_det(pres))
    with pytest.raises(NotTorsion, match=f"rank < {c} over Q\\(T\\)"):
        pres.torsion_certificate()
    with pytest.raises(NotTorsion):
        mu_profile(pres)


def _content_valuation(pres):
    """v_p of the content of the determinant mod T^M, or None if that
    determinant is 0."""
    det = _det(pres, range(pres.ncols))
    if not any(det):
        return None
    return min(val_int(abs(x), pres.p, 64) for x in det if x)


def test_mu_equals_det_content_valuation():
    """Cross-oracle: a square torsion presentation has projective
    dimension <= 1, so its characteristic ideal is (det) and mu is the
    p-valuation of the determinant's content.  Checked on every square
    presentation of this file at the first of MT, 2 MT and 4 MT where the
    graded ranks and the content are both stable under doubling MT."""
    checked = 0
    for i, pres in enumerate(presentations()):
        if len(pres.relations) != pres.ncols:
            continue
        for M in (pres.M, 2 * pres.M, 4 * pres.M):
            at = with_truncation(pres, M)
            twice = with_truncation(pres, 2 * M)
            v = _content_valuation(at)
            if v is None or v != _content_valuation(twice):
                continue
            qs = _graded_ranks_at(at, M)
            if qs != _graded_ranks_at(twice, 2 * M):
                continue
            if qs[-1]:
                break  # the mu-exponent is past the precision
            assert profile_from_ranks(qs, pres.N).mu == v, (i, M)
            checked += 1
            break
    # of the 417 square presentations, the three repeated columns have
    # det 0, and Lambda/p^2 at N = 2 is past the precision
    assert checked == 413


# -- the p-adic lifting against the Smith path it replaced -------------------


def big_prime_presentations():
    """Sums of Lambda/p^i, Lambda/T^a and Lambda/f, f distinguished, at
    p = 2^31 - 1 with N = 1 and at p = 46337 with N = 2, where p^N is near
    2^31 and the products need 16-bit limbs.  They are scrambled mod
    p^(N+2), so that the blocks p^i keep their exact coefficients; at
    p = 2^31 - 1 those overflow int64.  Then dense 2 x 2 presentations
    of rank one mod p."""
    rng = random.Random(46337)
    for p, N in ((2147483647, 1), (46337, 2)):
        for _ in range(12):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0:
                    blocks.append([p**rng.randint(1, N)])
                elif kind == 1:
                    blocks.append([0] * rng.randint(0, 3) + [1])
                else:
                    blocks.append([rng.randrange(p**N) * p % p**N
                                   for _ in range(rng.randint(1, 3))] + [1])
            rows = [[f if i == j else [0] for j in range(len(blocks))]
                    for i, f in enumerate(blocks)]
            rows = random_unimodular_scramble(rng, rows, p, N + 2)
            maxdeg = max(len(e) for r in rows for e in r)
            yield LambdaPresentation(p, N, max(8, maxdeg + 4), rows)
        # rows r and h r + p s: rank one mod p, so the second row must
        # cancel exactly mod p in the elimination
        for _ in range(3):
            r, s = ([[rng.randrange(p) for _ in range(6)] for _ in range(2)]
                    for _ in range(2))
            h = [rng.randrange(p) for _ in range(3)]
            rows = [r, [poly_add(poly_mul(h, e), [p * x for x in f])
                        for e, f in zip(r, s)]]
            yield LambdaPresentation(p, N, 12, rows)


def _result(fn, *args):
    try:
        return fn(*args)
    except MuLabError as exc:
        return type(exc).__name__, str(exc)


def test_graded_ranks_match_smith_path(monkeypatch):
    """Every presentation of this file, the bench's and the big-prime ones:
    `_graded_ranks_at` at MT and 2 MT gives the Smith path's lists, and
    `graded_ranks` the same lists or the same refusal and message."""
    refusals = set()
    for i, pres in enumerate(itertools.chain(presentations(),
                                             big_prime_presentations())):
        for at in (pres, with_truncation(pres, 2 * pres.M)):
            assert _graded_ranks_at(at, at.M) == \
                smith_graded_ranks_at(at, at.M), (i, at.M)
        new = _result(graded_ranks, pres)
        with monkeypatch.context() as m:
            m.setattr(iwasawa_modules, "_graded_ranks_at",
                      smith_graded_ranks_at)
            assert _result(graded_ranks, pres) == new, i
        if isinstance(new, list):
            new = _result(profile_from_ranks, new, pres.N)
        if isinstance(new, tuple):
            refusals.add(new[0])
    assert {"NotTorsion", "PrecisionInsufficient"} <= refusals


def small_truncation_presentations():
    """400 sparse random presentations at MT <= 5 with entries of every
    p-valuation: most meet the T-truncation, where the generators
    T^(M-e) g / p of the next level matter."""
    rng = random.Random(5)
    for _ in range(400):
        p, N, M = rng.choice([2, 3, 5]), rng.randint(1, 4), rng.randint(1, 5)
        c = rng.randint(1, 3)
        rows = [[[rng.randrange(p**N) * p**rng.choice([0, 0, 1, 2])
                  if rng.random() < 0.5 else 0 for _ in range(M)]
                 for _ in range(c)] for _ in range(rng.randint(c, c + 2))]
        yield LambdaPresentation(p, N, M, rows)


def test_graded_ranks_at_match_smith_path_at_small_truncation():
    for i, pres in enumerate(small_truncation_presentations()):
        assert _graded_ranks_at(pres, pres.M) == \
            smith_graded_ranks_at(pres, pres.M), (i, pres.raw.tolist())


def test_presentation_refuses_a_modulus_beyond_int64_products():
    for p, N in ((2, 32), (2**31 + 11, 1), (3, 10**9)):
        with pytest.raises(ValueError, match="exceeds 2\\^31"):
            LambdaPresentation(p, N, 4, [[[p]]])


def test_cli_lambda_invariants_matches_smith_path(tmp_path, capsys,
                                                  monkeypatch):
    """`mu-lab lambda-invariants` prints the same bytes, and exits the
    same way, as with the Smith path."""
    specs = [EXAMPLES[name] for name in EXAMPLES]
    specs += [(p, N, M, rows) for p, N, M, rows, _ in
              _load_workloads().module_specs(1, 10)]
    path = tmp_path / "pres.json"
    for p, N, M, rows in specs:
        path.write_text(json.dumps({"p": p, "N": N, "MT": M, "rows": rows}))
        runs = []
        for ranks_at in (_graded_ranks_at, smith_graded_ranks_at):
            with monkeypatch.context() as m:
                m.setattr(iwasawa_modules, "_graded_ranks_at", ranks_at)
                rc = main(["lambda-invariants", "--presentation", str(path)])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1], (p, N, M, rows)


def _held_after_graded_ranks(pres):
    """Bytes that stay allocated after graded_ranks(pres)."""
    tracemalloc.start()
    try:
        graded_ranks(pres)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_shift_index_cache_holds_no_large_truncation():
    """graded_ranks at MT 1000 builds 1001 x 1001 and 2001 x 2001 shift
    indices (8 and 32 MB); only those up to the cache bound stay.  On 20
    generators at MT 100, an index as large as c M^2 (6.4 MB at 2 MT)
    would stay too if it were cached; none above the bound is, and no
    shift index of 2 MT (320 kB) stays either."""
    assert _held_after_graded_ranks(
        LambdaPresentation(5, 3, 1000, [[[5, 1]]])) < 8 * 1000**2
    c, MT = 20, 100
    # lower-triangular ones: each pivot updates every row below it
    wide = LambdaPresentation(5, 1, MT, [[[1] if j <= i else [0]
                                          for j in range(c)]
                                         for i in range(c)])
    assert _held_after_graded_ranks(wide) < 8 * (2 * MT)**2
    small = iwasawa_modules._SHIFT_CACHE_MAX
    assert iwasawa_modules._small_shift_index(small) is \
        iwasawa_modules._small_shift_index(small)


# -- the kept-valuation elimination and the word-prime certificate against
# -- the re-slicing elimination and the exact certificate they replaced ------


def _reslicing_shift_index(M):
    s, t = np.ogrid[:M, :M]
    return np.where(t >= s, t - s, M)


def reslicing_level(G, p, mod):
    """`smith_rank_over_power_series_field_char_p` before the valuations
    were kept between pivots: G is an unpadded (rows, c, M) array, and
    every step reduces every live row mod p and searches it again."""
    G = G % mod
    _, c, M = G.shape
    S = _reslicing_shift_index(M)
    live = np.ones(len(G), dtype=bool)
    pivots, vals = [], []
    while True:
        rows = np.flatnonzero(live)
        nz = G[rows] % p != 0
        hit = nz.any(axis=2)
        if not hit.any():
            break
        val = np.where(hit, nz.argmax(axis=2), M)
        i, j = divmod(int(val.argmin()), c)
        r, e = rows[i], int(val[i, j])
        live[r] = False
        pivots.append(r)
        vals.append(e)
        others = rows[hit[:, j]]
        others = others[others != r]
        if not others.size:
            continue
        u = np.zeros(M + 1, dtype=np.int64)
        u[:M - e] = G[r, j, e:] % p
        g = np.zeros((c, M + 1), dtype=np.int64)
        g[:, :M] = G[r]
        gT = g[:, S[:M - e]].transpose(1, 0, 2).reshape(M - e, c * M)
        scaled = matmul_mod(G[others].reshape(-1, M), u[S], mod)
        taken = matmul_mod(G[others, j, e:] % p, gT, mod)
        G[others] = (scaled.reshape(-1, c, M)
                     - taken.reshape(-1, c, M)) % mod
    if mod == p:
        return len(pivots), None
    shifted = np.zeros((len(pivots), c, M), dtype=np.int64)
    for k, (r, e) in enumerate(zip(pivots, vals)):
        shifted[k, :, M - e:] = G[r, :, :e] // p
    nxt = np.concatenate([G[pivots] % (mod // p), shifted,
                          G[live] // p])
    return len(pivots), nxt[nxt.any(axis=(1, 2))]


def reslicing_graded_ranks_at(pres, M):
    """`_graded_ranks_at` on `reslicing_level`, truncating through a
    second presentation."""
    at = with_truncation(pres, M)
    p, N, c = at.p, at.N, at.ncols
    G = at.relations.reshape(len(at.relations), c, M)
    qs = []
    for k in range(1, N + 1):
        rank, G = reslicing_level(G, p, p**(N - k + 1))
        qs.append(c - rank)
        if rank == c:
            return qs + [0] * (N - k)
    return qs


def exact_torsion_certificate(pres):
    """The torsion certificate with the Fraction rank over Q at every
    point."""
    c = pres.ncols
    if len(pres.raw) < c:
        raise NotTorsion("fewer relations than generators")
    rows = pres.raw.tolist()
    for t in range(c * (pres.M - 1) + 1):
        if len(fraction_rref([[poly_eval(e, t) for e in row]
                              for row in rows])[1]) == c:
            return t
    raise NotTorsion(f"rank < {c} over Q(T): the relation matrix has "
                     f"rank < {c} at every T = 0 .. {c * (pres.M - 1)}")


def differential_modules():
    """240 scrambled sums of Lambda/p^i, Lambda/T^a and Lambda/f with f
    distinguished, p in {2, 3, 5, 7} and N <= 5, some with an extra
    relation; the truncation is just above the degrees, or 33 or 70, so
    that 2 MT falls on both sides of the shift-index cache bound 64."""
    rng = random.Random(23)
    for _ in range(240):
        p, N = rng.choice([2, 3, 5, 7]), rng.randint(1, 5)
        mod = p**N
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                blocks.append([p**rng.randint(1, N)])
            elif kind == 1:
                blocks.append([0] * rng.randint(0, 3) + [1])
            else:
                blocks.append([rng.randrange(mod) * p % mod
                               for _ in range(rng.randint(1, 3))] + [1])
        rows = [[f if i == j else [0] for j in range(len(blocks))]
                for i, f in enumerate(blocks)]
        # scrambled mod p^(N+2), so that a block p^N keeps its exact
        # coefficients and the module stays torsion
        rows = random_unimodular_scramble(rng, rows, p, N + 2)
        if rng.random() < 0.3:
            rows.append([poly_add(a, poly_mul([rng.randrange(mod)], b))
                         for a, b in zip(*rng.sample(rows, 2))] if
                        len(rows) > 1 else [list(e) for e in rows[0]])
        maxdeg = max(len(e) for r in rows for e in r)
        M = rng.choice([maxdeg + 1, maxdeg + 3, 33, 70])
        yield LambdaPresentation(p, N, max(M, maxdeg), rows)


def first_prime_presentations():
    """Presentations whose R(t) vanishes mod 2^62 - 57, linalg's first
    prime, at some or every point, so that the exact rank decides
    there."""
    q = _PRIMES[0]
    yield LambdaPresentation(5, 3, 1, [[[q]]])
    yield LambdaPresentation(5, 3, 4, [[[5 * q, q]]])
    yield LambdaPresentation(5, 3, 3, [[[q], [0, 1]], [[0], [q, q]]])
    yield LambdaPresentation(3, 2, 2, [[[q, 0], [2 * q]], [[q], [q, q]]])


def differential_presentations():
    yield from (example(name) for name in EXAMPLES)
    yield from differential_modules()
    yield from big_prime_presentations()
    yield from first_prime_presentations()
    for c in (2, 4):
        yield repeated_column(c, c)


def test_graded_ranks_match_reslicing_elimination():
    """The ranks at MT and 2 MT, the profile or refusal of mu_profile and
    the least torsion point t, or NotTorsion, of the exact path."""
    Ms = set()
    for i, pres in enumerate(differential_presentations()):
        for M in (pres.M, 2 * pres.M):
            Ms.add(M)
            assert _graded_ranks_at(pres, M) == \
                reslicing_graded_ranks_at(pres, M), (i, M)
        assert _outcome(pres.torsion_certificate) == \
            _outcome(exact_torsion_certificate, pres), i
    assert min(Ms) <= iwasawa_modules._SHIFT_CACHE_MAX < max(Ms)


def test_mu_profile_matches_reslicing_elimination(monkeypatch):
    for i, pres in enumerate(differential_presentations()):
        new = _result(mu_profile, pres)
        with monkeypatch.context() as m:
            m.setattr(iwasawa_modules, "_graded_ranks_at",
                      reslicing_graded_ranks_at)
            m.setattr(LambdaPresentation, "torsion_certificate",
                      exact_torsion_certificate)
            assert _result(mu_profile, pres) == new, i


def test_torsion_certificate_falls_back_to_the_exact_rank():
    """R(0) = [[2^62 - 57]] has rank 0 mod linalg's first prime and rank
    1 over Q: the certificate is still t = 0.  Where R(t) vanishes mod it
    at every point, the least t is the exact one."""
    q = _PRIMES[0]
    assert LambdaPresentation(5, 3, 1, [[[q]]]).torsion_certificate() == 0
    for pres in first_prime_presentations():
        assert pres.torsion_certificate() == \
            exact_torsion_certificate(pres)


def test_cli_lambda_invariants_golden(tmp_path, capsys):
    """`mu-lab lambda-invariants` on 32 fixed presentations, refusals
    included, prints the bytes and exits with the codes recorded in
    tests/golden before the kept-valuation elimination and the word-prime
    certificate."""
    golden = json.loads((Path(__file__).resolve().parent / "golden"
                         / "lambda_invariants.json").read_text())
    path = tmp_path / "pres.json"
    for case in golden:
        path.write_text(json.dumps(case["presentation"]))
        rc = main(["lambda-invariants", "--presentation", str(path)])
        out = capsys.readouterr()
        assert (rc, out.out.encode(), out.err.encode()) == \
            (case["exit"], case["stdout"].encode(),
             case["stderr"].encode()), case["name"]
    refusals = {case["stderr"].split(":")[1].strip() for case in golden
                if case["stderr"].startswith("error:")}
    assert refusals == {"NotTorsion", "TruncationUnresolved",
                        "PrecisionInsufficient"}
