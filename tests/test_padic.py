import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

from mulab import analysis
from mulab.analysis import analyze_many, ingest
from mulab.errors import InvariantViolation, NotOrdinary, PrecisionExhausted
from mulab.padic import (
    hensel_unit_root,
    mu_lambda_of_polynomial,
    teichmuller,
    val_int,
)


def group_ring_from_T(p, N, coeffs_T):
    """The group-ring residues mod p^N of sum_j a_j T^j with
    T = gamma - 1: T^j is sum_i C(j, i) (-1)^(j - i) gamma^i.  Padded to
    the least p^n that holds every coefficient."""
    size = 1
    while size < len(coeffs_T):
        size *= p
    out = [0] * size
    for j, a in enumerate(coeffs_T):
        if a:
            for i in range(j + 1):
                out[i] += a * comb(j, i) * (-1)**(j - i)
    return tuple(c % p**N for c in out)


def gamma_basis_to_T(p, N, coeffs_gamma):
    """Rewrite sum c_j * gamma^j (gamma = 1+T) as T-coefficients mod p^N,
    degree < len coeffs: Horner in gamma, out <- out * (1 + T) + c from
    the top coefficient; after m steps out has degree < m.  The
    conversion that the group-ring read-off replaced."""
    size = len(coeffs_gamma)
    mod = p**N
    out = [0] * size
    for m, c in enumerate(reversed(coeffs_gamma)):
        for i in range(min(m, size - 1), 0, -1):
            out[i] = (out[i] + out[i - 1]) % mod
        out[0] = (out[0] + c) % mod
    return tuple(out)


def oracle_mu_lambda(f, p, N):
    """The T-basis read-off: mu is the least valuation of the
    T-coefficients and lambda the first index attaining it."""
    coeffs = gamma_basis_to_T(p, N, f)
    vals = [val_int(c, p, N) for c in coeffs]
    mu = min(vals)
    if mu >= N:
        raise PrecisionExhausted("all coefficients vanish mod p^N")
    return mu, vals.index(mu)


def _agree(f, p, N):
    """The new read-off and the oracle give the same pair, or both
    raise PrecisionExhausted; returns the pair (None when exhausted)."""
    try:
        want = oracle_mu_lambda(f, p, N)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            mu_lambda_of_polynomial(f, p, N)
        return None
    assert mu_lambda_of_polynomial(f, p, N) == want, f
    return want


def test_hensel_unit_root_tower():
    assert hensel_unit_root(1, 5, 1) == 1
    assert hensel_unit_root(1, 5, 2) == 21
    # brute-force oracle mod 125: the residue congruent to 21 mod 25 with
    # v^2 - v + 5 = 0
    expect = [v for v in range(125)
              if v % 25 == 21 and (v * v - v + 5) % 125 == 0]
    assert len(expect) == 1
    assert hensel_unit_root(1, 5, 3) == expect[0]


def test_hensel_coherence_random():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([3, 5, 7, 11])
        a_p = rng.randrange(1, 50)
        if a_p % p == 0:
            continue
        N = rng.randint(2, 6)
        hi = hensel_unit_root(a_p, p, N)
        lo = hensel_unit_root(a_p, p, N - 1)
        assert hi % p**(N - 1) == lo


def test_hensel_rejects_supersingular():
    with pytest.raises(NotOrdinary):
        hensel_unit_root(10, 5, 3)


def test_mu_lambda_examples():
    f = group_ring_from_T(5, 3, [5, 5, 25])
    assert mu_lambda_of_polynomial(f, 5, 3) == (1, 0)
    g = group_ring_from_T(5, 3, [25, 0, 0, 5, 1])
    assert mu_lambda_of_polynomial(g, 5, 3) == (0, 4)
    t = group_ring_from_T(5, 4, [0, 1])
    assert mu_lambda_of_polynomial(t, 5, 4) == (0, 1)


def test_mu_lambda_scaling_property():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([3, 5])
        N = rng.randint(2, 5)
        M = rng.randint(1, 6)
        coeffs = [rng.randrange(p**N) for _ in range(M)]
        f = group_ring_from_T(p, N, coeffs)
        try:
            mu, lam = mu_lambda_of_polynomial(f, p, N)
        except PrecisionExhausted:
            continue
        if mu + 1 < N:
            pf = [p * c % p**N for c in f]
            assert mu_lambda_of_polynomial(pf, p, N) == (mu + 1, lam)


def test_mu_lambda_precision_exhausted():
    f = group_ring_from_T(5, 2, [25, 50, 0])
    with pytest.raises(PrecisionExhausted):
        mu_lambda_of_polynomial(f, 5, 2)


def test_group_ring_element_needs_p_power_length():
    for p, size in [(5, 1), (5, 5), (5, 25), (3, 27), (17, 289)]:
        assert mu_lambda_of_polynomial([1] + [0] * (size - 1), p, 2) \
            == (0, 0)
    for p, size in [(5, 0), (5, 4), (5, 10), (3, 12)]:
        with pytest.raises(InvariantViolation, match="power of p"):
            mu_lambda_of_polynomial([1] * size, p, 2)


def test_gamma_basis_to_T():
    # c0 + c1*gamma = (c0 + c1) + c1*T
    assert gamma_basis_to_T(5, 3, [2, 3]) == (5, 3)
    # gamma^2 = 1 + 2T + T^2
    assert gamma_basis_to_T(5, 3, [0, 0, 1]) == (1, 2, 1)


def oracle_gamma_basis_to_T(p, N, coeffs_gamma):
    """The Pascal-row expansion that Horner's rule replaces: add
    c_j * binomial(j, i) into the T^i coefficient."""
    size = len(coeffs_gamma)
    mod = p**N
    out = [0] * size
    row = [1]
    for j, c in enumerate(coeffs_gamma):
        if j > 0:
            new = [1] * (j + 1)
            for i in range(1, j):
                new[i] = (row[i - 1] + row[i]) % mod
            row = new
        if c % mod == 0:
            continue
        for i, b in enumerate(row):
            if i >= size:
                break
            out[i] = (out[i] + c * b) % mod
    return tuple(out)


@pytest.mark.parametrize("p,n,N", [(5, 3, 6), (7, 3, 6), (13, 2, 100),
                                   (3, 0, 4)])
def test_gamma_basis_to_T_matches_pascal_rows(p, n, N):
    """Seeded theta-sized inputs (p^n coefficients, signed, some zero,
    some beyond p^N) give the same T-coefficients as the Pascal rows."""
    rng = random.Random(p * 1000 + N)
    bound = p**(N + 1)
    for _ in range(3):
        cs = [rng.choice([0, rng.randrange(-bound, bound)])
              for _ in range(p**n)]
        assert gamma_basis_to_T(p, N, cs) == oracle_gamma_basis_to_T(p, N, cs)
    assert gamma_basis_to_T(p, N, []) == ()


def test_group_ring_from_T_inverts_gamma_basis_to_T():
    rng = random.Random(13)
    for p, n, N in [(3, 2, 4), (5, 2, 3), (7, 1, 2), (3, 0, 5)]:
        ts = [rng.randrange(p**N) for _ in range(p**n)]
        assert gamma_basis_to_T(
            p, N, group_ring_from_T(p, N, ts)) == tuple(ts)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                 (5, 3), (7, 1), (7, 2), (7, 3)])
def test_mu_lambda_matches_oracle_on_known_answers(p, n):
    """For every lambda < p^n: p^mu (u T^lambda + higher terms) plus
    p^(mu+1) times lower terms has invariants (mu, lambda), and the
    oracle agrees.  Up to three lower and three higher terms keep the
    inputs cheap to build at p^n = 343."""
    rng = random.Random(100 * p + n)
    size = p**n
    for lam in range(size):
        N = rng.choice([1, 2, 5])
        mu = rng.randrange(N)
        ts = [0] * size
        for j in rng.sample(range(lam), min(lam, 3)):
            ts[j] = p**(mu + 1) * rng.randrange(p**N)
        for j in rng.sample(range(lam + 1, size), min(size - lam - 1, 3)):
            ts[j] = p**mu * rng.randrange(p**N)
        ts[lam] = p**mu * rng.choice([u for u in range(1, p**2) if u % p])
        f = group_ring_from_T(p, N, ts)
        assert mu_lambda_of_polynomial(f, p, N) == (mu, lam)
        assert _agree(f, p, N) == (mu, lam)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_mu_lambda_matches_oracle_random(p):
    """Seeded group-ring coefficients, dense or sparse mod p, some zero
    mod p^N."""
    rng = random.Random(p)
    top = 3 if p <= 7 else 2
    for n in range(top + 1):
        for N in (1, 2, 5):
            for _ in range(6):
                shift = rng.randrange(N + 1)
                density = rng.choice([1.0, 0.5, 0.05])
                cs = [rng.randrange(p**N) * p**shift
                      if rng.random() < density else 0
                      for _ in range(p**n)]
                _agree(cs, p, N)


def test_mu_lambda_matches_oracle_on_corpus_layers(monkeypatch):
    """Every regularized layer that `analyze` reads on the shipped
    corpus gives the oracle's pair."""
    seen = []

    def checked(f, p, N):
        seen.append(f)
        return _agree(f, p, N)

    monkeypatch.setattr(analysis, "mu_lambda_of_polynomial", checked)
    corpus = "data/corpus_reducible.json"
    with open(corpus) as fh:
        records = json.load(fh)
    p_of_label = {r["label"]: r["p"] for r in records}
    reports = analyze_many(ingest(corpus), lambda rec: p_of_label[rec.label],
                           N_prec=6, layers=3, ell_bound=200)
    assert len(reports) == 16
    assert len(seen) == sum(len(r["layer_invariants"]) for r in reports)


def test_teichmuller():
    # 7 is the unique 4th root of unity mod 25 congruent to 2 mod 5
    assert teichmuller(2, 5, 2) == 7
    assert pow(teichmuller(2, 5, 2), 4, 25) == 1
    assert teichmuller(1, 5, 4) == 1
    assert teichmuller(10, 5, 3) == 0


def test_checks_raise_under_O():
    """The former bare asserts of padic and the lattice transform (now in
    test_residual) still raise under `python -O`: the two internal
    invariants with the arithmetic that feeds them broken on purpose (a
    modular inverse off by one in the Newton iteration)."""
    script = (
        "from mulab import padic\n"
        "from mulab.errors import InvariantViolation\n"
        "def expect(exc, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except exc:\n"
        "        print('raised')\n"
        "padic.pow = lambda *args: pow(*args) + 1\n"
        "expect(InvariantViolation, lambda: padic.hensel_unit_root(1, 5, 3))\n"
        "del padic.pow\n"
        "from test_residual import ModPnRepresentation as Rep\n"
        "from test_residual import isogeny_transform\n"
        "rep = Rep(5, 2, ((1, 0, 5, 1),))\n"
        "Rep.is_aligned_shape = lambda self: True\n"
        "expect(InvariantViolation, lambda: isogeny_transform(rep))\n")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["raised"] * 2
