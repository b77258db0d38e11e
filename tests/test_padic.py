import random

import pytest

from mulab.errors import NotOrdinary, PrecisionExhausted, PrecisionMismatch
from mulab.padic import (
    IwasawaPolynomial,
    PAdicElement,
    format_valuation,
    fraction_mod,
    gamma_basis_to_T,
    hensel_unit_root,
    mu_lambda_of_polynomial,
    sqrt_unit_one_mod_p,
    teichmuller,
    valuation,
)


def test_valuation_examples():
    assert valuation(PAdicElement(5, 3, 10)) == 1
    assert valuation(PAdicElement(5, 3, 0)) == 3
    assert format_valuation(valuation(PAdicElement(5, 3, 0)), 3) == ">=3"
    assert valuation(PAdicElement(5, 3, 7)) == 0


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 5)
        a, b, c = (PAdicElement(p, N, rng.randrange(p**N)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_precision_mixing_rejected():
    with pytest.raises(PrecisionMismatch):
        PAdicElement(5, 2, 1) + PAdicElement(5, 3, 1)
    with pytest.raises(PrecisionMismatch):
        PAdicElement(5, 2, 1) * PAdicElement(7, 2, 1)


def test_division_only_by_units():
    a = PAdicElement(5, 3, 7)
    assert (a / a).value == 1
    with pytest.raises(ZeroDivisionError):
        a / PAdicElement(5, 3, 10)


def test_hensel_unit_root_tower():
    assert hensel_unit_root(1, 5, 1).value == 1
    assert hensel_unit_root(1, 5, 2).value == 21
    # brute-force oracle mod 125: the residue congruent to 21 mod 25 with
    # v^2 - v + 5 = 0
    expect = [v for v in range(125)
              if v % 25 == 21 and (v * v - v + 5) % 125 == 0]
    assert len(expect) == 1
    assert hensel_unit_root(1, 5, 3).value == expect[0]


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
        assert hi.value % p**(N - 1) == lo.value


def test_hensel_rejects_supersingular():
    with pytest.raises(NotOrdinary):
        hensel_unit_root(10, 5, 3)


def test_mu_lambda_examples():
    f = IwasawaPolynomial(5, 3, 4, [5, 5, 25])
    assert mu_lambda_of_polynomial(f) == (1, 0)
    g = IwasawaPolynomial(5, 3, 5, [25, 0, 0, 5, 1])
    assert mu_lambda_of_polynomial(g) == (0, 4)
    t = IwasawaPolynomial(5, 4, 3, [0, 1])
    assert mu_lambda_of_polynomial(t) == (0, 1)


def test_mu_lambda_scaling_property():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([3, 5])
        N = rng.randint(2, 5)
        M = rng.randint(1, 6)
        coeffs = [rng.randrange(p**N) for _ in range(M)]
        f = IwasawaPolynomial(p, N, M, coeffs)
        try:
            mu, lam = mu_lambda_of_polynomial(f)
        except PrecisionExhausted:
            continue
        if mu + 1 < N:
            pf = p * f
            assert mu_lambda_of_polynomial(pf) == (mu + 1, lam)


def test_mu_lambda_precision_exhausted():
    f = IwasawaPolynomial(5, 2, 3, [25, 50, 0])
    with pytest.raises(PrecisionExhausted):
        mu_lambda_of_polynomial(f)


def test_polynomial_ring_ops():
    p, N, M = 5, 3, 6
    f = IwasawaPolynomial(p, N, M, [1, 2, 3])
    g = IwasawaPolynomial(p, N, M, [4, 0, 1])
    h = f * g
    # (1+2T+3T^2)(4+T^2) = 4 + 8T + 13T^2 + 2T^3 + 3T^4
    assert h.coeffs[:5] == (4, 8, 13, 2, 3)
    assert (f + g).coeffs[:3] == (5, 2, 4)


def test_teichmuller():
    # 7 is the unique 4th root of unity mod 25 congruent to 2 mod 5
    assert teichmuller(2, 5, 2) == 7
    assert pow(teichmuller(2, 5, 2), 4, 25) == 1
    assert teichmuller(1, 5, 4) == 1
    assert teichmuller(10, 5, 3) == 0


def test_sqrt_unit():
    # squaring is a bijection on 1 + pZ/p^N for odd p, so every t = 1 mod p
    # has a unique square root = 1 mod p
    for p, N in [(5, 3), (3, 4), (7, 2)]:
        for t in range(1, p**N, p):
            r = sqrt_unit_one_mod_p(t, p, N)
            assert r * r % p**N == t
            assert r % p == 1


def test_fraction_mod():
    from fractions import Fraction
    x = fraction_mod(Fraction(1, 3), 5, 3)
    assert (3 * x.value) % 125 == 1
    with pytest.raises(ZeroDivisionError):
        fraction_mod(Fraction(1, 5), 5, 3)


def test_gamma_basis_to_T():
    # c0 + c1*gamma = (c0 + c1) + c1*T
    f = gamma_basis_to_T(5, 3, [2, 3])
    assert f.coeffs == (5, 3)
    # gamma^2 = 1 + 2T + T^2
    g = gamma_basis_to_T(5, 3, [0, 0, 1])
    assert g.coeffs == (1, 2, 1)


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
    return IwasawaPolynomial(p, N, size, out)


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
        assert gamma_basis_to_T(p, N, cs).coeffs == \
            oracle_gamma_basis_to_T(p, N, cs).coeffs
    assert gamma_basis_to_T(p, N, []).coeffs == ()
