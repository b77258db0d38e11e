"""Seeded property tests for the dense-polynomial helpers over F_ell
(and, for those that take m = None, over Z and Q), and for the primality
test and factorization."""

import random
from fractions import Fraction
from math import prod

import pytest

from mulab.arith import (
    factorize,
    is_probable_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_xgcd,
)

FIELDS = (2, 3, 5, 7, 101)


def rand_poly(rng, deg, m=None, frac=False):
    """A random polynomial of degree exactly deg (deg = -1: zero)."""
    if deg < 0:
        return []
    if m is not None:
        out = [rng.randrange(m) for _ in range(deg)] + [rng.randrange(1, m)]
    else:
        out = [rng.randint(-9, 9) for _ in range(deg)] \
            + [rng.choice([-3, -2, -1, 1, 2, 3])]
    if frac:
        out = [Fraction(c, rng.randint(1, 5)) for c in out]
    return out


def domains():
    """(modulus or None, coefficients as Fractions)."""
    return [(ell, False) for ell in FIELDS] + [(None, False), (None, True)]


def fields():
    """(modulus, False): the domains of the helpers that need m."""
    return [(ell, False) for ell in FIELDS]


def is_monic(g):
    return bool(g) and g[-1] == 1


@pytest.mark.parametrize("m,frac", fields())
def test_divmod_identity(m, frac):
    rng = random.Random(f"divmod/{m}/{frac}")
    for _ in range(60):
        a = rand_poly(rng, rng.randint(-1, 9), m, frac)
        b = rand_poly(rng, rng.randint(0, 6), m, frac)
        q, r = poly_divmod(a, b, m)
        assert len(r) < len(b)
        assert poly_add(poly_mul(q, b, m), r, m) == poly_sub(a, [], m)


@pytest.mark.parametrize("m,frac", fields())
def test_xgcd_bezout_with_monic_gcd(m, frac):
    rng = random.Random(f"xgcd/{m}/{frac}")
    for _ in range(60):
        c = rand_poly(rng, rng.randint(0, 2), m, frac)
        a = poly_mul(c, rand_poly(rng, rng.randint(0, 5), m, frac), m)
        b = poly_mul(c, rand_poly(rng, rng.randint(-1, 5), m, frac), m)
        g, s, t = poly_xgcd(a, b, m)
        assert is_monic(g)
        assert poly_add(poly_mul(s, a, m), poly_mul(t, b, m), m) == g
        assert g == poly_gcd(a, b, m)
        assert not poly_divmod(a, g, m)[1] and not poly_divmod(b, g, m)[1]
        # the common factor divides the gcd
        assert not poly_divmod(g, c, m)[1]
    assert poly_xgcd([], [], m) == ([], [], [])


@pytest.mark.parametrize("m,frac", fields())
def test_powmod_matches_repeated_multiplication(m, frac):
    rng = random.Random(f"powmod/{m}/{frac}")
    for _ in range(20):
        a = rand_poly(rng, rng.randint(-1, 6), m, frac)
        f = rand_poly(rng, rng.randint(1, 4), m, frac)
        acc = [1]
        for k in range(12):
            assert poly_powmod(a, k, f, m) == poly_divmod(acc, f, m)[1]
            acc = poly_divmod(poly_mul(acc, a, m), f, m)[1]


def test_truncated_product_matches_full_product_cut():
    """The determinant oracle `_det` of `test_iwasawa_modules` multiplies
    length-M coefficient tuples and keeps the product below T^M."""
    rng = random.Random("trunc")
    for M in (1, 2, 5, 9):
        for _ in range(40):
            a = [rng.randint(-50, 50) for _ in range(M)]
            b = [rng.randint(-50, 50) for _ in range(M)]
            full = [sum(a[i] * b[k - i] for i in range(k + 1)
                        if i < M and k - i < M)
                    for k in range(2 * M - 1)]
            cut = poly_mul(a, b)[:M]
            assert cut + [0] * (M - len(cut)) == full[:M]


@pytest.mark.parametrize("m,frac", domains())
def test_inputs_are_not_mutated(m, frac):
    rng = random.Random(f"mut/{m}/{frac}")
    for _ in range(20):
        a = rand_poly(rng, rng.randint(0, 6), m, frac) + [0]
        b = rand_poly(rng, rng.randint(1, 4), m, frac)
        a0, b0 = list(a), list(b)
        poly_add(a, b, m)
        poly_sub(a, b, m)
        poly_mul(a, b, m)
        poly_monic(a, m)
        poly_eval(a, 3, m)
        if m is not None:
            poly_divmod(a, b, m)
            poly_gcd(a, b, m)
            poly_xgcd(a, b, m)
            poly_powmod(a, 5, b, m)
            poly_deriv(a, m)
        assert a == a0 and b == b0


@pytest.mark.parametrize("m", FIELDS)
def test_zero_divisor_raises(m):
    for zero in ([], [0], [0, 0]):
        with pytest.raises(ZeroDivisionError):
            poly_divmod([1, 2, 3], zero, m)
        with pytest.raises(ZeroDivisionError):
            poly_powmod([1, 2], 3, zero, m)


def test_outputs_are_trimmed_and_reduced():
    assert poly_sub([1, 2, 3], [1, 2, 3]) == []
    assert poly_add([1, 4], [4, 1], 5) == []
    assert poly_mul([2, 3], [3, 2], 6) == [0, 1]
    assert poly_deriv([5, 1, 0, 7], 7) == [1]
    assert poly_monic([0, 2, 3], 5) == [0, 4, 1]
    assert poly_monic([Fraction(1), 2]) == [Fraction(1, 2), 1]
    assert poly_eval([1, 2, 3], 2) == 17 and poly_eval([1, 2, 3], 2, 5) == 2


def test_division_over_q_stays_exact():
    """poly_monic over Q divides by a non-unit leading coefficient in
    Fractions, never in floats; a leading coefficient +-1 keeps
    integers."""
    g = poly_monic([1, 0, 2])
    assert g == [Fraction(1, 2), 0, 1]
    assert all(isinstance(c, Fraction) for c in g)
    g = poly_monic([5, 0, 3, -1])
    assert g == [-5, 0, -3, 1] and all(type(c) is int for c in g)


def test_factorize_rebuilds_n():
    for n in range(1, 5000):
        fac = factorize(n)
        assert prod(q**e for q, e in fac.items()) == n
        assert all(is_probable_prime(q) for q in fac)
