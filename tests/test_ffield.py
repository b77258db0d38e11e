import random

import pytest

from mulab.arith import (
    factorize,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
)

# -- factorization of squarefree polynomials over a prime field F_ell, ell
# -- odd: distinct-degree + Cantor-Zassenhaus, only up to a degree bound.
# -- `residual` factored the division polynomial this way mod a small
# -- prime before it cut the kernel lines out by a Frobenius eigenvalue;
# -- the Zassenhaus oracle of test_residual.py still does ----------------


def distinct_degree(f, ell, max_degree):
    """([(product of the irreducible factors of degree d, d)], rest) for
    squarefree monic f: d runs up to max_degree, and rest is the product
    of the factors of larger degree ([1] if none)."""
    out = []
    x = [0, 1]
    h = x
    rest = poly_monic(f, ell)
    d = 0
    while d < max_degree and len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, ell, rest, ell)
        g = poly_gcd(poly_sub(h, x, ell), rest, ell)
        if len(g) > 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, ell)[0]
            h = poly_divmod(h, rest, ell)[1]
    # rest has no factor of degree <= d, so below degree 2(d + 1) it is
    # irreducible
    if 1 < len(rest) <= max_degree + 1 and len(rest) - 1 < 2 * (d + 1):
        out.append((rest, len(rest) - 1))
        rest = [1]
    return out, rest


def equal_degree_split(f, d, ell, rng):
    """Cantor-Zassenhaus: split monic squarefree f, all of whose
    irreducible factors have degree d, for odd ell."""
    k = len(f) - 1
    if k == d:
        return [f]
    while True:
        r = [rng.randrange(ell) for _ in range(k)] + [1]
        h = poly_powmod(r, (ell**d - 1) // 2, f, ell)
        g = poly_gcd(poly_sub(h, [1], ell), f, ell)
        if 1 < len(g) < len(f):
            left = equal_degree_split(g, d, ell, rng)
            right = equal_degree_split(poly_divmod(f, g, ell)[0], d,
                                       ell, rng)
            return left + right


def factor_squarefree(f, ell, rng, max_degree):
    """(sorted monic irreducible factors of degree <= max_degree, product
    of the others) of a squarefree f over F_ell, for an odd prime ell; the
    leading coefficient is discarded."""
    if ell == 2:
        raise ValueError("the Cantor-Zassenhaus split needs odd ell")
    blocks, rest = distinct_degree(f, ell, max_degree)
    out = []
    for block, d in blocks:
        out.extend(equal_degree_split(block, d, ell, rng))
    return sorted(out), rest


# -- full factorization with multiplicities, the path `residual` took before
# -- it split out only the factors up to the target degree ----------------


def squarefree_part(f, ell):
    """The product of distinct irreducible factors of f (monic)."""
    f = poly_monic(f, ell)
    df = poly_deriv(f, ell)
    if not df:
        # f is a polynomial in t^ell: f = g(t^ell) = g(t)^ell
        g = [f[i] for i in range(0, len(f), ell)]
        return squarefree_part(g, ell)
    g = poly_gcd(f, df, ell)
    sf = poly_divmod(f, g, ell)[0]
    if len(g) > 1:
        rest = squarefree_part(g, ell)
        extra = poly_divmod(rest, poly_gcd(rest, sf, ell), ell)[0]
        sf = poly_mul(sf, extra, ell)
    return poly_monic(sf, ell)


def factor(f, ell, rng):
    """Full factorization over F_ell for an odd prime ell: [(monic
    irreducible, multiplicity)].  The leading coefficient is discarded."""
    f = poly_monic(f, ell)
    out: dict[tuple, int] = {}
    while len(f) > 1:
        sf = squarefree_part(f, ell)
        for g in factor_squarefree(sf, ell, rng, len(sf) - 1)[0]:
            out[tuple(g)] = out.get(tuple(g), 0)
            m = 0
            while True:
                q, r = poly_divmod(f, g, ell)
                if r:
                    break
                f = q
                m += 1
            out[tuple(g)] += m
    return sorted((list(g), m) for g, m in out.items())


def is_irreducible(f, ell) -> bool:
    """Monic f irreducible over F_ell: t^(ell^k) = t mod f and
    gcd(t^(ell^(k/q)) - t, f) = 1 for primes q | k."""
    f = poly_monic(f, ell)
    k = len(f) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    x = poly_divmod([0, 1], f, ell)[1]
    if poly_sub(poly_powmod([0, 1], ell**k, f, ell), x, ell):
        return False
    for q in factorize(k):
        xe = poly_powmod([0, 1], ell**(k // q), f, ell)
        if len(poly_gcd(poly_sub(xe, x, ell), f, ell)) > 1:
            return False
    return True


def find_irreducible(ell: int, k: int, rng: random.Random) -> list[int]:
    """A random monic irreducible polynomial of degree k over F_ell."""
    if k == 1:
        return [0, 1]
    while True:
        f = [rng.randrange(ell) for _ in range(k)] + [1]
        if is_irreducible(f, ell):
            return f


def test_factor_over_fp():
    rng = random.Random(7)
    for ell in [3, 5, 13]:
        for _ in range(20):
            f1 = find_irreducible(ell, rng.randint(1, 3), rng)
            f2 = find_irreducible(ell, rng.randint(1, 2), rng)
            prod = poly_mul(poly_mul(f1, f2, ell), f2, ell)
            fac = factor(prod, ell, rng)
            recon = [1]
            for g, m in fac:
                assert is_irreducible(g, ell)
                for _ in range(m):
                    recon = poly_mul(recon, g, ell)
            assert recon == prod


def test_factor_refuses_characteristic_2():
    """The split uses r^((ell^d - 1)/2), which needs odd ell."""
    with pytest.raises(ValueError, match="odd ell"):
        factor([1, 1, 1], 2, random.Random(1))


def test_degree_bounded_factors_match_the_full_factorization():
    """With a degree bound, factor_squarefree returns exactly the
    irreducible factors of degree <= the bound, and the product of the
    others, on squarefree products of random irreducibles."""
    rng = random.Random(11)
    for ell in [3, 5, 7, 13]:
        for _ in range(25):
            f = [1]
            for _ in range(rng.randint(1, 5)):
                g = find_irreducible(ell, rng.randint(1, 5), rng)
                if len(poly_gcd(f, g, ell)) == 1:
                    f = poly_mul(f, g, ell)
            full = [g for g, _ in factor(f, ell, random.Random(1))]
            for bound in range(0, 7):
                small, rest = factor_squarefree(f, ell, rng, bound)
                assert small == [g for g in full if len(g) - 1 <= bound]
                big = [1]
                for g in full:
                    if len(g) - 1 > bound:
                        big = poly_mul(big, g, ell)
                assert rest == big
