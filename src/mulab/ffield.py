"""Polynomial factorization over a prime field F_ell, ell odd: squarefree
decomposition + distinct-degree + Cantor-Zassenhaus, on the dense
polynomials of `arith`.  It serves the Zassenhaus factorization of
division polynomials over Q, which factors mod a small prime first.
"""

from __future__ import annotations

from .arith import (
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
)


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


def distinct_degree(f, ell):
    """[(product of irreducible factors of degree d, d)] for squarefree
    monic f."""
    out = []
    x = [0, 1]
    h = x
    rest = poly_monic(f, ell)
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, ell, rest, ell)
        g = poly_gcd(poly_sub(h, x, ell), rest, ell)
        if len(g) > 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, ell)[0]
            h = poly_divmod(h, rest, ell)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


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


def factor_squarefree(f, ell, rng):
    """Irreducible factors of a squarefree monic f over F_ell."""
    out = []
    for block, d in distinct_degree(f, ell):
        out.extend(equal_degree_split(block, d, ell, rng))
    return sorted(out)


def factor(f, ell, rng):
    """Full factorization over F_ell for an odd prime ell: [(monic
    irreducible, multiplicity)].  The leading coefficient is discarded
    (callers track it separately)."""
    if ell == 2:
        raise ValueError("the Cantor-Zassenhaus split needs odd ell")
    f = poly_monic(f, ell)
    out: dict[tuple, int] = {}
    while len(f) > 1:
        sf = squarefree_part(f, ell)
        for g in factor_squarefree(sf, ell, rng):
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
