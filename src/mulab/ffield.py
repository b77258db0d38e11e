"""Factorization of squarefree polynomials over a prime field F_ell, ell
odd: distinct-degree + Cantor-Zassenhaus, on the dense polynomials of
`arith`, only up to a degree bound.  It serves the Zassenhaus
factorization of division polynomials over Q, which factors mod a small
prime first and needs only the factors of degree at most the target.
"""

from __future__ import annotations

from .arith import poly_divmod, poly_gcd, poly_monic, poly_powmod, poly_sub


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
