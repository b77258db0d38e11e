import random

import pytest

from mulab.arith import (
    factorize,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
)
from mulab.ffield import factor


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
