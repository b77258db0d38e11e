import random

from mulab.arith import (
    factorize,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
)
from mulab.ffield import (
    ExtField,
    PrimeField,
    RelQuad,
    factor,
    sqrt_in_field,
)


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


def test_extension_field_arithmetic():
    rng = random.Random(2)
    for ell, k in [(5, 2), (7, 3), (2, 4), (3, 2)]:
        g = find_irreducible(ell, k, rng)
        assert is_irreducible(g, ell)
        F = ExtField(ell, g)
        for _ in range(40):
            a, b, c = (F.random(rng) for _ in range(3))
            assert F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c))
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one()
        # multiplicative order divides q - 1
        q = F.size()
        for _ in range(10):
            a = F.random(rng)
            if not F.is_zero(a):
                assert F.pow(a, q - 1) == F.one()


def test_relquad():
    rng = random.Random(9)
    base = ExtField(5, find_irreducible(5, 2, rng))
    # adjoin sqrt of a nonresidue
    while True:
        D = base.random(rng)
        if base.is_zero(D):
            continue
        if not base.eq(base.pow(D, (base.size() - 1) // 2), base.one()):
            break
    F = RelQuad(base, base.zero(), base.neg(D))  # u^2 = D
    u = F.gen()
    assert F.eq(F.mul(u, u), (D, base.zero()))
    for _ in range(30):
        a, b = F.random(rng), F.random(rng)
        if not F.is_zero(a):
            assert F.eq(F.mul(a, F.inv(a)), F.one())
        assert F.eq(F.mul(a, b), F.mul(b, a))


def test_relquad_char2():
    rng = random.Random(10)
    base = ExtField(2, find_irreducible(2, 3, rng))
    # u^2 + u + c irreducible for some c: brute-force find one
    for c in base.elements():
        # irreducible iff no root in base
        if all(not base.is_zero(base.add(base.add(base.mul(z, z), z), c))
               for z in base.elements()):
            F = RelQuad(base, base.one(), c)
            u = F.gen()
            # u^2 = -u - c = u + c in char 2
            assert F.eq(F.mul(u, u), (c, base.one()))
            for _ in range(20):
                a = F.random(rng)
                if not F.is_zero(a):
                    assert F.eq(F.mul(a, F.inv(a)), F.one())
            return
    raise AssertionError("no irreducible Artin-Schreier quadratic found")


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


def test_sqrt_in_field():
    rng = random.Random(4)
    for ell, k in [(5, 1), (13, 1), (7, 2), (3, 3)]:
        F = PrimeField(ell) if k == 1 else \
            ExtField(ell, find_irreducible(ell, k, rng))
        for _ in range(25):
            a = F.random(rng)
            sq = F.mul(a, a)
            r = sqrt_in_field(F, sq, rng)
            assert r is not None
            assert F.eq(F.mul(r, r), sq)
