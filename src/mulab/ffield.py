"""Finite fields and polynomial factorization over them.

Three field layers cover everything the curve machinery needs: prime
fields F_ell, extensions F_ell[t]/(g) for an irreducible g, and relative
quadratic extensions (used to adjoin a y-coordinate).  Elements are raw
values (ints, tuples, pairs); the field object owns the arithmetic.
Polynomial factorization over F_ell is squarefree decomposition +
distinct-degree + Cantor-Zassenhaus, on the dense polynomials of
`arith`.
"""

from __future__ import annotations

import random

from .arith import (
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_xgcd,
)
from .errors import InvariantViolation


class PrimeField:
    """F_ell with elements represented as ints in [0, ell)."""

    def __init__(self, ell: int):
        self.ell = ell

    def size(self) -> int:
        return self.ell

    def char(self) -> int:
        return self.ell

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.ell

    def add(self, a, b):
        return (a + b) % self.ell

    def sub(self, a, b):
        return (a - b) % self.ell

    def mul(self, a, b):
        return a * b % self.ell

    def neg(self, a):
        return -a % self.ell

    def inv(self, a):
        return pow(a, -1, self.ell)

    def pow(self, a, k: int):
        if k < 0:
            return pow(self.inv(a), -k, self.ell)
        return pow(a, k, self.ell)

    def is_zero(self, a) -> bool:
        return a % self.ell == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.ell == 0

    def elements(self):
        return range(self.ell)

    def random(self, rng: random.Random):
        return rng.randrange(self.ell)


class ExtField:
    """F_ell[t]/(g) for a monic irreducible g; elements are int tuples of
    length deg g (coefficients of 1, t, t^2, ...)."""

    def __init__(self, ell: int, modpoly: list[int]):
        if modpoly[-1] != 1:
            raise ValueError("modulus must be monic")
        self.ell = ell
        self.modpoly = tuple(c % ell for c in modpoly)
        self.k = len(modpoly) - 1

    def size(self) -> int:
        return self.ell**self.k

    def char(self) -> int:
        return self.ell

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def gen(self):
        """The class of t."""
        if self.k == 1:
            return ((-self.modpoly[0]) % self.ell,)
        return (0, 1) + (0,) * (self.k - 2)

    def from_int(self, n: int):
        return (n % self.ell,) + (0,) * (self.k - 1)

    def from_base(self, coeffs):
        cs = [c % self.ell for c in coeffs[:self.k]]
        return tuple(cs + [0] * (self.k - len(cs)))

    def add(self, a, b):
        return tuple((x + y) % self.ell for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.ell for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.ell for x in a)

    def mul(self, a, b):
        ell = self.ell
        k = self.k
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # reduce by the monic modulus
        for d in range(2 * k - 2, k - 1, -1):
            c = out[d] % ell
            if c:
                for i in range(k):
                    out[d - k + i] -= c * self.modpoly[i]
            out[d] = 0
        return tuple(c % ell for c in out[:k])

    def inv(self, a):
        g, s, _ = poly_xgcd(a, self.modpoly, self.ell)
        if g != [1]:
            raise ZeroDivisionError("element not invertible")
        return self.from_base(s)

    def pow(self, a, k: int):
        if k < 0:
            a = self.inv(a)
            k = -k
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def is_zero(self, a) -> bool:
        return all(c % self.ell == 0 for c in a)

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def elements(self):
        def rec(i):
            if i == self.k:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.ell):
                    yield (c,) + rest
        return rec(0)

    def random(self, rng: random.Random):
        return tuple(rng.randrange(self.ell) for _ in range(self.k))


class RelQuad:
    """Relative quadratic extension base[u]/(u^2 + alpha*u + beta);
    elements are pairs (a, b) of base elements standing for a + b*u."""

    def __init__(self, base, alpha, beta):
        self.base = base
        self.alpha = alpha
        self.beta = beta

    def size(self) -> int:
        return self.base.size()**2

    def char(self) -> int:
        return self.base.char()

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def gen(self):
        return (self.base.zero(), self.base.one())

    def from_int(self, n: int):
        return (self.base.from_int(n), self.base.zero())

    def from_base_elem(self, a):
        return (a, self.base.zero())

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        F = self.base
        a, b = x
        c, d = y
        ac = F.mul(a, c)
        bd = F.mul(b, d)
        ad_bc = F.add(F.mul(a, d), F.mul(b, c))
        # u^2 = -alpha*u - beta
        return (F.sub(ac, F.mul(bd, self.beta)),
                F.sub(ad_bc, F.mul(bd, self.alpha)))

    def conj(self, x):
        """a + b*ubar with ubar = -alpha - u."""
        F = self.base
        a, b = x
        return (F.sub(a, F.mul(b, self.alpha)), F.neg(b))

    def inv(self, x):
        F = self.base
        xc = self.conj(x)
        n = self.mul(x, xc)
        if not F.is_zero(n[1]):
            raise InvariantViolation(f"the norm of {x} is not in the base")
        ninv = F.inv(n[0])
        return (F.mul(xc[0], ninv), F.mul(xc[1], ninv))

    def pow(self, a, k: int):
        if k < 0:
            a = self.inv(a)
            k = -k
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def is_zero(self, a) -> bool:
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def random(self, rng: random.Random):
        return (self.base.random(rng), self.base.random(rng))


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
    irreducible factors have degree d."""
    k = len(f) - 1
    if k == d:
        return [f]
    while True:
        r = [rng.randrange(ell) for _ in range(k)] + [1]
        if ell == 2:
            # trace map splitting in characteristic 2
            h = list(r)
            acc = list(r)
            for _ in range(d - 1):
                acc = poly_powmod(acc, 2, f, ell)
                h = poly_add(h, acc, ell)
            g = poly_gcd(h, f, ell)
        else:
            e = (ell**d - 1) // 2
            h = poly_powmod(r, e, f, ell)
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
    """Full factorization over F_ell: [(monic irreducible, multiplicity)].
    The leading coefficient is discarded (callers track it separately)."""
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


def sqrt_in_field(F, a, rng: random.Random):
    """Square root in a finite field of odd size, or None.

    Tonelli-Shanks on the generic field interface; only needs is_zero,
    mul, pow, random.
    """
    if F.is_zero(a):
        return F.zero()
    q = F.size()
    if q % 2 == 0:
        raise ValueError(f"a field of even size {q} has no Tonelli-Shanks")
    if not F.eq(F.pow(a, (q - 1) // 2), F.one()):
        return None
    # q - 1 = 2^s * t
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    if s == 1:
        return F.pow(a, (q + 1) // 4)
    # find a non-residue
    while True:
        z = F.random(rng)
        if F.is_zero(z):
            continue
        if F.eq(F.pow(z, (q - 1) // 2), F.one()):
            continue
        break
    c = F.pow(z, t)
    x = F.pow(a, (t + 1) // 2)
    b = F.pow(a, t)
    m = s
    while not F.eq(b, F.one()):
        # find least i with b^(2^i) = 1
        i = 0
        bb = b
        while not F.eq(bb, F.one()):
            bb = F.mul(bb, bb)
            i += 1
        e = F.pow(c, 1 << (m - i - 1))
        x = F.mul(x, e)
        c = F.mul(e, e)
        b = F.mul(b, c)
        m = i
    return x
