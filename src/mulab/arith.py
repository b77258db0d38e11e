"""Integer arithmetic shared across the package: primality, factorization
and dense univariate polynomials.

A polynomial is a list of coefficients with index = degree and no
trailing zeros; the zero polynomial is [].  Inputs may be any sequence
and may carry trailing zeros; outputs never do.  Every helper returns a
new list and never mutates its input.

Each polynomial helper takes a modulus m and works over Z/m with
coefficients reduced to [0, m); division needs the divisor's leading
coefficient to be a unit mod m (m prime: over F_m).  poly_add, poly_sub,
poly_mul, poly_monic and poly_eval also take m = None, their default,
and then work exactly over Z or Q (poly_monic divides in Fractions
unless the leading coefficient is +-1).
"""

from __future__ import annotations

from fractions import Fraction

# bases making Miller-Rabin deterministic below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases: exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime <= 41 divides n, so n has no factor < 43
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- dense polynomials (index = degree) ---------------------------------------


def _norm(a: list, m) -> list:
    """a reduced mod m (if given) and trimmed; a must be the caller's
    own list, which the trim shortens."""
    if m is not None:
        a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _inverse(c, m):
    """1/c mod m, or over Q for m = None; exact ints for c = +-1."""
    if m is not None:
        return pow(c, -1, m)
    if c in (1, -1):
        return c
    return 1 / Fraction(c)


def poly_add(a, b, m=None) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _norm(out, m)


def poly_sub(a, b, m=None) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _norm(out, m)


def poly_mul(a, b, m=None) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _norm(out, m)


def poly_divmod(a, b, m) -> tuple[list, list]:
    """(q, r) with a = q*b + r and deg r < deg b; ZeroDivisionError for
    b = 0."""
    b = _norm(list(b), m)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _norm(list(a), m)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    inv = pow(b[-1], -1, m)
    q = [0] * (len(r) - db)
    for d in range(len(r) - 1 - db, -1, -1):
        c = r[d + db] * inv % m
        if c:
            q[d] = c
            # mod m, r stays congruent and is reduced once at the end
            for i, bc in enumerate(b):
                r[d + i] -= c * bc
    return q, _norm(r[:db], m)


def poly_monic(a, m=None) -> list:
    a = _norm(list(a), m)
    if not a or a[-1] == 1:
        return a
    inv = _inverse(a[-1], m)
    return _norm([c * inv for c in a], m)


def poly_gcd(a, b, m) -> list:
    """The monic gcd ([] when a = b = 0)."""
    a, b = _norm(list(a), m), _norm(list(b), m)
    while b:
        a, b = b, poly_divmod(a, b, m)[1]
    return poly_monic(a, m)


def poly_xgcd(a, b, m) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g the monic gcd; for b != 0,
    deg s < deg b - deg g.  ([], [], []) when a = b = 0."""
    a, b = _norm(list(a), m), _norm(list(b), m)
    r0, r1 = a, b
    s0, s1 = [1], []
    while r1:
        q, r = poly_divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, m), m)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, m)
    g = _norm([c * inv for c in r0], m)
    s = _norm([c * inv for c in s0], m)
    if not b:
        return g, s, []
    # t from the identity, in one exact division
    t = poly_divmod(poly_sub(g, poly_mul(s, a, m), m), b, m)[0]
    return g, s, t


def poly_powmod(a, k: int, f, m) -> list:
    """a^k mod f for k >= 0."""
    out = [1]
    base = poly_divmod(a, f, m)[1]
    while k:
        if k & 1:
            out = poly_divmod(poly_mul(out, base, m), f, m)[1]
        base = poly_divmod(poly_mul(base, base, m), f, m)[1]
        k >>= 1
    return out


def poly_deriv(a, m) -> list:
    return _norm([i * c for i, c in enumerate(a)][1:], m)


def poly_eval(a, x, m=None):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out if m is None else out % m
