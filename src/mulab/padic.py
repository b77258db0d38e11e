"""Residues mod p^N and the Iwasawa invariants of group-ring elements.

A residue mod p^N is a plain integer in [0, p^N), and a group-ring
element is the tuple of its residues; the caller holds p and N.
Valuations are saturated at N: working mod p^N cannot distinguish p^N
from 0.
"""

from __future__ import annotations

from .errors import InvariantViolation, NotOrdinary, PrecisionExhausted


def val_int(n: int, p: int, cap: int) -> int:
    """p-adic valuation of the integer n, saturated at cap."""
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def hensel_unit_root(a_p: int, p: int, N: int) -> int:
    """Unit root of x^2 - a_p x + p mod p^N, by Newton iteration, as its
    residue in [0, p^N).

    Requires p not dividing a_p (the ordinary case); the unit root is the
    one congruent to a_p mod p.
    """
    if a_p % p == 0:
        raise NotOrdinary(f"p={p} divides a_p={a_p}")
    mod = p**N
    x = a_p % p
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        m = p**prec
        fx = (x * x - a_p * x + p) % m
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    root = x % mod
    if (root * root - a_p * root + p) % mod != 0 or root % p == 0:
        raise InvariantViolation(
            f"Newton iteration gave {root} (mod {p}^{N}), not the unit "
            f"root of x^2 - {a_p}x + {p}")
    return root


def teichmuller(a: int, p: int, N: int) -> int:
    """The (p-1)-st root of unity mod p^N congruent to a mod p (0 for
    a = 0 mod p)."""
    if a % p == 0:
        return 0
    mod = p**N
    x = a % mod
    # Iterating x -> x^p converges to the Teichmuller representative.
    for _ in range(N):
        x = pow(x, p, mod)
    return x


def mu_lambda_of_polynomial(coeffs, p: int, N: int) -> tuple[int, int]:
    """(mu, lambda) of the element f of (Z/p^N)[Gamma/Gamma^(p^n)] with
    coeffs[i] at gamma^i, written as a polynomial in T = gamma - 1.

    gamma^i -> (1 + T)^i is unitriangular over Z, so mu is the least
    valuation of the group-ring coefficients.  Mod p, Lucas's theorem
    gives (1 + T)^i = prod_d (1 + T^(p^d))^(i_d) over the base-p digits
    i_d of i, so f / p^mu mod p in the T-basis is a length-p Taylor shift
    along each digit, and lambda is the index of its first nonzero entry.
    Raises InvariantViolation unless there are p^n coefficients, and
    PrecisionExhausted when f = 0 mod p^N.
    """
    size = 1
    while size < len(coeffs) and p > 1:
        size *= p
    if size != len(coeffs):
        raise InvariantViolation(
            f"{len(coeffs)} group-ring coefficients is not a power of "
            f"p = {p}")
    mu = min(val_int(c, p, N) for c in coeffs)
    if mu >= N:
        raise PrecisionExhausted("all coefficients vanish mod p^N")
    q = p**mu
    u = [c // q % p for c in coeffs]
    step = 1
    while step < size:
        # Horner in 1 + X along the lowest base-p digit, on whole slabs
        # u[k::p]: out <- out * (1 + X) + slab, from the top slab.
        # Writing the out slabs one after another moves that digit to
        # the top, so after n rounds every digit is shifted and back in
        # place.
        out = [[0] * (size // p) for _ in range(p)]
        for m in range(p):
            for i in range(m, 0, -1):
                out[i] = [a + b for a, b in zip(out[i], out[i - 1])]
            out[0] = [a + b for a, b in zip(out[0], u[p - 1 - m::p])]
        u = [c % p for slab in out for c in slab]
        step *= p
    return mu, next(i for i, c in enumerate(u) if c)
