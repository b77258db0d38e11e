"""Dirichlet characters of (Z/M)^* with values in F_p^*, as exponent
vectors.

(Z/M)^* is stored by a fixed generating set g_i and a discrete-log table
built once per modulus.  With w the least primitive root mod p, a
character is the vector k with chi(g_i) = w^(k_i), 0 <= k_i < p - 1, so
chi(a) = w^(<k, dlog(a)>), read from one power table; two characters
are equal iff their vectors are, and mod-p chi-bar (a -> a mod p) is one
such vector.  Order, parity and conductor are read off the vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .arith import factorize


def primitive_root(q: int) -> int:
    """The least primitive root mod the prime q."""
    phi = q - 1
    fac = factorize(phi)
    for g in range(2, q):
        if all(pow(g, phi // r, q) != 1 for r in fac):
            return g
    raise ValueError(f"no primitive root mod {q}")


def _primitive_root_prime_power(q: int, e: int) -> int:
    g = primitive_root(q)
    if e == 1:
        return g
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


@dataclass(frozen=True)
class UnitGroup:
    """Structure of (Z/M)^*: generators, their orders, a dlog table."""

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: dict  # unit residue -> exponent tuple


@lru_cache(maxsize=None)
def unit_group(M: int) -> UnitGroup:
    if M < 1:
        raise ValueError("modulus must be >= 1")
    if M <= 2:
        return UnitGroup(M, (), (), {1 % M: ()})
    gens: list[int] = []
    orders: list[int] = []
    for q, e in sorted(factorize(M).items()):
        qe = q**e
        rest = M // qe
        if q == 2:
            if e == 1:
                local = []
            elif e == 2:
                local = [(3, 2)]
            else:
                local = [(qe - 1, 2), (5, 2**(e - 2))]
        else:
            local = [(_primitive_root_prime_power(q, e),
                      (q - 1) * q**(e - 1))]
        for g, n in local:
            if rest == 1:
                lifted = g % M
            else:
                inv = pow(rest, -1, qe)
                lifted = (1 + rest * ((g - 1) * inv % qe)) % M
            gens.append(lifted)
            orders.append(n)
    dlog: dict[int, tuple[int, ...]] = {}
    ranges = [range(n) for n in orders]
    for exps in itertools.product(*ranges):
        cur = 1
        for g, e in zip(gens, exps):
            cur = cur * pow(g, e, M) % M
        dlog[cur] = exps
    return UnitGroup(M, tuple(gens), tuple(orders), dlog)


def _exponent(k, log, n: int) -> int:
    """<k, log> mod n: the exponent of w in chi(a) for log = dlog(a)."""
    return sum(x * y for x, y in zip(k, log)) % n


@lru_cache(maxsize=None)
def _value_group_generator(p: int, N: int) -> int:
    return _primitive_root_prime_power(p, N)


@dataclass(frozen=True)
class CharacterExponents:
    """The characters of (Z/M)^* with values in F_p^*, as exponent
    vectors k with chi(g_i) = w^(k_i) for the generators g_i of
    unit_group(M) and w the least primitive root mod p."""

    modulus: int
    p: int
    powers: tuple[int, ...]       # powers[e] = w^e mod p
    logs: dict                    # a mod p -> e with w^e = a
    vectors: tuple[tuple[int, ...], ...]  # every character, product order
    chi_bar: tuple[int, ...] | None  # a -> a mod p, when p | M

    def log(self, a: int) -> tuple[int, ...]:
        """dlog of the unit a mod M on the generators."""
        exps = unit_group(self.modulus).dlog.get(a % self.modulus)
        if exps is None:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        return exps

    def value(self, k, a: int) -> int:
        """chi(a) mod p for the character k and a unit a mod M."""
        return self.powers[_exponent(k, self.log(a), self.p - 1)]

    def order(self, k) -> int:
        """The order of the character k: the lcm over the generators of
        the order (p-1) / gcd(k_i, p-1) of w^(k_i)."""
        n = self.p - 1
        return lcm(*(n // gcd(x, n) for x in k))

    def is_odd(self, k) -> bool:
        """chi(-1) = -1, i.e. <k, dlog(-1)> is not 0 mod p - 1."""
        return _exponent(k, self.log(-1), self.p - 1) != 0

    def conductor(self, k) -> int:
        """The least f | M with the character trivial on the units
        a = 1 mod f (Washington, Introduction to Cyclotomic Fields,
        ch. 3).

        Those units are the product over q^e || M of the kernels of
        (Z/q^e)^* -> (Z/q^j)^*, j = v_q(f), so f is the product of the
        least q^j whose kernel the character kills.  That kernel is all
        of (Z/q^e)^* at q^j = 1 or 2, and otherwise the cyclic group
        generated by 1 + q^j; each local generator g enters as the unit
        of (Z/M)^* that is g mod q^e and 1 mod M/q^e, and chi(u) = 1
        iff <k, dlog(u)> = 0 mod p - 1."""
        M, n = self.modulus, self.p - 1
        f = 1
        for q, e in factorize(M).items():
            qe = q**e
            rest = M // qe
            inv = pow(rest, -1, qe)
            for j in range(e + 1):
                gens = unit_group(qe).generators if q**j <= 2 \
                    else (1 + q**j,)
                units = (1 + rest * ((g - 1) * inv % qe) for g in gens)
                if all(_exponent(k, self.log(u), n) == 0 for u in units):
                    f *= q**j
                    break
        return f


@lru_cache(maxsize=None)
def character_exponents(M: int, p: int) -> CharacterExponents:
    """Every character of (Z/M)^* with values in F_p^*, each once, in
    the order of the product over the generators of the exponents
    0, step, 2 step, ... (step = (p-1) / gcd(order, p-1))."""
    U = unit_group(M)
    w = _value_group_generator(p, 1)
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * w % p)
    logs = {v: e for e, v in enumerate(powers)}
    choices = []
    for n in U.orders:
        m = gcd(n, p - 1)
        step = (p - 1) // m
        choices.append([step * t for t in range(m)])
    chi_bar = tuple(logs[g % p] for g in U.generators) \
        if M % p == 0 else None
    return CharacterExponents(M, p, tuple(powers), logs,
                              tuple(itertools.product(*choices)), chi_bar)
