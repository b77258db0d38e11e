"""Dirichlet characters with values in (Z/p^N)^*.

A character is stored by its images on a fixed generating set of (Z/M)^*;
evaluation goes through a discrete-log table built once per modulus.  The
mod-p^n cyclotomic character is realized as the identity character of
modulus p^n (its value at Frob_ell is ell mod p^n, which is all the
downstream trace congruences consume).

The searches over the mod-p characters of a modulus run on exponent
vectors: with w the least primitive root mod p, a character is the
vector k with chi(g_i) = w^(k_i) on the generators g_i, and chi(a) is
w^(<k, dlog(a)>), read from one power table.  Only the characters a
search returns are built as objects.
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

    @property
    def order(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out


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


@dataclass(frozen=True)
class DirichletCharacter:
    """Character of (Z/M)^* with values in (Z/p^N)^*."""

    modulus: int
    p: int
    N: int
    images: tuple[int, ...]  # values on unit_group(modulus).generators

    def __post_init__(self):
        U = unit_group(self.modulus)
        if len(self.images) != len(U.generators):
            raise ValueError("one image per unit-group generator required")
        mod = self.p**self.N
        object.__setattr__(self, "images",
                           tuple(v % mod for v in self.images))
        for v, n in zip(self.images, U.orders):
            if v % self.p == 0:
                raise ValueError("character values must be units mod p")
            if pow(v, n, mod) != 1:
                raise ValueError("image order incompatible with generator")

    def __call__(self, a: int) -> int:
        U = unit_group(self.modulus)
        if self.modulus == 1:
            return 1
        a %= self.modulus
        exps = U.dlog.get(a)
        if exps is None:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        mod = self.p**self.N
        out = 1
        for v, e in zip(self.images, exps):
            if e:
                out = out * pow(v, e, mod) % mod
        return out

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.images)

    def order(self) -> int:
        mod = self.p**self.N
        d = 1
        for v in self.images:
            k = 1
            x = v
            while x != 1:
                x = x * v % mod
                k += 1
            d = lcm(d, k)
        return d

    def extend(self, M_new: int) -> "DirichletCharacter":
        """The character of modulus M_new induced by this one (M | M_new)."""
        if M_new % self.modulus:
            raise ValueError("new modulus must be a multiple")
        if M_new == self.modulus:
            return self
        U = unit_group(M_new)
        return DirichletCharacter(
            M_new, self.p, self.N, tuple(self(g) for g in U.generators))

    def reduce_precision(self, N_new: int) -> "DirichletCharacter":
        if N_new > self.N:
            raise ValueError("cannot raise precision")
        mod = self.p**N_new
        return DirichletCharacter(self.modulus, self.p, N_new,
                                  tuple(v % mod for v in self.images))

    def conductor(self) -> int:
        """Smallest f | M with the character trivial on 1 + f-multiples.

        The units a = 1 mod f are the product over q^e || M of the
        kernels of (Z/q^e)^* -> (Z/q^k)^*, k = v_q(f), so f is the
        product of the least q^k whose kernel the character kills.  That
        kernel is all of (Z/q^e)^* at q^k = 1 or 2, and otherwise the
        cyclic group generated by 1 + q^k; each local generator g enters
        as the unit of (Z/M)^* that is g mod q^e and 1 mod M/q^e."""
        M = self.modulus
        f = 1
        for q, e in factorize(M).items():
            qe = q**e
            rest = M // qe
            inv = pow(rest, -1, qe)
            for k in range(e + 1):
                gens = unit_group(qe).generators if q**k <= 2 \
                    else (1 + q**k,)
                if all(self((1 + rest * ((g - 1) * inv % qe)) % M) == 1
                       for g in gens):
                    f *= q**k
                    break
        return f

    def agrees_with(self, other: "DirichletCharacter") -> bool:
        """Pointwise equality on residues coprime to both moduli (i.e.
        equality of the associated primitive characters on shared units).

        Both sides are homomorphisms on (Z/M)^*, M the lcm of the moduli,
        into the same (Z/p^N)^*, so the generators of (Z/M)^* decide."""
        if (self.p, self.N) != (other.p, other.N):
            raise ValueError("characters carry different (p, N)")
        M = lcm(self.modulus, other.modulus)
        return all(self(g) == other(g) for g in unit_group(M).generators)

    def __repr__(self):
        U = unit_group(self.modulus)
        pairs = ", ".join(f"{g}->{v}"
                          for g, v in zip(U.generators, self.images))
        return (f"DirichletCharacter(mod {self.modulus}, "
                f"values mod {self.p}^{self.N}: {pairs})")


def cyclotomic_character(p: int, n: int) -> DirichletCharacter:
    """chi mod p^n as the identity character of modulus p^n, valued in
    (Z/p^n)^*."""
    return DirichletCharacter(p**n, p, n, unit_group(p**n).generators)


def mod_p_cyclotomic(p: int) -> DirichletCharacter:
    """chi-bar: a -> a mod p."""
    return cyclotomic_character(p, 1)


def is_odd(chi: DirichletCharacter) -> bool:
    """True iff chi(-1) = -1 in (Z/p^N)^*."""
    if chi.modulus <= 2:
        return False
    return chi(chi.modulus - 1) == chi.p**chi.N - 1


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

    def character(self, k) -> DirichletCharacter:
        return DirichletCharacter(self.modulus, self.p, 1,
                                  tuple(self.powers[e] for e in k))


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
