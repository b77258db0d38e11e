"""Dirichlet characters with values in (Z/p^N)^*.

A character is stored by its images on a fixed generating set of (Z/M)^*;
evaluation goes through a discrete-log table built once per modulus.  The
mod-p^n cyclotomic character is realized as the identity character of
modulus p^n (its value at Frob_ell is ell mod p^n, which is all the
downstream trace congruences consume).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .arith import factorize
from .padic import teichmuller


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

    def mul(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if (self.p, self.N) != (other.p, other.N):
            raise ValueError("characters carry different (p, N)")
        M = lcm(self.modulus, other.modulus)
        a = self.extend(M)
        b = other.extend(M)
        mod = self.p**self.N
        return DirichletCharacter(
            M, self.p, self.N,
            tuple(x * y % mod for x, y in zip(a.images, b.images)))

    def inverse(self) -> "DirichletCharacter":
        mod = self.p**self.N
        return DirichletCharacter(
            self.modulus, self.p, self.N,
            tuple(pow(v, -1, mod) for v in self.images))

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


def trivial_character(p: int, N: int, modulus: int = 1) -> DirichletCharacter:
    U = unit_group(modulus)
    return DirichletCharacter(modulus, p, N, tuple(1 for _ in U.generators))


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


def enumerate_characters(M: int, d: int, p: int, N: int
                         ) -> list[DirichletCharacter]:
    """All characters of (Z/M)^* of order dividing d with values in
    (Z/p^N)^*, each exactly once."""
    if d < 1:
        raise ValueError("order bound must be >= 1")
    U = unit_group(M)
    value_order = (p - 1) * p**(N - 1)
    w = _value_group_generator(p, N)
    mod = p**N
    choices: list[list[int]] = []
    for n in U.orders:
        m = gcd(n, gcd(d, value_order))
        step = value_order // m
        choices.append([pow(w, step * k, mod) for k in range(m)])
    return [DirichletCharacter(M, p, N, images)
            for images in itertools.product(*choices)]


def teichmuller_lift(chi: DirichletCharacter, N_target: int
                     ) -> DirichletCharacter:
    """Lift a mod-p character to the unique character of the same order
    whose values are (p-1)-st roots of unity mod p^N_target."""
    if chi.N != 1:
        raise ValueError("input must have values in F_p^*")
    return DirichletCharacter(
        chi.modulus, chi.p, N_target,
        tuple(teichmuller(v, chi.p, N_target) for v in chi.images))


def liftable_character(i: int, alpha: DirichletCharacter, n: int
                       ) -> DirichletCharacter:
    """chi_n^i * (Teichmuller lift of alpha, reduced mod p^n)."""
    p = alpha.p
    alpha_lift = teichmuller_lift(alpha, n)
    U = unit_group(p**n)
    mod = p**n
    chi_pow = DirichletCharacter(
        p**n, p, n, tuple(pow(g % mod, i % ((p - 1) * p**(n - 1)), mod)
                          for g in U.generators))
    return chi_pow.mul(alpha_lift)
