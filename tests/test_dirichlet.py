import itertools
import json
import random
from dataclasses import dataclass
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from mulab.analysis import character_name
from mulab.arith import factorize
from mulab.dirichlet import (
    _value_group_generator,
    character_exponents,
    unit_group,
)
from mulab.padic import teichmuller
from mulab.residual import search_characters

# -- characters as objects valued in (Z/p^N)^*: the type src used before
# -- every character became an exponent vector, kept as the oracle of
# -- CharacterExponents.order, is_odd, conductor and chi_bar ---------------


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
        """Smallest f | M with the character trivial on 1 + f-multiples,
        one prime power of M at a time."""
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
        """Pointwise equality on residues coprime to both moduli, decided
        on the generators of (Z/M)^*, M the lcm of the moduli."""
        if (self.p, self.N) != (other.p, other.N):
            raise ValueError("characters carry different (p, N)")
        M = lcm(self.modulus, other.modulus)
        return all(self(g) == other(g) for g in unit_group(M).generators)


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


def character(chars, k) -> DirichletCharacter:
    """The object of the exponent vector k of chars."""
    return DirichletCharacter(chars.modulus, chars.p, 1,
                              tuple(chars.powers[e] for e in k))


def exponents(chars, chi: DirichletCharacter) -> tuple[int, ...]:
    """The exponent vector of chars of the mod-p character chi, whose
    modulus divides chars.modulus."""
    return tuple(chars.logs[v] for v in chi.extend(chars.modulus).images)


def value(chars, k, a: int) -> int:
    """chi(a) in F_p for the exponent vector k."""
    return chars.powers[sum(x * y for x, y in zip(k, chars.log(a)))
                        % (chars.p - 1)]


# -- characters as objects: the enumeration, products and lifts that the
# -- residual searches used before they ran on exponent vectors ----------


def mul(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    if (a.p, a.N) != (b.p, b.N):
        raise ValueError("characters carry different (p, N)")
    M = lcm(a.modulus, b.modulus)
    a, b = a.extend(M), b.extend(M)
    mod = a.p**a.N
    return DirichletCharacter(
        M, a.p, a.N, tuple(x * y % mod for x, y in zip(a.images, b.images)))


def inverse(chi: DirichletCharacter) -> DirichletCharacter:
    mod = chi.p**chi.N
    return DirichletCharacter(chi.modulus, chi.p, chi.N,
                              tuple(pow(v, -1, mod) for v in chi.images))


def trivial_character(p: int, N: int, modulus: int = 1) -> DirichletCharacter:
    U = unit_group(modulus)
    return DirichletCharacter(modulus, p, N, tuple(1 for _ in U.generators))


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
    return mul(chi_pow, alpha_lift)


@pytest.mark.parametrize("M,p", [(3, 3), (5, 5), (55, 5), (156, 3),
                                 (7 * 8 * 13, 7), (5 * 4 * 29, 5),
                                 (11 * 5 * 25, 11), (12, 5)])
def test_character_exponents_match_the_enumeration(M, p):
    """The exponent vectors list the characters of enumerate_characters
    at d = p - 1, N = 1 in its order; values, chi-bar and logs agree."""
    chars = character_exponents(M, p)
    objects = enumerate_characters(M, p - 1, p, 1)
    assert [character(chars, k) for k in chars.vectors] == objects
    assert [chars.powers[chars.logs[a]] for a in range(1, p)] == \
        list(range(1, p))
    units = [a for a in range(1, M) if gcd(a, M) == 1]
    for k, chi in zip(chars.vectors, objects):
        for a in units[:40]:
            e = sum(x * y for x, y in zip(k, chars.log(a))) % (p - 1)
            assert chars.powers[e] == chi(a)
    if M % p:
        assert chars.chi_bar is None
    else:
        assert character(chars, chars.chi_bar) == \
            mod_p_cyclotomic(p).extend(M)
    with pytest.raises(ValueError, match="not a unit"):
        chars.log(M * 7 + (p if M % p == 0 else M))


def test_character_exponents_random_products():
    """The sum of two exponent vectors is the vector of the product."""
    rng = random.Random(20)
    for M, p in [(55, 5), (156, 3), (7 * 8 * 13, 7)]:
        chars = character_exponents(M, p)
        for _ in range(20):
            k, k2 = rng.choice(chars.vectors), rng.choice(chars.vectors)
            ksum = tuple((x + y) % (p - 1) for x, y in zip(k, k2))
            assert character(chars, ksum) == \
                mul(character(chars, k), character(chars, k2))


def brute_character_count(M, d, p):
    """Count homomorphisms (Z/M)^* -> F_p^* of order dividing d by brute
    force over all value tables."""
    U = unit_group(M)
    count = 0
    fp_units = [v for v in range(1, p)]
    for images in itertools.product(fp_units, repeat=len(U.generators)):
        ok = all(pow(v, n, p) == 1 for v, n in zip(images, U.orders))
        if not ok:
            continue
        ch = DirichletCharacter(M, p, 1, images)
        if d % ch.order() == 0 or ch.order() <= d and d % ch.order() == 0:
            count += 1
        elif ch.order() <= d:
            pass
    return count


def test_unit_group_structure():
    U = unit_group(11)
    assert prod(U.orders) == 10
    U = unit_group(40)
    assert prod(U.orders) == 16
    # dlog tables really enumerate the full unit group
    for M in [1, 2, 3, 4, 8, 9, 11, 12, 45, 55]:
        U = unit_group(M)
        units = [a for a in range(M) if gcd(a, M) == 1] or [0]
        if M == 1:
            assert 0 in U.dlog or 1 % M in U.dlog
            continue
        assert set(U.dlog) == set(units)


def test_enumerate_examples():
    assert len(enumerate_characters(1, 4, 5, 1)) == 1
    assert len(enumerate_characters(5, 4, 5, 1)) == 4
    # (Z/11)^* cyclic of order 10; gcd(10, 4) = 2
    chars = enumerate_characters(11, 4, 5, 1)
    assert len(chars) == 2
    assert sorted(ch.order() for ch in chars) == [1, 2]


def test_enumerate_matches_bruteforce():
    for M in [1, 3, 5, 8, 11, 12, 15, 21, 33, 40]:
        for p, d in [(5, 4), (3, 2), (7, 6)]:
            chars = enumerate_characters(M, d, p, 1)
            # closed under inverse, contains trivial, all orders divide d
            assert any(ch.is_trivial() for ch in chars)
            images = {ch.images for ch in chars}
            assert len(images) == len(chars)
            for ch in chars:
                assert inverse(ch).images in images
                assert d % ch.order() == 0
            # brute-force count over all value tables
            U = unit_group(M)
            count = 0
            for imgs in itertools.product(range(1, p),
                                          repeat=len(U.generators)):
                if all(pow(v, n, p) == 1 for v, n in zip(imgs, U.orders)):
                    ch = DirichletCharacter(M, p, 1, imgs)
                    if d % ch.order() == 0:
                        count += 1
            assert count == len(chars)


def test_multiplicativity_random():
    ch = enumerate_characters(35, 12, 5, 2)
    for c in ch[:6]:
        for a in range(1, 35):
            for b in range(1, 35):
                if gcd(a, 35) == 1 and gcd(b, 35) == 1:
                    assert c(a * b) == c(a) * c(b) % 25


def test_is_odd():
    assert not is_odd(trivial_character(5, 1))
    chi = mod_p_cyclotomic(5)
    assert is_odd(chi)
    # quadratic character mod 11 evaluated at -1
    chars = enumerate_characters(11, 2, 5, 1)
    quad = next(ch for ch in chars if ch.order() == 2)
    assert is_odd(quad) == (quad(10) == 4)
    # parity is multiplicative
    for a in chars:
        for b in chars:
            assert is_odd(mul(a, b)) == (is_odd(a) ^ is_odd(b))


def test_teichmuller_lift():
    triv = trivial_character(5, 1)
    assert teichmuller_lift(triv, 3).is_trivial()
    chi = mod_p_cyclotomic(5)
    lifted = teichmuller_lift(chi, 2)
    assert lifted(2) == 7  # the 4th root of unity mod 25 over 2
    # section property: reduction mod p recovers the input
    assert lifted.reduce_precision(1).images == chi.images
    for v in lifted.images:
        assert pow(v, 4, 25) == 1


def test_liftable_character():
    p = 5
    triv = trivial_character(p, 1)
    assert liftable_character(0, triv, 1).is_trivial()
    chi_bar = mod_p_cyclotomic(p)
    l1 = liftable_character(1, triv, 1)
    assert l1.agrees_with(chi_bar)
    # k = 2 mod 20 forces ell^(k-1) = ell mod 25 for ell coprime to 5
    l2 = liftable_character(1, triv, 2)
    for ell in [2, 3, 7, 13]:
        assert l2(ell) == ell % 25
    # reduction mod p equals chi-bar^i * alpha
    chars = enumerate_characters(11, 2, p, 1)
    for i in range(4):
        for alpha in chars:
            lift = liftable_character(i, alpha, 2)
            target = alpha
            for _ in range(i % 4):
                target = mul(target, chi_bar)
            red = lift.reduce_precision(1)
            assert red.agrees_with(target)


def test_conductor():
    chi = mod_p_cyclotomic(5)
    assert chi.conductor() == 5
    assert trivial_character(5, 1, 15).conductor() == 1
    ext = chi.extend(55)
    assert ext.conductor() == 5
    chars = enumerate_characters(11, 2, 5, 1)
    quad = next(ch for ch in chars if ch.order() == 2)
    assert quad.conductor() == 11


def test_cyclotomic_character_mod_p2():
    chi2 = cyclotomic_character(5, 2)
    for ell in [2, 3, 7, 11, 13]:
        assert chi2(ell) == ell % 25


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_cyclotomic_characters_are_the_identity(p):
    """chi mod p^n sends each unit a to a mod p^n, valued mod p^n, and
    chi-bar is chi mod p; the value precision is no parameter."""
    for n in (1, 2, 3):
        chi = cyclotomic_character(p, n)
        assert (chi.modulus, chi.p, chi.N) == (p**n, p, n)
        assert all(chi(a) == a for a in range(1, p**n) if a % p)
    chibar = mod_p_cyclotomic(p)
    assert chibar == cyclotomic_character(p, 1)
    assert [chibar(a) for a in range(1, p)] == list(range(1, p))
    with pytest.raises(TypeError):
        cyclotomic_character(p, 1, 2)


# -- the full residue sweeps that the generator checks replaced ---------------


def agrees_by_sweep(chi, psi):
    """Equality at every residue mod lcm of the moduli coprime to it."""
    M = lcm(chi.modulus, psi.modulus)
    return all(chi(a) == psi(a) for a in range(1, M + 1) if gcd(a, M) == 1)


def conductor_by_sweep(chi):
    """The least f | M with chi(a) = 1 for every unit a = 1 mod f, found by
    sweeping all of 1..M for each divisor."""
    M = chi.modulus
    for f in sorted(d for d in range(1, M + 1) if M % d == 0):
        if all(chi(a) == 1 for a in range(1, M + 1)
               if a % f == 1 % f and gcd(a, M) == 1):
            return f
    return M


def conductor_by_divisor_classes(chi):
    """The least f | M with chi(a) = 1 for every unit a in 1, 1 + f, ...:
    one value per unit of each divisor class."""
    M = chi.modulus
    for f in sorted(d for d in range(1, M + 1) if M % d == 0):
        if all(chi(a) == 1 for a in range(1, M + 1, f) if gcd(a, M) == 1):
            return f
    return M


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conductor_matches_divisor_class_loop(p):
    """Every character of order dividing M with values mod p^2, M <= 120."""
    count = 0
    for M in range(1, 121):
        for chi in enumerate_characters(M, M, p, 2):
            assert chi.conductor() == conductor_by_divisor_classes(chi), \
                (M, chi)
            count += 1
    assert count > 300


# (modulus, p, N): every character of (Z/M)^* takes values in (Z/p^N)^*
SWEEP_MODULI = [(24, 3, 1), (40, 5, 1), (40, 5, 2), (63, 7, 1),
                (80, 5, 1), (165, 41, 1), (3 * 16 * 5, 5, 1)]


@pytest.mark.parametrize("M,p,N", SWEEP_MODULI)
def test_conductor_matches_full_sweep(M, p, N):
    chars = enumerate_characters(M, (p - 1) * p**(N - 1), p, N)
    assert len(chars) == prod(unit_group(M).orders)
    conds = [chi.conductor() for chi in chars]
    assert conds == [conductor_by_sweep(chi) for chi in chars]
    assert len(set(conds)) > 2


@pytest.mark.parametrize("M,p,N", SWEEP_MODULI)
def test_agrees_with_matches_full_sweep(M, p, N):
    """Against every character of M and of two proper divisors of M, so
    that both agreement across moduli and disagreement are exercised."""
    chars = enumerate_characters(M, (p - 1) * p**(N - 1), p, N)
    divisors = [d for d in range(2, M) if M % d == 0][-2:]
    others = [psi for d in divisors
              for psi in enumerate_characters(d, (p - 1) * p**(N - 1), p, N)]
    hits = 0
    for chi in chars:
        for psi in others + chars[:4]:
            got = chi.agrees_with(psi)
            assert got == agrees_by_sweep(chi, psi)
            assert psi.agrees_with(chi) == got
            hits += got
    assert hits > len(others)


def test_agrees_with_refuses_different_value_groups():
    chi = mod_p_cyclotomic(5)
    with pytest.raises(ValueError, match="different"):
        chi.agrees_with(teichmuller_lift(chi, 2))
    with pytest.raises(ValueError, match="different"):
        chi.agrees_with(trivial_character(3, 1, 5))


# -- the exponent-vector readings against the objects -------------------------

CORPUS = Path(__file__).resolve().parent.parent / "data" / \
    "corpus_reducible.json"
# the corpus levels, and 37 and 77
LEVELS = sorted({rec["conductor"] for rec in json.loads(CORPUS.read_text())}
                | {37, 77})


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_vector_readings_match_the_objects(p):
    """Conductor, order, parity and the chi-bar test of every vector of
    character_search_modulus(p, N), N in LEVELS, agree with the
    DirichletCharacter oracle."""
    count = chi_bars = 0
    seen = set()
    for N in LEVELS:
        chars = search_characters(p, N)
        chi_bar = mod_p_cyclotomic(p).extend(chars.modulus)
        for k in chars.vectors:
            chi = character(chars, k)
            assert chars.conductor(k) == chi.conductor(), (N, k)
            assert chars.order(k) == chi.order(), (N, k)
            assert chars.is_odd(k) == is_odd(chi), (N, k)
            assert (k == chars.chi_bar) == chi.agrees_with(chi_bar), (N, k)
            chi_bars += k == chars.chi_bar
            count += 1
            seen.add((chars.conductor(k) % p == 0, chars.is_odd(k)))
    assert chi_bars == len(LEVELS)
    assert count > 3 * len(LEVELS)
    assert len(seen) == 4


def character_name_by_objects(chi: DirichletCharacter) -> str:
    """The report name as analysis built it from a DirichletCharacter."""
    if chi.conductor() == 1:
        return "1"
    if chi.N == 1 and chi.agrees_with(
            mod_p_cyclotomic(chi.p).extend(chi.modulus)):
        return "chi"
    return (f"chr(cond={chi.conductor()},ord={chi.order()},"
            f"odd={is_odd(chi)})")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_names_match_the_objects(p):
    names = set()
    for N in LEVELS:
        chars = search_characters(p, N)
        for k in chars.vectors:
            name = character_name(chars, k)
            assert name == character_name_by_objects(character(chars, k))
            names.add(name[:3])
    assert names == {"1", "chi", "chr"}


def test_vector_readings_on_small_moduli():
    """M = 1, 2 (no generators): the trivial character, even, of order
    and conductor 1."""
    for M in (1, 2):
        chars = character_exponents(M, 5)
        assert chars.vectors == ((),)
        assert (chars.conductor(()), chars.order(()),
                chars.is_odd(())) == (1, 1, False)
