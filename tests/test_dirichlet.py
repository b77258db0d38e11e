import itertools
import random
from math import gcd, lcm

import pytest

from mulab.dirichlet import (
    DirichletCharacter,
    _value_group_generator,
    character_exponents,
    cyclotomic_character,
    is_odd,
    mod_p_cyclotomic,
    unit_group,
)
from mulab.padic import teichmuller

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
    assert [chars.character(k) for k in chars.vectors] == objects
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
        assert chars.character(chars.chi_bar) == \
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
            assert chars.character(ksum) == \
                mul(chars.character(k), chars.character(k2))


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
    assert U.order == 10
    U = unit_group(40)
    assert U.order == 16
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
    assert len(chars) == unit_group(M).order
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
