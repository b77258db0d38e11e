import random

import pytest

from mulab.arith import poly_eval
from mulab.elliptic import Curve
from mulab.errors import BadReduction, InvalidModel
from mulab.ffield import ExtField, PrimeField
from test_ffield import find_irreducible

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)
E37A1 = Curve(0, 0, 1, -1, 0)


def test_invariants_11a1():
    assert E11A1.discriminant == -(11**5)
    assert E11A3.discriminant == -11
    assert E11A1.c4 == 496
    assert E11A1.is_semistable()
    assert E11A1.bad_primes() == [11]


def test_singular_model_rejected():
    with pytest.raises(InvalidModel):
        Curve(0, 0, 0, 0, 0)


def test_point_counts_11a():
    # a_2 from counting points of y^2+y = x^3-x^2-10x-20 over F_2
    assert E11A1.ap(2) == -2
    assert E11A1.ap(3) == -1
    assert E11A1.ap(5) == 1
    assert E11A1.ap(7) == -2
    assert E11A1.ap(13) == 4
    # isogenous curves share a_ell
    for ell in [2, 3, 5, 7, 13, 17, 19, 23]:
        assert E11A1.ap(ell) == E11A2.ap(ell) == E11A3.ap(ell)
    with pytest.raises(BadReduction):
        E11A1.ap(11)


def test_ap_against_group_order_bruteforce():
    for E in [E11A1, E37A1, Curve(1, 0, 1, -1, 0)]:
        for ell in [3, 5, 7, 13]:
            if E.discriminant % ell == 0:
                continue
            C = E.over_field(PrimeField(ell))
            assert len(C.points_brute()) == E.count_points(ell)


def test_an_multiplicativity():
    a = E11A1.an_list(30)
    # classical q-expansion of the level-11 newform starts
    # q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 ... and a_11 = 1
    assert a[:7] == [1, -2, -1, 2, 1, 2, -2]
    assert a[10] == 1  # a_11, split multiplicative
    assert a[3] == a[1] ** 2 - 2  # a_4 = a_2^2 - 2
    assert a[5] == a[1] * a[2]  # a_6 = a_2 a_3


def test_division_polynomial_degrees():
    for p in [3, 5, 7]:
        psi = E11A1.division_polynomial(p)
        assert len(psi) - 1 == (p * p - 1) // 2
    # leading coefficients: p for psi_p
    assert E11A1.division_polynomial(5)[-1] == 5
    assert E11A1.division_polynomial(7)[-1] == 7


def test_division_polynomial_vs_bruteforce_torsion():
    """Over F_ell, points whose x is a psi_p root are p-torsion and
    conversely."""
    for E, ell, p in [(E11A1, 13, 5), (E37A1, 11, 3), (E11A3, 7, 5),
                      (E11A1, 19, 7)]:
        C = E.over_field(PrimeField(ell))
        psi = E.division_polynomial(p)
        roots = {x for x in range(ell) if poly_eval(psi, x) % ell == 0}
        for P in C.points_brute():
            if P is None:
                continue
            assert (C.mul(p, P) is None) == (P[0] in roots)


def test_duplication_formula_random():
    rng = random.Random(17)
    for _ in range(30):
        ell = rng.choice([13, 17, 19, 23])
        E = E11A1 if rng.random() < 0.5 else E37A1
        F = PrimeField(ell)
        C = E.over_field(F)
        pts = [P for P in C.points_brute() if P is not None]
        P = rng.choice(pts)
        P2 = C.add(P, P)
        if P2 is None:
            continue
        num, den = E.duplication_x()
        d = poly_eval(den, P[0]) % ell
        if d == 0:
            continue
        assert P2[0] == poly_eval(num, P[0]) * pow(d, -1, ell) % ell


def test_group_law_over_extension_field():
    rng = random.Random(23)
    ell = 7
    g = find_irreducible(ell, 2, rng)
    F = ExtField(ell, g)
    C = E11A1.over_field(F)
    pts = [P for P in C.points_brute() if P is not None]
    # associativity spot checks
    for _ in range(25):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))
    # group order = ell^2 + 1 - a_{ell^2}, a_{ell^2} = a_ell^2 - 2 ell
    a = E11A1.ap(ell)
    assert len(C.points_brute()) == ell**2 + 1 - (a * a - 2 * ell)


def test_five_torsion_point_on_11a1():
    # (5, 5) is a rational point of order 5 on 11a1
    from fractions import Fraction

    class QField:
        def size(self):
            return 0

        def char(self):
            return 0

        def zero(self):
            return Fraction(0)

        def one(self):
            return Fraction(1)

        def from_int(self, n):
            return Fraction(n)

        def add(self, a, b):
            return a + b

        def sub(self, a, b):
            return a - b

        def mul(self, a, b):
            return a * b

        def neg(self, a):
            return -a

        def inv(self, a):
            return 1 / a

        def is_zero(self, a):
            return a == 0

        def eq(self, a, b):
            return a == b

    C = E11A1.over_field(QField())
    P = (Fraction(5), Fraction(5))
    assert C.is_on(P)
    assert C.mul(5, P) is None
    assert C.mul(2, P) is not None
