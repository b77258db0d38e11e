import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mulab import elliptic
from mulab.arith import factorize, is_probable_prime, poly_eval
from mulab.elliptic import SQUARE_TABLE_LIMIT, Curve, _slot_layout
from mulab.errors import BadReduction, InvalidModel

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)
E37A1 = Curve(0, 0, 1, -1, 0)


class AffineGroupLaw:
    """The chord-tangent law of a Weierstrass model on affine points
    (x, y), None for the point at infinity, over Z/ell for a prime ell or
    over Q for ell None: the oracle the brute-force tests count and
    multiply with."""

    def __init__(self, E: Curve, ell: int | None = None):
        self.a = E.ainvs()
        self.ell = ell

    def _red(self, v):
        return v % self.ell if self.ell else Fraction(v)

    def _div(self, u, v):
        if self.ell:
            return u * pow(v, -1, self.ell) % self.ell
        return Fraction(u) / v

    def is_on(self, P) -> bool:
        a1, a2, a3, a4, a6 = self.a
        x, y = P
        return self._red(y * y + a1 * x * y + a3 * y
                         - (x**3 + a2 * x * x + a4 * x + a6)) == 0

    def points(self):
        """Every point over Z/ell, infinity first."""
        return [None] + [(x, y) for x in range(self.ell)
                         for y in range(self.ell) if self.is_on((x, y))]

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, _ = self.a
        (x1, y1), (x2, y2) = P, Q
        if self._red(x1 - x2) == 0:
            if self._red(y1 + y2 + a1 * x2 + a3) == 0:
                return None  # Q = -P
            lam = self._div(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1,
                            2 * y1 + a1 * x1 + a3)
        else:
            lam = self._div(y2 - y1, x2 - x1)
        x3 = self._red(lam * lam + a1 * lam - a2 - x1 - x2)
        y3 = self._red(-(lam + a1) * x3 - (y1 - lam * x1) - a3)
        return (x3, y3)

    def mul(self, k: int, P):
        out = None
        while k:
            if k & 1:
                out = self.add(out, P)
            P = self.add(P, P)
            k >>= 1
        return out


def is_semistable(E) -> bool:
    return all(E.c4 % q for q in E.bad_primes())


def test_invariants_11a1():
    assert E11A1.discriminant == -(11**5)
    assert E11A3.discriminant == -11
    assert E11A1.c4 == 496
    assert is_semistable(E11A1)
    assert E11A1.bad_primes() == [11]


def test_discriminant_is_cached_and_equals_the_formula():
    """On the corpus and 11a models: the first read stores the value on
    the instance, as the b and c invariants are stored, and it is the
    b2..b8 formula; equality and hashing still see only the
    coefficients."""
    data = Path(__file__).resolve().parent.parent / "data"
    records = [rec for name in ("corpus_reducible.json", "curves_11a.json")
               for rec in json.loads((data / name).read_text())]
    assert len(records) > 16
    for rec in records:
        E = Curve(*rec["ainvs"])
        b2, b4, b6, b8 = E.b2, E.b4, E.b6, E.b8
        want = -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
        assert E.__dict__["discriminant"] == want
        assert (E.c4, E.c6) == (b2**2 - 24 * b4,
                                -b2**3 + 36 * b2 * b4 - 216 * b6)
        assert {"b2", "b4", "b6", "b8", "c4", "c6"} <= E.__dict__.keys()
        assert E.discriminant == want
        assert E == Curve(*rec["ainvs"])
        assert hash(E) == hash(Curve(*rec["ainvs"]))


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
    rng = random.Random(23)
    for E in [E11A1, E37A1, Curve(1, 0, 1, -1, 0)]:
        for ell in [3, 5, 7, 13]:
            if E.discriminant % ell == 0:
                continue
            C = AffineGroupLaw(E, ell)
            pts = C.points()
            assert len(pts) == E.count_points(ell)
            # the oracle is a group law: closed and associative
            for _ in range(10):
                P, Q, R = (rng.choice(pts) for _ in range(3))
                S = C.add(C.add(P, Q), R)
                assert S == C.add(P, C.add(Q, R)) and S in pts


# -- the paths the packed count and the sign of -c6 replaced ------------------


def legendre_sum_count_points(E, ell):
    """|E(F_ell)| for odd ell by a Legendre table built per call."""
    legendre = [0] * ell
    for t in range(1, ell):
        legendre[t * t % ell] = 1
    for t in range(1, ell):
        if legendre[t] == 0:
            legendre[t] = -1
    b2, b4, b6 = E.b2 % ell, E.b4 % ell, E.b6 % ell
    n = 1 + ell
    for x in range(ell):
        n += legendre[(4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % ell]
    return n


def square_root_sum_count_points(E, ell):
    """|E(F_ell)| for odd ell as one sum over x in F_ell of the number of
    square roots of the completed square, from a table built per call."""
    roots = bytearray(ell)
    roots[0] = 1
    for y in range(1, (ell + 1) // 2):
        roots[y * y % ell] = 2
    b2, b4, b6 = E.b2 % ell, 2 * E.b4 % ell, E.b6 % ell
    return 1 + sum(roots[(((4 * x + b2) * x + b4) * x + b6) % ell]
                   for x in range(ell))


def smooth_point_sign(E, q):
    """a_q at a multiplicative prime, from the smooth-point count:
    |E^ns(F_q)| = q - a_q (and the point at infinity is smooth)."""
    a1, a2, a3, a4, a6 = E.ainvs()
    n = 1
    for x in range(q):
        for y in range(q):
            if (y * y + a1 * x * y + a3 * y
                    - (x**3 + a2 * x**2 + a4 * x + a6)) % q == 0:
                # smooth iff some partial derivative is nonzero
                fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % q
                fy = (2 * y + a1 * x + a3) % q
                if fx or fy:
                    n += 1
    return q - n


def test_point_counts_match_the_legendre_sum():
    """Every odd good prime ell < 1000, on the 11a class, 37a1 and a few
    random models."""
    rng = random.Random(5)
    curves = [E11A1, E11A2, E11A3, E37A1]
    while len(curves) < 8:
        try:
            curves.append(Curve(*(rng.randint(-9, 9) for _ in range(5))))
        except InvalidModel:
            pass
    for E in curves:
        for ell in range(3, 1000, 2):
            if is_probable_prime(ell) and E.discriminant % ell:
                assert E.count_points(ell) == \
                    legendre_sum_count_points(E, ell), (E, ell)


BIG_COEFFICIENT_ELLS = (3, 5, 251, 257, 997, 1009)


def test_point_counts_match_both_oracles_on_large_coefficients():
    """Models with a-invariants near +-10^30 at ell on both sides of 256
    (the packed count below, the sum over x above) and at 1009, above
    SQUARE_TABLE_LIMIT, whose root table is built per count."""
    assert 997 < SQUARE_TABLE_LIMIT < 1009
    rng = random.Random(30)
    checked = 0
    while checked < 40:
        ainvs = [rng.choice((-1, 1)) * (10**30 - rng.randrange(10**6))
                 for _ in range(5)]
        try:
            E = Curve(*ainvs)
        except InvalidModel:
            continue
        for ell in BIG_COEFFICIENT_ELLS:
            if E.discriminant % ell == 0:
                with pytest.raises(BadReduction):
                    E.count_points(ell)
                continue
            n = E.count_points(ell)
            assert n == square_root_sum_count_points(E, ell) == \
                legendre_sum_count_points(E, ell), (ainvs, ell)
            checked += 1
    assert max(elliptic._COLUMNS) < 256


def test_point_counts_above_256_match_the_square_root_sum():
    """At every prime 256 < ell < 1200, past the packed count and past
    SQUARE_TABLE_LIMIT, the count of three small models is the per-x
    sum of a table built per call."""
    models = [E11A1, Curve(1, -1, 1, -3, 3), Curve(0, 1, 1, -2, 0)]
    for ell in range(257, 1200, 2):
        if not is_probable_prime(ell):
            continue
        for E in models:
            if E.discriminant % ell:
                assert E.count_points(ell) == \
                    square_root_sum_count_points(E, ell), (E, ell)


def test_point_counts_raise_bad_reduction_at_a_bad_prime():
    """y^2 = x^3 + ell has discriminant -432 ell^2."""
    for ell in BIG_COEFFICIENT_ELLS:
        with pytest.raises(BadReduction):
            Curve(0, 0, 0, 0, ell).count_points(ell)


def test_slot_layout_satisfies_the_barrett_and_no_carry_bounds():
    """For every odd prime ell < 2000, (k, s, m) = _slot_layout(ell)
    satisfies the two inequalities of its docstring for every slot value
    v < V = 4 ell^2: v (m ell - 2^s) < 2^s, and V m < 2^(8k); m is
    ceil(2^s / ell)."""
    for ell in range(3, 2000, 2):
        if not is_probable_prime(ell):
            continue
        k, s, m = _slot_layout(ell)
        V = 4 * ell * ell
        assert (m - 1) * ell < 2**s <= m * ell
        assert (V - 1) * (m * ell - 2**s) < 2**s
        assert V * m < 2**(8 * k)
        assert 4 * (ell - 1) + 2 * (ell - 1)**2 + (ell - 1) < V


def test_column_cache_is_small():
    """The packed columns of every odd prime ell < 256, all that the
    cache can hold, take under 0.2 MB."""
    size = 0
    for ell in range(3, 256, 2):
        if is_probable_prime(ell):
            *packed, k, s, m, roots = elliptic._columns(ell)
            size += len(roots) + sum((v.bit_length() + 7) // 8
                                     for v in packed)
    assert size < 200_000


def test_multiplicative_ap_matches_the_smooth_point_count():
    """a_q from the sign of -c6 (odd q) or the F_2 points (q = 2) equals
    the smooth-point count at every multiplicative q < 60 of the models
    with a-invariants in -3..3."""
    import itertools
    checked = 0
    for ainvs in itertools.product(range(-3, 4), repeat=5):
        try:
            E = Curve(*ainvs)
        except InvalidModel:
            continue
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59):
            if E.discriminant % q == 0 and E.c4 % q:
                assert E._multiplicative_ap(q) == smooth_point_sign(E, q), \
                    (ainvs, q)
                checked += 1
    assert checked > 10000


def test_an_multiplicativity():
    a = E11A1.an_list(30)
    # classical q-expansion of the level-11 newform starts
    # q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 ... and a_11 = 1
    assert a[:7] == [1, -2, -1, 2, 1, 2, -2]
    assert a[10] == 1  # a_11, split multiplicative
    assert a[3] == a[1] ** 2 - 2  # a_4 = a_2^2 - 2
    assert a[5] == a[1] * a[2]  # a_6 = a_2 a_3


def oracle_an_list(E: Curve, n_max: int) -> list[int]:
    """Curve.an_list before the sieve: each prime q <= n_max found by
    is_probable_prime, its powers by the recursion, and every n that is
    no prime power split at the least prime of factorize(n)."""
    a = [0] * (n_max + 1)
    a[1] = 1
    for q in [q for q in range(2, n_max + 1) if is_probable_prime(q)]:
        if E.discriminant % q != 0:
            aq, good = E.ap(q), True
        else:
            aq = E._multiplicative_ap(q) if E.c4 % q != 0 else 0
            good = False
        power, prev, cur = q, 1, aq
        while power <= n_max:
            a[power] = cur
            prev, cur = cur, aq * cur - (q * prev if good else 0)
            power *= q
    for n in range(2, n_max + 1):
        if a[n]:
            continue
        q = min(factorize(n))
        pe = q
        while n % (pe * q) == 0:
            pe *= q
        if n // pe > 1:
            a[n] = a[pe] * a[n // pe]
    return a[1:]


def big_coefficient_models(count):
    """The first count nonsingular models of
    test_point_counts_match_both_oracles_on_large_coefficients."""
    rng = random.Random(30)
    out = []
    while len(out) < count:
        ainvs = [rng.choice((-1, 1)) * (10**30 - rng.randrange(10**6))
                 for _ in range(5)]
        try:
            out.append(Curve(*ainvs))
        except InvalidModel:
            pass
    return out


def test_sieved_an_list_matches_the_factoring_oracle():
    """The same a_n as the per-prime test and per-n factorization, at
    every n_max up to 40 and at 2000: on the corpus and the 11a class,
    on 27a1 (additive at 3) and y^2 = x^3 + x (additive at 2), and on
    three of the models near +-10^30, which have both multiplicative and
    additive small primes."""
    data = Path(__file__).resolve().parent.parent / "data"
    models = [Curve(*rec["ainvs"])
              for name in ("corpus_reducible.json", "curves_11a.json")
              for rec in json.loads((data / name).read_text())]
    models += [Curve(0, 0, 1, 0, -7), Curve(0, 0, 0, 1, 0)]
    big = big_coefficient_models(3)
    for E in models + big:
        for n_max in range(1, 41):
            assert E.an_list(n_max) == oracle_an_list(E, n_max), \
                (E.ainvs(), n_max)
    for E in models + big:
        assert E.an_list(2000) == oracle_an_list(E, 2000), E.ainvs()
    kinds = {(E.discriminant % q == 0, E.c4 % q == 0)
             for E in big for q in (2, 3, 5, 7, 11, 13)}
    assert {(True, True), (True, False)} <= kinds


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
        C = AffineGroupLaw(E, ell)
        psi = E.division_polynomial(p)
        roots = {x for x in range(ell) if poly_eval(psi, x) % ell == 0}
        for P in C.points()[1:]:
            assert (C.mul(p, P) is None) == (P[0] in roots)


def test_duplication_formula_random():
    rng = random.Random(17)
    for _ in range(30):
        ell = rng.choice([13, 17, 19, 23])
        E = E11A1 if rng.random() < 0.5 else E37A1
        C = AffineGroupLaw(E, ell)
        pts = C.points()[1:]
        P = rng.choice(pts)
        P2 = C.add(P, P)
        if P2 is None:
            continue
        num, den = E.duplication_x()
        d = poly_eval(den, P[0]) % ell
        if d == 0:
            continue
        assert P2[0] == poly_eval(num, P[0]) * pow(d, -1, ell) % ell


def test_five_torsion_point_on_11a1():
    # (5, 5) is a rational point of order 5 on 11a1
    C = AffineGroupLaw(E11A1)
    P = (Fraction(5), Fraction(5))
    assert C.is_on(P)
    assert C.mul(5, P) is None
    assert C.mul(2, P) is not None
