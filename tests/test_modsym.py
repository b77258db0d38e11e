import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import mpmath as mp
import pytest

from mulab.analysis import _digits
from mulab.arith import factorize, is_probable_prime, poly_eval
from mulab.elliptic import Curve
from mulab.errors import (
    EigenspaceNotOneDimensional,
    EigenspaceNotRational,
    InvariantViolation,
)
from fraction_linalg import clear_denominators, fraction_nullspace
from mulab.linalg import nullspace, rank, rref
from mulab.modsym import (
    L_VALUE_BITS,
    P1,
    PERIOD_BITS,
    RATIONAL_BITS,
    RATIONAL_MAX_DEN,
    EigenSymbol,
    ManinSymbolSpace,
    _eliminate,
    _real_root_brackets,
    _refine_root,
    _transpose_shift,
    build_manin_space,
    l_value,
    merel_matrices,
    rationalize,
    real_period,
)
from mulab.mazur_tate import theta_element

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)


# -- the Fraction path that the integer generator table replaced --------------


def project(sp, i: int):
    """Coordinates of the i-th P^1 generator in the free basis of sp."""
    s, sgn = sp._red[i]
    return [Fraction(x, sp._den) for x in sp._column({s: sgn})]


def path_vector(sp, a: int, m: int):
    """Quotient coordinates of the path {a/m -> oo}."""
    acc = [Fraction(0)] * sp.dim
    for idx in sp.path_infty_to(a, m):
        acc = [x - y for x, y in zip(acc, project(sp, idx))]
    return acc


def phi(es):
    """The eigensymbol's coordinates in the free basis: r * phi0."""
    return [x * es.scale for x in es._phi0]


def generator_numerators(es):
    """phi on every P^1 generator, as integer numerators over es.den."""
    return [es.scale.numerator * x for x in es.functional.num]


def oracle_eigen_table(es):
    """(den, generator numerators, denominator_bound, base_value) of es
    by the Fraction path: phi0 scaled by the rationalized L(E,1)/Omega
    over phi0's value on the path_vector of {0 -> oo}, then the lcm of
    the scaled coordinates' denominators times the space's, and phi on
    every generator over that denominator."""
    sp = es.space
    raw_base = sum(x * b for x, b in zip(es._phi0, path_vector(sp, 0, 1)))
    with mp.workdps(50):
        ratio = oracle_rationalize(mp.mpf((es.l_value, -L_VALUE_BITS))
                                   / mp.mpf((es.period, -PERIOD_BITS)))
    coords = [x * (ratio / raw_base) for x in es._phi0]
    scale = lcm(*(Fraction(x).denominator for x in coords))
    ints = [int(x * scale) for x in coords]
    slot_values = {s: sum(ints[fi] * y for fi, y in terms)
                   for s, terms in sp._slot_terms.items()}
    num = [0 if s is None else sgn * slot_values[s] for s, sgn in sp._red]
    return scale * sp._den, num, scale, ratio


def genus_x0(N: int) -> int:
    """Genus of X_0(N) by the standard index / elliptic-point count."""
    fac = factorize(N)
    mu = N
    for q in fac:
        mu = mu // q * (q + 1)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for q in fac:
            nu2 *= 1 + (-1 if q % 4 == 3 else (1 if q % 4 == 1 else 0))
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for q in fac:
            nu3 *= 1 + (-1 if q % 3 == 2 else (1 if q % 3 == 1 else 0))
    nu_inf = 0
    for d in range(1, N + 1):
        if N % d == 0:
            g = gcd(d, N // d)
            phi = sum(1 for a in range(1, g + 1) if gcd(a, g) == 1)
            nu_inf += phi
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(nu_inf, 2)
    assert g.denominator == 1
    return int(g)


# -- the cuspidal boundary: which symbols are cuspidal, for the genus
# -- checks (`analyze` never needs it) --------------------------------------


def _gcdex(a, b):
    if b == 0:
        return (1, 0, a) if a >= 0 else (-1, 0, -a)
    x, y, g = _gcdex(b, a % b)
    return y, x - y * (a // b), g


def lift(p1, i: int):
    """An SL_2(Z) matrix (a, b; c, d) whose bottom row represents class i
    of P1."""
    N = p1.N
    c, d = p1.reps[i]
    if N == 1 or c % N == 0:
        return (1, 0, 0, 1)  # (0:1) <- identity
    # keep c, adjust d by multiples of N until coprime to c
    c0, d0 = c, d
    while gcd(c0, d0) != 1:
        d0 += N
    x, y, g = _gcdex(c0, d0)
    # a*d0 - b*c0 = 1
    a, b = y, -x
    if g != 1 or a * d0 - b * c0 != 1:
        raise InvariantViolation(
            f"lift ({a}, {b}; {c0}, {d0}) of class {i} is not in SL_2(Z)")
    return (a, b, c0, d0)


def cusps_equivalent(N, u, v, star: bool) -> bool:
    """Whether the cusp u is Gamma_0(N)-equivalent to v or, with star (the
    boundary of the +1 quotient takes cusps up to star), to -v."""
    (p1, q1), (p2, q2) = u, v
    s1 = _gcdex(p1, q1)[0]
    s2 = _gcdex(p2, q2)[0]
    g = gcd(N, q1 * q2)
    return (s1 * q2 - s2 * q1) % g == 0 or \
        (star and (s1 * q2 + s2 * q1) % g == 0)


def boundary_matrix(sp):
    """Boundary of each free generator: rows = cusp classes (up to star
    on the +1 quotient)."""
    star = not isinstance(sp, FullManinSpace)
    cusps: list = []

    def cusp_class(p, q):
        g = gcd(p, q)
        if g:
            p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        for idx, v in enumerate(cusps):
            if cusps_equivalent(sp.N, (p, q), v, star):
                return idx
        cusps.append((p, q))
        return len(cusps) - 1

    cols = []
    for i in sp.basis_generator_indices():
        a, b, c, d = lift(sp.p1, i)
        entries = {}
        top = cusp_class(a, c)
        bot = cusp_class(b, d)
        entries[top] = entries.get(top, 0) + 1
        entries[bot] = entries.get(bot, 0) - 1
        cols.append(entries)
    return [[cols[j].get(i, 0) for j in range(sp.dim)]
            for i in range(len(cusps))]


def cuspidal_dimension(sp) -> int:
    return len(nullspace(boundary_matrix(sp)))


@pytest.fixture(scope="module")
def sp11():
    return build_manin_space(11)


def test_p1_size(sp11):
    assert len(sp11.p1) == 12  # ell + 1 at prime level


def test_cuspidal_dimension_vs_genus(sp11):
    """The +1 quotient has cuspidal dimension g, the full space 2g."""
    assert cuspidal_dimension(sp11) == genus_x0(11) == 1
    assert cuspidal_dimension(build_manin_space(1)) == 0
    for N in [14, 19, 26, 27, 37, 49, 64]:
        assert cuspidal_dimension(build_manin_space(N)) == genus_x0(N)
        assert cuspidal_dimension(FullManinSpace(N)) == 2 * genus_x0(N)


def test_manin_relations_hold(sp11):
    check_manin_relations(sp11)


@pytest.mark.parametrize("N", [27, 110])
def test_manin_relations_hold_at_level(N):
    check_manin_relations(build_manin_space(N))


def check_manin_relations(sp):
    # x + xS = 0, x = xJ and x + xU + xU^2 = 0 in the quotient, on all
    # generators
    p1 = sp.p1
    for i in range(len(p1)):
        c, d = p1.reps[i]
        xs = project(sp, p1.index(d, -c))
        x = project(sp, i)
        assert all(a + b == 0 for a, b in zip(x, xs))
        assert project(sp, p1.index(-c, d)) == x
        xu = project(sp, p1.index(d, -c - d))
        xu2 = project(sp, p1.index(-c - d, c))
        assert all(a + b + e == 0 for a, b, e in zip(x, xu, xu2))


@pytest.mark.parametrize("N", [2, 11, 27, 64, 110])
def test_slots_are_signed_star_orbits(N):
    """Each generator x and xJ share a slot and sign, xS has the opposite
    sign, and a generator is zero exactly when xS or xSJ is x."""
    sp = build_manin_space(N)
    p1 = sp.p1
    for i, (c, d) in enumerate(p1.reps):
        s, sgn = sp._red[i]
        assert (s is None) == (i in (p1.index(d, -c), p1.index(d, c))), i
        if s is not None:
            assert sp._red[p1.index(-c, d)] == (s, sgn)
            assert sp._red[p1.index(d, -c)] == (s, -sgn)


def test_hecke_eigenvalues_11a(sp11):
    # T_2 has eigenvalue a_2(11a) = -2 on the eigensymbol; likewise T_3
    es = EigenSymbol(sp11, E11A1, 11)
    for ell in [2, 3, 7, 13]:
        A = sp11.hecke_matrix(ell)
        a = E11A1.ap(ell)
        # phi is a left eigenvector
        v = phi(es)
        lhs = [sum(v[i] * A[i][j] for i in range(sp11.dim))
               for j in range(sp11.dim)]
        assert lhs == [a * x for x in v]


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def test_hecke_commutativity(sp11):
    A2 = sp11.hecke_matrix(2)
    A3 = sp11.hecke_matrix(3)
    A7 = sp11.hecke_matrix(7)
    assert matmul(A2, A3) == matmul(A3, A2)
    assert matmul(A2, A7) == matmul(A7, A2)


def test_normalization_values(sp11):
    assert EigenSymbol(sp11, E11A1, 11).base_value == Fraction(1, 5)
    assert EigenSymbol(sp11, E11A2, 11).base_value == Fraction(1)
    assert EigenSymbol(sp11, E11A3, 11).base_value == Fraction(1, 25)


def test_evaluate_symmetries(sp11):
    es = EigenSymbol(sp11, E11A1, 11)
    assert es.evaluate(0, 1) == es.base_value
    for (a, m) in [(1, 5), (2, 5), (3, 25), (7, 25)]:
        assert es.evaluate(-a, m) == es.evaluate(a, m)
        assert es.evaluate(a + m, m) == es.evaluate(a, m)


def test_hecke_recurrence_on_values(sp11):
    """a_ell [a/m] = sum_b [(a + b m)/(ell m)] + [ell a / m], the Manin
    relation the theta-elements rest on; exact over Q."""
    es = EigenSymbol(sp11, E11A1, 11)

    def reduced(num, den):
        g = gcd(num, den)
        return num // g, den // g

    for ell in [2, 3, 7]:
        for m in range(1, 51):
            for a in {1, 2, m - 1, (m // 2) or 1}:
                if a < 1 or gcd(a, m) != 1:
                    continue
                lhs = es.curve.ap(ell) * es.evaluate(a, m)
                tot = Fraction(0)
                for b in range(ell):
                    tot += es.evaluate(*reduced(a + b * m, ell * m))
                tot += es.evaluate(*reduced(ell * a, m))
                assert lhs == tot, (ell, a, m)


def test_atkin_lehner_eigenvalue(sp11):
    """w_N sends {0 -> oo} to {oo -> 0}; on the rank-zero eigensymbol the
    eigenvalue is therefore -1 (operator convention: action on paths by
    z -> -1/(Nz))."""
    es = EigenSymbol(sp11, E11A1, 11)
    # w_N on the base path evaluates against the reversed path
    assert es.base_value != 0
    v = path_vector(sp11, 0, 1)
    w_val = -sum(p * x for p, x in zip(phi(es), v))
    assert w_val == -es.base_value


def test_denominator_bound_recorded(sp11):
    es = EigenSymbol(sp11, E11A1, 11)
    assert es.denominator_bound >= 1
    for x in phi(es):
        assert es.denominator_bound % Fraction(x).denominator == 0


def test_period_oracle_known_value():
    om = period_mpf(E11A1)
    with mp.workdps(40):
        known = mp.mpf("1.269209304279553421688794616754547305")
        assert abs(om - known) < mp.mpf("1e-30")


def test_rank_positive_rejected():
    # 37a1 has analytic rank 1: L(E,1) = 0 and normalization must refuse
    sp = build_manin_space(37)
    with pytest.raises(EigenspaceNotRational):
        EigenSymbol(sp, Curve(0, 0, 1, -1, 0), 37)


def test_rationalize_rejects_irrational():
    with pytest.raises(EigenspaceNotRational):
        rationalize(isqrt(2 << 2 * RATIONAL_BITS))
    with mp.workdps(50):
        with pytest.raises(EigenspaceNotRational):
            oracle_rationalize(mp.sqrt(2))


@pytest.mark.parametrize("fr", [Fraction(2, 9), Fraction(-2, 9),
                                Fraction(7, 3), Fraction(-999_999, 1000)])
def test_rationalize_accepts_up_to_the_tolerance_boundary(fr):
    """v = man / 2^RATIONAL_BITS is taken as fr while |v - fr| <=
    RATIONAL_TOL * max(1, |v|): the last mantissas the tolerance admits
    on either side are accepted, the next ones refused.  At |v| <= 1
    (2/9) the tolerance is absolute, above 1 (7/3) relative."""
    one = 1 << RATIONAL_BITS
    n, d = fr.numerator, fr.denominator
    T = 10**25
    # the largest man with (man d - n one) T <= d max(one, |man|), and
    # the least with (n one - man d) T <= d max(one, |man|)
    if abs(fr) <= 1:
        hi, lo = (n * one * T + d * one) // (d * T), \
            -(-(n * one * T - d * one) // (d * T))
    elif fr > 0:
        hi, lo = n * one * T // (d * T - d), -(-n * one * T // (d * T + d))
    else:
        hi, lo = n * one * T // (d * T + d), -(-n * one * T // (d * T - d))
    assert lo < n * one // d < hi
    for man in (lo, hi):
        assert rationalize(man) == fr
    for man in (lo - 1, hi + 1):
        with pytest.raises(EigenspaceNotRational):
            rationalize(man)


def test_rationalize_tries_denominators_up_to_the_bound():
    one = 1 << RATIONAL_BITS
    d = RATIONAL_MAX_DEN - 1
    assert rationalize(one // d) == Fraction(1, d)
    with pytest.raises(EigenspaceNotRational):
        rationalize(one // 1_000_003)


# -- differential tests against the slow paths the fast core replaced --------

CORPUS = json.loads(
    (Path(__file__).resolve().parent.parent / "data"
     / "corpus_reducible.json").read_text())


def quadrature_period(E: Curve, dps: int = 50):
    """Volume of E(R) for the invariant differential dx/(2y + a1x + a3),
    by quadrature: the slow oracle the AGM closed form replaced.

    The component period is 2 * int_(e1)^inf dx/sqrt(g); the head is
    integrated after x = e1 + t^2 (which removes the square-root
    singularity) and the tail comes from a binomial expansion of
    g(x)^(-1/2) about x = inf, so the quadrature only ever sees a smooth
    integrand on a finite interval.
    """
    with mp.workdps(dps):
        b2, b4, b6 = E.b2, E.b4, E.b6
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=400,
                             extraprec=200)
        real_roots = sorted(r.real for r in roots
                            if abs(r.imag) < mp.mpf(10)**(-dps // 2))
        e1 = max(real_roots)
        gp = 12 * e1 * e1 + 2 * b2 * e1 + 2 * b4   # g'(e1)
        gpp_half = 12 * e1 + b2                    # g''(e1)/2

        def integrand(t):
            u = t * t
            return 1 / mp.sqrt(4 * u * u + gpp_half * u + gp)

        bigroot = max(abs(r) for r in roots)
        X = 32 * max(mp.mpf(1), bigroot, abs(e1))
        T = mp.sqrt(X - e1)
        head = 2 * mp.quad(integrand, [0, T / 8, T], maxdegree=14)
        tail = _period_tail(b2, b4, b6, X, dps)
        omega = 2 * (head + tail)
        components = 2 if E.discriminant > 0 else 1
        return components * omega


def _period_tail(b2, b4, b6, X, dps):
    """int_X^inf dx/sqrt(4x^3 + b2 x^2 + 2 b4 x + b6) by expanding
    (1 + u)^(-1/2), u = (b2/4)/x + (b4/2)/x^2 + (b6/4)/x^3."""
    u1, u2, u3 = mp.mpf(b2) / 4, mp.mpf(b4) / 2, mp.mpf(b6) / 4
    # coefficients of u^k as a polynomial in 1/x, accumulated into
    # inverse-power buckets: total integrand = x^(-3/2)/2 * sum c_j x^(-j)
    terms = {0: mp.mpf(1)}  # current u^k expansion, k = 0
    total = {0: mp.mpf(1)}
    binom = mp.mpf(1)
    kmax = 4 * dps
    for k in range(1, kmax):
        binom *= mp.mpf(2 * k - 1) / (2 * k) * (-1)
        new = {}
        for j, c in terms.items():
            for dj, uc in ((1, u1), (2, u2), (3, u3)):
                if uc:
                    new[j + dj] = new.get(j + dj, mp.mpf(0)) + c * uc
        terms = new
        if not terms:
            break
        peak = max(abs(c) * X**(-j) for j, c in terms.items())
        for j, c in terms.items():
            total[j] = total.get(j, mp.mpf(0)) + binom * c
        if peak * abs(binom) < mp.mpf(10)**(-dps - 8):
            break
    out = mp.mpf(0)
    for j, c in total.items():
        out += c * X**(mp.mpf(-0.5) - j) / (mp.mpf(0.5) + j)
    return out / 2


@pytest.mark.parametrize("rec", CORPUS, ids=lambda r: r["label"])
def test_agm_period_matches_quadrature(rec):
    E = Curve(*rec["ainvs"])
    agm, quad = period_mpf(E), quadrature_period(E)
    with mp.workdps(50):
        assert abs(agm - quad) / quad < mp.mpf("1e-45")
        assert mp.nstr(agm, 30) == mp.nstr(quad, 30)


@pytest.mark.parametrize("label", ["11a1", "11a3", "n110-1"])
def test_table_evaluate_matches_path_vector(label):
    rec = next(r for r in CORPUS if r["label"] == label)
    sp = build_manin_space(rec["conductor"])
    es = EigenSymbol(sp, Curve(*rec["ainvs"]), rec["conductor"])
    p = rec["p"]
    for n in range(3):
        m = p**(n + 1)
        for a in range(1, m):
            if a % p == 0:
                continue
            v = path_vector(sp, a, m)
            expected = sum((x * y for x, y in zip(phi(es), v)), Fraction(0))
            assert es.evaluate(a, m) == expected, (a, m)


def hecke_by_projection(sp, n):
    """T_n as the sum of the projected Merel images of each generator."""
    N = sp.N
    cols = []
    for i in sp.basis_generator_indices():
        c, d = sp.p1.reps[i]
        acc = [Fraction(0)] * sp.dim
        for (a, b, cc, dd) in merel_matrices(n):
            c1 = (a * c + cc * d) % N
            d1 = (b * c + dd * d) % N
            if gcd(gcd(c1, d1), N) != 1:
                continue
            v = project(sp, sp.p1.index(c1, d1))
            acc = [x + y for x, y in zip(acc, v)]
        cols.append(acc)
    return [[cols[j][i] for j in range(sp.dim)] for i in range(sp.dim)]


def scaled(sp, A):
    """The rational matrix A times the space's denominator _den."""
    return [[x * sp._den for x in row] for row in A]


def oracle_star_matrix(sp):
    cols = []
    for i in sp.basis_generator_indices():
        c, d = sp.p1.reps[i]
        cols.append(project(sp, sp.p1.index(-c, d)))
    return [[cols[j][i] for j in range(sp.dim)] for i in range(sp.dim)]


@pytest.mark.parametrize("N", sorted({r["conductor"] for r in CORPUS}))
def test_hecke_matrix_matches_projection_sum(N):
    """The integer Hecke matrices, _den * T_n, against Fraction vectors
    from `project`, on every corpus level, in the +1 quotient and in the
    full space (with its star matrix)."""
    full = FullManinSpace(N)
    assert full.star_matrix() == scaled(full, oracle_star_matrix(full))
    for sp in (build_manin_space(N), full):
        for ell in (2, 3, 5, 7):
            A = sp.hecke_matrix(ell)
            assert all(type(x) is int for row in A for x in row)
            assert A == scaled(sp, hecke_by_projection(sp, ell)), (N, ell)
            A[0][0] += 1  # a caller's edit must not reach the kept matrix
            assert sp.hecke_matrix(ell) == \
                scaled(sp, hecke_by_projection(sp, ell))


# -- the full space and the stacked kernel that the +1 quotient and the
# -- restriction replaced


class FullManinSpace(ManinSymbolSpace):
    """The full quotient of the free module on P^1(Z/N) by the Manin
    relations: slots are the S-orbits, and the 3-term relations are
    reduced by one dense `rref`; the boundary takes cusps without star."""

    def __init__(self, N):
        self.N = N
        self.p1 = P1(N)
        n = len(self.p1)
        red = [None] * n
        slots = 0
        for i in range(n):
            if red[i] is not None:
                continue
            c, d = self.p1.reps[i]
            j = self.p1.index(d, -c)
            if j == i:
                red[i] = (None, 0)
                continue
            red[i] = (slots, 1)
            red[j] = (slots, -1)
            slots += 1
        self._red = red
        rel_rows = []
        seen_orbits = set()
        for i in range(n):
            c, d = self.p1.reps[i]
            j = self.p1.index(d, -c - d)
            k = self.p1.index(-c - d, c)
            orbit = frozenset((i, j, k))
            if orbit in seen_orbits:
                continue
            seen_orbits.add(orbit)
            row = [0] * slots
            for t in (i, j, k):
                s, sgn = red[t]
                if s is not None:
                    row[s] += sgn
            rel_rows.append(row)
        R, den, pivots = rref(rel_rows)
        free = [s for s in range(slots) if s not in pivots]
        self.free_slots = free
        self.dim = len(free)
        terms = {s: [(fi, den)] for fi, s in enumerate(free)}
        for row, pcol in zip(R, pivots):
            terms[pcol] = [(fi, -row[s]) for fi, s in enumerate(free)
                           if row[s]]
        self._den = den
        self._slot_terms = terms
        self._hecke = {}
        self._functionals = {}

    def star_matrix(self):
        """_den times the involution (c:d) -> (-c:d), as integer rows."""
        cols = []
        for i in self.basis_generator_indices():
            c, d = self.p1.reps[i]
            s, sgn = self._red[self.p1.index(-c, d)]
            cols.append(self._column({s: sgn}))
        return [list(row) for row in zip(*cols)]


class FullEigenSymbol(EigenSymbol):
    """The eigensymbol on a `FullManinSpace`: one nullspace of the
    stacked (star - 1)^T and (T_q - a_q)^T for the first prime q,
    restricted by each further prime."""

    def _joint_kernel(self, primes):
        sp = self.space
        rows = _transpose_shift(sp.star_matrix(), sp._den)
        for ell in primes[:1]:
            rows += self._constraint(ell)
        kern = nullspace(rows)
        for ell in primes[1:]:
            if not kern:
                break
            kern = self._restrict(kern, ell)
        return kern


def good_primes(conductor, count):
    out, q = [], 2
    while len(out) < count:
        if is_probable_prime(q) and conductor % q != 0:
            out.append(q)
        q += 1
    return out


def oracle_find_functional(sp, curve, conductor, match_primes=None):
    """(phi0, match_primes) on the full space sp from one nullspace of
    every stacked constraint, recomputed in full with three more
    primes."""
    primes = good_primes(conductor, 3) if match_primes is None \
        else match_primes
    while True:
        a = {ell: curve.ap(ell) for ell in primes}
        rows = []
        for ell in primes:
            A = hecke_by_projection(sp, ell)
            for j in range(sp.dim):
                rows.append([A[i][j] - (a[ell] if i == j else 0)
                             for i in range(sp.dim)])
        S = oracle_star_matrix(sp)
        for j in range(sp.dim):
            rows.append([S[i][j] - (1 if i == j else 0)
                         for i in range(sp.dim)])
        kern = fraction_nullspace(rows)
        if len(kern) == 0:
            raise EigenspaceNotRational(
                f"no rational eigensymbol for a_ell = {a}")
        if len(kern) == 1:
            return clear_denominators(kern[0]), primes
        if len(primes) >= 10:
            raise EigenspaceNotOneDimensional(
                f"eigenspace dimension {len(kern)}")
        primes = good_primes(conductor, len(primes) + 3)


def generator_values(sp, v):
    """The functional with coordinates v in the free basis of sp, on
    every P^1 generator, scaled to a primitive integer vector whose
    first nonzero entry is positive."""
    values = []
    for s, sgn in sp._red:
        values.append(0 if s is None else sgn * sum(
            Fraction(v[fi] * y, sp._den) for fi, y in sp._slot_terms[s]))
    ints = clear_denominators(values)
    lead = next(x for x in ints if x)
    return [x if lead > 0 else -x for x in ints]


@pytest.mark.parametrize("rec", CORPUS, ids=lambda r: r["label"])
def test_restricted_kernel_matches_stacked_kernel(rec):
    """phi0 of the +1 quotient against the stacked kernel of the full
    space, compared on every P^1 generator."""
    N, E = rec["conductor"], Curve(*rec["ainvs"])
    sp, full = build_manin_space(N), FullManinSpace(N)
    es = EigenSymbol(sp, E, N)
    phi0, primes = oracle_find_functional(full, E, N)
    assert es.match_primes == primes
    assert generator_values(sp, es._phi0) == generator_values(full, phi0)


@pytest.mark.parametrize("label, match_primes", [
    ("n110-1", [3]), ("11a1", [2])])
def test_restricted_kernel_retries_match_stacked_kernel(monkeypatch, label,
                                                         match_primes):
    """First primes given by patching `_good_primes`: [3] leaves a plane
    at N = 110 and is retried with four primes, and [2] needs no retry."""
    rec = next(r for r in CORPUS if r["label"] == label)
    N, E = rec["conductor"], Curve(*rec["ainvs"])
    sp, full = build_manin_space(N), FullManinSpace(N)
    good_primes_of = EigenSymbol._good_primes
    monkeypatch.setattr(
        EigenSymbol, "_good_primes", lambda self, count: list(match_primes)
        if count == 3 else good_primes_of(self, count))
    es = EigenSymbol(sp, E, N)
    phi0, primes = oracle_find_functional(full, E, N, list(match_primes))
    assert es.match_primes == primes
    assert generator_values(sp, es._phi0) == generator_values(full, phi0)


@pytest.mark.parametrize("N, error", [
    (22, EigenspaceNotOneDimensional),
    (44, EigenspaceNotOneDimensional),
    (19, EigenspaceNotRational),
    (26, EigenspaceNotRational),
])
def test_eigenspace_errors_match_stacked_kernel(N, error):
    """11a1 at N = 22 and 44: the old forms f(q) and f(q^2) share every
    a_ell, so the eigenspace stays two-dimensional; at N = 19 and 26 no
    symbol has the a_ell of 11a1."""
    with pytest.raises(error) as expected:
        oracle_find_functional(FullManinSpace(N), E11A1, N)
    with pytest.raises(error) as got:
        EigenSymbol(build_manin_space(N), E11A1, N)
    assert str(got.value) == str(expected.value)


def doubled_denominator_space(N):
    """The space at level N with every slot numerator and `_den` doubled:
    the same rational slot terms over `_den` = 2."""
    sp = build_manin_space(N)
    assert sp._den == 1
    sp._slot_terms = {s: [(fi, 2 * y) for fi, y in terms]
                      for s, terms in sp._slot_terms.items()}
    sp._den = 2
    return sp


@pytest.mark.parametrize("label", ["11a1", "n110-1"])
def test_denominator_two_matches_integral_space(label):
    """`_den` is 1 on every level below 400; in a space rescaled to
    `_den` = 2 the integer Hecke matrices, _den * T_n, are twice the
    integral space's, and `project`, phi0, the phi table and theta must
    give what the integral space gives."""
    rec = next(r for r in CORPUS if r["label"] == label)
    N, E, p = rec["conductor"], Curve(*rec["ainvs"]), rec["p"]
    sp, sp2 = build_manin_space(N), doubled_denominator_space(N)
    for ell in (2, 3, 5, 7):
        A = sp2.hecke_matrix(ell)
        assert all(type(x) is int for row in A for x in row)
        assert A == [[2 * x for x in row] for row in sp.hecke_matrix(ell)], \
            ell
    for i in range(len(sp.p1)):
        assert project(sp2, i) == project(sp, i), i
    es, es2 = EigenSymbol(sp, E, N), EigenSymbol(sp2, E, N)
    assert (es2._phi0, es2.match_primes) == (es._phi0, es.match_primes)
    assert phi(es2) == phi(es)
    assert es2.den == 2 * es.den
    for n in range(3):
        assert theta_element(es2, p, n, 6) == theta_element(es, p, n, 6), n


def test_lift_check_raises(monkeypatch):
    """The SL_2(Z) check of `lift` is no bare assert."""
    sp = build_manin_space(11)
    monkeypatch.setitem(globals(), "_gcdex", lambda a, b: (0, 0, 2))
    with pytest.raises(InvariantViolation, match="SL_2"):
        lift(sp.p1, 1)


def continued_fraction_path(a, m):
    """Convergents p_j/q_j of a/m including p_(-1)/q_(-1) = 1/0."""
    if m == 0:
        return [(1, 0)]
    sign = -1 if m < 0 else 1
    a, m = a * sign, m * sign
    quots = []
    x, y = a, m
    while y:
        q, r = divmod(x, y)
        quots.append(q)
        x, y = y, r
    convs = [(1, 0)]
    p0, q0 = 1, 0
    p1, q1 = quots[0], 1
    convs.append((p1, q1))
    for q in quots[1:]:
        p0, q0, p1, q1 = p1, q1, q * p1 + p0, q * q1 + q0
        convs.append((p1, q1))
    return convs


def oracle_path_infty_to(sp, a, m):
    """{oo -> a/m} from the full list of convergents, checking each
    segment's determinant: the path the denominator-only walk replaced."""
    convs = continued_fraction_path(a, m) if m else [(1, 0)]
    out = []
    for (pj1, qj1), (pj, qj) in zip(convs, convs[1:]):
        det0 = pj * qj1 - pj1 * qj
        assert det0 in (1, -1)
        out.append(sp.p1.index(qj % sp.N, det0 * qj1 % sp.N))
    return out


@pytest.mark.parametrize("N", [1, 11, 26, 110])
def test_path_infty_to_matches_convergents(N):
    sp = build_manin_space(N)
    for m in [0, 1, 2, 3, 25, 27, 81, 125, 343, -7, -26]:
        for a in list(range(-30, 31)) + [m - 1, m + 1, 7 * m + 3, 10**6 + 1]:
            if gcd(a, m) == 1:
                assert sp.path_infty_to(a, m) == \
                    oracle_path_infty_to(sp, a, m), (a, m)


# -- the polyroots period and the orbit-set P^1 that the certified roots and
# -- the one-pass class marking replaced ------------------------------------


def polyroots_period(E: Curve, dps: int = 50):
    """real_period with the roots of g from mp.polyroots at 200 extra
    bits."""
    with mp.workdps(dps):
        b2, b4 = mp.mpf(E.b2), mp.mpf(E.b4)
        roots = mp.polyroots([4, E.b2, 2 * E.b4, E.b6], maxsteps=400,
                             extraprec=200)
        if E.discriminant > 0:
            e3, e2, e1 = sorted(r.real for r in roots)
            return 2 * mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        e1 = min(roots, key=lambda r: abs(r.imag)).real
        beta = mp.sqrt(3 * e1 * e1 + b2 * e1 / 2 + b4 / 2)
        alpha = 3 * e1 + b2 / 4
        return 2 * mp.pi / mp.agm(2 * mp.sqrt(beta),
                                  mp.sqrt(2 * beta + alpha))


def _period_models():
    """The corpus, the 11a isogeny class, and the Tate normal forms
    y^2 + (1 - c)xy - by = x^3 - bx^2 for (b, c) and (c, b) over
    b in {7, 13, 29, 37}, c in {3, 11, 31, 40}."""
    models = [rec["ainvs"] for rec in CORPUS]
    models += [rec["ainvs"] for rec in json.loads(
        (Path(__file__).resolve().parent.parent / "data"
         / "curves_11a.json").read_text())]
    for b in (7, 13, 29, 37):
        for c in (3, 11, 31, 40):
            models += [[1 - c, -b, -b, 0, 0], [1 - b, -c, -c, 0, 0]]
    return [Curve(*a) for a in models]


def test_certified_period_matches_polyroots_period():
    models = _period_models()
    assert len(models) == 51
    assert 0 < sum(E.discriminant > 0 for E in models) < 51
    for E in models:
        assert mp.nstr(period_mpf(E), 30) == \
            mp.nstr(polyroots_period(E), 30), E.ainvs()


def test_real_root_brackets_isolate_and_check_the_count():
    g = [-6, 11, -6, 1]  # (x - 1)(x - 2)(x - 3)
    den, brackets = _real_root_brackets(g, 3)
    assert den > 0
    assert [lo <= r * den <= hi
            for (lo, hi), r in zip(brackets, (1, 2, 3))] == [True] * 3
    assert all(hi <= lo2 for (_, hi), (lo2, _) in zip(brackets,
                                                      brackets[1:]))
    # the same brackets as the Fraction oracle's
    assert [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in brackets] \
        == oracle_real_root_brackets(g, 3)
    with pytest.raises(InvariantViolation, match="allows 1"):
        _real_root_brackets(g, 1)
    with pytest.raises(InvariantViolation, match="could not isolate"):
        _real_root_brackets([1, 0, 0, 4], 3)  # one real root


def test_refine_root_refuses_a_bad_bracket():
    g = [-6, 11, -6, 1]
    # [5/2, 4]: within one unit of 3
    assert abs(_refine_root(g, 5, 8, 2) - (3 << PERIOD_BITS)) <= 1
    with pytest.raises(InvariantViolation, match="sign"):
        _refine_root(g, 1, 5, 2)  # [1/2, 5/2] holds the roots 1 and 2
    with mp.workdps(30):
        assert oracle_refine_root(g, Fraction(5, 2), Fraction(4)) == 3
        with pytest.raises(InvariantViolation, match="sign"):
            oracle_refine_root(g, Fraction(1, 2), Fraction(5, 2))


@pytest.mark.parametrize("g, count", [
    ([-2, 0, 0, 4], 1),          # 4x^3 - 2: the root 2^(-1/3)
    ([-6, 11, -6, 1], 3),        # the roots 1, 2, 3, hit exactly
    ([1, -6, 0, 4], 3),          # 4x^3 - 6x + 1
    (E11A1.psi2_squared(), 1),
])
def test_refine_root_is_certified_by_the_signs_one_unit_apart(g, count):
    """Each refined X has g changing sign on [X - 1, X + 1] / 2^F, and
    lies within one unit of the root the mpmath oracle refines."""
    den, brackets = _real_root_brackets(g, count)
    one = 1 << PERIOD_BITS
    for lo, hi in brackets:
        X = _refine_root(g, lo, hi, den)
        assert poly_eval(g, Fraction(X - 1, one)) \
            * poly_eval(g, Fraction(X + 1, one)) <= 0
        with mp.workdps(80):
            r = oracle_refine_root(g, Fraction(lo, den), Fraction(hi, den))
            assert abs(mp.ldexp(r, PERIOD_BITS) - X) <= 1


def p1_by_orbit_sets(N):
    """(reps, index_map) with each class the min of its unit-orbit set."""
    reps, index, seen = [], {}, set()
    units = [u for u in range(1, max(N, 2)) if gcd(u, N) == 1] or [1]
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1 or (c, d) in seen:
                continue
            orbit = {(u * c % N, u * d % N) for u in units}
            for t in orbit:
                seen.add(t)
                index[t] = len(reps)
            reps.append(min(orbit))
    return reps, index


def test_p1_matches_orbit_sets():
    for N in range(1, 121):
        p1 = P1(N)
        reps, index = p1_by_orbit_sets(N)
        assert p1.reps == reps, N
        assert {(c, d): p1.index(c, d) for c in range(N) for d in range(N)
                if p1.index(c, d) is not None} == index, N


# -- the +1 quotient against the full space -----------------------------------

STAR_LEVELS = list(range(1, 101)) + [
    121, 125, 128, 169, 196, 210, 243, 256, 289, 330, 343, 361, 392, 399]


def test_plus_dimension_is_the_star_fixed_dimension():
    """dim of the +1 quotient = dim of the +1 eigenspace of star on the
    full space, on every level up to 100 and on prime powers, products of
    small primes and squares up to 400."""
    for N in STAR_LEVELS:
        full = FullManinSpace(N)
        fixed = len(nullspace(_transpose_shift(full.star_matrix(),
                                               full._den))) \
            if full.dim else 0
        assert build_manin_space(N).dim == fixed, N


def test_plus_space_is_integral_below_400():
    """The sparse elimination pivots on coefficients +-1 throughout:
    every slot is an integer combination of the basis below N = 400."""
    assert [N for N in range(1, 400) if build_manin_space(N)._den != 1] \
        == []


def test_space_build_makes_no_dense_rref(monkeypatch):
    """The 3-term relations are eliminated sparsely: building the space
    of every corpus level calls no dense `rref`."""
    from mulab import linalg, modsym

    def refuse(rows):
        raise AssertionError("dense rref called")

    monkeypatch.setattr(modsym, "rref", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    for N in sorted({r["conductor"] for r in CORPUS}):
        ManinSymbolSpace(N)


def eliminate_oracle_cases():
    """(label, ainvs, conductor, p): the corpus, [-8,0,1,0,0] at N = 77,
    and the Tate normal forms of the Frobenius fixture whose model is
    semistable (gcd(c4, disc) = 1, so the conductor is the radical of the
    discriminant) with conductor below 400."""
    cases = [(r["label"], r["ainvs"], r["conductor"], r["p"])
             for r in CORPUS]
    cases.append(("N77", [-8, 0, 1, 0, 0], 77, 3))
    fixture = json.loads((Path(__file__).resolve().parent / "golden"
                          / "frobenius_scalars.json").read_text())
    for rec in fixture:
        E = Curve(*rec["ainvs"])
        if not rec["label"].startswith("tate") \
                or gcd(E.c4, E.discriminant) != 1:
            continue
        N = 1
        for q in factorize(abs(E.discriminant)):
            N *= q
        if N < 400:
            cases.append((rec["label"], rec["ainvs"], N, rec["p"]))
    return cases


def symbol_or_error(cls, sp, E, N):
    try:
        return cls(sp, E, N), None
    except (EigenspaceNotRational, EigenspaceNotOneDimensional) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("label, ainvs, N, p", [
    pytest.param(*case, id=case[0]) for case in eliminate_oracle_cases()])
def test_plus_symbol_matches_full_space(label, ainvs, N, p):
    """phi on every P^1 generator, den, denominator_bound, the base value
    and theta at layers 0-3 agree with the eigensymbol of the full space
    cut out by star; where there is none, both raise the same error."""
    E = Curve(*ainvs)
    es, err = symbol_or_error(EigenSymbol, build_manin_space(N), E, N)
    fe, full_err = symbol_or_error(FullEigenSymbol, FullManinSpace(N), E, N)
    assert err == full_err
    if es is None:
        return
    assert [Fraction(x, es.den) for x in generator_numerators(es)] == \
        [Fraction(x, fe.den) for x in generator_numerators(fe)]
    assert (es.den, es.denominator_bound, es.base_value, es.match_primes) \
        == (fe.den, fe.denominator_bound, fe.base_value, fe.match_primes)
    for n in range(4):
        assert theta_element(es, p, n, 6) == theta_element(fe, p, n, 6), n


def test_eliminate_oracle_cases_cover_every_kind():
    """The differential cases hold the corpus, N = 77 and 21 Tate normal
    forms, with both symbols and refusals among the Tate forms."""
    cases = eliminate_oracle_cases()
    assert len(cases) == len(CORPUS) + 1 + 21
    assert {N for *_, N, _ in cases} >= {11, 14, 26, 77, 110, 395}
    refused = [symbol_or_error(EigenSymbol, build_manin_space(N),
                               Curve(*ainvs), N)[1] is not None
               for label, ainvs, N, _ in cases if label.startswith("tate")]
    assert 0 < sum(refused) < len(refused)


# -- the mpf series that the fixed-point Horner sum replaced ------------------


def mpf_l_value(E: Curve, conductor: int, dps: int = 40):
    """L(E, 1) term by term in mpf, each term with its own x**n."""
    with mp.workdps(dps):
        n_max = max(80, int(9 * mp.sqrt(conductor)))
        a = E.an_list(n_max)
        x = mp.exp(-2 * mp.pi / mp.sqrt(conductor))
        total = mp.mpf(0)
        for n in range(1, n_max + 1):
            if a[n - 1]:
                total += mp.mpf(a[n - 1]) / n * x**n
        return 2 * total


def test_horner_l_value_matches_mpf_series():
    """The same 30 digits and the same rationalized L/Omega on the corpus,
    N = 77 and the 11a isogeny class, and agreement to 10^-38."""
    models = [(r["ainvs"], r["conductor"]) for r in CORPUS]
    models += [([-8, 0, 1, 0, 0], 77)]
    models += [(r["ainvs"], r["conductor"]) for r in json.loads(
        (Path(__file__).resolve().parent.parent / "data"
         / "curves_11a.json").read_text())]
    assert len(models) == 20
    for ainvs, N in models:
        E = Curve(*ainvs)
        got, want = l_value_mpf(E, N), mpf_l_value(E, N)
        assert mp.nstr(got, 30) == mp.nstr(want, 30), ainvs
        omega = period_mpf(E)
        with mp.workdps(50):
            assert abs(got - want) < mp.mpf("1e-38")
            assert oracle_rationalize(got / omega) == \
                oracle_rationalize(want / omega)


@pytest.mark.parametrize("seed", range(40))
def test_eliminate_solves_sparse_relations(seed):
    """Random rows of one to three entries in -3..3 on a few slots (so
    that some pivots cannot be units): the pivots are as many as the
    rank from `rank`, and setting each free slot to 1 and the others to 0
    solves every row."""
    import random
    rng = random.Random(seed)
    nslots = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(1, 14)):
        slots = rng.sample(range(nslots), rng.randint(1, min(3, nslots)))
        row = tuple(sorted((s, rng.choice([-3, -2, -1, 1, 2, 3]))
                           for s in slots))
        rows.append(row)
    expr = _eliminate(rows)
    dense = [[dict(row).get(s, 0) for s in range(nslots)] for row in rows]
    assert len(expr) == rank(dense)
    free = [s for s in range(nslots) if s not in expr]
    assert all(set(e) <= set(free) for e in expr.values())
    for f in free:
        x = [Fraction(int(s == f)) for s in range(nslots)]
        for s, e in expr.items():
            x[s] = Fraction(e.get(f, 0))
        assert all(sum(a * x[s] for s, a in row) == 0 for row in rows)


def test_eliminate_takes_non_unit_pivots_over_q():
    """2x + 2y + z = 0 and 2x - 2y = 0 leave no unit once z is pivoted."""
    expr = _eliminate([((0, 2), (1, 2), (2, 1)), ((0, 2), (1, -2))])
    assert expr == {2: {1: -4}, 0: {1: 1}}


# -- the mpmath period, L-value and rationalize that the fixed-point
# -- integers replaced ---------------------------------------------------------


def period_mpf(E: Curve):
    """real_period as an mpf at the 50 digits it is computed to."""
    with mp.workdps(50):
        return mp.mpf((real_period(E), -PERIOD_BITS))


def l_value_mpf(E: Curve, conductor: int):
    """l_value as an mpf at the 40 digits it is computed to."""
    with mp.workdps(40):
        return mp.mpf((l_value(E, conductor), -L_VALUE_BITS))


def oracle_real_period(E: Curve):
    """real_period in mpmath at 50 digits: the roots refined at 32 guard
    bits, then mp.agm.  Error: the roots are within 2^-(prec + 28)
    relative and rounded to prec; mp.agm and mp.pi are good to a few
    units of 2^-prec, so Omega is within about 2^-(prec - 8) relative
    (prec = 169)."""
    with mp.workdps(50):
        b2, b4 = mp.mpf(E.b2), mp.mpf(E.b4)
        coeffs = E.psi2_squared()
        count = 3 if E.discriminant > 0 else 1
        with mp.extraprec(32):
            roots = [oracle_refine_root(coeffs, lo, hi)
                     for lo, hi in oracle_real_root_brackets(coeffs, count)]
        roots = [+r for r in roots]
        if count == 3:
            e3, e2, e1 = roots
            return 2 * mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        e1, = roots
        beta = mp.sqrt(3 * e1 * e1 + b2 * e1 / 2 + b4 / 2)
        alpha = 3 * e1 + b2 / 4
        return 2 * mp.pi / mp.agm(2 * mp.sqrt(beta),
                                  mp.sqrt(2 * beta + alpha))


def oracle_real_root_brackets(coeffs, count: int):
    """_real_root_brackets with Fraction sample points: the brackets as
    Fractions (lo, hi), ascending.  Exact: the signs are those of g at
    the points."""
    c0, c1, c2, c3 = coeffs
    B = 1 + max(abs(c0), abs(c1), abs(c2))
    disc = c2 * c2 - 3 * c1 * c3
    k = 0
    while True:
        points = [Fraction(-B), Fraction(B)]
        if disc > 0:
            s = isqrt(disc << (2 * k))
            den = 3 * c3 << k
            points[1:1] = [Fraction(-(c2 << k) - s, den),
                           Fraction(-(c2 << k) + s, den)]
            points = sorted({x for x in points if -B <= x <= B})
        signs = [(v > 0) - (v < 0)
                 for v in (poly_eval(coeffs, x) for x in points)]
        brackets = [(x, x) for x, sx in zip(points, signs) if sx == 0]
        brackets += [(x, y) for x, y, sx, sy in zip(
            points, points[1:], signs, signs[1:]) if sx * sy < 0]
        if len(brackets) > count:
            raise InvariantViolation(
                f"{len(brackets)} real roots isolated where the "
                f"discriminant allows {count}")
        if len(brackets) == count:
            return sorted(brackets)
        if disc <= 0 or k > 8 * B.bit_length() + 64:
            raise InvariantViolation(
                f"could not isolate {count} real roots of {coeffs}")
        k = 2 * k + 4


def oracle_refine_root(coeffs, lo: Fraction, hi: Fraction):
    """The root in [lo, hi] by safeguarded Newton-bisection at the current
    mpmath precision, started from the same iteration in floats.  Error:
    the last step or bracket is below 2^-(prec - 4) relative to
    max(1, |x|), with no certificate."""
    a = mp.mpf(lo.numerator) / lo.denominator
    if lo == hi:
        return a
    b = mp.mpf(hi.numerator) / hi.denominator
    poly = [mp.mpf(c) for c in coeffs]
    fa, fb = poly_eval(poly, a), poly_eval(poly, b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise InvariantViolation(
            f"g does not change sign on the bracket [{lo}, {hi}]")
    try:
        x = oracle_newton_bisect(
            [float(c) for c in coeffs], float(lo), float(hi), fa < 0,
            2.0**-50, 200, (float(lo) + float(hi)) / 2)
    except OverflowError:
        x = None
    x = mp.mpf(x) if x is not None and a < x < b else (a + b) / 2
    iters = mp.mp.prec + 2 * int(abs(b - a) + 2).bit_length() + 64
    x = oracle_newton_bisect(poly, a, b, fa < 0,
                             mp.ldexp(1, -mp.mp.prec + 4), iters, x)
    if x is None:
        raise InvariantViolation(
            f"root refinement on [{lo}, {hi}] did not converge")
    return x


def oracle_newton_bisect(poly, a, b, neg_at_a: bool, tol, iters: int, x):
    """A root of poly in (a, b), where its sign is negative at a iff
    neg_at_a: Newton steps from x, with a bisection whenever a step
    leaves the bracket or fails to halve the step before it, until a
    step or the bracket is below tol relative to max(1, |x|).  None
    after iters steps."""
    dpoly = [i * c for i, c in enumerate(poly)][1:]
    step = b - a
    for _ in range(iters):
        fx = poly_eval(poly, x)
        if fx == 0:
            return x
        if (fx < 0) == neg_at_a:
            a = x
        else:
            b = x
        dfx = poly_eval(dpoly, x)
        new = x - fx / dfx if dfx else None
        if new is not None and a <= new <= b \
                and 2 * abs(new - x) <= abs(step):
            step, x = new - x, new
            if abs(step) <= tol * max(1, abs(x)):
                return x
        else:
            step, x = (a + b) / 2 - x, (a + b) / 2
            if b - a <= tol * max(1, abs(x)):
                return x
    return None


def oracle_l_value(E: Curve, conductor: int):
    """l_value with x from mp.exp at 40 digits plus 64 bits, summed by the
    same Horner loop in integers.  Error: x is off by less than 2^-F,
    each of the n_max steps rounds down by less than 2 * 2^-F, and
    |x| < 1 keeps those errors from growing beyond the 32 guard bits."""
    with mp.workdps(40):
        n_max = max(80, int(9 * mp.sqrt(conductor)))
        F = mp.mp.prec + 32
        with mp.workprec(F + 32):
            x = int(mp.ldexp(mp.exp(-2 * mp.pi / mp.sqrt(conductor)), F))
        a = E.an_list(n_max)
        acc = 0
        for n in range(n_max, 0, -1):
            acc = ((acc + (a[n - 1] << F) // n) * x) >> F
        return mp.mpf((2 * acc, -F))


def oracle_rationalize(value) -> Fraction:
    """rationalize of an mpf at 50 digits: the double of value through
    limit_denominator, taken when the mpf error is at most 1e-25 *
    max(1, |value|), itself rounded at 50 digits."""
    with mp.workdps(50):
        fr = Fraction(*float(value).as_integer_ratio()) \
            .limit_denominator(RATIONAL_MAX_DEN)
        err = abs(value - mp.mpf(fr.numerator) / fr.denominator)
        if err > mp.mpf("1e-25") * max(1, abs(value)):
            raise EigenspaceNotRational(
                f"value {mp.nstr(value, 20)} does not rationalize "
                f"within denominator {RATIONAL_MAX_DEN}")
    return fr


def rationalized_or_refused(rationalize_, value):
    try:
        return rationalize_(value)
    except EigenspaceNotRational:
        return None


def frobenius_fixture_levels():
    """(ainvs, N) for every curve of the Frobenius fixture, N the radical
    of the discriminant: the conductor where the model is semistable
    (gcd(c4, disc) = 1), and otherwise a level to sum the series at."""
    fixture = json.loads((Path(__file__).resolve().parent / "golden"
                          / "frobenius_scalars.json").read_text())
    out = []
    for rec in fixture:
        N = 1
        for q in factorize(abs(Curve(*rec["ainvs"]).discriminant)):
            N *= q
        out.append((rec["ainvs"], N))
    return out


def test_fixed_point_period_matches_the_mpmath_oracle_and_polyroots():
    """The same 30 digits from the integer AGM, the mpmath AGM on the
    mpmath roots and the AGM on mp.polyroots, on the 51 period models
    and every curve of the Frobenius fixture, and agreement within
    2^-150 relative."""
    models = _period_models() + [
        Curve(*ainvs) for ainvs, _ in frobenius_fixture_levels()]
    assert len(models) == 51 + 52
    for E in models:
        got, want = period_mpf(E), oracle_real_period(E)
        assert mp.nstr(got, 30) == mp.nstr(want, 30) == \
            mp.nstr(polyroots_period(E), 30), E.ainvs()
        with mp.workdps(50):
            assert abs(got - want) < want * mp.ldexp(1, -150), E.ainvs()


def test_fixed_point_l_value_and_ratio_match_the_mpmath_oracles():
    """The same 30 digits from the integer exp and Horner sum, the mpf
    series and the mpmath exp with the same sum, and the same
    rationalized L/Omega (or the same refusal) from the fixed-point
    ratio and from the mpf values, on the corpus, the 11a class, N = 77
    and every curve of the Frobenius fixture."""
    models = [(r["ainvs"], r["conductor"]) for r in CORPUS]
    models += [(r["ainvs"], r["conductor"]) for r in json.loads(
        (Path(__file__).resolve().parent.parent / "data"
         / "curves_11a.json").read_text())]
    models += [([-8, 0, 1, 0, 0], 77)] + frobenius_fixture_levels()
    fractions = 0
    for ainvs, N in models:
        E = Curve(*ainvs)
        got, want = l_value(E, N), oracle_l_value(E, N)
        with mp.workdps(40):
            got_mpf = mp.mpf((got, -L_VALUE_BITS))
        assert mp.nstr(got_mpf, 30) == mp.nstr(want, 30) == \
            mp.nstr(mpf_l_value(E, N), 30), (ainvs, N)
        omega = real_period(E)
        ratio = rationalized_or_refused(rationalize, (
            got << PERIOD_BITS + RATIONAL_BITS - L_VALUE_BITS) // omega)
        with mp.workdps(50):
            assert ratio == rationalized_or_refused(
                oracle_rationalize, want / oracle_real_period(E)), ainvs
        fractions += ratio is not None
    assert (len(models), fractions) == (20 + 52, 61)


def digits_cases():
    """(man, bits) pairs of every sign and magnitude from 10^-45 to 10^45,
    seeded, and the values next to 10^k, 5 10^k and 95 10^k, where the
    30th digit carries or sits half way."""
    rng = random.Random(29)
    cases = [(0, 0), (0, 201)]
    for _ in range(1500):
        bits = rng.choice([0, 10, 64, L_VALUE_BITS, PERIOD_BITS, 300])
        man = rng.getrandbits(60) << rng.randrange(200)
        shift = rng.randint(-45, 45)
        man = man * 10**shift if shift >= 0 else man // 10**-shift
        cases.append((-man if rng.random() < 0.2 else man, bits))
    for k in range(1, 40):
        for bits in (0, 7, PERIOD_BITS):
            for base in (10**k, 5 * 10**k, 95 * 10**k):
                x = base << bits
                cases += [(x, bits), (x - 1, bits), (x + 1, bits),
                          (x // 10**31, bits)]
    return cases


def test_report_digits_match_mpmath_nstr():
    """The report's strings from `analysis._digits` are those of
    mp.nstr(v, 30): on the period and L-value of the corpus, the 11a
    class and every curve of the Frobenius fixture, as the report
    printed them from an mpf at 50 and 40 digits, and on
    `digits_cases` at exact precision."""
    models = [(r["ainvs"], r["conductor"]) for r in CORPUS]
    models += [(r["ainvs"], r["conductor"]) for r in json.loads(
        (Path(__file__).resolve().parent.parent / "data"
         / "curves_11a.json").read_text())]
    models += frobenius_fixture_levels()
    for ainvs, N in models:
        E = Curve(*ainvs)
        assert _digits(real_period(E), PERIOD_BITS) == \
            mp.nstr(period_mpf(E), 30), ainvs
        assert _digits(l_value(E, N), L_VALUE_BITS) == \
            mp.nstr(l_value_mpf(E, N), 30), ainvs
    for man, bits in digits_cases():
        with mp.workprec(man.bit_length() + 8):
            assert _digits(man, bits) == \
                mp.nstr(mp.mpf((man, -bits)), 30), (man, bits)
