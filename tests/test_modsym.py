import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import pytest

from mulab.arith import factorize
from mulab.elliptic import Curve
from mulab.errors import EigenspaceNotRational
from mulab.modsym import (
    EigenSymbol,
    build_manin_space,
    merel_matrices,
    rationalize,
    real_period,
)

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)


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


@pytest.fixture(scope="module")
def sp11():
    return build_manin_space(11)


def test_p1_size(sp11):
    assert len(sp11.p1) == 12  # ell + 1 at prime level


def test_cuspidal_dimension_vs_genus(sp11):
    assert sp11.cuspidal_dimension() == 2 * genus_x0(11) == 2
    assert build_manin_space(1).cuspidal_dimension() == 0
    for N in [14, 19, 26, 37]:
        assert build_manin_space(N).cuspidal_dimension() == 2 * genus_x0(N)


def test_manin_relations_hold(sp11):
    # x + xS = 0 and x + xU + xU^2 = 0 in the quotient, on all generators
    p1 = sp11.p1
    for i in range(len(p1)):
        c, d = p1.reps[i]
        xs = sp11.project(p1.index(d, -c))
        x = sp11.project(i)
        assert all(a + b == 0 for a, b in zip(x, xs))
        xu = sp11.project(p1.index(d, -c - d))
        xu2 = sp11.project(p1.index(-c - d, c))
        assert all(a + b + e == 0 for a, b, e in zip(x, xu, xu2))


def test_hecke_eigenvalues_11a(sp11):
    # T_2 has eigenvalue a_2(11a) = -2 on the eigensymbol; likewise T_3
    es = EigenSymbol(sp11, E11A1, 11)
    for ell in [2, 3, 7, 13]:
        A = sp11.hecke_matrix(ell)
        a = E11A1.ap(ell)
        # phi is a left eigenvector
        lhs = [sum(es.phi[i] * A[i][j] for i in range(sp11.dim))
               for j in range(sp11.dim)]
        assert lhs == [a * x for x in es.phi]


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
    v = sp11.path_vector(0, 1)
    w_val = -sum(p * x for p, x in zip(es.phi, v))
    assert w_val == -es.base_value


def test_denominator_bound_recorded(sp11):
    es = EigenSymbol(sp11, E11A1, 11)
    assert es.denominator_bound >= 1
    for x in es.phi:
        assert es.denominator_bound % Fraction(x).denominator == 0


def test_period_oracle_known_value():
    om = real_period(E11A1)
    with mp.workdps(40):
        known = mp.mpf("1.269209304279553421688794616754547305")
        assert abs(om - known) < mp.mpf("1e-30")


def test_rank_positive_rejected():
    # 37a1 has analytic rank 1: L(E,1) = 0 and normalization must refuse
    sp = build_manin_space(37)
    with pytest.raises(EigenspaceNotRational):
        EigenSymbol(sp, Curve(0, 0, 1, -1, 0), 37)


def test_rationalize_rejects_irrational():
    with mp.workdps(50):
        with pytest.raises(EigenspaceNotRational):
            rationalize(mp.sqrt(2))


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
    agm, quad = real_period(E), quadrature_period(E)
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
            v = sp.path_vector(a, m)
            expected = sum((x * y for x, y in zip(es.phi, v)), Fraction(0))
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
            v = sp.project(sp.p1.index(c1, d1))
            acc = [x + y for x, y in zip(acc, v)]
        cols.append(acc)
    return [[cols[j][i] for j in range(sp.dim)] for i in range(sp.dim)]


@pytest.mark.parametrize("N", [11, 58, 110])
def test_hecke_matrix_matches_projection_sum(N):
    sp = build_manin_space(N)
    for ell in (2, 3, 5, 7):
        A = sp.hecke_matrix(ell)
        assert A == hecke_by_projection(sp, ell), (N, ell)
        A[0][0] += 1  # a caller's edit must not reach the kept matrix
        assert sp.hecke_matrix(ell) == hecke_by_projection(sp, ell)
