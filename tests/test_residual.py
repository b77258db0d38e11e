import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from pathlib import Path

import pytest

from mulab import analysis, residual
from mulab.arith import (
    is_probable_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_sub,
    poly_xgcd,
)
from mulab.dirichlet import _exponent
from mulab.elliptic import Curve
from mulab.errors import (
    AmbiguousPair,
    BadReduction,
    FactorizationInconclusive,
    InvariantViolation,
    MuLabError,
    NoFrobeniusScalar,
)
from mulab.padic import val_int
from mulab.residual import (
    _kernel_stable,
    alignment_degree,
    character_search_modulus,
    classify_alignment,
    frobenius_scalar,
    is_kernel_polynomial,
    kernel_polynomials,
    search_characters,
    semisimplification,
    separating_prime,
    sturm_bound,
)
from test_dirichlet import (
    DirichletCharacter,
    character,
    enumerate_characters,
    exponents,
    inverse,
    is_odd,
    liftable_character,
    mod_p_cyclotomic,
    mul,
    trivial_character,
    value,
)
from test_ffield import factor, factor_squarefree

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)
E37A1 = Curve(0, 0, 1, -1, 0)


def kernels_of(E, p):
    """The kernels of `kernel_polynomials`, without the separating prime
    and the Frobenius eigenvalues returned with them."""
    return [k for k, _ in kernel_polynomials(E, p)[1]]


def good_a_table(E, conductor, bound=200):
    return {ell: E.ap(ell) for ell in range(2, bound + 1)
            if all(ell % t for t in range(2, ell))
            and conductor % ell != 0}


def test_kernel_counts():
    assert len(kernels_of(E11A1, 5)) == 2
    assert len(kernels_of(E11A2, 5)) == 1
    assert len(kernels_of(E11A3, 5)) == 1
    assert kernels_of(E37A1, 5) == []


def test_kernel_degrees_and_rational_line():
    for E in [E11A1, E11A2, E11A3]:
        for k in kernels_of(E, 5):
            assert len(k) - 1 == 2
    # the rational 5-torsion line of 11a3: x(P) = 0, x(2P) = 1
    (k,) = kernels_of(E11A3, 5)
    assert k == (Fraction(0), Fraction(-1), Fraction(1))


def test_frobenius_scalars_11a1():
    ks = kernels_of(E11A1, 5)
    chars = []
    for k in ks:
        scal = {ell: frobenius_scalar(E11A1, k, ell, 5)
                for ell in [2, 3, 7, 13, 17, 19, 23]}
        chars.append(identify_line_character(scal, 5, 11))
    search = search_characters(5, 11)
    conds = sorted(search.conductor(k) for k in chars)
    assert conds == [1, 5]
    # one line is chi-bar (scalar = ell mod 5), the other trivial
    assert search.chi_bar in chars
    # determinant: product of the two scalars is ell mod p
    for ell in [2, 3, 7, 13]:
        l1 = frobenius_scalar(E11A1, ks[0], ell, 5)
        l2 = frobenius_scalar(E11A1, ks[1], ell, 5)
        assert l1 * l2 % 5 == ell % 5


# -- the line character from Frobenius scalars alone: every character of
# -- the search modulus that fits them, the oracle of the one-scalar rule

def matching_line_characters(scalars: dict[int, int], p: int,
                             conductor: int) -> list[tuple[int, ...]]:
    """Every mod-p Dirichlet character matching Frobenius scalars at the
    tested good primes: the vectors k with <k, dlog(ell)> = dlog(lambda)
    mod p - 1."""
    chars = search_characters(p, conductor)
    targets = [(chars.log(ell), chars.logs.get(lam % p))
               for ell, lam in scalars.items()]
    if any(e is None for _, e in targets):
        return []
    return [k for k in chars.vectors
            if all(_exponent(k, log, p - 1) == e for log, e in targets)]


def identify_line_character(scalars: dict[int, int], p: int,
                            conductor: int) -> tuple[int, ...]:
    """The one mod-p Dirichlet character matching Frobenius scalars at
    the tested good primes."""
    hits = matching_line_characters(scalars, p, conductor)
    if len(hits) != 1:
        raise LookupError(f"{len(hits)} characters match the kernel "
                          "scalars, not one")
    return hits[0]


def six_scalar_line_character(E, k, p, conductor, ell_bound=200):
    """Six Frobenius scalars on the line cut out by k, then more while
    several characters of the search modulus still fit them."""
    scal = {}
    for ell in range(2, 4 * ell_bound):
        if conductor % ell == 0 or ell == p or not is_probable_prime(ell):
            continue
        try:
            scal[ell] = frobenius_scalar(E, k, ell, p)
        except (NoFrobeniusScalar, BadReduction):
            continue
        if len(scal) >= 6 and len(
                matching_line_characters(scal, p, conductor)) < 2:
            break
    return identify_line_character(scal, p, conductor)


def line_characters(E, p, conductor):
    out = []
    for k in kernels_of(E, p):
        scal = {}
        ell = 2
        while len(scal) < 6:
            if conductor % ell and ell != p and all(
                    ell % t for t in range(2, ell)):
                scal[ell] = frobenius_scalar(E, k, ell, p)
            ell += 1
        out.append(identify_line_character(scal, p, conductor))
    return out


def test_classification_11a():
    chars = search_characters(5, 11)
    for E, want in [(E11A1, "aligned"), (E11A2, "aligned"),
                    (E11A3, "skew")]:
        assert classify_alignment(line_characters(E, 5, 11), chars) == want


def test_semisimplification_11a():
    for E in [E11A1, E11A2, E11A3]:
        pair = semisimplification(good_a_table(E, 11), 5, 11, 200)
        assert pair is not None
        phi1, phi2 = pair
        chars = search_characters(5, 11)
        conds = sorted([chars.conductor(phi1), chars.conductor(phi2)])
        assert conds == [1, 5]
        nontriv = phi1 if chars.conductor(phi1) == 5 else phi2
        assert nontriv == chars.chi_bar
        # determinant check on output
        for ell in [2, 3, 7]:
            assert value(chars, phi1, ell) * value(chars, phi2, ell) % 5 \
                == ell % 5


def test_semisimplification_ambiguous_at_small_ell_bound():
    """With only ell = 2 tested, two character pairs fit 11a1."""
    with pytest.raises(AmbiguousPair, match="2 character pairs fit"):
        semisimplification(good_a_table(E11A1, 11), 5, 11, 2)


def test_semisimplification_irreducible():
    assert semisimplification(good_a_table(E37A1, 37), 5, 37, 200) is None


def test_sturm_bound():
    assert sturm_bound(11) == 3
    assert sturm_bound(37) == 7


def test_alignment_degree_11a():
    """Trace congruences mod 25 admit no liftable pair: the cyclic
    25-kernel character of the class carries an order-5 component of
    conductor 11, which chi_n^i alpha-tilde can never supply.  The
    recorded evidence degree is therefore 1, consistent with mu(11a1)=1."""
    a_table = good_a_table(E11A1, 11)
    chi = search_characters(5, 11).chi_bar
    n_max, evidence = alignment_degree(a_table, 5, 4, 11, chi, 200)
    assert n_max == 1
    assert evidence[0]["n"] == 1


# -- the matrix-model lattice transform of Prop. 3.3 ------------------------


class PrecisionLoss(MuLabError):
    """A lattice transform would shift below working precision."""


class NotReduciblyAligned(MuLabError):
    """A lower-left entry is a unit; the transform requires c = 0 mod p."""


@dataclass(frozen=True)
class ModPnRepresentation:
    """Generator images in GL_2(Z/p^n), labelled."""

    p: int
    n: int
    matrices: tuple[tuple[int, int, int, int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        mod = self.p**self.n
        mats = tuple(tuple(x % mod for x in m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        for a, b, c, d in mats:
            if (a * d - b * c) % self.p == 0:
                raise ValueError("generator image not invertible mod p")
        if not self.labels:
            object.__setattr__(
                self, "labels",
                tuple(f"g{i}" for i in range(len(mats))))

    def is_aligned_shape(self) -> bool:
        """Every lower-left entry divisible by p (the standard line is
        stable mod p)."""
        return all(c % self.p == 0 for _, _, c, _ in self.matrices)


def isogeny_transform(rep: ModPnRepresentation) -> ModPnRepresentation:
    """Conjugate by diag(p,1)^m1 with m1 = min valuation of the lower-left
    entries: (a, b, c, d) -> (a, p^m1 b, p^-m1 c, d) at level n - m1.

    The output has a unit lower-left entry (the transformed lattice is
    skew); trace and determinant per generator are unchanged mod the new
    level.
    """
    p, n = rep.p, rep.n
    m1 = min(val_int(c % p**n, p, n) for _, _, c, _ in rep.matrices)
    if m1 == 0:
        raise NotReduciblyAligned("a lower-left entry is already a unit")
    if m1 >= n:
        raise PrecisionLoss(
            f"min valuation {m1} >= working level {n}")
    new_n = n - m1
    mod = p**new_n
    mats = []
    for a, b, c, d in rep.matrices:
        mats.append((a % mod, b * p**m1 % mod,
                     (c % p**n) // p**m1 % mod, d % mod))
    out = ModPnRepresentation(p, new_n, tuple(mats), rep.labels)
    if out.is_aligned_shape():
        raise InvariantViolation(
            "the transformed lattice still has every lower-left entry "
            "divisible by p")
    return out


def test_isogeny_transform_example():
    rep = ModPnRepresentation(5, 2, ((1, 0, 5, 1),))
    out = isogeny_transform(rep)
    assert out.n == 1
    assert out.matrices == ((1, 0, 1, 1),)
    assert not out.is_aligned_shape()


def test_isogeny_transform_guards():
    with pytest.raises(PrecisionLoss):
        isogeny_transform(ModPnRepresentation(5, 2, ((1, 3, 0, 1),)))
    with pytest.raises(NotReduciblyAligned):
        isogeny_transform(ModPnRepresentation(5, 2, ((1, 0, 2, 1),)))


def test_isogeny_transform_random_property():
    """Prop-3.3 shape: over random aligned tuples the transform yields a
    skew tuple with a unit lower-left entry and preserved per-generator
    trace and determinant (at the output level)."""
    rng = random.Random(33)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5])
        n = rng.randint(2, 4)
        mod = p**n
        mats = []
        for _ in range(rng.randint(1, 3)):
            while True:
                a = rng.randrange(mod)
                d = rng.randrange(mod)
                b = rng.randrange(mod)
                c = p * rng.randrange(mod // p)
                if (a * d - b * c) % p != 0:
                    break
            mats.append((a, b, c, d))
        rep = ModPnRepresentation(p, n, tuple(mats))
        try:
            out = isogeny_transform(rep)
        except PrecisionLoss:
            continue
        checked += 1
        assert not out.is_aligned_shape()
        assert any(c % p != 0 for _, _, c, _ in out.matrices)
        newmod = p**out.n
        for (a, b, c, d), (a2, b2, c2, d2) in zip(rep.matrices,
                                                  out.matrices):
            assert (a + d - a2 - d2) % newmod == 0
            assert (a * d - b * c - (a2 * d2 - b2 * c2)) % newmod == 0


def test_kernel_stability_rejects_non_kernel_factor():
    """11a1 has exactly two rational 5-isogenies.  The duplication test
    accepts their kernel polynomials and rejects each with its constant
    term moved, and each times x."""
    ks = kernels_of(E11A1, 5)
    assert len(ks) == 2
    assert len(set(ks)) == 2
    for k in ks:
        H = primitive_integer(k)
        assert _kernel_stable(E11A1, H)
        assert not _kernel_stable(E11A1, [H[0] + H[-1]] + H[1:])
        assert not _kernel_stable(E11A1, [0] + H)


def test_kernel_stable_on_its_own(monkeypatch):
    """x on 37a1 is refused: its root is the abscissa of (0, 0), a point
    of infinite order, and x(2 (0, 0)) = 1.  11a1's two computed
    5-kernels, in primitive form, pass it and `is_kernel_polynomial`,
    which refuses both once the duplication test refuses them."""
    assert not _kernel_stable(E37A1, [0, 1])
    kernels = ([-29, 5, 5], [80, -21, 1])
    assert sorted(map(primitive_integer, kernels_of(E11A1, 5))) == \
        sorted(kernels)
    for H in kernels:
        assert _kernel_stable(E11A1, H)
        assert is_kernel_polynomial(E11A1, 5, H)
    monkeypatch.setattr(residual, "_kernel_stable", lambda E, H: False)
    assert not any(is_kernel_polynomial(E11A1, 5, H) for H in kernels)


def test_zassenhaus_checks_factor_degrees():
    """A factorization mod q that drops a factor is an internal fault of
    the Zassenhaus oracle: InvariantViolation."""
    def dropping(f, ell, rng, max_degree):
        small, rest = factor_squarefree(f, ell, rng, max_degree)
        return small[1:], rest

    with pytest.raises(InvariantViolation, match="degree"):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2,
                                factor_mod_q=dropping)


def _hensel_steps(f, g, h, q, k_target):
    """Lift f = g*h (mod q) towards mod q^k_target, f and g, h monic,
    yielding (G, H, q^j) after each step; f = G*H mod q^k_target is
    checked before the last one.  The cofactor lift `residual._lift_factor`
    ran before it lifted g alone by Newton iteration.

    Quadratic Hensel steps (von zur Gathen and Gerhard, Modern Computer
    Algebra, Alg. 15.10) carry g, h and the Bezout pair s*g + t*h = 1
    from mod q^j to mod q^min(2j, k_target)."""
    one, s, t = poly_xgcd(g, h, q)
    if one != [1]:
        raise InvariantViolation(
            f"Hensel factors are not coprime mod {q}")
    G, H = [c % q for c in g], [c % q for c in h]
    j = 1
    while j < k_target:
        j = min(2 * j, k_target)
        m = q**j
        e = poly_sub(f, poly_mul(G, H), m)
        # G += t*e + quo(s*e, H)*G and H += rem(s*e, H), both monic
        quo, rem = poly_divmod(poly_mul(s, e, m), H, m)
        G = poly_add(G, poly_add(poly_mul(t, e, m), poly_mul(quo, G, m)),
                     m)
        H = poly_add(H, rem, m)
        if j < k_target:
            b = poly_sub(poly_add(poly_mul(s, G, m), poly_mul(t, H, m)),
                         [1], m)
            c, d = poly_divmod(poly_mul(s, b, m), H, m)
            s = poly_sub(s, d, m)
            t = poly_sub(t, poly_add(poly_mul(t, b, m), poly_mul(c, G, m)),
                         m)
            yield G, H, m
    if poly_sub(f, poly_mul(G, H), q**k_target):
        raise InvariantViolation(
            f"Hensel lift does not factor f mod {q}^{k_target}")
    yield G, H, q**k_target


def _hensel_pair(f, g, h, q, k_target):
    """Lift f = g*h (mod q) to mod q^k_target, f and g, h monic: the last
    step of `_hensel_steps`."""
    for G, H, _ in _hensel_steps(f, g, h, q, k_target):
        pass
    return G, H


def test_hensel_lift_needs_coprime_factors():
    with pytest.raises(InvariantViolation, match="coprime"):
        _hensel_pair([1, 2, 1], [1, 1], [1, 1], 7, 3)


def test_hensel_lift_checks_the_lifted_product():
    """f = x^2 + 5 is not (x + 1)(x + 2) mod 7, so no lift factors it."""
    with pytest.raises(InvariantViolation, match="does not factor"):
        _hensel_pair([5, 0, 1], [1, 1], [2, 1], 7, 4)


def test_is_kernel_polynomial_checks_degree_division_and_stability():
    """11a1's two kernels pass at p = 5.  Their product divides psi_5 and
    its roots are closed under duplication, so only its degree refuses
    it.  On y^2 + y = x^3, psi_3 = 3x(x + 1)(x^2 - x + 1): x^2 + x has the
    3-torsion abscissas 0 and -1 as roots, each fixed by duplication
    (2P = -P), so only the division of psi_5 refuses it, while x cuts
    out the rational 3-torsion line at p = 3.  A zero leading
    coefficient is refused."""
    k1, k2 = kernels_of(E11A1, 5)
    assert is_kernel_polynomial(E11A1, 5, k1)
    assert is_kernel_polynomial(E11A1, 5, k2)
    prod = residual._primitive([int(5 * c) for c in poly_mul(k1, k2)])
    assert residual._kernel_stable(E11A1, prod)
    assert residual._divides(prod, E11A1.division_polynomial(5))
    assert not is_kernel_polynomial(E11A1, 5, prod)
    E27 = Curve(0, 0, 1, 0, 0)
    assert residual._kernel_stable(E27, [0, 1, 1])
    assert not residual._divides([0, 1, 1], E27.division_polynomial(5))
    assert not is_kernel_polynomial(E27, 5, (0, 1, 1))
    assert is_kernel_polynomial(E27, 3, (0, 1))
    assert not is_kernel_polynomial(E11A1, 5, (1, 1, 0))


def test_frobenius_scalar_refuses_ell_in_a_denominator():
    with pytest.raises(NoFrobeniusScalar, match="denominator"):
        frobenius_scalar(E11A1, (Fraction(1, 3), Fraction(0), Fraction(1)),
                         3, 5)


# -- the paths the prefiltered alignment search and the quadratic Hensel
# -- lift replaced ----------------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_report.json"


def alignment_degree_by_full_search(a_table, p, N, conductor, phi1,
                                    ell_bound, k_weight=2):
    """The search that builds every liftable character chi_n^i * alpha
    before it checks that the character reduces to phi1."""
    good_ells = [ell for ell in sorted(a_table)
                 if ell <= ell_bound and conductor % ell and ell != p]
    M = character_search_modulus(p, conductor)
    alphas = enumerate_characters(M, p - 1, p, 1)
    evidence = [{"n": 1, "witness": "mod-p alignment established"}]
    n_max = 1
    for n in range(2, N + 1):
        found = None
        for alpha in alphas:
            for i in range((p - 1) * p**(n - 1)):
                phi1n = liftable_character(i, alpha, n)
                if not phi1n.reduce_precision(1).agrees_with(phi1):
                    continue
                if not is_odd(phi1n):
                    continue
                psi_n = liftable_character(k_weight - 1,
                                           trivial_character(p, 1), n)
                phi2n = mul(psi_n, inverse(phi1n))
                if all((phi1n(ell) + phi2n(ell) - a_table[ell]) % p**n == 0
                       for ell in good_ells):
                    found = (i, alpha)
                    break
            if found:
                break
        if not found:
            break
        n_max = n
        evidence.append({
            "n": n,
            "witness": f"chi_n^{found[0]} * alpha"
                       f"(conductor {found[1].conductor()})"})
    return n_max, evidence


def _aligned_corpus_records():
    golden = {rep["label"]: rep for rep in json.loads(GOLDEN.read_text())}
    records = json.loads((DATA / "corpus_reducible.json").read_text())
    return [(rec, golden[rec["label"]]["p"]) for rec in records
            if golden[rec["label"]].get("classification") == "aligned"]


@pytest.mark.parametrize("rec,p", _aligned_corpus_records(),
                         ids=lambda v: v["label"] if isinstance(v, dict)
                         else str(v))
def test_alignment_degree_matches_full_search_on_corpus(rec, p):
    """Every odd candidate phi1 with p in its conductor, at N = 6."""
    N_cond = rec["conductor"]
    a_table = good_a_table(Curve(*rec["ainvs"]), N_cond)
    chars = search_characters(p, N_cond)
    phis = [k for k in chars.vectors
            if chars.is_odd(k) and chars.conductor(k) % p == 0]
    assert phis
    for phi1 in phis:
        assert alignment_degree(a_table, p, 6, N_cond, phi1, 200) == \
            alignment_degree_by_full_search(a_table, p, 6, N_cond,
                                            character(chars, phi1), 200)


def test_alignment_degree_matches_full_search_on_seeded_tables():
    """a_ell tables that are trace congruences of a liftable pair mod p^n0
    (plus noise above p^n0), so that witnesses exist up to n0."""
    rng = random.Random(15)
    deep = 0
    for _ in range(24):
        p = rng.choice([3, 3, 5, 5, 7])
        conductor = rng.choice([c for c in (11, 14, 26, 38) if c % p])
        n0 = rng.randint(1, {3: 3, 5: 2, 7: 1}[p])
        alpha = rng.choice(enumerate_characters(
            character_search_modulus(p, conductor), p - 1, p, 1))
        i = rng.randrange((p - 1) * p**(n0 - 1))
        phi1n = liftable_character(i, alpha, n0)
        phi2n = mul(liftable_character(1, trivial_character(p, 1), n0),
                    inverse(phi1n))
        a_table = {ell: (phi1n(ell) + phi2n(ell)) % p**n0
                   + p**n0 * rng.randint(-3, 3)
                   for ell in range(2, 80)
                   if is_probable_prime(ell) and conductor % ell
                   and ell != p}
        phi1 = liftable_character(i % (p - 1), alpha, 1)
        got = alignment_degree(
            a_table, p, n0 + 1, conductor,
            exponents(search_characters(p, conductor), phi1), 80)
        assert got == alignment_degree_by_full_search(
            a_table, p, n0 + 1, conductor, phi1, 80)
        if is_odd(phi1n):
            assert got[0] >= n0
        deep += got[0] >= 2
    assert deep >= 3


def hensel_pair_linear(f, g, h, q, k_target):
    """Lift f = g*h (mod q) to mod q^k_target one power of q at a time."""
    _, _, t = poly_xgcd(g, h, q)
    G, H = [c % q for c in g], [c % q for c in h]
    mod = q
    while mod < q**k_target:
        newmod = mod * q
        e = [(c // mod) % q for c in poly_sub(f, poly_mul(G, H))]
        dg = poly_divmod(poly_mul(t, e, q), G, q)[1]
        dh, r = poly_divmod(poly_sub(e, poly_mul(dg, H, q), q), G, q)
        assert not r
        G = poly_add(G, [mod * c for c in dg], newmod)
        H = poly_add(H, [mod * c for c in dh], newmod)
        mod = newmod
    return G, H


def test_quadratic_hensel_matches_linear_lifting():
    rng = random.Random(10)
    checked = 0
    while checked < 60:
        q = rng.choice([7, 11, 13, 101])
        g = [rng.randrange(q) for _ in range(rng.randint(1, 4))] + [1]
        h = [rng.randrange(q) for _ in range(rng.randint(1, 5))] + [1]
        if poly_gcd(g, h, q) != [1]:
            continue
        gh = poly_mul(g, h)
        f = poly_add(gh, [q * rng.randint(-40, 40)
                          for _ in range(len(gh) - 1)])
        k = rng.randint(1, 20)
        G, H = _hensel_pair(f, g, h, q, k)
        assert (G, H) == hensel_pair_linear(f, g, h, q, k)
        assert not poly_sub(f, poly_mul(G, H), q**k)
        checked += 1


# -- Frobenius scalars from division polynomials, against the scalars the
# -- point-lifting implementation (a point over F_ell[x]/(g) or a quadratic
# -- extension, multiplied out by the group law) recorded -----------------

FROBENIUS_FIXTURE = Path(__file__).parent / "golden" / "frobenius_scalars.json"


def test_frobenius_scalars_match_the_point_lifting_fixture():
    """The corpus, 11a1/2/3, [-8,0,1,0,0] (N = 77) and Tate normal forms
    with a rational point of order p = 3, 5, 7 at t = -6..6: every
    kernel, every good ell < 200.  The scalar agrees wherever the point
    lift gave one, and it is refused exactly at ell = 2 with
    a_2 = 0 mod p, where x cannot tell lambda from -lambda."""
    refused = []
    for rec in json.loads(FROBENIUS_FIXTURE.read_text()):
        E, p = Curve(*rec["ainvs"]), rec["p"]
        for kernel, scalars in zip(rec["kernels"], rec["scalars"]):
            k = tuple(Fraction(c) for c in kernel)
            for ell, want in scalars.items():
                ell = int(ell)
                if ell == 2 and E.ap(2) % p == 0:
                    with pytest.raises(NoFrobeniusScalar, match="2 roots"):
                        frobenius_scalar(E, k, ell, p)
                    refused.append((rec["label"], want))
                else:
                    assert frobenius_scalar(E, k, ell, p) == want, \
                        (rec["label"], kernel, ell)
    # at ell = 2 the point lift found lambda or -lambda: both are roots
    assert len(refused) == 12


def test_frobenius_scalar_known_answers():
    """11a3's rational 5-torsion line has scalar 1; 11a1's mu_5 line has
    scalar ell mod 5; the two lines of 11a1 multiply to ell mod 5."""
    (k3,) = kernels_of(E11A3, 5)
    ks = kernels_of(E11A1, 5)
    for ell in [2, 3, 7, 13, 17, 19, 23, 29, 31, 97, 101]:
        assert frobenius_scalar(E11A3, k3, ell, 5) == 1
        l1, l2 = (frobenius_scalar(E11A1, k, ell, 5) for k in ks)
        assert ell % 5 in (l1, l2)
        assert l1 * l2 % 5 == ell % 5


def test_frobenius_scalar_refuses_a_non_divisor_of_psi_p():
    """A supplied kernel polynomial that does not divide psi_p mod ell
    cuts out no p-torsion, so no scalar is read from it."""
    h = (Fraction(1), Fraction(0), Fraction(1))  # x^2 + 1
    for ell in (3, 7, 13):
        assert poly_divmod(E11A1.division_polynomial(5), [1, 0, 1], ell)[1]
        with pytest.raises(NoFrobeniusScalar, match="psi_p"):
            frobenius_scalar(E11A1, h, ell, 5)


def test_frobenius_scalar_refuses_a_degenerate_kernel_polynomial():
    """A leading coefficient divisible by ell, or a constant."""
    (k3,) = kernels_of(E11A3, 5)
    for h in ((Fraction(0), Fraction(-1), Fraction(7)), (Fraction(1),)):
        with pytest.raises(NoFrobeniusScalar, match="degenerates"):
            frobenius_scalar(E11A3, h, 7, 5)
    with pytest.raises(BadReduction):
        frobenius_scalar(E11A3, k3, 11, 5)
    with pytest.raises(ValueError, match="differ"):
        frobenius_scalar(E11A3, k3, 5, 5)


# -- the Zassenhaus factorization that kernel_polynomials ran before it cut
# -- the kernel lines out by a Frobenius eigenvalue: factor psi_p mod q up
# -- to degree (p-1)/2, Hensel-lift along a factor tree, recombine --------


def _content(poly):
    g = 0
    for c in poly:
        g = gcd(g, abs(c))
    return max(g, 1)


def _monicize(poly):
    """F(x) = lc^(deg-1) * f(x/lc): monic integer polynomial whose roots
    are lc times the roots of f."""
    lc = poly[-1]
    deg = len(poly) - 1
    return [c * lc**(deg - 1 - i) for i, c in enumerate(poly[:-1])] + [1], lc


def _mignotte_bound(F, d):
    """Bound on coefficients of a monic degree-d factor of monic F."""
    norm2 = isqrt(sum(c * c for c in F)) + 1
    return 2**d * norm2


def _hensel_tree(f, factors, q, k_target):
    """Lift a pairwise-coprime monic factorization of monic f mod q to
    mod q^k_target."""
    if len(factors) == 1:
        m = q**k_target
        return [[c % m for c in f]]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = poly_mul(g, fac, q)
    h = [1]
    for fac in factors[half:]:
        h = poly_mul(h, fac, q)
    G, H = _hensel_pair(f, g, h, q, k_target)
    return (_hensel_tree(G, factors[:half], q, k_target)
            + _hensel_tree(H, factors[half:], q, k_target))


def _center(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_prime(F, lc):
    q = 5
    while True:
        q += 2
        if not is_probable_prime(q) or lc % q == 0:
            continue
        if len(poly_gcd(F, poly_deriv(F, q), q)) == 1:
            return q


def _recombine(F, lifted, d, m, max_subsets):
    """Every monic factor of F of degree d that is a product of lifted
    factors mod m."""
    out = []
    seen = set()
    count = 0

    def rec(start, remaining, current):
        nonlocal count
        if remaining == 0:
            count += 1
            if count > max_subsets:
                raise FactorizationInconclusive(
                    f"recombination exceeded {max_subsets} subsets")
            prod = [1]
            for i in current:
                prod = poly_mul(prod, lifted[i], m)
            H = [_center(c, m) for c in prod]
            if tuple(H) not in seen:
                seen.add(tuple(H))
                if not divmod_q(F, H)[1]:
                    out.append(H)
            return
        for i in range(start, len(lifted)):
            dd = len(lifted[i]) - 1
            if dd <= remaining:
                rec(i + 1, remaining - dd, current + [i])

    rec(0, d, [])
    return out


def monic_factors_of_degree(poly, d, max_subsets=1 << 16,
                            factor_mod_q=factor_squarefree):
    """All monic integer factors of the given degree of the monicized
    polynomial, by Zassenhaus recombination.  Only the factors mod q of
    degree <= d are split out; the product of the others is lifted as
    one block and left out of the recombination."""
    prim = [c // _content(poly) for c in poly]
    F, lc = _monicize(prim)
    q = _zassenhaus_prime(F, lc)
    fac, rest = factor_mod_q(F, q, random.Random(1234567), d)
    if sum(len(g) - 1 for g in fac + [rest]) != len(F) - 1:
        raise InvariantViolation(
            f"factors mod {q} do not account for the degree "
            f"{len(F) - 1} of the monicized polynomial")
    k = 1
    while q**k < 2 * _mignotte_bound(F, d) + 1:
        k += 1
    blocks = fac + [rest] if len(rest) > 1 else fac
    lifted = _hensel_tree(F, blocks, q, k)[:len(fac)]
    return _recombine(F, lifted, d, q**k, max_subsets), lc


def monic_factors_by_full_factorization(poly, d, max_subsets=1 << 16):
    """The same with every factor mod q split out, lifted and offered to
    the recombination."""
    prim = [c // _content(poly) for c in poly]
    F, lc = _monicize(prim)
    q = _zassenhaus_prime(F, lc)
    fac = [g for g, m in factor(F, q, random.Random(1234567))
           for _ in range(m)]
    k = 1
    while q**k < 2 * _mignotte_bound(F, d) + 1:
        k += 1
    lifted = _hensel_tree(F, fac, q, k)
    return _recombine(F, lifted, d, q**k, max_subsets), lc


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def divmod_q(a, b):
    """(q, r) with a = q b + r and deg r < deg b, exactly over Q (in
    integers when b's leading coefficient is +-1 and a is integral)."""
    r, b = _trim(a), _trim(b)
    inv = b[-1] if b[-1] in (1, -1) else 1 / Fraction(b[-1])
    q = [0] * max(len(r) - len(b) + 1, 0)
    for d in range(len(q) - 1, -1, -1):
        q[d] = c = r[d + len(b) - 1] * inv
        for i, x in enumerate(b):
            r[d + i] -= c * x
    return _trim(q), _trim(r[:len(b) - 1])


def inverse_mod_q(a, h):
    """a^-1 mod h over Q, by the extended Euclid algorithm with
    s_i a = r_i mod h; None when gcd(a, h) != 1."""
    r0, r1, s0, s1 = _trim(h), divmod_q(a, h)[1], [], [1]
    while r1:
        q, r = divmod_q(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, poly_sub(s0, poly_mul(q, s1))
    if len(r0) != 1:
        return None
    return [Fraction(c) / r0[0] for c in s0]


def kernel_stable_in_q(E, h) -> bool:
    """The roots of the monic rational h closed under duplication, by
    inverting den mod h and Horner in Q[x]/(h)."""
    num, den = E.duplication_x()
    den_inv = inverse_mod_q(den, h)
    if den_inv is None:
        return False
    x2 = divmod_q(poly_mul(num, den_inv), h)[1]
    acc = []
    for c in reversed(h):
        acc = divmod_q(poly_add(poly_mul(acc, x2), [c]), h)[1]
    return acc == []


def primitive_integer(h):
    """The primitive integer multiple of a rational polynomial."""
    den = 1
    for c in h:
        den = den * Fraction(c).denominator // gcd(den,
                                                   Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in h]
    g = _content(ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def zassenhaus_candidates(E, p, factors=monic_factors_of_degree):
    """Every monic rational factor of degree (p-1)/2 of psi_p."""
    d = (p - 1) // 2
    Hs, lc = factors(E.division_polynomial(p), d)
    return [poly_monic([Fraction(c * lc**i, lc**d) for i, c in enumerate(H)])
            for H in Hs]


def kernel_polynomials_by_zassenhaus(E, p,
                                     factors=monic_factors_of_degree):
    """The kernels among the Zassenhaus factors, by the Q[x]/(h) test."""
    return sorted({tuple(h) for h in zassenhaus_candidates(E, p, factors)
                   if kernel_stable_in_q(E, h)})


def test_recombination_bound_raises():
    with pytest.raises(FactorizationInconclusive):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2,
                                max_subsets=0)


def test_kernels_match_the_full_factorization():
    """The corpus, 11a1/2/3, [-8,0,1,0,0] (N = 77) and the Tate normal
    forms with a rational point of order p = 3, 5, 7 of the Frobenius
    fixture: the Zassenhaus oracle finds the same degree-(p-1)/2 factors
    as when every factor mod q is split out and recombined, and
    kernel_polynomials the same kernels as either."""
    for rec in json.loads(FROBENIUS_FIXTURE.read_text()):
        E, p = Curve(*rec["ainvs"]), rec["p"]
        psi = E.division_polynomial(p)
        got, lc = monic_factors_of_degree(psi, (p - 1) // 2)
        want, lc2 = monic_factors_by_full_factorization(psi, (p - 1) // 2)
        assert (sorted(got), lc) == (sorted(want), lc2), rec["label"]
        assert kernels_of(E, p) == kernel_polynomials_by_zassenhaus(
            E, p, monic_factors_by_full_factorization), rec["label"]


def differential_pairs():
    """98 (curve, p): the 51 distinct pairs of the corpus and the
    Frobenius fixture, 121b1 at p = 11 (a rational 11-isogeny), and 46
    seeded random models at p = 3, 5, 7, mostly irreducible."""
    records = json.loads(FROBENIUS_FIXTURE.read_text())
    pairs = []
    for rec in records:
        pair = (tuple(rec["ainvs"]), rec["p"])
        if pair not in pairs:
            pairs.append(pair)
    pairs.append(((0, -1, 1, -7, 10), 11))
    rng = random.Random(98)
    while len(pairs) < 98:
        ainvs = tuple(rng.randint(-6, 6) for _ in range(5))
        try:
            E = Curve(*ainvs)
        except MuLabError:
            continue
        if abs(E.discriminant) < 10**9:
            pairs.append((ainvs, (3, 5, 7)[len(pairs) % 3]))
    return pairs


def test_kernels_match_the_zassenhaus_oracle():
    """On the 98 pairs: the same kernel polynomials as the Zassenhaus
    factorization.  On every degree-(p-1)/2 factor it offers, on that
    factor with its constant term moved, on its square and on its product
    with x, the duplication test in Z[x] agrees with the one in
    Q[x]/(h)."""
    pairs = differential_pairs()
    assert len(pairs) == 98
    rng = random.Random(7)
    kinds = {"kernel": 0, "none": 0, "stable": 0, "unstable": 0}
    for ainvs, p in pairs:
        E = Curve(*ainvs)
        got = kernels_of(E, p)
        assert got == kernel_polynomials_by_zassenhaus(E, p), (ainvs, p)
        kinds["kernel" if got else "none"] += 1
        for h in zassenhaus_candidates(E, p):
            moved = [h[0] + rng.randint(1, 9)] + list(h[1:])
            for cand in (h, moved, poly_mul(h, h), poly_mul(h, [0, 1])):
                stable = kernel_stable_in_q(E, cand)
                assert _kernel_stable(E, primitive_integer(cand)) == stable
                kinds["stable" if stable else "unstable"] += 1
    assert min(kinds.values()) >= 1, kinds
    assert kinds["none"] >= 40, kinds


def test_121b1_has_one_rational_11_isogeny():
    (k,) = kernels_of(Curve(0, -1, 1, -7, 10), 11)
    assert len(k) - 1 == 5


def test_no_frobenius_root_means_no_kernel():
    """11a1 at p = 7: X^2 - a_3 X + 3 = X^2 + X + 3 has no root mod 7,
    so no line of E[7] is Frob_3-stable and there is no kernel, as the
    Zassenhaus oracle finds too."""
    assert separating_prime(E11A1, 7) == (3, [])
    assert kernels_of(E11A1, 7) == []
    assert kernel_polynomials_by_zassenhaus(E11A1, 7) == []


def test_separating_prime_skips_double_roots():
    """Among the 98 pairs, some q before the chosen one has a double root
    of X^2 - a_q X + q mod p, and the chosen q is the least odd good
    prime with none."""
    skipped = 0
    for ainvs, p in differential_pairs():
        E = Curve(*ainvs)
        f = residual._primitive(E.division_polynomial(p))
        q, roots = separating_prime(E, p)
        assert len(roots) != 1
        for r in range(3, q, 2):
            if r == p or not is_probable_prime(r) \
                    or E.discriminant % r == 0:
                continue
            n_roots = sum((lam * lam - E.ap(r) * lam + r) % p == 0
                          for lam in range(1, p))
            assert n_roots == 1 or len(
                poly_gcd(f, poly_deriv(f, r), r)) > 1, (ainvs, p, r)
            skipped += n_roots == 1
    assert skipped >= 1


def test_exhausted_separating_prime_search_raises(monkeypatch):
    from mulab import residual

    monkeypatch.setattr(residual, "SEPARATING_PRIME_LIMIT", 3)
    with pytest.raises(FactorizationInconclusive, match="separates"):
        kernel_polynomials(E11A1, 5)


def test_lift_factor_rejects_a_line_with_no_rational_factor():
    """n26-3 at p = 7: of the two eigenlines of its separating prime only
    one lifts to a factor of psi_7 over Z; the other is rejected at the
    full root bound."""
    from mulab import residual

    E = Curve(1, -1, 1, -3, 3)
    f = residual._primitive(E.division_polynomial(7))
    q, roots = separating_prime(E, 7)
    assert len(roots) == 2
    fbar = poly_monic(f, q)
    test = residual._EigenTest(E, q, fbar)
    lifted = []
    for lam in roots:
        g = poly_gcd(poly_gcd(fbar, test.x_residue(lam, 7), q),
                     test.y_residue(lam, 7), q)
        assert len(g) - 1 == 3
        lifted.append(residual._lift_factor(f, g, q))
    assert sum(H is None for H in lifted) == 1


def test_kernel_polynomials_take_one_x_test_per_l(monkeypatch):
    """Roots lam and p - lam share Elkies' x-identity, so on the corpus
    kernel_polynomials computes it once per l = min(lam, p - lam): once
    for the two roots at p = 3."""
    from mulab import residual

    calls = []
    x_residue = residual._EigenTest.x_residue

    def counting(self, lam, p):
        calls.append(min(lam, p - lam))
        return x_residue(self, lam, p)

    monkeypatch.setattr(residual._EigenTest, "x_residue", counting)
    shared = 0
    for rec in json.loads((DATA / "corpus_reducible.json").read_text()):
        E, p = Curve(*rec["ainvs"]), rec["p"]
        _, roots = separating_prime(E, p)
        calls.clear()
        kernel_polynomials(E, p)
        ls = sorted({min(lam, p - lam) for lam in roots})
        assert sorted(calls) == ls, (rec["label"], roots)
        shared += len(roots) == 2 and len(ls) == 1
    assert shared >= 10


# -- the cofactor lift and the Mignotte bound that _lift_factor replaced ----


def _quadratic_lift(f, g, q, k):
    """The primitive integer factor of f that is g mod q, or None, by
    lifting g with its cofactor to mod q^k (`_hensel_steps`) and trying
    the centred candidate after each step."""
    lc = f[-1]
    inv = pow(lc, -1, q**k)
    monic = [c * inv % q**k for c in f]
    cofactor = poly_divmod(poly_monic(f, q), g, q)[0]
    for G, _, m in _hensel_steps(monic, g, cofactor, q, k):
        cand = residual._primitive([_center(lc * c, m) for c in G])
        if poly_monic(cand, q) == g and residual._divides(cand, f):
            return cand
    return None


def _precision(q, bound):
    """The least k with q^k > 2 bound."""
    k = 1
    while q**k < 2 * bound + 1:
        k += 1
    return k


def quadratic_lift_factor(f, g, q):
    """_lift_factor by quadratic Hensel steps on g and its cofactor, to
    the same root bound."""
    d, R = len(g) - 1, residual._root_bound(f)
    bound = abs(f[-1]) * max(comb(d, j) * R**j for j in range(d + 1))
    return _quadratic_lift(f, g, q, _precision(q, bound))


def mignotte_lift_factor(f, g, q):
    """_lift_factor with the lc-scaled Mignotte bound: a factor g' of f
    of degree d has |lc(f)/lc(g') g'| <= 2^d |f|_2."""
    d = len(g) - 1
    bound = abs(f[-1]) * 2**d * (isqrt(sum(c * c for c in f)) + 1)
    return _quadratic_lift(f, g, q, _precision(q, bound))


def eigenline_factors(E, p):
    """(f, q, [g, ...]): the primitive psi_p, its separating prime and
    the eigenline factors mod q that kernel_polynomials lifts."""
    f = residual._primitive(E.division_polynomial(p))
    q, roots = separating_prime(E, p)
    fbar = poly_monic(f, q)
    test = residual._EigenTest(E, q, fbar)
    return f, q, [poly_gcd(poly_gcd(fbar, test.x_residue(lam, p), q),
                           test.y_residue(lam, p), q) for lam in roots]


def test_root_bound_lift_matches_the_mignotte_lift():
    """On the corpus, the 11a curves at p = 5 and the reducible curves of
    frobenius_scalars.json, the root-bound lift returns what the
    Mignotte lift returns for every eigenline, accepted or rejected."""
    cases = [(rec["ainvs"], rec["p"]) for rec in
             json.loads((DATA / "corpus_reducible.json").read_text())]
    cases += [(rec["ainvs"], 5) for rec in
              json.loads((DATA / "curves_11a.json").read_text())]
    cases += [(rec["ainvs"], rec["p"]) for rec in
              json.loads(FROBENIUS_FIXTURE.read_text()) if rec["kernels"]]
    outcomes = []
    for ainvs, p in cases:
        f, q, factors = eigenline_factors(Curve(*ainvs), p)
        for g in factors:
            H = residual._lift_factor(f, g, q)
            assert H == mignotte_lift_factor(f, g, q), (ainvs, p, g)
            outcomes.append(H is None)
    assert len(cases) > 40 and True in outcomes and False in outcomes


def _curve_lift_cases():
    """(ainvs, p): the corpus at each record's p, and the curves of
    frobenius_scalars.json and curves_11a.json at p = 3, 5 and 7."""
    cases = [(tuple(rec["ainvs"]), rec["p"]) for rec in
             json.loads((DATA / "corpus_reducible.json").read_text())]
    for rec in (json.loads(FROBENIUS_FIXTURE.read_text())
                + json.loads((DATA / "curves_11a.json").read_text())):
        for p in (3, 5, 7):
            if (tuple(rec["ainvs"]), p) not in cases:
                cases.append((tuple(rec["ainvs"]), p))
    return cases


def test_newton_lift_matches_the_quadratic_lift_on_curves():
    """Every eigenline of every case of `_curve_lift_cases`: the Newton
    lift returns what the cofactor lift returns, accepted or rejected."""
    outcomes = []
    for ainvs, p in _curve_lift_cases():
        f, q, factors = eigenline_factors(Curve(*ainvs), p)
        for g in factors:
            H = residual._lift_factor(f, g, q)
            assert H == quadratic_lift_factor(f, g, q), (ainvs, p, g)
            outcomes.append(H is None)
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40


def _seeded_lift_case(rng):
    """(f, g, q, H): f = H h, primitive, of degree up to 84 (84, the
    degree of psi_13, a quarter of the time), g = H mod q made monic and
    f squarefree mod q.  Half of the time q times noise is added below
    the leading term, so that f = H h only mod q, and H is None: the lift
    is then only compared with the oracle."""
    while True:
        d = rng.randint(1, 6)
        e = (84 if rng.random() < 0.25 else rng.randint(d + 1, 84)) - d
        H0 = [rng.randint(-40, 40) for _ in range(d)] + [rng.randint(1, 9)]
        h = [rng.randint(-40, 40) for _ in range(e)] + [rng.randint(1, 9)]
        q = rng.choice([3, 5, 7, 11, 13, 101])
        f = poly_mul(H0, h)
        noisy = rng.random() < 0.5
        if noisy:
            f = [c + q * rng.randint(-5, 5) for c in f[:-1]] + [f[-1]]
        f = residual._primitive(f)
        if f[-1] % q == 0 or H0[-1] % q == 0:
            continue
        g = poly_monic(H0, q)
        fbar = poly_monic(f, q)
        if poly_divmod(fbar, g, q)[1] or \
                len(poly_gcd(fbar, poly_deriv(fbar, q), q)) > 1:
            continue
        return f, g, q, None if noisy else residual._primitive(H0)


def test_newton_lift_matches_the_quadratic_lift_on_seeded_products():
    """f = H h up to degree 84, and the same with noise times q added:
    the Newton lift returns what the cofactor lift returns, which is
    primitive(H) on an exact product."""
    rng = random.Random(33)
    outcomes = []
    for _ in range(60):
        f, g, q, want = _seeded_lift_case(rng)
        got = residual._lift_factor(f, g, q)
        assert got == quadratic_lift_factor(f, g, q), (f, g, q)
        if want is not None:
            assert got == want
        outcomes.append((got is None, len(f) - 1))
    assert sum(none for none, _ in outcomes) >= 15
    assert sum(not none for none, _ in outcomes) >= 15
    assert max(deg for _, deg in outcomes) == 84


def test_newton_lift_checks_its_preconditions_and_its_lift():
    """g = x + 1 does not divide x^2 + 5 mod 7, so the lift cannot make
    it divide f mod 7^k: the closing check raises.  (x + 1)^2 is not
    squarefree mod 7, so f' has no inverse mod (g, 7)."""
    with pytest.raises(InvariantViolation, match="does not divide"):
        residual._lift_factor([5, 0, 1], [1, 1], 7)
    with pytest.raises(InvariantViolation, match="not squarefree"):
        residual._lift_factor([1, 2, 1], [1, 1], 7)


def test_root_bound_exceeds_every_root():
    """On products of integer linear factors: every root is below R in
    absolute value, and R is the first power of two that satisfies the
    defining inequality."""
    rng = random.Random(9)
    for _ in range(200):
        f = [rng.choice((-3, -1, 1, 2))]
        roots = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))]
        for r in roots:
            f = poly_mul(f, [-r, 1])
        R = residual._root_bound(f)
        assert all(abs(r) < R for r in roots)
        assert R & (R - 1) == 0
        if R > 1:
            mags = [abs(c) for c in f]
            assert mags[-1] * (R // 2)**(len(f) - 1) <= sum(
                c * (R // 2)**i for i, c in enumerate(mags[:-1]))


def test_kernel_polynomials_draw_no_random_numbers(monkeypatch):
    """Across the corpus no Cantor-Zassenhaus split runs: nothing draws
    from a random generator."""
    def refuse(self, *args):
        raise AssertionError("a random draw")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    for rec in json.loads((DATA / "corpus_reducible.json").read_text()):
        kernel_polynomials(Curve(*rec["ainvs"]), rec["p"])


# -- the character searches over DirichletCharacter objects that the
# -- exponent-vector searches replaced --------------------------------------


def semisimplification_by_objects(a_table, p, conductor, ell_bound):
    chi = mod_p_cyclotomic(p)
    M = character_search_modulus(p, conductor)
    good_ells = [ell for ell in sorted(a_table)
                 if ell <= ell_bound and conductor % ell and ell != p]
    matches = []
    seen = set()
    for phi1 in enumerate_characters(M, p - 1, p, 1):
        phi2 = mul(chi.extend(M), inverse(phi1))
        key = tuple(sorted([phi1.images, phi2.images]))
        if key in seen:
            continue
        seen.add(key)
        if all((phi1(ell) + phi2(ell) - a_table[ell]) % p == 0
               for ell in good_ells):
            matches.append((phi1, phi2))
    if not matches:
        return None
    if len(matches) > 1:
        raise AmbiguousPair(
            f"{len(matches)} character pairs fit; raise ell_bound "
            f"(tested {len(good_ells)} primes, Sturm-style bound "
            f"{sturm_bound(conductor)})")
    return matches[0]


def matching_line_characters_by_objects(scalars, p, conductor):
    M = character_search_modulus(p, conductor)
    return [chi for chi in enumerate_characters(M, p - 1, p, 1)
            if all(chi(ell) % p == lam % p for ell, lam in scalars.items())]


def outcome(fn, *args):
    try:
        return fn(*args)
    except AmbiguousPair as exc:
        return ("AmbiguousPair", str(exc))


def seeded_character_tables():
    """(a_table, p, conductor, ell_bound): trace tables of a random pair
    (phi1, chi-bar phi1^-1) mod p, read at small and large ell_bound
    (AmbiguousPair and unique answers), and the same tables with one
    trace moved (None)."""
    rng = random.Random(20)
    out = []
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        conductor = rng.choice([c for c in (11, 14, 26, 38, 58) if c % p])
        M = character_search_modulus(p, conductor)
        phi1 = rng.choice(enumerate_characters(M, p - 1, p, 1))
        phi2 = mul(mod_p_cyclotomic(p).extend(M), inverse(phi1))
        table = {ell: phi1(ell) + phi2(ell) + p * rng.randint(-4, 4)
                 for ell in range(2, 120)
                 if is_probable_prime(ell) and conductor % ell and ell != p}
        out += [(table, p, conductor, 119), (table, p, conductor, 5)]
        broken = dict(table)
        ell = rng.choice(sorted(broken))
        broken[ell] += rng.randint(1, p - 1)
        out.append((broken, p, conductor, 119))
    return out


def test_semisimplification_matches_objects():
    """The corpus and seeded a_ell tables: the same pair, the same
    AmbiguousPair message, the same None."""
    kinds = set()
    cases = seeded_character_tables()
    for rec in json.loads((DATA / "corpus_reducible.json").read_text()):
        E, N = Curve(*rec["ainvs"]), rec["conductor"]
        cases += [(good_a_table(E, N), rec["p"], N, bound)
                  for bound in (200, 3)]
    for case in cases:
        got = outcome(semisimplification, *case)
        want = outcome(semisimplification_by_objects, *case)
        if want is not None and want[0] != "AmbiguousPair":
            chars = search_characters(case[1], case[2])
            want = tuple(exponents(chars, chi) for chi in want)
        assert got == want, case
        kinds.add("none" if got is None else
                  "ambiguous" if got[0] == "AmbiguousPair" else "pair")
    assert kinds == {"none", "ambiguous", "pair"}


def test_matching_line_characters_match_objects():
    """The scalars of the Frobenius fixture, cut to their first 1..6
    primes, and seeded random scalars."""
    rng = random.Random(21)
    cases = []
    for rec in json.loads(FROBENIUS_FIXTURE.read_text()):
        N = rec["conductor"] if "conductor" in rec else \
            Curve(*rec["ainvs"]).discriminant
        for scalars in rec["scalars"]:
            items = [(int(ell), lam) for ell, lam in scalars.items()
                     if int(ell) != 2 and N % int(ell)]
            cases += [(dict(items[:t]), rec["p"], abs(N))
                      for t in (1, 3, 6)]
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        N = rng.choice([c for c in (11, 14, 26, 38) if c % p])
        ells = [ell for ell in range(3, 40)
                if is_probable_prime(ell) and N % ell and ell != p]
        cases.append(({ell: rng.randrange(1, p)
                       for ell in rng.sample(ells, rng.randint(0, 3))},
                      p, N))
    sizes = set()
    for scalars, p, N in cases:
        got = matching_line_characters(scalars, p, N)
        chars = search_characters(p, N)
        assert got == [exponents(chars, chi) for chi in
                       matching_line_characters_by_objects(scalars, p, N)]
        sizes.add(min(len(got), 2))
    assert sizes == {0, 1, 2}


def oracle_line_character(E, kernel, pair, chars, p, N_cond, ell_bound):
    """The character of the pair on a kernel line by the prime search
    `analyze` ran on supplied lines before the separating prime: the
    good ell below 4 ell_bound, passing over those with
    phi1(ell) = phi2(ell) mod p and those where the line gets no
    Frobenius scalar, until one scalar tells phi1 from phi2."""
    for ell in range(2, 4 * ell_bound):
        if N_cond % ell == 0 or ell == p or not is_probable_prime(ell):
            continue
        values = [chars.value(k, ell) for k in pair]
        if values[0] == values[1]:
            continue
        try:
            lam = frobenius_scalar(E, kernel, ell, p)
        except (NoFrobeniusScalar, BadReduction):
            continue
        if lam not in values:
            raise InvariantViolation(f"Frob_{ell} scalar {lam} on a kernel "
                                     f"line is neither of {values}")
        return pair[values.index(lam)]
    raise LookupError(f"no Frobenius scalar on a kernel line tells phi1, "
                      f"phi2 apart below {4 * ell_bound}")


def one_scalar_cases():
    """(label, curve, p, conductor, kernels): the corpus, 11a1-3 at
    p = 5, [-5,0,4,0,0] (N = 466) and [-8,0,1,0,0] (N = 77) at p = 3,
    and each curve of the Frobenius fixture with good reduction at its
    p, with |discriminant| for the conductor (its model's bad primes)
    and the fixture's kernels."""
    out = []
    for rec in json.loads((DATA / "corpus_reducible.json").read_text()):
        out.append((rec["label"], Curve(*rec["ainvs"]), rec["p"],
                    rec["conductor"]))
    out += [("11a1", E11A1, 5, 11), ("11a2", E11A2, 5, 11),
            ("11a3", E11A3, 5, 11),
            ("t466", Curve(-5, 0, 4, 0, 0), 3, 466),
            ("N77", Curve(-8, 0, 1, 0, 0), 3, 77)]
    out = [(label, E, p, N, kernels_of(E, p))
           for label, E, p, N in out]
    for rec in json.loads(FROBENIUS_FIXTURE.read_text()):
        E, p = Curve(*rec["ainvs"]), rec["p"]
        if E.discriminant % p:
            out.append((f"fixture {rec['label']}", E, p,
                        abs(E.discriminant),
                        [tuple(Fraction(c) for c in k)
                         for k in rec["kernels"]]))
    return out


def test_one_scalar_rule_matches_the_six_scalar_rule():
    """The character the old prime search reads off the
    semisimplification pair with one Frobenius scalar is the one
    character of the search modulus that six or more scalars leave, on
    every kernel line of the cases: 25 of the corpus and the named
    curves, 44 of 41 fixture curves."""
    lines = 0
    for label, E, p, N, kernels in one_scalar_cases():
        pair = semisimplification(good_a_table(E, N), p, N, 200)
        chars = search_characters(p, N)
        for k in kernels:
            got = oracle_line_character(E, k, pair, chars, p, N, 200)
            assert got == six_scalar_line_character(E, k, p, N), (label, k)
            lines += 1
    assert lines == 69


def separating_prime_cases():
    """(label, curve, p, conductor): the corpus at each record's p,
    `curves_11a.json` at p = 5, and every curve of the Frobenius fixture
    at its own p, with |discriminant| for the conductor (its model's bad
    primes)."""
    out = [(rec["label"], Curve(*rec["ainvs"]), rec["p"], rec["conductor"])
           for rec in json.loads((DATA / "corpus_reducible.json")
                                 .read_text())]
    out += [(rec["label"], Curve(*rec["ainvs"]), 5, rec["conductor"])
            for rec in json.loads((DATA / "curves_11a.json").read_text())]
    for rec in json.loads(FROBENIUS_FIXTURE.read_text()):
        E = Curve(*rec["ainvs"])
        out.append((f"fixture {rec['label']}", E, rec["p"],
                    abs(E.discriminant)))
    return out


def test_separating_prime_characters_match_the_one_scalar_rule():
    """The character `analyze` reads off each computed kernel line from
    the eigenvalue lam of Frob_q that `kernel_polynomials` returns with
    it is the one the old prime search (`oracle_line_character`) finds
    with `frobenius_scalar`, on every line of the cases: 23 of the corpus
    and curves_11a.json, 56 of the 52 fixture curves.  lam is Frob_q's
    scalar on the line, and the monic kernel times a rational prime to q
    gets the same scalar at q."""
    lines = 0
    for label, E, p, N in separating_prime_cases():
        q, found = kernel_polynomials(E, p)
        pair = semisimplification(good_a_table(E, N), p, N, 200)
        chars = search_characters(p, N)
        got = analysis._lines_at_separating_prime(
            E, q, [lam for _, lam in found], pair, chars, p, label)
        want = [oracle_line_character(E, k, pair, chars, p, N, 200)
                for k, _ in found]
        assert got == want, label
        for k, lam in found:
            assert frobenius_scalar(E, k, q, p) == lam, (label, k)
            scaled = [c * Fraction(-2, q + 2) for c in k]
            assert frobenius_scalar(E, scaled, q, p) == lam, (label, k)
        lines += len(found)
    assert lines == 79


def test_semisimplification_builds_at_most_two_characters(monkeypatch):
    """Across the corpus, each call builds no character object: a pair
    it returns is two exponent vectors of the search modulus."""
    built = []
    init = DirichletCharacter.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(DirichletCharacter, "__post_init__", counting)
    pairs = 0
    for rec in json.loads((DATA / "corpus_reducible.json").read_text()):
        E, N, p = Curve(*rec["ainvs"]), rec["conductor"], rec["p"]
        pair = semisimplification(good_a_table(E, N), p, N, 200)
        assert built == []
        if pair is not None:
            vectors = set(search_characters(p, N).vectors)
            assert all(k in vectors for k in pair), rec["label"]
            pairs += 1
    assert pairs > 0
