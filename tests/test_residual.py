import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from mulab.arith import (
    is_probable_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_xgcd,
)
from mulab.dirichlet import (
    enumerate_characters,
    is_odd,
    liftable_character,
    mod_p_cyclotomic,
    trivial_character,
)
from mulab.elliptic import Curve
from mulab.errors import (
    AmbiguousPair,
    BadReduction,
    FactorizationInconclusive,
    InvariantViolation,
    MuLabError,
    RootLiftFailure,
)
from mulab.ffield import factor_squarefree
from mulab.padic import val_int
from mulab.residual import (
    _hensel_pair,
    alignment_degree,
    character_search_modulus,
    classify_alignment,
    frobenius_scalar,
    identify_line_character,
    kernel_polynomials,
    monic_factors_of_degree,
    semisimplification,
    sturm_bound,
)

E11A1 = Curve(0, -1, 1, -10, -20)
E11A2 = Curve(0, -1, 1, -7820, -263580)
E11A3 = Curve(0, -1, 1, 0, 0)
E37A1 = Curve(0, 0, 1, -1, 0)


def good_a_table(E, conductor, bound=200):
    return {ell: E.ap(ell) for ell in range(2, bound + 1)
            if all(ell % t for t in range(2, ell))
            and conductor % ell != 0}


def test_kernel_counts():
    assert len(kernel_polynomials(E11A1, 5)) == 2
    assert len(kernel_polynomials(E11A2, 5)) == 1
    assert len(kernel_polynomials(E11A3, 5)) == 1
    assert kernel_polynomials(E37A1, 5) == []


def test_kernel_degrees_and_rational_line():
    for E in [E11A1, E11A2, E11A3]:
        for k in kernel_polynomials(E, 5):
            assert len(k) - 1 == 2
    # the rational 5-torsion line of 11a3: x(P) = 0, x(2P) = 1
    (k,) = kernel_polynomials(E11A3, 5)
    assert k == (Fraction(0), Fraction(-1), Fraction(1))


def test_frobenius_scalars_11a1():
    ks = kernel_polynomials(E11A1, 5)
    chars = []
    for k in ks:
        scal = {ell: frobenius_scalar(E11A1, k, ell, 5)
                for ell in [2, 3, 7, 13, 17, 19, 23]}
        chars.append(identify_line_character(scal, 5, 11))
    conds = sorted(c.conductor() for c in chars)
    assert conds == [1, 5]
    # one line is chi-bar (scalar = ell mod 5), the other trivial
    chi_line = next(c for c in chars if c.conductor() == 5)
    assert chi_line.agrees_with(mod_p_cyclotomic(5).extend(5))
    # determinant: product of the two scalars is ell mod p
    for ell in [2, 3, 7, 13]:
        l1 = frobenius_scalar(E11A1, ks[0], ell, 5)
        l2 = frobenius_scalar(E11A1, ks[1], ell, 5)
        assert l1 * l2 % 5 == ell % 5


def line_characters(E, p, conductor):
    out = []
    for k in kernel_polynomials(E, p):
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
    assert classify_alignment(line_characters(E11A1, 5, 11), 5) == "aligned"
    assert classify_alignment(line_characters(E11A2, 5, 11), 5) == "aligned"
    assert classify_alignment(line_characters(E11A3, 5, 11), 5) == "skew"


def test_semisimplification_11a():
    for E in [E11A1, E11A2, E11A3]:
        pair = semisimplification(good_a_table(E, 11), 5, 11, 200)
        assert pair is not None
        phi1, phi2 = pair
        conds = sorted([phi1.conductor(), phi2.conductor()])
        assert conds == [1, 5]
        chi = mod_p_cyclotomic(5)
        nontriv = phi1 if phi1.conductor() == 5 else phi2
        assert nontriv.agrees_with(chi.extend(nontriv.modulus))
        # determinant check on output
        for ell in [2, 3, 7]:
            assert phi1(ell) * phi2(ell) % 5 == ell % 5


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
    chi = mod_p_cyclotomic(5)
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
    """psi_5 of 11a1 factors further; only the two stable degree-2 factors
    are kernels, so the count is exactly 2 (not more)."""
    ks = kernel_polynomials(E11A1, 5)
    assert len(ks) == 2
    assert len(set(ks)) == 2


def test_zassenhaus_checks_factor_degrees(monkeypatch):
    """A factorization mod q that drops a factor is an internal fault:
    InvariantViolation (exit 2), kept under `python -O`."""
    from mulab import residual

    def dropping(f, ell, rng, max_degree):
        small, rest = factor_squarefree(f, ell, rng, max_degree)
        return small[1:], rest

    monkeypatch.setattr(residual, "factor_squarefree", dropping)
    with pytest.raises(InvariantViolation, match="degree"):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2)


def test_hensel_lift_needs_coprime_factors():
    with pytest.raises(InvariantViolation, match="coprime"):
        _hensel_pair([1, 2, 1], [1, 1], [1, 1], 7, 3)


def test_hensel_lift_checks_the_lifted_product():
    """f = x^2 + 5 is not (x + 1)(x + 2) mod 7, so no lift factors it."""
    with pytest.raises(InvariantViolation, match="does not factor"):
        _hensel_pair([5, 0, 1], [1, 1], [2, 1], 7, 4)


def test_recombination_bound_raises():
    with pytest.raises(FactorizationInconclusive):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2,
                                max_subsets=0)


def test_frobenius_scalar_refuses_ell_in_a_denominator():
    with pytest.raises(RootLiftFailure, match="denominator"):
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
                phi2n = psi_n.mul(phi1n.inverse())
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
    M = character_search_modulus(p, N_cond)
    phis = [chi for chi in enumerate_characters(M, p - 1, p, 1)
            if is_odd(chi) and chi.conductor() % p == 0]
    assert phis
    for phi1 in phis:
        assert alignment_degree(a_table, p, 6, N_cond, phi1, 200) == \
            alignment_degree_by_full_search(a_table, p, 6, N_cond, phi1,
                                            200)


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
        phi2n = liftable_character(1, trivial_character(p, 1), n0) \
            .mul(phi1n.inverse())
        a_table = {ell: (phi1n(ell) + phi2n(ell)) % p**n0
                   + p**n0 * rng.randint(-3, 3)
                   for ell in range(2, 80)
                   if is_probable_prime(ell) and conductor % ell
                   and ell != p}
        phi1 = liftable_character(i % (p - 1), alpha, 1)
        got = alignment_degree(a_table, p, n0 + 1, conductor, phi1, 80)
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
                    with pytest.raises(RootLiftFailure, match="2 roots"):
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
    (k3,) = kernel_polynomials(E11A3, 5)
    ks = kernel_polynomials(E11A1, 5)
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
        with pytest.raises(RootLiftFailure, match="psi_p"):
            frobenius_scalar(E11A1, h, ell, 5)


def test_frobenius_scalar_refuses_a_degenerate_kernel_polynomial():
    """A leading coefficient divisible by ell, or a constant."""
    (k3,) = kernel_polynomials(E11A3, 5)
    for h in ((Fraction(0), Fraction(-1), Fraction(7)), (Fraction(1),)):
        with pytest.raises(RootLiftFailure, match="degenerates"):
            frobenius_scalar(E11A3, h, 7, 5)
    with pytest.raises(BadReduction):
        frobenius_scalar(E11A3, k3, 11, 5)
    with pytest.raises(ValueError, match="differ"):
        frobenius_scalar(E11A3, k3, 5, 5)


# -- Zassenhaus over the full factorization mod q (every factor split out,
# -- lifted and offered to the recombination) --------------------------------


def monic_factors_by_full_factorization(poly, d, max_subsets=1 << 16):
    from mulab import residual
    from test_ffield import factor

    prim = [c // residual._content(poly) for c in poly]
    F, lc = residual._monicize(prim)
    q = 5
    while True:
        q += 2
        if not is_probable_prime(q) or lc % q == 0:
            continue
        if len(poly_gcd(F, poly_deriv(F, q), q)) == 1:
            break
    fac = [g for g, m in factor(F, q, random.Random(1234567))
           for _ in range(m)]
    bound = residual._mignotte_bound(F, d)
    k = 1
    while q**k < 2 * bound + 1:
        k += 1
    lifted = residual._hensel_tree(F, fac, q, k)
    m = q**k
    out = []

    def rec(start, remaining, prod):
        if remaining == 0:
            H = [residual._center(c, m) for c in prod]
            if H not in out and not poly_divmod(F, H)[1]:
                out.append(H)
            return
        for i in range(start, len(lifted)):
            if len(lifted[i]) - 1 <= remaining:
                rec(i + 1, remaining - len(lifted[i]) + 1,
                    poly_mul(prod, lifted[i], m))

    rec(0, d, [1])
    return out, lc


def test_kernels_match_the_full_factorization(monkeypatch):
    """The corpus, 11a1/2/3, [-8,0,1,0,0] (N = 77) and the Tate normal
    forms with a rational point of order p = 3, 5, 7 of the Frobenius
    fixture: the same kernel polynomials, and the same degree-(p-1)/2
    factors, as when every factor mod q is split out and recombined."""
    from mulab import residual

    records = json.loads(FROBENIUS_FIXTURE.read_text())
    fast = {}
    for rec in records:
        E, p = Curve(*rec["ainvs"]), rec["p"]
        psi = E.division_polynomial(p)
        got, lc = monic_factors_of_degree(psi, (p - 1) // 2)
        want, lc2 = monic_factors_by_full_factorization(psi, (p - 1) // 2)
        assert (sorted(got), lc) == (sorted(want), lc2), rec["label"]
        fast[rec["label"], p] = kernel_polynomials(E, p)
    monkeypatch.setattr(residual, "monic_factors_of_degree",
                        monic_factors_by_full_factorization)
    for rec in records:
        E, p = Curve(*rec["ainvs"]), rec["p"]
        assert kernel_polynomials(E, p) == fast[rec["label"], p]
