import random
from fractions import Fraction

import pytest

from mulab.dirichlet import mod_p_cyclotomic
from mulab.elliptic import Curve
from mulab.errors import (
    AmbiguousPair,
    FactorizationInconclusive,
    InvariantViolation,
    NotReduciblyAligned,
    PrecisionLoss,
    RootLiftFailure,
)
from mulab.ffield import factor as ff_factor
from mulab.residual import (
    ModPnRepresentation,
    _hensel_pair,
    alignment_degree,
    classify_alignment,
    frobenius_scalar,
    identify_line_character,
    isogeny_transform,
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

    def dropping(f, ell, rng):
        return ff_factor(f, ell, rng)[1:]

    monkeypatch.setattr(residual, "ff_factor", dropping)
    with pytest.raises(InvariantViolation, match="degree"):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2)


def test_hensel_lift_needs_coprime_factors():
    with pytest.raises(InvariantViolation, match="coprime"):
        _hensel_pair([1, 2, 1], [1, 1], [1, 1], 7, 3)


def test_recombination_bound_raises():
    with pytest.raises(FactorizationInconclusive):
        monic_factors_of_degree(E11A1.division_polynomial(5), 2,
                                max_subsets=0)


def test_frobenius_scalar_refuses_ell_in_a_denominator():
    with pytest.raises(RootLiftFailure, match="denominator"):
        frobenius_scalar(E11A1, (Fraction(1, 3), Fraction(0), Fraction(1)),
                         3, 5)
