import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import zlib

import numpy as np
import pytest

from mulab import liftlab
from mulab.cli import main
from mulab.errors import (
    InvariantViolation,
    LocalTwistUnrealizable,
    ParseError,
    SizeBound,
    TameRelationError,
)
from mulab.group_model import (
    MAT_ID,
    group_from_matrices,
    group_from_permutations,
    mat_det,
    mat_inv,
    mat_mul,
    perm_mul,
)
from mulab.liftlab import (
    TYPE_CONJUGATORS,
    AdjointModule,
    LocalTameData,
    RepresentationModPn,
    basis_cocycles,
    cohomology,
    enumerate_lifts,
    highly_versal_degree,
    is_coboundary,
    lift_step,
    local_condition_membership,
    membership_up_to_equivalence,
    obstruction_class,
    ordinary_condition_check,
    run_scenario,
    standard_family_element,
    twist,
    twist_tame,
    z1_basis,
    _condition_kind,
    _conjugate_pair,
    _layer_solver,
    _subtype_valuations_ok,
)
from mulab.modp import (MAX_MODULUS, matmul_mod, nullspace_modp, rref_modp,
                        solve_modp)
from mulab.padic import teichmuller, val_int
from test_acceptance import _torsor_scenarios
from test_modp import coset_modp


def cyclic(n):
    return group_from_permutations([tuple((i + 1) % n for i in range(n))])


def trivial_images(G):
    return [(1, 0, 0, 1)] * len(G)


def act(M, i, vec):
    """The action of the i-th group element on a vector of the module."""
    return M._action[i] @ vec % M.p


def is_zero(cochain) -> bool:
    return not np.any(cochain.values % cochain.module.p)


def verify_table_associativity(model) -> bool:
    """Associativity of the whole multiplication table of a small model."""
    t = model.table
    rng = range(len(model))
    return all(t[t[i][j]][k] == t[i][t[j][k]]
               for i in rng for j in rng for k in rng)


def test_group_model_basics():
    G = cyclic(6)
    assert len(G) == 6
    assert verify_table_associativity(G)
    S3 = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    assert len(S3) == 6
    assert verify_table_associativity(S3)
    H = S3.label_subgroup("A3", [S3.index[(1, 2, 0)]])
    assert len(H) == 3


def test_cohomology_oracles():
    # order coprime to p: H^1 = 0
    for p, q in [(5, 3), (3, 4), (7, 2)]:
        G = cyclic(q)
        M = AdjointModule(G, trivial_images(G), "ad0", p=p)
        assert cohomology(G, M, 1)[0] == 0
    # Hom(Z/p, F_p^3) = 3
    G = cyclic(3)
    M = AdjointModule(G, trivial_images(G), "ad0", p=3)
    assert cohomology(G, M, 1)[0] == 3
    # Kunneth: dim H^2(Z/3 x Z/3, F_3) = 3 for the 1-dim trivial module
    G2 = group_from_permutations([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)])
    Mn = AdjointModule(G2, trivial_images(G2), "n", p=3)
    assert cohomology(G2, Mn, 2)[0] == 3


def test_cohomology_size_bound(monkeypatch):
    G = group_from_matrices([(1, 1, 0, 1), (1, 0, 1, 1)], 3, max_size=30)
    M = AdjointModule(G, trivial_images(G), "ad0", p=3)
    assert len(G) == 24 > liftlab.H2_SIZE_BOUND == 14
    with pytest.raises(SizeBound, match="14"):
        cohomology(G, M, 2)
    # the bound alone refuses: a cyclic group of order 3 passes under it
    # and is refused once the bound is below its order
    G3 = cyclic(3)
    M3 = AdjointModule(G3, trivial_images(G3), "n", p=3)
    assert cohomology(G3, M3, 2)[0] == 1
    monkeypatch.setattr(liftlab, "H2_SIZE_BOUND", 2)
    with pytest.raises(SizeBound, match="2"):
        cohomology(G3, M3, 2)


def s3_rep_mod5():
    G = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    images = G.extend_homomorphism(
        [(0, 4, 1, 4), (0, 1, 1, 0)], lambda a, b: mat_mul(a, b, 5))
    return G, RepresentationModPn(G, 5, 1, images)


def test_obstruction_zero_iff_lifts_exist():
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_target = G.extend_homomorphism(
        [mat_det(rho.images[g], 5) if mat_det(rho.images[g], 5) != 4
         else 24 for g in G.generators], lambda a, b: a * b % 25)
    lifts = enumerate_lifts(rho, det_target)
    obs = obstruction_class(rho, det_target, M)
    assert (is_coboundary(G, M, obs) is not None) == bool(lifts)
    assert lifts


def non_homomorphism(n):
    """Z/3 at p = 3: the images of x -> (1, 3^(n-1) x; 0, 1) mod 3^n, with
    3^(n-1) added to the b-entry of the element that is neither the
    generator nor the identity."""
    G = group_from_permutations([(1, 2, 0)])
    mod = 3**n
    images = G.extend_homomorphism([(1, 3**(n - 1), 0, 1)],
                                   lambda a, b: mat_mul(a, b, mod))
    (i,) = [i for i, m in enumerate(images)
            if i not in G.generators and m != MAT_ID]
    a, b, c, d = images[i]
    images[i] = (a, (b + 3**(n - 1)) % mod, c, d)
    return RepresentationModPn(G, 3, n, images)


@pytest.mark.parametrize("n", [2, 20])
def test_obstruction_class_refuses_a_non_homomorphism(n):
    """On Z/3 at p = 3, the images of x -> (1, 3^(n-1) x; 0, 1) mod 3^n
    with 3^(n-1) added to the b-entry of the element that is neither the
    generator nor the identity are no representation.  The cocycle
    identity alone passed the cochain that the inverse formula
    (`oracle_obstruction_cochain`) built from them, and lift_step called
    the step obstructed, so `_obstruction_cochain` refuses it with
    ValueError, in int64 (n = 2) and in Python integers (n = 20,
    p^(n+1) > 2^31)."""
    rho = non_homomorphism(n)
    assert not rho.verify()
    M = AdjointModule(rho.model, rho.rhobar(), "ad0", p=3)
    det_t = _teichmuller_dets(rho, n + 1)
    with pytest.raises(ValueError, match="not a homomorphism mod 3"):
        obstruction_class(rho, det_t, M)
    with pytest.raises(ValueError, match="not a homomorphism mod 3"):
        lift_step(rho, det_t, M, [])


def test_cohomology_reads_the_table_array_built_once(monkeypatch):
    """The multiplication table is one read-only int array per model,
    and the obstruction, the cocycle identity, the coboundary solve, Z^1
    and the bar-resolution coboundary read it, not the list table."""
    G, rho = s3_rep_mod5()
    T = G.table_array
    assert T is G.table_array and not T.flags.writeable
    assert T.tolist() == G.table
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_t = _teichmuller_dets(rho, 2)
    want = obstruction_class(rho, det_t, M)
    f, Z = is_coboundary(G, M, want), z1_basis(G, M)
    d1 = liftlab._coboundary(M, 1)
    monkeypatch.setattr(G, "table", None)
    obs = obstruction_class(rho, det_t, M)
    assert np.array_equal(obs.values, want.values)
    assert np.array_equal(is_coboundary(G, M, obs).values, f.values)
    assert np.array_equal(z1_basis(G, M), Z)
    assert np.array_equal(liftlab._coboundary(M, 1), d1)


def test_obstruction_class_lift_independent():
    """Two random set-theoretic lifts give cohomologous cocycles."""
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_target = G.extend_homomorphism(
        [mat_det(rho.images[g], 5) if mat_det(rho.images[g], 5) != 4
         else 24 for g in G.generators], lambda a, b: a * b % 25)
    obs = obstruction_class(rho, det_target, M)
    # perturb the set lift by a random 1-cochain: the class must not move
    import random
    rng = random.Random(5)
    f = np.array([[rng.randrange(5) for _ in range(3)]
                  for _ in range(len(G))], dtype=np.int64)
    from mulab.liftlab import Cochain, _coboundary
    d1f = (_coboundary(M, 1) @ f.reshape(-1)) % 5
    vals2 = (obs.values.reshape(-1) + d1f) % 5
    moved = Cochain(2, M, vals2.reshape(len(G), len(G), 3))
    # difference is the coboundary of f, so both are coboundaries or
    # neither is
    assert (is_coboundary(G, M, obs) is not None) == \
        (is_coboundary(G, M, moved) is not None)


def test_torsor_law_z1():
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_target = G.extend_homomorphism(
        [mat_det(rho.images[g], 5) if mat_det(rho.images[g], 5) != 4
         else 24 for g in G.generators], lambda a, b: a * b % 25)
    lifts = enumerate_lifts(rho, det_target)
    Z = z1_basis(G, M)
    assert len(lifts) == 5**Z.shape[0]
    base = lifts[0]
    orbit = set()
    for coeffs in itertools.product(range(5), repeat=Z.shape[0]):
        zv = np.zeros((len(G), 3), dtype=np.int64)
        for c, row in zip(coeffs, Z):
            zv = (zv + c * row.reshape(len(G), 3)) % 5
        orbit.add(tuple(twist(base.images, zv, M, 5, 1)))
    assert orbit == {tuple(L.images) for L in lifts}


def test_engineered_obstructed_instance():
    """g -> (1, p; 0, 1) mod p^2 has no mod-p^3 lift: every candidate
    cubes to Id + p^2 E."""
    for p in (3, 5):
        G = cyclic(p)
        images = G.extend_homomorphism(
            [(1, p, 0, 1)], lambda a, b: mat_mul(a, b, p * p))
        rho = RepresentationModPn(G, p, 2, images)
        assert rho.verify()
        M = AdjointModule(G, rho.rhobar(), "ad0", p=p)
        det_t = [1] * len(G)
        assert enumerate_lifts(rho, det_t) == []
        obs = obstruction_class(rho, det_t, M)
        assert is_coboundary(G, M, obs) is None
        assert not is_zero(obs)


def strict_equivalence_classes(lifts, size_bound: int = 1 << 16):
    """Partition lifts into orbits under conjugation by matrices that are
    Id mod p, by explicit orbit enumeration."""
    if not lifts:
        return []
    p, n1 = lifts[0].p, lifts[0].n
    mod = p**n1
    conj_count = p**(4 * (n1 - 1))
    if conj_count > size_bound:
        raise SizeBound(f"{conj_count} conjugators exceed the bound")
    conjugators = []
    for X in itertools.product(range(p**(n1 - 1)), repeat=4):
        A = (1 + p * X[0], p * X[1], p * X[2], 1 + p * X[3])
        if mat_det(A, mod) % p != 0:
            conjugators.append(tuple(x % mod for x in A))
    key = {}
    for idx, L in enumerate(lifts):
        key[tuple(L.images[g] for g in L.model.generators)] = idx
    classes = []
    seen = set()
    for idx, L in enumerate(lifts):
        if idx in seen:
            continue
        orbit = {idx}
        for A in conjugators:
            Ainv = mat_inv(A, mod)
            imgs = tuple(mat_mul(mat_mul(A, L.images[g], mod), Ainv, mod)
                         for g in L.model.generators)
            j = key.get(imgs)
            if j is not None:
                orbit.add(j)
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def test_strict_equivalence_matches_h1():
    """At the first step, conjugation by Id-mod-p matrices acts through
    coboundaries, so #classes = #lifts / |B^1| = p^dim H^1 * (stabilizer
    corrections); for the S3 rep mod 5 H^1 = 0 and B^1 = Z^1."""
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_target = G.extend_homomorphism(
        [mat_det(rho.images[g], 5) if mat_det(rho.images[g], 5) != 4
         else 24 for g in G.generators], lambda a, b: a * b % 25)
    lifts = enumerate_lifts(rho, det_target)
    classes = strict_equivalence_classes(lifts)
    d1, _ = cohomology(G, M, 1)
    assert len(classes) == 5**d1 == 1


def trivial_prime_check(v: int, p: int, rhobar_images=None) -> bool:
    """v = 1 mod p, v != 1 mod p^2, and (when images are supplied) the
    residual restriction is trivial."""
    if v % p != 1 or v % (p * p) == 1:
        return False
    if rhobar_images is not None:
        for m in rhobar_images:
            if tuple(x % p for x in m) != (1 % p, 0, 0, 1 % p):
                return False
    return True


def test_trivial_prime_check():
    assert trivial_prime_check(11, 5, [(1, 0, 0, 1)])
    assert trivial_prime_check(31, 5)  # 31 = 1 mod 5, 31 != 1 mod 25
    assert not trivial_prime_check(7, 5)
    assert not trivial_prime_check(26, 5)  # 26 = 1 mod 25
    assert not trivial_prime_check(11, 5, [(1, 1, 0, 1)])


def test_local_tame_data_relation():
    # Sigma = (v, x; 0, 1), Tau = (1, y; 0, 1) satisfies the relation
    d = standard_family_element(11, 5, 3, 25, 25, "type3")
    assert isinstance(d, LocalTameData)
    with pytest.raises(TameRelationError):
        LocalTameData(11, 5, 2, (1, 0, 0, 1), (2, 0, 0, 1))


def span_dimensions(v: int, p: int, y_param: int = 0):
    """Dimensions of the spans Q_v = <f1, f2>, P_nr = <f1, f2, g_nr> and
    P_ram = <f1, f2, g_ram> of the basis cocycles."""
    cs = basis_cocycles(v, p, y_param)

    def dim(names):
        vecs = [list(cs[n]["sigma"]) + list(cs[n]["tau"]) for n in names]
        A = np.array(vecs, dtype=np.int64)
        return len(rref_modp(A, p)[1])

    return {
        "Q_v": dim(["f1", "f2"]),
        "P_nr": dim(["f1", "f2", "g_nr"]),
        "P_ram": dim(["f1", "f2", "g_ram"]),
    }


def test_basis_cocycles():
    cs = basis_cocycles(11, 5, y_param=5)
    assert cs["f1"]["sigma"] == (0, 1, 0, 0)
    assert cs["g_nr"]["sigma"] == (0, 0, 1, 0)
    # g_ram(tau) = diag(-y/(v-1), y/(v-1)): y=5, (v-1)/p = 2, w = 1/2 = 3
    assert cs["g_ram"]["tau"] == ((-3) % 5, 0, 0, 3)
    dims = span_dimensions(11, 5, 5)
    assert dims == {"Q_v": 2, "P_nr": 3, "P_ram": 3}
    with pytest.raises(ZeroDivisionError):
        basis_cocycles(26, 5)


def test_local_condition_membership_examples():
    # x = y = 0 at level 2 is in D_v^nr
    elem = standard_family_element(11, 5, 2, 0, 0, "type3")
    assert local_condition_membership(elem, "type3")
    # p || y at level 2: in D_v^ram, not D_v^nr
    elem = standard_family_element(11, 5, 2, 0, 5, "type4")
    assert local_condition_membership(elem, "type4")
    elem2 = standard_family_element(11, 5, 2, 0, 5, "type3")
    assert not local_condition_membership(elem2, "type3")
    # conjugate of a D_v^nr member by (1,0;1,1) is a type-1 member and
    # fails the raw type-3 check
    elem = standard_family_element(11, 5, 3, 25, 25, "type1")
    assert local_condition_membership(elem, "type1")
    assert not local_condition_membership(elem, "type3")


def test_membership_up_to_equivalence_vs_literal():
    """Twisting by f1/f2 stays literal; twisting by g needs the
    equivalence search and succeeds at level >= 3 but not 2."""
    v, p = 11, 5
    cs = basis_cocycles(v, p, y_param=0)
    for k, expect in [(2, False), (3, True), (4, True)]:
        elem = standard_family_element(v, p, k, 0, 0, "type3")
        tw = twist_tame(elem, cs["g_nr"]["sigma"], cs["g_nr"]["tau"])
        assert membership_up_to_equivalence(tw, "type3") == expect, k


def test_absorption_of_f1_f2():
    """Exact identity: twisting by c1 f1 + c2 f2 shifts (x, y) by
    p^(k-1)(c1, c2) inside the literal standard form."""
    v, p, k = 11, 5, 3
    cs = basis_cocycles(v, p, y_param=0)
    for c1, c2 in [(1, 0), (0, 1), (2, 3)]:
        elem = standard_family_element(v, p, k, 25, 50, "type3")
        f_sigma = tuple(c1 * t % p for t in cs["f1"]["sigma"])
        f_tau = tuple(c2 * t % p for t in cs["f2"]["tau"])
        tw = twist_tame(elem, f_sigma, f_tau)
        shifted = standard_family_element(
            v, p, k, 25 + c1 * p**(k - 1), 50 + c2 * p**(k - 1),
            "type3")
        assert tw.Sigma == shifted.Sigma and tw.Tau == shifted.Tau


@pytest.mark.parametrize("cond_type", ["type1", "type2", "type3", "type4"])
@pytest.mark.parametrize("p,v", [(3, 7), (5, 11)])
def test_highly_versal_degree(cond_type, p, v):
    assert highly_versal_degree(cond_type, v, p, 4) == 3


def test_condition_names_are_the_four_types():
    """The tame families are named type1..type4 (tame1..tame4 in a
    scenario); any other name is refused before any search."""
    elem = standard_family_element(7, 3, 3, 0, 0, "type3")
    for name in ("D_v", "D_v_nr", "D_v_ram", "diag", "tame3"):
        with pytest.raises(ValueError, match="unknown condition type"):
            membership_up_to_equivalence(elem, name)
        with pytest.raises(ValueError, match="unknown condition type"):
            local_condition_membership(elem, name)
        with pytest.raises(ValueError, match="unknown condition type"):
            highly_versal_degree(name, 7, 3, 4)


def test_ordinary_condition_check():
    p, n = 5, 2
    # upper-triangular with trivial inertia diagonal: ordinary
    images = [(1, 0, 0, 1), (2, 1, 0, 1)]
    flags = [False, True]
    chars = [0, 2]
    assert ordinary_condition_check(images, flags, chars, p, n)
    # lower-left unit entry on an inertia element: not ordinary
    images = [(1, 0, 0, 1), (2, 1, 1, 1)]
    assert not ordinary_condition_check(images, flags, chars, p, n)
    # conjugation by Id + p * (random) preserves the check
    A = (1, 5, 10, 1 + 5)
    from mulab.group_model import mat_inv
    mod = p**n
    Ai = mat_inv(A, mod)
    conj = [mat_mul(mat_mul(A, m, mod), Ai, mod)
            for m in [(1, 0, 0, 1), (2, 1, 0, 1)]]
    assert ordinary_condition_check(conj, flags, chars, p, n)


def test_lift_step_built_in():
    """rho-bar = reduction of an explicit mod-27 matrix group lifts at
    every step up to 27 by construction."""
    G = group_from_matrices([(1, 1, 0, 1)], 27, max_size=60)
    assert len(G) == 27
    images1 = [tuple(x % 3 for x in m) for m in G.elements]
    rho = RepresentationModPn(G, 3, 1, images1)
    assert rho.verify()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    current = rho
    for n in (1, 2):
        det_t = [mat_det(m, 3**(n + 1)) for m in
                 [tuple(x % 3**(n + 1) for x in e) for e in G.elements]]
        status, result = lift_step(current, det_t, M, [])
        assert status == "ok"
        assert result.verify()
        current = result
    assert current.n == 3


class _NeverHolds:
    def holds(self, rep) -> bool:
        return False


def test_lift_step_raises_when_no_twist_is_admissible():
    """Every one of the 3^3 twists by Z^1 fails a condition that never
    holds."""
    G = group_from_matrices([(1, 1, 0, 1)], 27, max_size=60)
    rho = RepresentationModPn(G, 3, 1, [tuple(x % 3 for x in m)
                                        for m in G.elements])
    M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    det_t = [mat_det(m, 9) for m in G.elements]
    assert lift_step(rho, det_t, M, [])[0] == "ok"
    with pytest.raises(LocalTwistUnrealizable, match="no global"):
        lift_step(rho, det_t, M, [("never", _NeverHolds())])


def _tame_run(monkeypatch, name):
    """run_scenario on tests/scenarios/<name>.json, with the level and the
    verdict of every TameCondition.holds call it makes."""
    verdicts = []
    holds = liftlab.TameCondition.holds

    def record(self, rep):
        verdicts.append((rep.n, holds(self, rep)))
        return verdicts[-1][1]

    monkeypatch.setattr(liftlab.TameCondition, "holds", record)
    with open(os.path.join(os.path.dirname(__file__), "scenarios",
                           f"{name}.json")) as fh:
        return run_scenario(json.load(fh)), verdicts


def test_tame_condition_holds_after_a_twist(monkeypatch):
    """Z/9 = <g> with trivial rho-bar and det g = 16 mod 27, at v = 7 for
    p = 3: sigma = g^4 has det 16^4 = 7 = v, and tau is the identity
    (unramified).  The set-theoretic lift sends sigma to diag(7, 1) mod 9,
    which is (7, 0; 3, 1) in type-1 coordinates, off the family; the
    second of the 27 twists by Z^1 gives (7, 0; 6, 1), which is the
    family's point (x, y) = (0, 0) there.  Level 3 meets type 1 with the
    first lift tried."""
    out, verdicts = _tame_run(monkeypatch, "tame_twist_z9")
    assert verdicts == [(2, False), (2, True), (3, True)]
    assert out["steps"] == [{"level": 2, "status": "ok"},
                            {"level": 3, "status": "ok"}]
    assert out["reached_level"] == 3


def test_tame_condition_no_twist_meets_fails_the_step(monkeypatch):
    """Z/3 with trivial rho-bar and sigma the identity: its image is Id
    under every twist, never of the shape (4, x; 0, 1) mod 9 at v = 4, so
    all 3^3 twists by Z^1 fail and the run ends in a "failed" step."""
    out, verdicts = _tame_run(monkeypatch, "tame_unrealizable_z3")
    assert verdicts == [(2, False)] * 27
    assert out["steps"] == [{
        "level": 2, "status": "failed",
        "reason": "LocalTwistUnrealizable: no global 1-cocycle twist "
                  "satisfies every local condition"}]
    assert out["reached_level"] == 1


def test_tame_condition_is_false_when_the_tame_relation_fails(monkeypatch):
    """Z/3 x Z/3 -> GL_2(Z/9), sigma -> diag(4, 1) and tau -> (1, 3; 0, 1),
    which commute: the relation Sigma Tau Sigma^-1 = Tau^v holds at the
    trivial prime v = 4 (Tau^4 = Tau), where (x, y) = (0, 3) has the type-4
    valuations, and fails at v = 5 (Tau^5 = Tau^2), where holds is False
    without a membership search."""
    G = group_from_permutations([(1, 2, 0, 4, 5, 3, 7, 8, 6),
                                 (3, 4, 5, 6, 7, 8, 0, 1, 2)])
    rep = RepresentationModPn(G, 3, 2, G.extend_homomorphism(
        [(4, 0, 0, 1), (1, 3, 0, 1)], lambda a, b: mat_mul(a, b, 9)))
    sigma, tau = G.generators
    assert liftlab.TameCondition(G, "local", sigma, tau, 4,
                                 "type4").holds(rep)
    with pytest.raises(TameRelationError):
        LocalTameData(5, 3, 2, rep.images[sigma], rep.images[tau])
    searches = []
    monkeypatch.setattr(liftlab, "membership_up_to_equivalence",
                        lambda *args: searches.append(args) or True)
    assert not liftlab.TameCondition(G, "local", sigma, tau, 5,
                                     "type4").holds(rep)
    assert searches == []


def test_lift_step_builds_the_set_lift_once(monkeypatch):
    """The obstruction cochain is built from the lift that lift_step
    twists."""
    G = group_from_matrices([(1, 1, 0, 1)], 27, max_size=60)
    rho = RepresentationModPn(G, 3, 1, [tuple(x % 3 for x in m)
                                        for m in G.elements])
    M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    det_t = [mat_det(m, 9) for m in G.elements]
    want = lift_step(rho, det_t, M, [])
    calls = []
    build = liftlab.set_theoretic_lift

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(liftlab, "set_theoretic_lift", counted)
    got = lift_step(rho, det_t, M, [])
    assert len(calls) == 1
    assert got[0] == want[0] == "ok"
    assert got[1].images == want[1].images


class _AlwaysHolds:
    def holds(self, rep) -> bool:
        return True


def test_module_builds_the_tree_maps_once(monkeypatch):
    """Two lifting steps with local conditions, `z1_basis` and
    `is_coboundary` on one module share one build of the tree maps and
    one elimination of L, which no `solve_modp` or `nullspace_modp`
    repeats; the steps are those a fresh module gives, and the Z^1 basis
    is read-only, as the multiplication table is."""
    G = group_from_matrices([(1, 1, 0, 1)], 27, max_size=60)
    rho = RepresentationModPn(G, 3, 1, [tuple(x % 3 for x in m)
                                        for m in G.elements])
    M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    det_ts = [[mat_det(m, 3**(n + 1)) for m in G.elements] for n in (1, 2)]
    conditions = [("always", _AlwaysHolds())]
    built, eliminations, others = [], [], []
    tree_maps, rref = liftlab._tree_maps, liftlab.rref_modp

    def counted_maps(*args):
        built.append(args)
        return tree_maps(*args)

    def counted_rref(A, p):
        # an elimination of L: of L, or of L with at most m columns more
        L = built[-1][1].tree_maps[3] if built else None
        m, gd = (-1, 0) if L is None else L.shape
        if A.shape[0] == m and gd <= A.shape[1] <= gd + m \
                and np.array_equal(A[:, :gd] % p, L):
            eliminations.append(A)
        return rref(A, p)

    def two_steps(M):
        status, r = lift_step(rho, det_ts[0], M, conditions)
        assert status == "ok"
        return r, lift_step(r, det_ts[1], M, conditions)

    monkeypatch.setattr(liftlab, "_tree_maps", counted_maps)
    monkeypatch.setattr(liftlab, "rref_modp", counted_rref)
    for name in ("solve_modp", "nullspace_modp"):
        monkeypatch.setattr(liftlab, name,
                            lambda *args, name=name: others.append(name))
    r, got = two_steps(M)
    Z = z1_basis(G, M)
    for _ in range(3):
        assert is_coboundary(G, M, obstruction_class(rho, det_ts[0], M))
    assert len(built) == len(eliminations) == 1 and others == []
    assert not Z.flags.writeable and not G.table_array.flags.writeable
    with pytest.raises(ValueError):
        Z[0, 0] = 1
    fresh = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    want_r, want = two_steps(fresh)
    assert len(built) == len(eliminations) == 2 and others == []
    assert np.array_equal(z1_basis(G, fresh), Z)
    assert r.images == want_r.images
    assert got[0] == want[0] == "ok"
    assert got[1].images == want[1].images


def _solver_modules():
    """(name, module): the nine criterion-7 torsor instances, and the
    module of every shipped scenario with n and b where rho-bar is upper
    triangular."""
    out = [(name, M) for name, _, M, _ in _obstruction_cochains()[:9]]
    for path in SCENARIO_PATHS[:3]:
        stem = os.path.basename(path)[:-5]
        _, _, M = _scenario_levels(path)[0]
        for Ms in [M] + _modules(M.model, M.rhobar, M.p, ("n", "b")):
            out.append((f"{stem}/{Ms.selector}", Ms))
    return out


def test_edge_solve_matches_solve_modp():
    """The solve read off the module's one elimination of L gives
    `solve_modp(L, rhs, p)` on consistent right-hand sides L x and on
    random ones, None included, and ker L is `nullspace_modp(L, p)`."""
    rng = np.random.default_rng(32)
    answers = {True: 0, False: 0}
    names = []
    for name, M in _solver_modules():
        names.append(name)
        L, p = M.tree_maps[3], M.p
        assert np.array_equal(M.coboundary_maps.kernel,
                              nullspace_modp(L, p)), name
        for consistent in (True, False) * 4:
            rhs = (L @ rng.integers(0, p, L.shape[1]) % p if consistent
                   else rng.integers(0, p, L.shape[0]))
            got = _solve_edges(M, rhs)
            want = solve_modp(L, rhs, p)
            assert (got is None) == (want is None), name
            if want is not None:
                assert np.array_equal(got, want), name
            answers[want is not None] += 1
    assert len(names) == 18
    assert answers == {True: 78, False: 66}


def _mismatch_case():
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    obs = obstruction_class(rho, _teichmuller_dets(rho, 2), M)
    return G, M, obs


def test_is_coboundary_refuses_another_groups_model():
    G, M, obs = _mismatch_case()
    Q8 = group_from_matrices([(0, 1, 2, 0), (1, 1, 1, 2)], 3, max_size=24)
    assert len(Q8) == 8 and len(G) == 6
    with pytest.raises(ValueError, match="not the module's own"):
        is_coboundary(Q8, M, obs)
    with pytest.raises(ValueError, match="not the module's own"):
        z1_basis(Q8, M)
    # an equal group built again is another model too
    G2, _ = s3_rep_mod5()
    with pytest.raises(ValueError, match="not the module's own"):
        is_coboundary(G2, M, obs)


def test_is_coboundary_refuses_a_degree_1_cochain():
    G, M, _ = _mismatch_case()
    f = liftlab.Cochain(1, M, np.zeros((len(G), M.dim), dtype=np.int64))
    with pytest.raises(ValueError, match="got a degree-1 cochain"):
        is_coboundary(G, M, f)


def test_is_coboundary_refuses_another_modules_cochain():
    G, M, obs = _mismatch_case()
    other = AdjointModule(G, M.rhobar, "ad0", p=5)
    with pytest.raises(ValueError, match="of another module"):
        is_coboundary(G, M, liftlab.Cochain(2, other, obs.values))


@pytest.mark.parametrize("shape", [(6, 6, 1), (6, 5, 3), (36, 3)])
def test_is_coboundary_refuses_values_of_the_wrong_shape(shape):
    G, M, _ = _mismatch_case()
    c = liftlab.Cochain(2, M, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError, match=r"expected \(6, 6, 3\)"):
        is_coboundary(G, M, c)


def _scenario_steps(monkeypatch, holds):
    """(status, cocycle checks) of each lift_step of the three shipped
    scenarios, with `holds` in place of the cocycle identity check."""
    steps, checks = [], []
    step = liftlab.lift_step

    def counted_holds(*args):
        checks.append(args)
        return holds(*args)

    def counted_step(*args, **kwargs):
        before = len(checks)
        out = step(*args, **kwargs)
        steps.append((out[0], len(checks) - before))
        return out

    monkeypatch.setattr(liftlab, "_cocycle2_identity_holds", counted_holds)
    monkeypatch.setattr(liftlab, "lift_step", counted_step)
    for name in ("borel_z3", "obstructed_z3", "ordinary_z4_p5"):
        with open(f"data/scenarios/{name}.json") as fh:
            run_scenario(json.load(fh))
    return steps


def corrupt_obstruction_cochains(monkeypatch):
    """Make every `_obstruction_cochain` move one value, at (s, s) for
    the first generator s, by the first basis vector: a cochain that is
    no cocycle, which this asserts."""
    build, holds = liftlab._obstruction_cochain, \
        liftlab._cocycle2_identity_holds

    def corrupted(rho, M, tau):
        c = build(rho, M, tau)
        s = rho.model.generators[0]
        values = c.values.copy()
        values[s, s, 0] = (values[s, s, 0] + 1) % M.p
        out = liftlab.Cochain(2, M, values)
        assert not holds(rho.model, M, out)
        return out

    monkeypatch.setattr(liftlab, "_obstruction_cochain", corrupted)


def test_lift_step_checks_the_cocycle_identity_only_when_obstructed(
        monkeypatch):
    """A step that lifts is certified by d^1 f = c inside
    `is_coboundary` and checks no cocycle identity; a step that is
    obstructed checks it once.  With one value of a solvable step's
    cochain moved, the step checks it once, and it fails."""
    steps = _scenario_steps(monkeypatch, liftlab._cocycle2_identity_holds)
    assert {status for status, _ in steps} == {"ok", "obstructed"}
    assert all(n == (status == "obstructed") for status, n in steps), steps
    rho, det_t, M = _scenario_levels("data/scenarios/borel_z3.json")[0]
    assert lift_step(rho, det_t, M, [])[0] == "ok"
    corrupt_obstruction_cochains(monkeypatch)
    checks = []
    holds = liftlab._cocycle2_identity_holds
    monkeypatch.setattr(liftlab, "_cocycle2_identity_holds",
                        lambda *args: checks.append(args) or holds(*args))
    with pytest.raises(InvariantViolation, match="cocycle identity"):
        lift_step(rho, det_t, M, [])
    assert len(checks) == 1


@pytest.mark.parametrize("solvable", [True, False])
def test_lift_step_raises_on_a_failed_cocycle_identity(monkeypatch,
                                                       solvable):
    """A cochain that fails the cocycle identity raises
    InvariantViolation whether or not the coboundary system solves: the
    unipotent group of order 27 lifts from level 1, and its cochain with
    one value moved is no cocycle; Z/3 with rho-bar (1, 3; 0, 1) at
    level 2 is obstructed, and its identity check is made to fail."""
    if solvable:
        G = group_from_matrices([(1, 1, 0, 1)], 27, max_size=60)
        rho = RepresentationModPn(G, 3, 1, [tuple(x % 3 for x in m)
                                            for m in G.elements])
        det_t = [mat_det(m, 9) for m in G.elements]
    else:
        G = cyclic(3)
        rho = RepresentationModPn(G, 3, 2, G.extend_homomorphism(
            [(1, 3, 0, 1)], lambda a, b: mat_mul(a, b, 9)))
        det_t = _teichmuller_dets(rho, 3)
    M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
    obs = obstruction_class(rho, det_t, M)
    assert (is_coboundary(G, M, obs) is not None) == solvable
    if solvable:
        corrupt_obstruction_cochains(monkeypatch)
    else:
        monkeypatch.setattr(liftlab, "_cocycle2_identity_holds",
                            lambda *args: False)
    with pytest.raises(InvariantViolation, match="cocycle identity"):
        lift_step(rho, det_t, M, [])


# Z/2 lifted with coefficients in n from a level-2 image with lower-left
# entry 3: the obstruction at level 3 has a diagonal part, outside n
OBSTRUCTION_OUTSIDE_N = {
    "p": 3, "levels": 2, "module": "n", "start_level": 2,
    "group": {"kind": "permutations", "generators": [[1, 0]]},
    "rhobar": [[2, 0, 0, 1]], "start_images": [[8, 3, 3, 1]], "det": [26]}


def test_obstruction_outside_the_submodule_is_an_input_error(tmp_path,
                                                             capsys):
    with pytest.raises(ParseError, match="outside the submodule n"):
        run_scenario(OBSTRUCTION_OUTSIDE_N)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(OBSTRUCTION_OUTSIDE_N))
    assert main(["lift-lab", "run", str(path)]) == 3
    assert capsys.readouterr().err.startswith("input error:")
    # with ad0 coefficients the same scenario lifts
    assert run_scenario({**OBSTRUCTION_OUTSIDE_N, "module": "ad0"})[
        "reached_level"] == 3


def test_obstruction_outside_the_submodule_raises_under_O():
    """The check is no bare assert, so `python -O` keeps it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "from mulab.errors import ParseError\n"
         "from mulab.liftlab import run_scenario\n"
         f"spec = {OBSTRUCTION_OUTSIDE_N!r}\n"
         "try:\n"
         "    run_scenario(spec)\n"
         "except ParseError:\n"
         "    print('raised')\n"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "raised"


def test_action_outside_the_module_raises(monkeypatch):
    """An action matrix that leaves n is an internal fault: the
    constructor has checked that rho-bar is upper triangular."""
    G = cyclic(2)
    monkeypatch.setattr(liftlab, "mat_inv", lambda g, p: (1, 0, 1, 1))
    with pytest.raises(InvariantViolation, match="moves n out of itself"):
        AdjointModule(G, [MAT_ID, MAT_ID], "n", p=3)


def test_scenario_runner_builtin(tmp_path):
    spec = {
        "name": "borel-z3",
        "p": 3,
        "levels": 2,
        "group": {"kind": "matrices", "generators": [[1, 1, 0, 1]],
                  "modulus": 27},
        "rhobar": [[1, 1, 0, 1]],
    }
    out = run_scenario(spec)
    assert [s["status"] for s in out["steps"]] == ["ok", "ok"]
    assert out["reached_level"] == 3


def test_scenario_runner_with_ordinary_condition():
    spec = {
        "name": "ordinary-z4",
        "p": 5,
        "levels": 2,
        "group": {"kind": "permutations",
                  "generators": [[1, 2, 3, 0]]},
        "rhobar": [[2, 0, 0, 1]],
        "det": [182],  # teichmuller lift of 2 mod 5^4
        "subgroups": {
            "p-decomp": {
                "generators": [0],
                "condition": {"type": "ordinary", "inertia": [0],
                              "cochar": {"0": 182}},
            }
        },
    }
    out = run_scenario(spec)
    assert all(s["status"] == "ok" for s in out["steps"])


def test_membership_conjugation_invariant():
    """The equivalence-aware membership verdict must not change under
    conjugation of the input by matrices congruent to Id mod p (that is
    the soundness property of the layered normal-form search)."""
    rng = random.Random(99)
    v, p = 11, 5
    cs = basis_cocycles(v, p, y_param=0)
    cases = []
    for k in (2, 3, 4):
        for (x, y) in [(0, 0), (25 % 5**k, 0), (0, 25 % 5**k)]:
            elem = standard_family_element(v, p, k, x, y, "type3")
            cases.append(elem)
            cases.append(twist_tame(elem, cs["g_nr"]["sigma"],
                                    cs["g_nr"]["tau"]))
    for data in cases:
        base = membership_up_to_equivalence(data, "type3")
        mod = p**data.level
        for _ in range(4):
            A = (1 + p * rng.randrange(mod // p),
                 p * rng.randrange(mod // p),
                 p * rng.randrange(mod // p),
                 1 + p * rng.randrange(mod // p))
            if mat_det(A, mod) % p == 0:
                continue
            Ai = mat_inv(A, mod)
            conj = LocalTameData(
                data.v, p, data.level,
                mat_mul(mat_mul(A, data.Sigma, mod), Ai, mod),
                mat_mul(mat_mul(A, data.Tau, mod), Ai, mod))
            assert membership_up_to_equivalence(conj, "type3") == base


class _PlainModule:
    """Minimal module object (action matrices per element, stacked into
    one (n, d, d) array) for the cohomology machinery."""

    def __init__(self, model, p, action):
        self.model = model
        self.p = p
        self._action = np.array(action, dtype=np.int64)
        self.dim = action[0].shape[0] if action else 0


def diagonal_quotient_module(M: AdjointModule) -> _PlainModule:
    """Ad^0 / n with the induced action (requires upper-triangular
    rho-bar, which makes n a submodule and the action matrices block
    triangular in the basis E, H, F)."""
    assert M.selector == "ad0", "quotient is taken of Ad^0"
    action = []
    for A in M._action:
        assert A[1, 0] % M.p == 0 and A[2, 0] % M.p == 0, \
            "n is not stable: rho-bar must be upper triangular"
        action.append(A[1:, 1:] % M.p)
    return _PlainModule(M.model, M.p, action)


def test_submodule_functoriality_exactness():
    """Exactness of H^1(n) -> H^1(Ad^0) -> H^1(quotient) at the middle
    term, for the sequence 0 -> n -> Ad^0 -> Ad^0/n -> 0 on an
    upper-triangular residual representation: the image of the inclusion
    equals the kernel of the projection."""
    from mulab.liftlab import _coboundary, nullspace_modp, rref_modp
    p = 5
    G = group_from_permutations([(1, 2, 3, 0)])
    images = G.extend_homomorphism(
        [(2, 1, 0, 1)], lambda a, b: mat_mul(a, b, p))
    Mad = AdjointModule(G, images, "ad0", p=p)
    Mn = AdjointModule(G, images, "n", p=p)
    Mq = diagonal_quotient_module(Mad)
    n = len(G)

    def reduce_against(echelon, pivots, v):
        v = v.copy() % p
        for ri, pc in enumerate(pivots):
            if v[pc]:
                v = (v - v[pc] * echelon[ri]) % p
        return v

    # coboundary echelon of Ad^0 and of the quotient
    Bad, bad_piv = rref_modp(_coboundary(Mad, 0).T, p)
    Bad = Bad[:len(bad_piv)]
    Bq, bq_piv = rref_modp(_coboundary(Mq, 0).T, p)
    Bq = Bq[:len(bq_piv)]

    # image of H^1(n) inside H^1(Ad^0): include n-cocycles (pad the
    # E-coordinate into the 3-dim Ad^0 coordinates), reduce mod B^1(Ad^0)
    Zn = nullspace_modp(_coboundary(Mn, 1), p)
    img_vectors = []
    for z in Zn:
        f = np.zeros((n, 3), dtype=np.int64)
        f[:, 0] = z  # n = span{E} is the first basis coordinate
        img_vectors.append(reduce_against(Bad, bad_piv, f.reshape(-1)))
    img_mat = np.array([v for v in img_vectors if np.any(v)],
                       dtype=np.int64)
    if img_mat.size:
        _, ipiv = rref_modp(img_mat, p)
        dim_img = len(ipiv)
    else:
        dim_img = 0

    # kernel of H^1(Ad^0) -> H^1(q): Ad^0-cocycle classes whose
    # projection (drop the E-coordinate) is a quotient coboundary
    Zad = nullspace_modp(_coboundary(Mad, 1), p)
    # basis of H^1(Ad^0) as reduced representatives
    reps = []
    acc, acc_piv = Bad.copy(), list(bad_piv)
    for z in Zad:
        v = reduce_against(acc, acc_piv, z)
        if np.any(v):
            lead = int(np.nonzero(v)[0][0])
            v = v * pow(int(v[lead]), -1, p) % p
            acc = np.vstack([acc, v])
            acc_piv.append(lead)
            reps.append(v)
    dim_h1_ad = len(reps)
    # matrix of pi_* on the H^1(Ad^0) basis: each class maps to its
    # reduced quotient representative; the kernel is a genuine subspace
    proj_rows = []
    for v in reps:
        proj = v.reshape(n, 3)[:, 1:].reshape(-1)
        proj_rows.append(reduce_against(Bq, bq_piv, proj))
    if reps:
        rank = len(rref_modp(np.array(proj_rows, dtype=np.int64), p)[1])
        dim_ker = len(reps) - rank
    else:
        dim_ker = 0
    # containment im <= ker: every included n-cocycle projects to zero
    for v in img_vectors:
        proj = v.reshape(n, 3)[:, 1:].reshape(-1)
        assert not np.any(reduce_against(Bq, bq_piv, proj))
    assert dim_img == dim_ker, (dim_img, dim_ker, dim_h1_ad)


# -- differential test: the per-node numpy search as the oracle ---------------

TAME_TYPES = ("type1", "type2", "type3", "type4")


def oracle_cond_values(S, T, v, mod):
    """The six entries that vanish on the parametrized shape."""
    return (S[2] % mod, (S[0] - v) % mod, (S[3] - 1) % mod,
            T[2] % mod, (T[0] - 1) % mod, (T[3] - 1) % mod)


def oracle_prepare(data, cond_type):
    """(S0, T0) in the type's coordinates, and whether the p^0 and p^1
    digits of the conditions vanish; psi(sigma_v) = v (weight 2)."""
    kind, _ = _condition_kind(cond_type)
    p, level, v = data.p, data.level, data.v
    mod = p**level
    B = TYPE_CONJUGATORS[kind]
    Binv = mat_inv(B, mod)
    S0 = mat_mul(mat_mul(Binv, data.Sigma, mod), B, mod)
    T0 = mat_mul(mat_mul(Binv, data.Tau, mod), B, mod)
    ok = all(x % p**min(2, level) == 0
             for x in oracle_cond_values(S0, T0, v, mod))
    return S0, T0, ok


def oracle_digit_map(S0, T0, v, p, mod):
    """The digit-moving map L probed at full precision mod `mod`, on the
    unreduced (S0, T0): digit 2 of each condition value after conjugating
    by Id + p Y, minus its digit 2 before."""
    def digit2(Y):
        S, T = _conjugate_pair(S0, T0, Y, 1, p, mod)
        return [(x // p**2) % p
                for x in oracle_cond_values(S, T, v, mod)]

    base = digit2((0, 0, 0, 0))
    cols = []
    for Y in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)):
        cols.append([(a - b) % p for a, b in zip(digit2(Y), base)])
    return np.array(cols, dtype=np.int64).T % p


def oracle_membership(data, cond_type, node_bound=500000):
    """The search that probes L on every call and solves each DFS node
    with `solve_modp` (the implementation before `_layer_solver`)."""
    _, sub = _condition_kind(cond_type)
    p, level, v = data.p, data.level, data.v
    mod = p**level
    S0, T0, ok = oracle_prepare(data, cond_type)
    if not ok:
        return False  # a p^0 or p^1 digit of the conditions is nonzero
    L = oracle_digit_map(S0, T0, v, p, mod)
    K = nullspace_modp(L, p)

    nodes = 0

    def dfs(S, T, j):
        nonlocal nodes
        nodes += 1
        if nodes > node_bound:
            raise SizeBound("normal-form search exceeded node bound")
        if j >= level - 1:
            x = S[1] % mod
            y = T[1] % mod
            return _subtype_valuations_ok(x, y, sub, p, level)
        # minus digit j + 1 of each condition value
        b = np.array([-(x // p**(j + 1)) % p
                      for x in oracle_cond_values(S, T, v, mod)],
                     dtype=np.int64)
        y0 = solve_modp(L, b, p)
        if y0 is None:
            return False
        for coeffs in itertools.product(range(p), repeat=K.shape[0]):
            Y = [int(y0[i]) for i in range(3)]
            for cc, krow in zip(coeffs, K):
                for i in range(3):
                    Y[i] = (Y[i] + cc * int(krow[i])) % p
            S2, T2 = _conjugate_pair(S, T, (Y[0], Y[1], Y[2], 0),
                                     j, p, mod)
            if dfs(S2, T2, j + 1):
                return True
        return False

    return dfs(S0, T0, 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SizeBound as exc:
        return type(exc).__name__


def oracle_versal_twists_stable(cond_type, v, p, k):
    """The full-grid sweep (the implementation before the
    strict-equivalence reduction): the c3 != 0 equivalence search runs on
    every grid point, through the `liftlab` globals."""
    kind, sub = _condition_kind(cond_type)
    basis_cocycles(v, p)
    g_name = "g_nr" if sub == "nr" else "g_ram"
    memo = {}
    combos = list(itertools.product(range(p), repeat=3) if k == 2
                  else [(0, 0, c3) for c3 in range(p)])
    for (x, y) in liftlab.family_parameter_grid(p, k, sub):
        for (c1, c2, c3) in combos:
            e = p**(k - 1)
            x2 = (x + e * c1) % p**k
            y2 = (y + e * c2) % p**k
            key = (x2, y2, c3)
            if key in memo:
                if not memo[key]:
                    return False
                continue
            elem = standard_family_element(v, p, k, x2, y2, cond_type)
            if c3 == 0:
                ok = liftlab.local_condition_membership(elem, cond_type)
            else:
                g = liftlab._conjugated_cocycle(
                    basis_cocycles(v, p, y_param=y2 % p**2), g_name, kind,
                    p)
                twisted = twist_tame(
                    elem, tuple(c3 * t % p for t in g["sigma"]),
                    tuple(c3 * t % p for t in g["tau"]))
                ok = liftlab.membership_up_to_equivalence(twisted,
                                                          cond_type)
            memo[key] = ok
            if not ok:
                return False
    return True


def _sweep_calls(cond_type, v, p, k_max):
    """The membership calls of the full-grid sweep at each level
    2..k_max.  The recorder answers True, so each level's grid is walked
    to the end: every call the sweep makes (all of them at the levels
    where it is stable), whatever the code under test answers."""
    calls = []

    def record(data, cond):
        calls.append(data)
        return True

    mp = pytest.MonkeyPatch()
    mp.setattr(liftlab, "membership_up_to_equivalence", record)
    try:
        for k in range(2, k_max + 1):
            oracle_versal_twists_stable(cond_type, v, p, k)
    finally:
        mp.undo()
    return calls


def _family_twist(cond_type, v, p, k, x, y, c3, elem=None):
    """The g-twist of the family element (x, y) that the level-k sweep
    of `versal_twists_stable` checks for c3 != 0 (`elem`: that element,
    if already built)."""
    kind, sub = _condition_kind(cond_type)
    g = liftlab._conjugated_cocycle(
        basis_cocycles(v, p, y_param=y % p**2),
        "g_nr" if sub == "nr" else "g_ram", kind, p)
    if elem is None:
        elem = standard_family_element(v, p, k, x, y, cond_type)
    return twist_tame(elem, tuple(c3 * e % p for e in g["sigma"]),
                      tuple(c3 * e % p for e in g["tau"]))


def _random_twist(rng, v, p, k):
    t = rng.choice(TAME_TYPES)
    x, y = rng.choice(liftlab.family_parameter_grid(
        p, k, _condition_kind(t)[1]))
    return _family_twist(t, v, p, k, x, y, rng.randrange(1, p))


@pytest.fixture(scope="module")
def membership_inputs():
    """`by_level`: every call of the four full-grid sweeps at (p, v) =
    (3, 7) with k_max = 5, by level.  `checked`: all of them below level 4, a seeded
    sample at levels 4 and 5 (a failing search there is exhaustive, up
    to 25 ms per call and name), and seeded twists from the (5, 11)
    sweeps at levels 3 and 4."""
    by_level = {}
    for t in TAME_TYPES:
        for data in _sweep_calls(t, 7, 3, 5):
            by_level.setdefault(data.level, []).append(data)
    assert {k: len(c) for k, c in by_level.items()} == \
        {2: 12, 3: 108, 4: 972, 5: 8748}
    rng = random.Random(5011)
    # the (5, 11) twists below are built the way the sweep builds its own
    swept4 = set(by_level[4])
    assert all(_random_twist(rng, 7, 3, 4) in swept4
               for _ in range(20))
    checked = (by_level[2] + by_level[3] + rng.sample(by_level[4], 200)
               + rng.sample(by_level[5], 30))
    checked += [_random_twist(rng, 11, 5, k)
                for k, n in ((3, 60), (4, 30)) for _ in range(n)]
    return by_level, checked


def test_membership_matches_oracle(membership_inputs, monkeypatch):
    """Same verdict as the per-node numpy search under every condition
    name, including the SizeBound outcome."""
    falses = 0
    for i, data in enumerate(membership_inputs[1]):
        for name in TAME_TYPES:
            got = _outcome(membership_up_to_equivalence, data, name)
            assert got == _outcome(oracle_membership, data, name), \
                (data, name)
            falses += got is False
        if i % 10 == 0:
            # a node bound hit mid-search
            name = TAME_TYPES[i % len(TAME_TYPES)]
            with monkeypatch.context() as m:
                m.setattr(liftlab, "MEMBERSHIP_NODE_BOUND", 2)
                assert _outcome(membership_up_to_equivalence, data, name) \
                    == _outcome(oracle_membership, data, name, 2), \
                    (data, name)
    assert falses > 850


def test_membership_matches_oracle_on_conjugates(membership_inputs):
    """The same agreement after conjugating the input by a seeded
    A = Id mod p, which changes (Sigma, Tau) mod p^2 and so the key."""
    rng = random.Random(4242)
    checked = membership_inputs[1]
    for data in rng.sample(checked, 120):
        p, mod = data.p, data.p**data.level
        A = (1 + p * rng.randrange(mod // p), p * rng.randrange(mod // p),
             p * rng.randrange(mod // p), 1 + p * rng.randrange(mod // p))
        Ai = mat_inv(A, mod)
        conj = LocalTameData(
            data.v, p, data.level,
            mat_mul(mat_mul(A, data.Sigma, mod), Ai, mod),
            mat_mul(mat_mul(A, data.Tau, mod), Ai, mod))
        for name in TAME_TYPES:
            assert _outcome(membership_up_to_equivalence, conj, name) \
                == _outcome(oracle_membership, conj, name), (conj, name)


@pytest.mark.parametrize("cond_type, k, y", [("type3", 3, 0),
                                               ("type4", 4, 3)])
def test_membership_matches_oracle_on_every_right_hand_side(cond_type, k,
                                                            y):
    """Add p^(k-1) delta at the six condition entries of a sweep element,
    for every delta in F_3^6.  Both images stay scalar mod p, so the tame
    relation still holds, and the last layer's right-hand side runs over
    all of F_3^6: most of these systems are inconsistent, which the sweep
    inputs never are."""
    data = _family_twist(cond_type, 7, 3, k, 0, y, 1)
    e = 3**(k - 1)
    verdicts = []
    for delta in itertools.product(range(3), repeat=6):
        S, T = list(data.Sigma), list(data.Tau)
        for i, slot in enumerate((2, 0, 3)):
            S[slot] += e * delta[i]
            T[slot] += e * delta[3 + i]
        moved = LocalTameData(7, 3, k, tuple(S), tuple(T))
        got = membership_up_to_equivalence(moved, cond_type)
        assert got == oracle_membership(moved, cond_type), delta
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts) // 2


def test_layer_solver_matches_full_precision_probe(membership_inputs):
    """The map factored from (Sigma, Tau) mod p^2 at modulus p^3 is the
    one probed mod p^level on the unreduced images, for levels 3-5."""
    rng = random.Random(345)
    by_level = membership_inputs[0]
    for level in (3, 4, 5):
        probed = 0
        for data in rng.sample(by_level[level], 60):
            for name in TAME_TYPES:
                S0, T0, ok = oracle_prepare(data, name)
                if not ok:
                    continue
                p = data.p
                L = oracle_digit_map(S0, T0, data.v, p, p**level)
                E, pivots, offsets = _layer_solver(
                    p, tuple(x % p**2 for x in S0),
                    tuple(x % p**2 for x in T0))
                R, piv = rref_modp(L, p)
                assert pivots == tuple(piv)
                E = np.array(E, dtype=np.int64)
                assert np.array_equal(E @ L % p, R)
                assert len(rref_modp(E, p)[1]) == 6
                K = nullspace_modp(L, p)
                assert offsets == tuple(
                    tuple(int(x) for x in np.array(coeffs) @ K % p)
                    for coeffs in itertools.product(range(p),
                                                    repeat=K.shape[0]))
                probed += 1
        assert probed >= 60, level


def test_membership_node_bound_survives_cache(monkeypatch):
    """A level-3 twisted element that passes the digit checks still
    counts its search nodes once its layer map is cached."""
    v, p = 11, 5
    cs = basis_cocycles(v, p, y_param=0)
    elem = standard_family_element(v, p, 3, 0, 0, "type3")
    tw = twist_tame(elem, cs["g_nr"]["sigma"], cs["g_nr"]["tau"])
    assert oracle_prepare(tw, "type3")[2]
    assert membership_up_to_equivalence(tw, "type3")
    for bound in (0, 1):
        monkeypatch.setattr(liftlab, "MEMBERSHIP_NODE_BOUND", bound)
        with pytest.raises(SizeBound):
            membership_up_to_equivalence(tw, "type3")


# -- the strict-equivalence reduction of the versality sweep ------------------


def _grid_certificate(cond_type, v, p, k, x, y):
    """(y_rep, A): the class representative (0, y_rep) of the grid point
    (x, y) and the conjugator A = B (1, t; 0, 1) diag(d, 1) B^-1 of the
    `versal_twists_stable` docstring."""
    mod = p**k
    y_rep = liftlab._strict_class_representative(y, p, k)
    t = (x // p) * pow((1 - v) // p, -1, mod) % mod
    d = 1
    if y:
        j = val_int(y, p, k)
        d = (y // p**j) * pow(y_rep // p**j, -1, mod) % mod
    B = TYPE_CONJUGATORS[_condition_kind(cond_type)[0]]
    U = mat_mul((1, t, 0, 1), (d, 0, 0, 1), mod)
    return y_rep, mat_mul(mat_mul(B, U, mod), mat_inv(B, mod), mod)


@pytest.mark.parametrize("p, v, ks", [(3, 7, (3, 4, 5)), (5, 11, (3, 4))])
def test_strict_class_certificate(p, v, ks):
    """For every grid point and every c3 the explicit A = Id mod p
    conjugates the representative's twist to the grid point's twist,
    literally mod p^k; the classes number p - 1 (ram) and
    1 + (k - 2)(p - 1) (nr)."""
    for k in ks:
        mod = p**k
        for cond_type in TAME_TYPES:
            sub = _condition_kind(cond_type)[1]
            reps = {}
            for x, y in liftlab.family_parameter_grid(p, k, sub):
                y_rep, A = _grid_certificate(cond_type, v, p, k, x, y)
                if y_rep not in reps:
                    reps[y_rep] = [
                        _family_twist(cond_type, v, p, k, 0, y_rep, c3)
                        for c3 in range(p)]
                assert all((a - b) % p == 0 for a, b in zip(A, MAT_ID))
                Ai = mat_inv(A, mod)
                elem = standard_family_element(v, p, k, x, y, cond_type)
                for c3, rep in enumerate(reps[y_rep]):
                    got = _family_twist(cond_type, v, p, k, x, y, c3, elem)
                    assert mat_mul(mat_mul(A, rep.Sigma, mod), Ai, mod) \
                        == got.Sigma, (cond_type, k, x, y, c3)
                    assert mat_mul(mat_mul(A, rep.Tau, mod), Ai, mod) \
                        == got.Tau, (cond_type, k, x, y, c3)
            assert len(reps) == (p - 1 if sub == "ram"
                                 else 1 + (k - 2) * (p - 1))


def test_strict_class_verdicts_agree():
    """On a seeded sample of grid points and c3 != 0, a twist and its
    class representative's twist get the same verdict under every
    condition name, including the level-5 exhaustive failures."""
    rng = random.Random(606)
    falses = 0
    for p, v, k, n in ((3, 7, 3, 40), (3, 7, 4, 40), (3, 7, 5, 8),
                       (5, 11, 3, 30), (5, 11, 4, 12)):
        for _ in range(n):
            cond_type = rng.choice(TAME_TYPES)
            sub = _condition_kind(cond_type)[1]
            x, y = rng.choice(liftlab.family_parameter_grid(p, k, sub))
            c3 = rng.randrange(1, p)
            y_rep = liftlab._strict_class_representative(y, p, k)
            got = _family_twist(cond_type, v, p, k, x, y, c3)
            rep = _family_twist(cond_type, v, p, k, 0, y_rep, c3)
            for name in TAME_TYPES:
                verdict = _outcome(membership_up_to_equivalence, got, name)
                assert verdict == _outcome(membership_up_to_equivalence,
                                           rep, name), \
                    (cond_type, k, x, y, c3, name)
                falses += verdict is False
    assert falses > 200


def _oracle_degree(cond_type, v, p):
    mp = pytest.MonkeyPatch()
    mp.setattr(liftlab, "versal_twists_stable", oracle_versal_twists_stable)
    try:
        return highly_versal_degree(cond_type, v, p, 4)
    finally:
        mp.undo()


@pytest.mark.parametrize("p, vs", [
    (3, [v for v in range(2, 200) if trivial_prime_check(v, 3)
         and all(v % q for q in range(2, v))]),
    (5, [11, 31])])
def test_highly_versal_degree_matches_full_grid(p, vs):
    """The class-wise sweep gives the full-grid sweep's degree for all
    four types at every trivial prime v < 200 for p = 3, and at
    v = 11, 31 for p = 5."""
    for v in vs:
        for cond_type in TAME_TYPES:
            assert highly_versal_degree(cond_type, v, p, 4) == \
                _oracle_degree(cond_type, v, p), (p, v, cond_type)


def oracle_cocycle2_identity_holds(G, M, c) -> bool:
    """The triple loop over (g, h, k) that the per-g check replaces."""
    p = M.p
    n = len(G)
    v = c.values
    for g in range(n):
        for h in range(n):
            for k in range(n):
                lhs = (act(M, g, v[h, k]) - v[G.table[g][h], k]
                       + v[g, G.table[h][k]] - v[g, h]) % p
                if np.any(lhs):
                    return False
    return True


def _obstruction_cochains():
    """(name, model, module, obstruction cochain) for the nine
    criterion-7 torsor instances and both levels of the borel_z3
    scenario (|G| = 27), built without the cocycle check."""
    out = []
    for name, G, p, level, gen_images in _torsor_scenarios():
        if len(gen_images) == len(G):
            images = [tuple(x % p**level for x in m) for m in gen_images]
        else:
            images = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, p**level))
        rho = RepresentationModPn(G, p, level, images)
        M = AdjointModule(G, rho.rhobar(), "ad0", p=p)
        det_t = [teichmuller(mat_det(m, p), p, level + 1)
                 for m in rho.rhobar()]
        out.append((name, G, M, liftlab._obstruction_cochain(
            rho, M, liftlab.set_theoretic_lift(rho, det_t))))
    G = group_from_matrices([(1, 1, 0, 1)], 27)
    for n in (1, 2):
        rho = RepresentationModPn(G, 3, n, G.elements)
        M = AdjointModule(G, rho.rhobar(), "ad0", p=3)
        det_t = [mat_det(m, 3**(n + 1)) for m in G.elements]
        out.append((f"borel_z3/level{n + 1}", G, M,
                    liftlab._obstruction_cochain(
                        rho, M, liftlab.set_theoretic_lift(rho, det_t))))
    return out


def _coboundary(G, M, f):
    """d^1 f (g, h) = g f(h) - f(gh) + f(g), one pair at a time."""
    n = len(G)
    out = np.zeros((n, n, M.dim), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            out[g, h] = act(M, g, f[h]) - f[G.table[g][h]] + f[g]
    return out % M.p


def test_cocycle2_identity_matches_triple_loop():
    """On each obstruction cochain, on it plus d^1 f for seeded random f,
    on it with one entry moved by a nonzero vector, and on random
    cochains, the per-g check agrees with the triple loop."""
    rng = np.random.default_rng(7)
    verdicts = {True: 0, False: 0}
    cochains = _obstruction_cochains()
    assert len(cochains) == 11
    for name, G, M, obs in cochains:
        n, d, p = len(G), M.dim, M.p
        variants = [obs.values]
        for _ in range(3):
            f = rng.integers(0, p, size=(n, d))
            variants.append((obs.values + _coboundary(G, M, f)) % p)
        cocycle = variants[-1]
        for _ in range(20):
            moved = cocycle.copy()
            g, h = rng.integers(0, n, size=2)
            moved[g, h] = (moved[g, h] + rng.integers(1, p)
                           * np.eye(d, dtype=np.int64)[rng.integers(d)]) % p
            variants.append(moved)
        for _ in range(4):
            variants.append(rng.integers(0, p, size=(n, n, d)))
        for values in variants:
            c = liftlab.Cochain(2, M, values)
            verdict = liftlab._cocycle2_identity_holds(G, M, c)
            assert verdict == oracle_cocycle2_identity_holds(G, M, c), name
            verdicts[verdict] += 1
    assert verdicts == {True: 44, False: 264}


def test_obstruction_class_raises_when_the_identity_fails(monkeypatch):
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_t = [teichmuller(mat_det(m, 5), 5, 2) for m in rho.rhobar()]
    monkeypatch.setattr(liftlab, "_cocycle2_identity_holds",
                        lambda *args: False)
    with pytest.raises(InvariantViolation, match="cocycle identity"):
        obstruction_class(rho, det_t, M)
    assert not is_zero(liftlab._obstruction_cochain(
        rho, M, liftlab.set_theoretic_lift(rho, det_t)))


def test_lift_path_invariants_raise(monkeypatch):
    """The determinant fix and the homomorphism check of a lift raise
    InvariantViolation (they are no bare asserts, so `python -O` keeps
    them).  A determinant target that does not reduce to det rho is the
    caller's input and raises ValueError before the fix is tried
    (`test_set_theoretic_lift_refuses_a_target_off_det_rho`), so the fix
    is made to miss by a determinant that reads one too high."""
    G, rho = s3_rep_mod5()
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    det_t = [teichmuller(mat_det(m, 5), 5, 2) for m in rho.rhobar()]
    with monkeypatch.context() as patch:
        patch.setattr(liftlab, "mat_det",
                      lambda a, m: (mat_det(a, m) + 1) % m)
        with pytest.raises(InvariantViolation, match="determinant"):
            liftlab.set_theoretic_lift(rho, det_t)
    monkeypatch.setattr(RepresentationModPn, "verify", lambda self: False)
    with pytest.raises(InvariantViolation, match="homomorphism"):
        lift_step(rho, det_t, M, [])


# -- the BFS-tree group model and the table-driven coboundary, against the
# -- code they replace ---------------------------------------------------------


class OracleGroupModel:
    """The constructor the BFS tree replaces: a frontier BFS, an O(n^2)
    closure sweep over all products, then the multiplication table and
    the identity by a row scan."""

    def __init__(self, generators, mul, max_size=200):
        elems, index = [], {}

        def add(x):
            if x not in index:
                index[x] = len(elems)
                elems.append(x)
            return index[x]

        frontier = [add(g) for g in generators]
        while frontier:
            new_frontier = []
            for i in frontier:
                for g in generators:
                    prod = mul(elems[i], g)
                    if prod not in index:
                        new_frontier.append(add(prod))
                    assert len(elems) <= max_size
            frontier = new_frontier
        changed = True
        while changed:
            changed = False
            for i in range(len(elems)):
                for j in range(len(elems)):
                    if mul(elems[i], elems[j]) not in index:
                        add(mul(elems[i], elems[j]))
                        changed = True
        n = len(elems)
        self.elements = elems
        self.index = index
        self.generators = [index[g] for g in generators]
        self.table = [[index[mul(elems[i], elems[j])] for j in range(n)]
                      for i in range(n)]
        self.identity = next(i for i in range(n)
                             if all(self.table[i][j] == j for j in range(n)))


def oracle_extend_homomorphism(G, gen_images, mul_img):
    """The extension the BFS tree replaces: the identity's image by powers
    of the first generator, a fixpoint sweep over every (element,
    generator) pair, then the full check."""
    n = len(G.elements)
    out = [None] * n
    for gi, img in zip(G.generators, gen_images):
        out[gi] = img
    g0 = G.generators[0]
    acc_idx, acc_img = g0, gen_images[0]
    while acc_idx != G.identity:
        acc_idx = G.table[acc_idx][g0]
        acc_img = mul_img(acc_img, gen_images[0])
    out[G.identity] = acc_img
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if out[i] is None:
                continue
            for gi, img in zip(G.generators, gen_images):
                k = G.table[i][gi]
                if out[k] is None:
                    out[k] = mul_img(out[i], img)
                    changed = True
    for i in range(n):
        for gi, img in zip(G.generators, gen_images):
            if out[G.table[i][gi]] != mul_img(out[i], img):
                raise ValueError("generator images are not compatible")
    return out


def oracle_d0(M):
    """d^0: M -> C^1, m -> (g -> g m - m), one block at a time."""
    n, d, p = len(M.model), M.dim, M.p
    D = np.zeros((n * d, d), dtype=np.int64)
    for g in range(n):
        D[g * d:(g + 1) * d, :] = M._action[g] - np.eye(d, dtype=np.int64)
    return D % p


def oracle_d1(M):
    """d^1: C^1 -> C^2, (g, h) -> g f(h) - f(gh) + f(g), entry by entry."""
    G = M.model
    n, d, p = len(G), M.dim, M.p
    D = np.zeros((n * n * d, n * d), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            row = (g * n + h) * d
            gh = G.table[g][h]
            D[row:row + d, h * d:(h + 1) * d] += M._action[g]
            for k in range(d):
                D[row + k, gh * d + k] -= 1
                D[row + k, g * d + k] += 1
    return D % p


def oracle_d2(M):
    """d^2: C^2 -> C^3, (g, h, k) -> g F(h,k) - F(gh,k) + F(g,hk) -
    F(g,h), entry by entry."""
    G = M.model
    n, d, p = len(G), M.dim, M.p
    D = np.zeros((n * n * n * d, n * n * d), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            gh = G.table[g][h]
            for k in range(n):
                row = ((g * n + h) * n + k) * d
                hk = G.table[h][k]
                D[row:row + d, (h * n + k) * d:(h * n + k + 1) * d] \
                    += M._action[g]
                for t in range(d):
                    D[row + t, (gh * n + k) * d + t] -= 1
                    D[row + t, (g * n + hk) * d + t] += 1
                    D[row + t, (g * n + h) * d + t] -= 1
    return D % p


# (name, generators, modulus or None for permutations, p, rho-bar images
# of the generators mod p): the groups of the nine criterion-7 torsor
# instances, S3 by transpositions, Z2 x Z2, borel_z3 (|G| = 27) and a
# repeated generator
GROUP_CASES = [
    ("S3", [(1, 2, 0), (1, 0, 2)], None, 5, [(0, 4, 1, 4), (0, 1, 1, 0)]),
    ("Z4", [(1, 2, 3, 0)], None, 5, [(2, 0, 0, 1)]),
    ("Z5", [(1, 2, 3, 4, 0)], None, 5, [(1, 1, 0, 1)]),
    ("Z3", [(1, 2, 0)], None, 3, [(1, 1, 0, 1)]),
    ("SL2F3", [(1, 1, 0, 1), (1, 0, 1, 1)], 3, 3, None),
    ("Q8", [(0, 1, 2, 0), (1, 1, 1, 2)], 3, 3, None),
    ("D4", [(0, 1, 2, 0), (1, 0, 0, 2)], 3, 3, None),
    ("S3-transpositions", [(1, 0, 2), (0, 2, 1)], None, 3,
     [(2, 0, 0, 1), (2, 1, 0, 1)]),
    ("Z2xZ2", [(1, 0, 3, 2), (2, 3, 0, 1)], None, 3,
     [(2, 0, 0, 1), (1, 0, 0, 2)]),
    ("borel_z3", [(1, 1, 0, 1)], 27, 3, None),
    ("repeated-generator", [(1, 2, 0), (1, 2, 0)], None, 3,
     [(1, 1, 0, 1), (1, 1, 0, 1)]),
]


def _build(gens, modulus):
    """(model, oracle model) from the same generators."""
    if modulus is None:
        return (group_from_permutations(gens),
                OracleGroupModel([tuple(g) for g in gens], perm_mul))
    return (group_from_matrices(gens, modulus),
            OracleGroupModel([tuple(x % modulus for x in m) for m in gens],
                             lambda a, b: mat_mul(a, b, modulus)))


@pytest.mark.parametrize("name,gens,modulus,p,gen_images", GROUP_CASES,
                         ids=[c[0] for c in GROUP_CASES])
def test_group_model_matches_closure_oracle(name, gens, modulus, p,
                                            gen_images):
    """Same elements (in the same order), index, generators, table and
    identity as the BFS plus O(n^2) closure sweep, and every tree triple
    (k, i, j) reads elements[k] = elements[i] * generator j, once per
    non-generator element."""
    G, oracle = _build(gens, modulus)
    assert G.elements == oracle.elements
    assert G.index == oracle.index
    assert G.generators == oracle.generators
    assert G.table == oracle.table
    assert G.identity == oracle.identity
    assert sorted(k for k, _, _ in G.tree) == \
        sorted(set(range(len(G))) - set(G.generators))
    for k, i, j in G.tree:
        assert i < k and G.table[i][G.generators[j]] == k


def test_group_model_refuses_generators_of_no_group():
    """A singular matrix generates a semigroup with no identity: the
    model raises ValueError (the row scan used to leak StopIteration)."""
    with pytest.raises(ValueError, match="do not generate a group"):
        group_from_matrices([(0, 1, 0, 0)], 3)


def test_extend_homomorphism_matches_fixpoint_oracle():
    """On seeded generator images (Id + 3X mod 9 with X often zero,
    units mod 7 under multiplication, and each case's rho-bar) the tree
    extension returns the fixpoint sweep's images or raises ValueError
    exactly when it does."""
    rng = random.Random(9)
    outcomes = {"ok": 0, "ValueError": 0}
    for name, gens, modulus, p, gen_images in GROUP_CASES:
        G, _ = _build(gens, modulus)
        k = len(G.generators)
        trials = [(gen_images or [tuple(x % p for x in G.elements[g])
                                  for g in G.generators],
                   lambda a, b, p=p: mat_mul(a, b, p))]
        for _ in range(12):
            imgs = []
            for _ in range(k):
                X = [rng.randrange(3) if rng.random() < 0.5 else 0
                     for _ in range(4)]
                imgs.append((1 + 3 * X[0], 3 * X[1], 3 * X[2],
                             1 + 3 * X[3]))
            trials.append((imgs, lambda a, b: mat_mul(a, b, 9)))
            trials.append(([rng.choice([1, 6, rng.randrange(1, 7)])
                            for _ in range(k)], lambda a, b: a * b % 7))
        for imgs, mul in trials:
            try:
                want = oracle_extend_homomorphism(G, imgs, mul)
            except ValueError:
                with pytest.raises(ValueError):
                    G.extend_homomorphism(imgs, mul)
                outcomes["ValueError"] += 1
                continue
            assert G.extend_homomorphism(imgs, mul) == want, name
            outcomes["ok"] += 1
    assert outcomes == {"ok": 107, "ValueError": 168}


def _coboundary_modules():
    """(name, module) over every case: ad0, and for an upper-triangular
    rho-bar also n, b and the quotient Ad^0 / n."""
    out = []
    for name, gens, modulus, p, gen_images in GROUP_CASES:
        G, _ = _build(gens, modulus)
        if gen_images is None:  # a matrix group's inclusion mod p
            rhobar = [tuple(x % p for x in m) for m in G.elements]
        else:
            rhobar = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, p))
        Mad = AdjointModule(G, rhobar, "ad0", p=p)
        out.append((f"{name}/ad0", Mad))
        if all(m[2] == 0 for m in rhobar):
            out += [(f"{name}/{s}", AdjointModule(G, rhobar, s, p=p))
                    for s in ("n", "b")]
            out.append((f"{name}/ad0-mod-n",
                        diagonal_quotient_module(Mad)))
    return out


def test_coboundary_matches_entrywise_builders():
    """d^0, d^1 and d^2 (d^2 only for |G| <= 14) equal the entry-by-entry
    builders on every module, the quotient module included."""
    modules = _coboundary_modules()
    assert len(modules) == 32
    oracles = (oracle_d0, oracle_d1, oracle_d2)
    for name, M in modules:
        for k in range(3 if len(M.model) <= 14 else 2):
            D = liftlab._coboundary(M, k)
            assert D.dtype == np.int64, name
            assert np.array_equal(D, oracles[k](M)), (name, k)


# -- the affine lift solve against the exhaustive search it replaces ----------


def _ad0_elements(p: int):
    """Every trace-zero 2x2 matrix mod p as a 4-tuple, zero first."""
    return [(a, b, c, -a % p)
            for a, b, c in itertools.product(range(p), repeat=3)]


def oracle_enumerate_lifts(rho, det_target, max_candidates=1 << 22):
    """The search `enumerate_lifts` replaces: every generator-image lift
    (1 + p^n X) A, tr X = 0, through the full homomorphism check."""
    p, n = rho.p, rho.n
    G = rho.model
    mod = p**(n + 1)
    gens = G.generators
    base = liftlab.set_theoretic_lift(rho, det_target)
    base_gen = [base[g] for g in gens]
    ad0 = _ad0_elements(p)
    total = len(ad0) ** len(gens)
    if total > max_candidates:
        raise SizeBound(f"{total} candidate tuples exceed the bound")
    lifts = []
    for combo in itertools.product(ad0, repeat=len(gens)):
        gen_images = []
        for A, X in zip(base_gen, combo):
            pert = (1 + X[0] * p**n, X[1] * p**n,
                    X[2] * p**n, 1 + X[3] * p**n)
            gen_images.append(mat_mul(pert, A, mod))
        try:
            images = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, mod))
        except ValueError:
            continue
        lifts.append(RepresentationModPn(G, p, n + 1, images))
    return lifts


def _teichmuller_dets(rho, level):
    return [teichmuller(mat_det(m, rho.p), rho.p, level)
            for m in rho.rhobar()]


def _lift_instances():
    """(name, rho, det target) to lift one step: the S3 mod-5 helper with
    its non-Teichmuller determinant, the nine criterion-7 instances (the
    two engineered obstructed ones among them), both levels of the
    borel_z3 scenario's group (|G| = 27) and trivial Z/2 mod 3, whose one
    lift is the trivial one (Z^1 = Hom(Z/2, F_3^3) = 0)."""
    G, rho = s3_rep_mod5()
    out = [("S3/p5-helper", rho, G.extend_homomorphism(
        [mat_det(rho.images[g], 5) if mat_det(rho.images[g], 5) != 4
         else 24 for g in G.generators], lambda a, b: a * b % 25))]
    for name, G, p, level, gen_images in _torsor_scenarios():
        if len(gen_images) == len(G):
            images = [tuple(x % p**level for x in m) for m in gen_images]
        else:
            images = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, p**level))
        rho = RepresentationModPn(G, p, level, images)
        out.append((name, rho, _teichmuller_dets(rho, level + 1)))
    G = group_from_matrices([(1, 1, 0, 1)], 27)
    for n in (1, 2):
        rho = RepresentationModPn(G, 3, n, G.elements)
        out.append((f"borel_z3/level{n + 1}", rho,
                    [mat_det(m, 3**(n + 1)) for m in G.elements]))
    G = cyclic(2)
    out.append(("Z2-trivial/p3", RepresentationModPn(
        G, 3, 1, [(1, 0, 0, 1)] * 2), [1, 1]))
    return out


def _assert_same_lifts(name, rho, det_t):
    lifts = enumerate_lifts(rho, det_t)
    want = oracle_enumerate_lifts(rho, det_t)
    assert [L.images for L in lifts] == [L.images for L in want], name
    assert all(L.n == rho.n + 1 and L.verify() for L in lifts), name
    _assert_same_listing(name, lifts, oracle_listed_lifts(rho, det_t))
    return lifts


def test_enumerate_lifts_matches_exhaustive_search():
    """The same lifts in the same order as the search, each one a
    homomorphism, and the same shared tuples as the listing the edge
    solve replaced, on every instance and on the next step above its
    first and last lift."""
    counts = {}
    for name, rho, det_t in _lift_instances():
        lifts = _assert_same_lifts(name, rho, det_t)
        counts[name] = len(lifts)
        for L in lifts[:1] + lifts[-1:]:
            _assert_same_lifts(f"{name}/next", L,
                               _teichmuller_dets(L, L.n + 1))
    assert counts["S3/p5"] == counts["S3/p5-helper"] == 125
    assert counts["Z2-trivial/p3"] == 1
    assert [name for name, k in counts.items() if k == 0] == [
        "Z5-unip/p5", "Z3-obstructed/p3", "Z5-obstructed/p5"]


def test_enumerate_lifts_of_a_non_homomorphism_is_empty(monkeypatch):
    """Generator images that break a relation mod p^n have no lift: at
    level 1 (Z/3 -> (1, 1; 0, 1) mod 5 has order 5) and at level 2
    (Z/5 -> (1, 1; 0, 1) mod 25 has order 25, though it is a
    homomorphism mod 5).  They are refused before any module is
    looked up."""
    def refuse(*args):
        raise AssertionError("a module was built")

    monkeypatch.setattr(AdjointModule, "__init__", refuse)
    for p, n in ((5, 1), (5, 2)):
        G = cyclic(3) if n == 1 else cyclic(5)
        images = G.extend_along_tree(
            [(1, 1, 0, 1)], lambda a, b: mat_mul(a, b, p**n))
        rho = RepresentationModPn(G, p, n, images)
        assert not rho.verify()
        assert enumerate_lifts(rho, [1] * len(G)) == []
        assert G.lift_modules == {}
        assert oracle_enumerate_lifts(rho, [1] * len(G)) == []


def test_enumerate_lifts_size_bound_caps_the_lifts(monkeypatch):
    """MAX_LIFTS bounds the number of lifts (125 for S3 mod 5), not the
    5^6 candidates the search tried, and is checked before any lift is
    built, with the refusal of the solved system
    (`oracle_solved_lifts`); an obstructed instance has no lift to
    bound."""
    G, rho = s3_rep_mod5()
    det_t = _teichmuller_dets(rho, 2)
    monkeypatch.setattr(liftlab, "MAX_LIFTS", 125)
    assert len(enumerate_lifts(rho, det_t)) == 125
    monkeypatch.setattr(liftlab, "MAX_LIFTS", 124)
    monkeypatch.setattr(G, "extend_homomorphism", None)
    with pytest.raises(SizeBound, match="125 lifts") as got:
        enumerate_lifts(rho, det_t)
    with pytest.raises(SizeBound) as want:
        oracle_solved_lifts(rho, det_t)
    assert str(got.value) == str(want.value)
    G = cyclic(3)
    rho = RepresentationModPn(G, 3, 2, G.extend_homomorphism(
        [(1, 3, 0, 1)], lambda a, b: mat_mul(a, b, 9)))
    monkeypatch.setattr(liftlab, "MAX_LIFTS", 0)
    assert enumerate_lifts(rho, [1] * 3) == []
    assert oracle_solved_lifts(rho, [1] * 3) == []


def test_enumerate_lifts_raises_when_a_solution_breaks_a_relation(
        monkeypatch):
    """Every solution goes through the full relation check; a failure
    there is an InvariantViolation, not a skipped candidate."""
    G, rho = s3_rep_mod5()

    def broken(gen_images, mul_img):
        raise ValueError("generator images are not compatible")

    monkeypatch.setattr(G, "extend_homomorphism", broken)
    with pytest.raises(InvariantViolation, match="not a homomorphism"):
        enumerate_lifts(rho, _teichmuller_dets(rho, 2))


# -- the generator-row coboundary solve against the full solve it replaces ----


def oracle_is_coboundary(model, M, c2):
    """The solve `is_coboundary` replaces: all n^2 d rows of d^1 at once.
    Returns the values of f, or None."""
    n, d, p = len(model), M.dim, M.p
    x = solve_modp(liftlab._coboundary(M, 1),
                   c2.values.reshape(n * n * d) % p, p)
    return None if x is None else x.reshape(n, d)


def _solve_edges(M, rhs):
    """`solve_modp(L, rhs, p)` for M's edge system L and rhs in [0, p):
    the solution read off L's one elimination (`CoboundaryMaps.solve`),
    returned only when L u = rhs (mod p) holds, else None."""
    p = M.p
    u = matmul_mod(M.coboundary_maps.solve, rhs, p)
    return u if np.array_equal(matmul_mod(M.tree_maps[3], u, p), rhs) \
        else None


def oracle_pair_solve_is_coboundary(model, M, c2):
    """The solve that one product with `AdjointModule.coboundary_solve`
    and the d^1 f = c certificate replace: the tree offsets b = offsets c
    and the edge right-hand side rhs c of the generator values c, L u =
    rhs solved on L's one elimination and kept after L u = rhs is
    checked, then the cocycle identity, then f = A u + b put in normal
    form.  Returns the values of f, or None."""
    n, d, p = len(model), M.dim, M.p
    g = len(model.generators)
    _, S, keep, _ = M.tree_maps
    offsets = np.zeros((n, n * g), dtype=np.int64)
    for k, i, j in model.tree:
        offsets[k] = offsets[i]
        offsets[k, i * g + j] -= 1
    unit = np.eye(n * g, dtype=np.int64).reshape(n, g, n * g)
    rhs = (offsets[:, None] - offsets[S] - unit)[keep]
    cs = c2.values[:, model.generators].reshape(-1, d) % p
    u = _solve_edges(M, (rhs @ cs % p).reshape(-1))
    if u is None or not liftlab._cocycle2_identity_holds(model, M, c2):
        return None
    Z, free = M.z1
    f = (M.tree_maps[0].reshape(n * d, -1) @ u
         + (offsets @ cs).reshape(-1)) % p
    return ((f - f[free] @ Z) % p).reshape(n, d)


def _assert_same_coboundary(name, G, M, c2):
    """is_coboundary against both oracles: one answer, and the same f."""
    got = is_coboundary(G, M, c2)
    for oracle in (oracle_is_coboundary, oracle_pair_solve_is_coboundary):
        want = oracle(G, M, c2)
        if want is None:
            assert got is None, (name, oracle.__name__)
        else:
            assert got is not None and np.array_equal(got.values, want), \
                (name, oracle.__name__)
    return got


def test_is_coboundary_matches_full_solve_on_obstructions():
    """The nine criterion-7 torsor instances and both levels of the
    borel_z3 scenario's group: one answer, and the same f."""
    obstructed = [name for name, G, M, obs in _obstruction_cochains()
                  if _assert_same_coboundary(name, G, M, obs) is None]
    assert obstructed == ["Z5-unip/p5", "Z3-obstructed/p3",
                          "Z5-obstructed/p5"]


def _check_scenario_coboundaries(monkeypatch, path):
    """Run a scenario with each is_coboundary call checked against both
    oracles; the scenario makes at least one."""
    calls = []

    def checked(G, M, c2):
        calls.append(path)
        return _assert_same_coboundary(path, G, M, c2)

    monkeypatch.setattr(liftlab, "is_coboundary", checked)
    with open(path) as fh:
        run_scenario(json.load(fh))
    assert calls


@pytest.mark.parametrize("name", ["borel_z3", "obstructed_z3",
                                  "ordinary_z4_p5"])
def test_is_coboundary_matches_full_solve_on_scenario_levels(monkeypatch,
                                                             name):
    """Every level of every shipped scenario, by checking each call the
    scenario runner makes."""
    _check_scenario_coboundaries(monkeypatch, f"data/scenarios/{name}.json")


@pytest.mark.parametrize("name", ["identity_generator_z3",
                                  "repeated_generator_z3", "tame_twist_z9",
                                  "tame_unrealizable_z3"])
def test_is_coboundary_matches_both_oracles_on_test_scenario_levels(
        monkeypatch, name):
    """Every level of the scenarios under tests/scenarios, likewise."""
    _check_scenario_coboundaries(monkeypatch, f"tests/scenarios/{name}.json")


def test_is_coboundary_matches_both_oracles_on_the_solver_modules():
    """On the nine torsor instances' modules and every shipped
    scenario's module with n and b: d^1 f for seeded random f, and for
    f plus a random cocycle (the same coboundary, so the same normal-form
    f, which d^1 takes back to it), and each of those moved at one
    entry, which is no coboundary."""
    rng = np.random.default_rng(37)
    answers = {True: 0, False: 0}
    modules = _solver_modules()
    assert len(modules) == 18
    for name, M in modules:
        G = M.model
        n, d, p = len(G), M.dim, M.p
        Z = z1_basis(G, M)
        for _ in range(3):
            f = rng.integers(0, p, (n, d))
            z = (rng.integers(0, p, len(Z)) @ Z % p).reshape(n, d)
            got = [_assert_same_coboundary(
                name, G, M, liftlab.Cochain(2, M, _coboundary(G, M, v)))
                for v in (f, (f + z) % p)]
            assert np.array_equal(got[0].values, got[1].values), name
            assert np.array_equal(_coboundary(G, M, got[0].values),
                                  _coboundary(G, M, f)), name
            moved = _coboundary(G, M, f)
            x, y, k = rng.integers(0, n), rng.integers(0, n), \
                rng.integers(0, d)
            moved[x, y, k] = (moved[x, y, k] + rng.integers(1, p)) % p
            assert _assert_same_coboundary(
                name, G, M, liftlab.Cochain(2, M, moved)) is None, name
            answers[True] += 2
            answers[False] += 1
    assert answers == {True: 108, False: 54}


def test_per_module_matrices_are_read_only_and_built_once(monkeypatch):
    """`coboundary_solve` and `obstruction_maps` are read-only, and one
    module builds each once over repeated obstruction classes, coboundary
    solves and lifting steps; another module builds its own."""
    built = []
    solve = liftlab._coboundary_solve

    def counted(G, M):
        built.append(M)
        return solve(G, M)

    monkeypatch.setattr(liftlab, "_coboundary_solve", counted)
    G, rho = s3_rep_mod5()
    det_t = _teichmuller_dets(rho, 2)
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    seen = set()
    for _ in range(3):
        obs = obstruction_class(rho, det_t, M)
        assert is_coboundary(G, M, obs) is not None
        assert lift_step(rho, det_t, M, [])[0] == "ok"
        seen.add((id(M.coboundary_solve), id(M.obstruction_maps)))
    assert built == [M] and len(seen) == 1
    n, d = len(G), M.dim
    assert M.coboundary_solve.shape == (n * d, n * len(G.generators) * d)
    assert M.obstruction_maps.shape == (n, n, 4, 4)
    for a in (M.coboundary_solve, M.obstruction_maps):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
    other = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    assert is_coboundary(G, other, liftlab.Cochain(2, other, obs.values))
    assert built == [M, other]
    assert other.coboundary_solve is not M.coboundary_solve


def test_is_coboundary_refuses_non_cocycles():
    """Random 2-cochains, and coboundaries changed at one pair (g, h)
    with h not a generator, where the generator rows alone are solvable:
    the full check still refuses every non-cocycle."""
    rng = np.random.default_rng(7)
    for name, G, M, obs in _obstruction_cochains():
        n, p = len(G), M.p
        for _ in range(3):
            c = liftlab.Cochain(2, M, rng.integers(0, p, obs.values.shape))
            _assert_same_coboundary(name, G, M, c)
        f = rng.integers(0, p, (n, M.dim))
        cob = _coboundary(G, M, f)
        got = _assert_same_coboundary(name, G, M,
                                      liftlab.Cochain(2, M, cob))
        assert np.array_equal(_coboundary(G, M, got.values), cob), name
        others = [h for h in range(n) if h not in G.generators]
        if others:
            cob[0, others[0], 0] = (cob[0, others[0], 0] + 1) % p
            assert not liftlab._cocycle2_identity_holds(
                G, M, liftlab.Cochain(2, M, cob)), name
            assert _assert_same_coboundary(
                name, G, M, liftlab.Cochain(2, M, cob)) is None, name


# -- Z^1, Z^2 and H^k from the generator rows against the full coboundaries
# -- and the hand-written quotient echelon they replaced ----------------------


def oracle_cocycles(M, degree):
    """The kernel of d^degree from all n^(degree+1) d rows."""
    return nullspace_modp(liftlab._coboundary(M, degree), M.p)


def oracle_quotient_basis(Z, B_rows, p):
    """dim and representatives of (row space of Z) / (row space of
    B_rows): each Z row reduced against B's echelon, and kept (and
    inserted into the echelon) when a residue is left."""
    Bred, bpiv = rref_modp(B_rows, p)
    acc, acc_piv = Bred[:len(bpiv)], list(bpiv)
    reps = []
    for z in Z % p:
        v = z.copy()
        for ri, pc in enumerate(acc_piv):
            if v[pc]:
                v = (v - v[pc] * acc[ri]) % p
        if np.any(v):
            lead = int(np.nonzero(v)[0][0])
            v = v * pow(int(v[lead]), -1, p) % p
            acc = np.vstack([acc, v])
            acc_piv.append(lead)
            reps.append(v)
    return len(reps), reps


def _cohomology_cases():
    """(name, model, module, degree): degree 1 on the groups of the
    obstruction cochains, and degree 2 where |G| <= 14."""
    return [(name, G, M, degree)
            for name, G, M, _ in _obstruction_cochains()
            for degree in ((1, 2) if len(G) <= 14 else (1,))]


def test_generator_rows_cut_out_the_full_cocycles():
    """The rows of d^k ending in a generator have the kernel of all the
    rows, so z1_basis and the kernel of `cohomology` are the full
    nullspace bases, and its dimension is the one the quotient echelon
    gives on them."""
    cases = _cohomology_cases()
    assert {degree for *_, degree in cases} == {1, 2}
    for name, G, M, degree in cases:
        Z = oracle_cocycles(M, degree)
        assert np.array_equal(nullspace_modp(
            liftlab._coboundary(M, degree, G.generators), M.p), Z), name
        if degree == 1:
            assert np.array_equal(z1_basis(G, M), Z), name
        want, _ = oracle_quotient_basis(
            Z, liftlab._coboundary(M, degree - 1).T, M.p)
        assert cohomology(G, M, degree)[0] == want, (name, degree)


def test_cohomology_representatives_are_independent_cocycles():
    """Each representative is killed by the full d^degree, and with the
    coboundaries they span a space of dimension rank B^degree + dim."""
    for name, G, M, degree in _cohomology_cases():
        p = M.p
        dim, reps = cohomology(G, M, degree)
        assert len(reps) == dim
        D = liftlab._coboundary(M, degree)
        for z in reps:
            assert not np.any(D @ z.values.reshape(-1) % p), name
        B = liftlab._coboundary(M, degree - 1).T % p
        rank_b = len(rref_modp(B, p)[1])
        stacked = np.vstack([B] + [z.values.reshape(1, -1) for z in reps])
        assert len(rref_modp(stacked, p)[1]) == rank_b + dim, name


# -- Z^1, the coboundary solve, the cocycle identity and the obstruction
# -- from generator values, against the bar-resolution solves and the
# -- per-pair loop they replace -----------------------------------------------


def oracle_z1_basis(G, M):
    """The kernel of the rows of d^1 that end in a generator."""
    return nullspace_modp(liftlab._coboundary(M, 1, G.generators), M.p)


def oracle_cohomology1(G, M):
    """H^1 with Z^1 from the generator rows of d^1, as (dim, reps)."""
    p = M.p
    Zred, zpiv = rref_modp(oracle_z1_basis(G, M), p)
    _, bpiv = rref_modp(liftlab._coboundary(M, 0).T, p)
    reps = [Zred[i] for i, c in enumerate(zpiv) if c not in bpiv]
    return len(reps), [z.reshape(len(G), M.dim) for z in reps]


def oracle_coords(w, selector, p):
    """Coordinates of the 2x2 matrix w in the module's basis, or None."""
    if selector == "ad0":
        inside = (w[0] + w[3]) % p == 0
        coords = [w[1] % p, w[0] % p, w[2] % p]
    elif selector == "n":
        inside = w[2] % p == 0 and w[0] % p == 0 and w[3] % p == 0
        coords = [w[1] % p]
    else:
        inside = w[2] % p == 0 and (w[0] + w[3]) % p == 0
        coords = [w[1] % p, w[0] % p]
    return coords if inside else None


def oracle_obstruction_class(rho, det_target, M):
    """tau(gh) tau(h)^-1 tau(g)^-1, one pair (g, h) at a time: the values
    mod p, or the ParseError message of a value outside the module."""
    p, n = rho.p, rho.n
    mod = p**(n + 1)
    G = rho.model
    tau = liftlab.set_theoretic_lift(rho, det_target)
    tau_inv = [mat_inv(t, mod) for t in tau]
    vals = np.zeros((len(G), len(G), M.dim), dtype=np.int64)
    for g in range(len(G)):
        for h in range(len(G)):
            F = mat_mul(mat_mul(tau[G.table[g][h]], tau_inv[h], mod),
                        tau_inv[g], mod)
            X = tuple(((x - (1 if i in (0, 3) else 0)) % mod) // p**n % p
                      for i, x in enumerate(F))
            c = oracle_coords(X, M.selector, p)
            if c is None:
                return (f"the obstruction at level {n + 1} takes a value "
                        f"outside the submodule {M.selector}")
            vals[g, h] = c
    return vals % p


def _upper_triangular(images, p):
    return all(m[2] % p == 0 for m in images)


def _modules(G, rhobar, p, selectors=("ad0", "n", "b")):
    return [AdjointModule(G, rhobar, s, p=p) for s in selectors
            if s == "ad0" or _upper_triangular(rhobar, p)]


def _scenario_levels(path):
    """(rho, det target, module) of every lift_step of a scenario run."""
    with open(path) as fh:
        spec = json.load(fh)
    seen = []
    step = liftlab.lift_step

    def recording(rho, det_target, M, conditions):
        seen.append((rho, det_target, M))
        return step(rho, det_target, M, conditions)

    liftlab.lift_step = recording
    try:
        run_scenario(spec)
    finally:
        liftlab.lift_step = step
    return seen


SCENARIO_PATHS = (
    "data/scenarios/borel_z3.json", "data/scenarios/obstructed_z3.json",
    "data/scenarios/ordinary_z4_p5.json",
    "tests/scenarios/repeated_generator_z3.json",
    "tests/scenarios/identity_generator_z3.json")


def generator_value_cases():
    """(name, model, module, rho, det target): the nine criterion-7
    torsor instances (ad0); every level of the three shipped scenarios
    and of the two scenarios whose groups stress the BFS tree, one of
    them listing a generator twice and one listing the identity (their
    module, and n and b where rho-bar is upper triangular); and for p in
    {3, 5, 7} the Borel group of F_p by (1, 1; 0, 1) and (a, 0; 0, 1), a
    a generator of F_p^*, at level 1, and the unipotent group of order
    p^2 by (1, 1; 0, 1) mod p^2 at levels 1 and 2, each with ad0, n and
    b."""
    out = []
    for name, G, p, level, gen_images in _torsor_scenarios():
        if len(gen_images) == len(G):
            images = [tuple(x % p**level for x in m) for m in gen_images]
        else:
            images = G.extend_homomorphism(
                gen_images, lambda a, b: mat_mul(a, b, p**level))
        rho = RepresentationModPn(G, p, level, images)
        out.append((name, G, AdjointModule(G, rho.rhobar(), "ad0", p=p),
                    rho, _teichmuller_dets(rho, level + 1)))
    for path in SCENARIO_PATHS:
        stem = os.path.basename(path)[:-5]
        for rho, det_t, M in _scenario_levels(path):
            G = rho.model
            for Ms in [M] + _modules(G, M.rhobar, rho.p, ("n", "b")):
                out.append((f"{stem}/level{rho.n + 1}/{Ms.selector}", G, Ms,
                            rho, det_t))
    for p, a in ((3, 2), (5, 2), (7, 3)):
        G = group_from_matrices([(1, 1, 0, 1), (a, 0, 0, 1)], p)
        rho = RepresentationModPn(G, p, 1, G.elements)
        for M in _modules(G, rho.rhobar(), p):
            out.append((f"borel-F{p}/level2/{M.selector}", G, M, rho,
                        _teichmuller_dets(rho, 2)))
        G = group_from_matrices([(1, 1, 0, 1)], p * p)
        for level in (1, 2):
            rho = RepresentationModPn(G, p, level, G.elements)
            det_t = [mat_det(m, p**(level + 1)) for m in G.elements]
            for M in _modules(G, rho.rhobar(), p):
                out.append((f"unipotent-p{p}^2/level{level + 1}/"
                            f"{M.selector}", G, M, rho, det_t))
    G = group_from_permutations([(1, 0)])
    rho = RepresentationModPn(G, 3, 2, G.extend_homomorphism(
        [(8, 3, 3, 1)], lambda a, b: mat_mul(a, b, 9)))
    det_t = G.extend_homomorphism([26], lambda a, b: a * b % 27)
    for M in _modules(G, rho.rhobar(), 3):
        out.append((f"outside-n/level3/{M.selector}", G, M, rho, det_t))
    G = cyclic(2)
    rho = RepresentationModPn(G, 3, 1, trivial_images(G))
    for M in _modules(G, rho.rhobar(), 3):
        out.append((f"Z2-trivial/level2/{M.selector}", G, M, rho, [1, 1]))
    G = cyclic(3)
    rho = RepresentationModPn(G, 3, 20, G.extend_homomorphism(
        [(0, 3**20 - 1, 1, 3**20 - 1)], lambda a, b: mat_mul(a, b, 3**20)))
    out.append(("Z3-integral/level21/ad0", G,
                AdjointModule(G, rho.rhobar(), "ad0", p=3), rho, [1] * 3))
    return out


def generator_value_cochains(name, G, M, obs):
    """Seeded 2-cochains for one case: the obstruction values (when they
    lie in the module), a coboundary d^1 f, the obstruction plus d^1 f, a
    random cochain, and the coboundary moved at one pair (g, h), h not a
    generator where there is one."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    n, d, p = len(G), M.dim, M.p
    cob = _coboundary(G, M, rng.integers(0, p, (n, d)))
    out = [cob]
    if not isinstance(obs, str):
        out += [obs, (obs + cob) % p]
    out.append(rng.integers(0, p, (n, n, d)))
    moved = cob.copy()
    h = next((h for h in range(n) if h not in G.generators), 0)
    g = int(rng.integers(n))
    moved[g, h] = (moved[g, h] + 1 + rng.integers(0, p - 1, d)) % p
    out.append(moved)
    return out


def _digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()


def generator_value_digests(name, G, M, rho, det_t) -> dict:
    """sha256 digests of what the public functions return on one case."""
    try:
        obs = obstruction_class(rho, det_t, M).values
        out = {"obstruction": _digest(obs)}
    except ParseError as exc:
        obs = str(exc)
        out = {"obstruction": f"ParseError: {exc}"}
    out["z1_basis"] = _digest(z1_basis(G, M))
    dim, reps = cohomology(G, M, 1)
    out["h1"] = [dim] + [_digest(z.values) for z in reps]
    out["is_coboundary"] = []
    for c in generator_value_cochains(name, G, M, obs):
        f = is_coboundary(G, M, liftlab.Cochain(2, M, c))
        out["is_coboundary"].append(None if f is None
                                    else _digest(f.values))
    return out


def oracle_cocycle2_identity_per_g(G, M, c) -> bool:
    """The check over all triples (g, h, k), one step per g."""
    p, v = M.p, c.values
    T = np.asarray(G.table)
    for g in range(len(G)):
        if np.any((v @ M._action[g].T - v[T[g]] + v[g][T]
                   - v[g][:, None, :]) % p):
            return False
    return True


def oracle_generator_rows_is_coboundary(G, M, c2):
    """The solve on the n g d rows of d^1 that end in a generator, then
    the cocycle check over all triples: values of f, or None."""
    n, d, p = len(G), M.dim, M.p
    x = solve_modp(liftlab._coboundary(M, 1, G.generators),
                   c2.values[:, G.generators].reshape(-1) % p, p)
    if x is None or not oracle_cocycle2_identity_per_g(G, M, c2):
        return None
    return x.reshape(n, d)


@pytest.fixture(scope="module")
def generator_cases():
    """Each case of `generator_value_cases` with its obstruction (values
    or ParseError message, by the pair loop) and its seeded cochains."""
    out = []
    for name, G, M, rho, det_t in generator_value_cases():
        obs = oracle_obstruction_class(rho, det_t, M)
        out.append((name, G, M, rho, det_t, obs,
                    generator_value_cochains(name, G, M, obs)))
    return out


def test_generator_values_match_recorded_digests(generator_cases):
    """z1_basis, cohomology(., 1), obstruction_class (or its ParseError)
    and is_coboundary on each case and its cochains have the sha256
    digests recorded with the bar-resolution solves and the pair loop."""
    with open("tests/golden/liftlab_generator_values.json") as fh:
        want = json.load(fh)
    assert len(generator_cases) == len(want) == 70
    for name, G, M, rho, det_t, *_ in generator_cases:
        assert generator_value_digests(name, G, M, rho, det_t) == \
            want[name], name


def test_tree_maps_drop_only_zero_rows(generator_cases):
    """On every case, the edge system over all n g pairs (x, j) is 0 on
    the tree's own pairs (i, j), both its rows and the right-hand side of
    `is_coboundary` on each of the case's cochains, and its other rows
    are L, in order."""
    dropped = 0
    for name, G, M, *_, cochains in generator_cases:
        n, d, p = len(G), M.dim, M.p
        g = len(G.generators)
        A, _, keep, L = liftlab._tree_maps(G, M)
        step = np.zeros((n, g, d, g, d), dtype=np.int64)
        for j in range(g):
            step[:, j, :, j, :] = M._action
        step = step.reshape(n, g, d, g * d)
        S = np.asarray(G.table)[:, G.generators]
        full = (A[S] - A[:, None] - step) % p
        tree = np.zeros((n, g), dtype=bool)
        for _, i, j in G.tree:
            tree[i, j] = True
        assert tree.sum() == len(G.tree) == n - len(set(G.generators))
        assert np.array_equal(keep, ~tree), name
        assert not full[tree].any(), name
        assert np.array_equal(full[~tree].reshape(-1, g * d), L), name
        for values in cochains:
            cs = values[:, G.generators] % p
            b = np.zeros((n, d), dtype=np.int64)
            for k, i, j in G.tree:
                b[k] = b[i] - cs[i, j]
            rhs = (b[:, None] - b[S] - cs) % p
            assert not rhs[tree].any(), name
        dropped += int(tree.sum())
    assert dropped == 1213


def test_z1_basis_and_h1_match_the_bar_resolution(generator_cases):
    """The same Z^1 basis array, and the same H^1 representatives, as
    the kernel of the generator rows of d^1."""
    dims = set()
    for name, G, M, *_ in generator_cases:
        Z = z1_basis(G, M)
        assert Z.dtype == np.int64 and Z.flags.c_contiguous, name
        assert np.array_equal(Z, oracle_z1_basis(G, M)), name
        dim, reps = cohomology(G, M, 1)
        want_dim, want_reps = oracle_cohomology1(G, M)
        assert dim == want_dim == len(reps), name
        for z, w in zip(reps, want_reps):
            assert np.array_equal(z.values, w), name
        dims.add(Z.shape[0])
    assert dims == {0, 1, 2, 3}


def test_obstruction_class_matches_the_pair_loop(generator_cases):
    """The same values, or the same ParseError for a value outside the
    module, as tau(gh) tau(h)^-1 tau(g)^-1 one pair at a time, in int64
    and (at 3^21) in Python integers."""
    refused = []
    for name, G, M, rho, det_t, want, _ in generator_cases:
        if isinstance(want, str):
            with pytest.raises(ParseError) as exc:
                obstruction_class(rho, det_t, M)
            assert str(exc.value) == want, name
            refused.append(name)
            continue
        got = obstruction_class(rho, det_t, M).values
        assert got.dtype == np.int64 and np.array_equal(got, want), name
    assert refused == ["outside-n/level3/n"]


def test_is_coboundary_matches_the_bar_resolution_solves(generator_cases):
    """On every case's cochains (coboundaries, obstructions, random
    cochains and coboundaries moved at one pair): the same f, or None,
    as the generator-row solve with the all-triples check, and for
    |G| <= 27 as the solve on all n^2 d rows of d^1."""
    answers = {True: 0, False: 0}
    for name, G, M, *_, cochains in generator_cases:
        for values in cochains:
            c2 = liftlab.Cochain(2, M, values)
            got = is_coboundary(G, M, c2)
            want = oracle_generator_rows_is_coboundary(G, M, c2)
            if want is None:
                assert got is None, name
            else:
                assert got is not None, name
                assert np.array_equal(got.values, want), name
            if len(G) <= 27:
                _assert_same_coboundary(name, G, M, c2)
            answers[got is not None] += 1
    assert answers == {True: 162, False: 186}


def test_cocycle_identity_on_generator_rows_matches_all_triples(
        generator_cases):
    """The generator-row check gives the all-triples verdict on every
    case's cochains, and the triple loop's for |G| <= 8."""
    verdicts = {True: 0, False: 0}
    for name, G, M, *_, cochains in generator_cases:
        for values in cochains:
            c = liftlab.Cochain(2, M, values)
            got = liftlab._cocycle2_identity_holds(G, M, c)
            assert got == oracle_cocycle2_identity_per_g(G, M, c), name
            if len(G) <= 8:
                assert got == oracle_cocycle2_identity_holds(G, M, c), name
            verdicts[got] += 1
    assert verdicts == {True: 208, False: 140}


# -- the torsor calls against the formulas they replaced ----------------------


def oracle_obstruction_cochain(rho, M, tau):
    """The cochain values as `_obstruction_cochain` computed them before
    it read rho-bar(gh)^-1 off the module: F = tau(gh) tau(h)^-1 tau(g)^-1
    from one inverse per element and two batched products, (F - Id) / p^n
    with the same remainder refusal, then the module's coordinates."""
    p, n = rho.p, rho.n
    mod = p**(n + 1)
    G = rho.model
    dtype = np.int64 if mod <= MAX_MODULUS else object
    tau_inv = np.array([mat_inv(t, mod) for t in tau],
                       dtype=dtype).reshape(-1, 2, 2)
    F = np.array(tau, dtype=dtype).reshape(-1, 2, 2)[G.table_array]
    F = (F @ tau_inv[None] % mod) @ tau_inv[:, None] % mod
    F = F.reshape(F.shape[:2] + (4,)) - MAT_ID
    value, rem = (np.divmod(F, p**n) if dtype is np.int64
                  else (F // p**n, F % p**n))
    if rem.any():
        raise ValueError(f"rho is not a homomorphism mod {p}^{n}")
    coords, inside = M._coords(value)
    if not inside:
        raise ParseError(f"the obstruction at level {n + 1} takes a value "
                         f"outside the submodule {M.selector}")
    return coords.astype(np.int64)


def oracle_solved_lifts(rho, det_target):
    """The images of the lifts as `enumerate_lifts` listed them before its
    one `_rref_mod` elimination: x0 from `solve_modp`, the kernel from
    `nullspace_modp` and the coset from `coset_modp`, sorted."""
    p, n = rho.p, rho.n
    G = rho.model
    mod, pn = p**(n + 1), p**n
    base = liftlab.set_theoretic_lift(rho, det_target)
    base_gen = [base[g] for g in G.generators]
    dim = 3 * len(base_gen)

    def mul(a, b):
        return mat_mul(a, b, mod)

    def gen_images(x):
        return [mul((1 + a * pn, b * pn, c * pn, 1 + (-a % p) * pn), A)
                for A, a, b, c in zip(base_gen, x[0::3], x[1::3], x[2::3])]

    def defects(x):
        imgs = gen_images(x)
        out = G.extend_along_tree(imgs, mul)
        return [(e - f) % mod
                for i, img_i in enumerate(out)
                for g, img_g in zip(G.generators, imgs)
                for e, f in zip(out[G.table[i][g]], mul(img_i, img_g))]

    d0 = defects([0] * dim)
    if any(e % pn for e in d0):
        return []
    cols = [[(e - f) % mod // pn for e, f in zip(defects(unit), d0)]
            for unit in np.eye(dim, dtype=np.int64).tolist()]
    L = np.array(cols, dtype=np.int64).T
    x0 = solve_modp(L, np.array([-e // pn % p for e in d0], dtype=np.int64),
                    p)
    if x0 is None:
        return []
    K = nullspace_modp(L, p)
    if p**len(K) > liftlab.MAX_LIFTS:
        raise SizeBound(f"{p**len(K)} lifts exceed the bound")
    return [G.extend_homomorphism(gen_images(x), mul)
            for x in sorted(map(tuple, coset_modp(x0, K, p).tolist()))]


def oracle_listed_lifts(rho, det_target):
    """The lifts as `enumerate_lifts` listed them before it solved the ad0
    module's edge system: 3g + 1 tree extensions for the defect columns,
    one `_rref_mod` elimination of [L | b] on its distinct rows, and
    every lift of the sorted coset built by `extend_homomorphism`, with
    equal images shared."""
    p, n = rho.p, rho.n
    G = rho.model
    mod, pn = p**(n + 1), p**n
    base = liftlab.set_theoretic_lift(rho, det_target)
    base_gen = [base[g] for g in G.generators]
    dim = 3 * len(base_gen)

    def mul(a, b):
        return mat_mul(a, b, mod)

    def gen_images(x):
        return [mul((1 + a * pn, b * pn, c * pn, 1 + (-a % p) * pn), A)
                for A, a, b, c in zip(base_gen, x[0::3], x[1::3], x[2::3])]

    def defects(x):
        imgs = gen_images(x)
        out = G.extend_along_tree(imgs, mul)
        return [(e - f) % mod
                for i, img_i in enumerate(out)
                for g, img_g in zip(G.generators, imgs)
                for e, f in zip(out[G.table[i][g]], mul(img_i, img_g))]

    d0 = defects([0] * dim)
    if any(e % pn for e in d0):
        return []
    cols = [[(e - f) % mod // pn for e, f in zip(defects(unit), d0)]
            for unit in liftlab._unit_vectors(dim)]
    rows = dict.fromkeys(zip(*cols, [-e // pn % p for e in d0]))
    R, pivots = liftlab._rref_mod(list(rows), p)
    if pivots and pivots[-1] == dim:
        return []
    x0 = [0] * dim
    for row, c in zip(R, pivots):
        x0[c] = row[dim]
    K = liftlab._kernel_basis(R, pivots, dim, p)
    if p**len(K) > liftlab.MAX_LIFTS:
        raise SizeBound(f"{p**len(K)} lifts exceed the bound")
    shared = {}
    lifts = []
    for x in sorted(liftlab._coset(x0, K, p)):
        lift = RepresentationModPn(
            G, p, n + 1, G.extend_homomorphism(gen_images(x), mul))
        lift.images = [shared.setdefault(m, m) for m in lift.images]
        lifts.append(lift)
    return lifts


def random_sl2_homomorphisms(count=12):
    """(name, rho, det target): seeded subgroups of SL_2(Z/p^n), p in
    {3, 5} and n in {1, 2}, by one or two random generators, with at most
    60 elements, each mapped to itself; the determinant is 1."""
    rng = random.Random(35)
    out = []
    while len(out) < count:
        p, n = rng.choice((3, 5)), rng.choice((1, 2))
        mod = p**n
        gens = []
        for _ in range(rng.choice((1, 2))):
            a = rng.choice([a for a in range(mod) if a % p])
            b, c = rng.randrange(mod), rng.randrange(mod)
            gens.append((a, b, c, (1 + b * c) * pow(a, -1, mod) % mod))
        try:
            G = group_from_matrices(gens, mod, max_size=60)
        except SizeBound:
            continue
        out.append((f"random-SL2-{p}^{n}/{len(out)}",
                    RepresentationModPn(G, p, n, G.elements), [1] * len(G)))
    return out


def _non_homomorphisms():
    """(name, rho, det target) of `non_homomorphism` at n = 2 (int64) and
    n = 20 (Python integers)."""
    out = []
    for n in (2, 20):
        rho = non_homomorphism(n)
        out.append((f"non-homomorphism/3^{n}", rho,
                     _teichmuller_dets(rho, n + 1)))
    return out


ALL_SCENARIO_PATHS = SCENARIO_PATHS + (
    "tests/scenarios/tame_twist_z9.json",
    "tests/scenarios/tame_unrealizable_z3.json")


@pytest.fixture(scope="module")
def torsor_cases(generator_cases):
    """(name, rho, det target, modules): every case of
    `generator_value_cases` (the nine torsor instances, the levels of
    five scenarios with n and b, Borel and unipotent groups, and Z/3 at
    level 21 in Python integers), the levels of the two tame scenarios,
    the seeded SL_2 homomorphisms and the two non-homomorphisms."""
    out = [(name, rho, det_t, [M])
           for name, _, M, rho, det_t, *_ in generator_cases]
    for path in ALL_SCENARIO_PATHS[len(SCENARIO_PATHS):]:
        stem = os.path.basename(path)[:-5]
        for rho, det_t, M in _scenario_levels(path):
            out.append((f"{stem}/level{rho.n + 1}", rho, det_t,
                        [M] + _modules(rho.model, M.rhobar, rho.p,
                                       ("n", "b"))))
    for name, rho, det_t in random_sl2_homomorphisms() + _non_homomorphisms():
        out.append((name, rho, det_t,
                    _modules(rho.model, rho.rhobar(), rho.p)))
    return out


def _result_or_refusal(f, *args):
    """f(*args), or the type and message of the ValueError or ParseError
    it raised."""
    try:
        return f(*args)
    except (ValueError, ParseError) as exc:
        return type(exc), str(exc)


def test_obstruction_cochain_matches_the_inverse_formula(torsor_cases):
    """One product and rho-bar(gh)^-1 give the inverse formula's values
    with the same dtype, or its refusal with the same message, on every
    case and module: ValueError on the non-homomorphisms, ParseError on
    a value outside n or b; and obstruction_class returns that cochain."""
    refused = {}
    modules = set()
    for name, rho, det_t, Ms in torsor_cases:
        tau = liftlab.set_theoretic_lift(rho, det_t)
        for M in Ms:
            modules.add(M.selector)
            want = _result_or_refusal(oracle_obstruction_cochain, rho, M,
                                      tau)
            got = _result_or_refusal(liftlab._obstruction_cochain, rho, M,
                                     tau)
            if isinstance(want, tuple):
                assert got == want, name
                refused[f"{name}/{M.selector}"] = want[0].__name__
                continue
            assert got.values.dtype == np.int64, name
            assert np.array_equal(got.values, want), name
            assert np.array_equal(
                obstruction_class(rho, det_t, M).values, want), name
    assert len(torsor_cases) == 70 + 3 + 12 + 2
    assert modules == {"ad0", "n", "b"}
    assert refused["outside-n/level3/n/n"] == "ParseError"
    assert [k for k, v in refused.items() if v == "ValueError"] == [
        f"non-homomorphism/3^{n}/{s}" for n in (2, 20)
        for s in ("ad0", "n", "b")]
    assert list(refused.values()).count("ParseError") == 8


def test_enumerate_lifts_matches_the_solved_system(torsor_cases):
    """The edge solve on the ad0 module gives the lifts that `solve_modp`,
    `nullspace_modp` and `coset_modp` gave, and those of the listing it
    replaced (`oracle_listed_lifts`), in the same order and with the same
    shared tuples, on every lift instance and case; [] where the system
    is inconsistent or rho is no homomorphism."""
    counts = {}
    # one case per rho: the n and b cases of a level share its rho
    cases = {id(rho): (name, rho, det_t)
             for name, rho, det_t, _ in reversed(torsor_cases)}
    for name, rho, det_t in _lift_instances() + list(cases.values()):
        lifts = enumerate_lifts(rho, det_t)
        got = [L.images for L in lifts]
        assert got == oracle_solved_lifts(rho, det_t), name
        _assert_same_listing(name, lifts, oracle_listed_lifts(rho, det_t))
        counts[name] = len(got)
    empty = {name for name, k in counts.items() if k == 0}
    assert {"Z3-obstructed/p3", "Z5-obstructed/p5", "Z5-unip/p5",
            "non-homomorphism/3^2"} <= empty
    assert (len(counts), len(empty)) == (51, 16)


def _assert_same_listing(name, got, want):
    """The same lifts in the same order, at the same level, with equal
    images one shared tuple in each listing."""
    assert [L.images for L in got] == [L.images for L in want], name
    assert [L.n for L in got] == [L.n for L in want], name
    for lifts in (got, want):
        images = [m for L in lifts for m in L.images]
        assert len({id(m) for m in images}) == len(set(images)), name


def test_enumerate_lifts_keeps_one_module_per_rhobar():
    """The levels of one rho-bar share one ad0 module on the model, kept
    across calls; another rho-bar on the same model gets its own."""
    G, rho = s3_rep_mod5()
    lifts = enumerate_lifts(rho, _teichmuller_dets(rho, 2))
    (M,) = G.lift_modules.values()
    assert M.selector == "ad0" and M.rhobar == rho.rhobar()
    enumerate_lifts(rho, _teichmuller_dets(rho, 2))
    enumerate_lifts(lifts[7], _teichmuller_dets(lifts[7], 3))
    assert list(G.lift_modules.values()) == [M]
    # Z^1 = Hom(S3, F_5^3) = 0: one lift
    trivial = RepresentationModPn(G, 5, 1, trivial_images(G))
    assert len(enumerate_lifts(trivial, [1] * len(G))) == 1
    assert len(G.lift_modules) == 2


def test_enumerate_lifts_module_dies_with_the_model():
    import gc
    import weakref
    G, rho = s3_rep_mod5()
    enumerate_lifts(rho, _teichmuller_dets(rho, 2))
    (M,) = G.lift_modules.values()
    dead = weakref.ref(M)
    del G, rho, M
    gc.collect()
    assert dead() is None


def test_enumerate_lifts_refuses_a_corrupted_affine_offset(monkeypatch):
    """A tree-map row of one element that is off by Id in its first block
    leaves the edge system as it is, so x0 and the kernel still solve it,
    but the listed images of that element are wrong: the f + 1 extension
    checks raise InvariantViolation rather than list them."""
    tree_maps = liftlab._tree_maps

    def corrupted(G, M):
        A, S, keep, L = tree_maps(G, M)
        A = A.copy()
        k = G.tree[-1][0]
        A[k, :, :3] = (A[k, :, :3] + np.eye(3, dtype=np.int64)) % M.p
        return A, S, keep, L

    monkeypatch.setattr(liftlab, "_tree_maps", corrupted)
    for name, rho, det_t in _lift_instances():
        if name in ("S3/p5", "SL2F3/p3", "Z4/p5"):
            with pytest.raises(InvariantViolation,
                               match="listed lift at kernel vector"):
                enumerate_lifts(rho, det_t)


def test_coset_matches_coset_modp():
    """`_coset` lists the vectors of `coset_modp` in the same order."""
    rng = random.Random(3)
    for p in (2, 3, 5):
        for f in range(4):
            n = rng.randint(f, 6) or 1
            x0 = [rng.randrange(p) for _ in range(n)]
            K = [[rng.randrange(p) for _ in range(n)] for _ in range(f)]
            want = coset_modp(np.array(x0, dtype=np.int64),
                              np.array(K, dtype=np.int64).reshape(f, n), p)
            assert liftlab._coset(x0, K, p) == list(map(tuple,
                                                       want.tolist()))


def _unipotent_z3():
    """Z/3 to (1, 1; 0, 1) at p = 3, level 1: nine lifts."""
    G = cyclic(3)
    rho = RepresentationModPn(G, 3, 1, G.extend_homomorphism(
        [(1, 1, 0, 1)], lambda a, b: mat_mul(a, b, 3)))
    return G, rho


def test_torsor_calls_refuse_a_module_of_another_rhobar():
    """The ad0 module of the trivial rho-bar on rho's own model: lift_step
    called this step obstructed, though nine lifts exist."""
    G, rho = _unipotent_z3()
    assert len(enumerate_lifts(rho, [1] * 3)) == 9
    M = AdjointModule(G, trivial_images(G), "ad0", p=3)
    for call in (lambda: obstruction_class(rho, [1] * 3, M),
                 lambda: lift_step(rho, [1] * 3, M, [])):
        with pytest.raises(ValueError, match="reduction mod 3 of rho"):
            call()


def test_torsor_calls_refuse_a_module_on_another_model():
    G, rho = _unipotent_z3()
    M = AdjointModule(cyclic(3), rho.rhobar(), "ad0", p=3)
    for call in (lambda: obstruction_class(rho, [1] * 3, M),
                 lambda: lift_step(rho, [1] * 3, M, [])):
        with pytest.raises(ValueError, match="is not the module's own"):
            call()


def test_torsor_calls_refuse_a_module_at_another_prime():
    """The trivial rho-bar on rho's model, with the module taken mod 5 and
    rho mod 3."""
    G = cyclic(3)
    rho = RepresentationModPn(G, 3, 1, trivial_images(G))
    M = AdjointModule(G, trivial_images(G), "ad0", p=5)
    for call in (lambda: obstruction_class(rho, [1] * 3, M),
                 lambda: lift_step(rho, [1] * 3, M, [])):
        with pytest.raises(ValueError, match="reduction mod 3 of rho"):
            call()


def _torsor_calls(rho, det_t):
    G = rho.model
    M = AdjointModule(G, rho.rhobar(), "ad0", p=rho.p)
    return (lambda: obstruction_class(rho, det_t, M),
            lambda: enumerate_lifts(rho, det_t),
            lambda: lift_step(rho, det_t, M, []))


@pytest.mark.parametrize("det_t, match", [
    ([1, 1], "no value for element 2 of 3"),
    ([1, 1, 1, 1], "a value for element 3, but the group has 3"),
])
def test_torsor_calls_refuse_a_det_target_of_the_wrong_length(det_t, match):
    """A short list raised IndexError, and a long one was cut to |G|
    (Z/3 with [1, 1, 1, 1] gave nine lifts)."""
    _, rho = _unipotent_z3()
    for call in _torsor_calls(rho, det_t):
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("count", [2, 7])
@pytest.mark.parametrize("entry", ["verify", "set_theoretic_lift",
                                   "obstruction_class", "enumerate_lifts",
                                   "lift_step"])
def test_a_representation_without_one_image_per_element_is_refused(
        entry, count):
    """S3 with 2 images made enumerate_lifts say the group had 2
    elements, and verify raise IndexError; with 7, verify passed and
    enumerate_lifts asked for a seventh determinant.  Every lift-lab call
    that reads rho names both counts."""
    G, rho = s3_rep_mod5()
    images = (rho.images * 2)[:count]
    bad = RepresentationModPn(G, 5, 1, images)
    M = AdjointModule(G, rho.rhobar(), "ad0", p=5)
    calls = {
        "verify": bad.verify,
        "set_theoretic_lift": lambda: liftlab.set_theoretic_lift(bad,
                                                                 [1] * 6),
        "obstruction_class": lambda: obstruction_class(bad, [1] * 6, M),
        "enumerate_lifts": lambda: enumerate_lifts(bad, [1] * 6),
        "lift_step": lambda: lift_step(bad, [1] * 6, M, []),
    }
    with pytest.raises(ValueError, match=f"rho has {count} images, but "
                       "its group has 6 elements"):
        calls[entry]()


def test_torsor_calls_refuse_a_det_target_off_det_rho():
    """Z/3 with the targets [2, 2, 2], which do not reduce mod 3 to
    det rho = 1, raised InvariantViolation, the class of an internal
    contradiction; the element named is the first one off."""
    _, rho = _unipotent_z3()
    for det_t, i in (([2, 2, 2], 0), ([1, 4, 2], 2)):
        for call in _torsor_calls(rho, det_t):
            with pytest.raises(ValueError, match=f"det_target of element "
                               f"{i} does not reduce mod 3\\^1"):
                call()
