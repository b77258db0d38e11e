import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from mulab.elliptic import Curve
from mulab.errors import (
    DenominatorAtP,
    InvariantViolation,
    NotStabilized,
    PrecisionExhausted,
)
from mulab.mazur_tate import (
    MazurTateElement,
    _gamma_index_table,
    analytic_iwasawa_invariants,
    inflate_norm,
    precision_guard,
    read_theta_cache,
    regularized_Lp,
    theta_cache_key,
    theta_element,
    write_theta_cache,
)
from mulab.modsym import EigenSymbol, build_manin_space
from mulab.padic import (
    hensel_unit_root,
    mu_lambda_of_polynomial,
    teichmuller,
)
from test_modsym import generator_numerators, oracle_eigen_table
from test_padic import group_ring_from_T, oracle_mu_lambda

P, N = 5, 6

CURVES = {
    "11a1": (0, -1, 1, -10, -20),
    "11a2": (0, -1, 1, -7820, -263580),
    "11a3": (0, -1, 1, 0, 0),
}


# a_5 of the 11a isogeny class
A_P = Curve(*CURVES["11a1"]).ap(P)


def coeffs(theta: MazurTateElement) -> tuple[Fraction, ...]:
    """The coefficients of theta as Fractions."""
    return tuple(Fraction(x, theta.den) for x in theta.nums)


def element(p, N, n, fractions) -> MazurTateElement:
    """The Mazur-Tate element with these Fraction coefficients, over
    their least common denominator."""
    den = lcm(*(Fraction(c).denominator for c in fractions))
    nums = [int(c * den) for c in fractions]
    g = gcd(den, *nums)
    return MazurTateElement(p, N, n, tuple(x // g for x in nums), den // g)


@pytest.fixture(scope="module")
def space():
    return build_manin_space(11)


@pytest.fixture(scope="module")
def symbols(space):
    return {name: EigenSymbol(space, Curve(*a), 11)
            for name, a in CURVES.items()}


@pytest.fixture(scope="module")
def thetas(symbols):
    return {name: [theta_element(es, P, n, N) for n in range(4)]
            for name, es in symbols.items()}


def project_layer(theta: MazurTateElement) -> MazurTateElement:
    """Push layer n to layer n-1: gamma^j -> gamma^(j mod p^(n-1))."""
    if theta.n < 1:
        raise InvariantViolation(
            f"cannot project layer {theta.n} to the layer below")
    size = theta.p**(theta.n - 1)
    out = [Fraction(0)] * size
    for j, c in enumerate(coeffs(theta)):
        out[j % size] += c
    return element(theta.p, theta.N, theta.n - 1, out)


def test_normalizations(symbols):
    assert symbols["11a1"].base_value == Fraction(1, 5)
    assert symbols["11a2"].base_value == Fraction(1)
    assert symbols["11a3"].base_value == Fraction(1, 25)
    # ratios of the three lattice normalizations are powers of 5
    for a in CURVES:
        for b in CURVES:
            q = symbols[a].base_value / symbols[b].base_value
            while q.numerator % 5 == 0:
                q = q / 5
            while q.denominator % 5 == 0:
                q = q * 5
            assert q == 1


def test_theta_layer0_is_single_coefficient(thetas):
    for name in CURVES:
        assert len(thetas[name][0].nums) == 1
    # the trivial-layer coefficient carries the Eisenstein denominator
    assert coeffs(thetas["11a1"][0]) == (Fraction(-1, 5),)


def test_coefficient_counts(thetas):
    for name in CURVES:
        for n in range(4):
            assert len(thetas[name][n].nums) == 5**n


def norm_relation_defect(theta_n, theta_prev, theta_prev2, a_p):
    """pi(theta_n) - (a_p * theta_(n-1) - nu(theta_(n-2))); all zero when
    the three-term relation holds."""
    lhs = project_layer(theta_n)
    nu = inflate_norm(theta_prev2)
    if not lhs.n == theta_prev.n == nu.n:
        raise InvariantViolation(
            f"layers {lhs.n}, {theta_prev.n} and {nu.n} differ")
    return tuple(x - (a_p * y - z)
                 for x, y, z in zip(coeffs(lhs), coeffs(theta_prev),
                                    coeffs(nu), strict=True))


def test_norm_relation(thetas):
    for name in CURVES:
        t = thetas[name]
        for n in (2, 3):
            defect = norm_relation_defect(t[n], t[n - 1], t[n - 2], A_P)
            assert all(c == 0 for c in defect)


def test_projection_inflation_adjoint(thetas):
    # pi(nu(x)) = p * x
    t1 = thetas["11a1"][1]
    back = project_layer(inflate_norm(t1))
    assert coeffs(back) == tuple(5 * c for c in coeffs(t1))


def oracle_theta_element(es, p, n, N):
    """theta_n as the sum of one `evaluate` Fraction per unit a: the path
    the integer table sums replaced."""
    m = p**(n + 1)
    table = _gamma_index_table(p, n)
    acc = [Fraction(0)] * (p**n)
    for a in range(1, m):
        if a % p == 0:
            continue
        acc[table[a]] += es.evaluate(a, m)
    return tuple(acc)


# -- the paths the half walk and the one-pass index table replaced: every
# -- unit a, and a Teichmuller pow chain per unit ---------------------------


def teichmuller_gamma_index_table(p, n):
    """a -> t with a * teichmuller(a)^(-1) = (1+p)^t mod p^(n+1)."""
    mod = p**(n + 1)
    powers = {}
    g = 1
    for t in range(p**n):
        powers[g] = t
        g = g * (1 + p) % mod
    table = {}
    for a in range(1, mod):
        if a % p == 0:
            continue
        w = teichmuller(a, p, n + 1)
        u = a * pow(w, -1, mod) % mod
        table[a] = powers[u]
    return table


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_gamma_index_table_matches_teichmuller(p):
    for n in range(4):
        table = _gamma_index_table(p, n)
        assert {a: table[a] for a in range(p**(n + 1)) if a % p} == \
            teichmuller_gamma_index_table(p, n)


def full_walk_theta_numerators(es, p, n):
    m = p**(n + 1)
    table = teichmuller_gamma_index_table(p, n)
    acc = [0] * (p**n)
    for a in range(1, m):
        if a % p:
            acc[table[a]] += es.path_numerator(a, m)
    return acc


CORPUS = Path(__file__).resolve().parent.parent / "data" \
    / "corpus_reducible.json"


@pytest.mark.parametrize("rec", json.loads(CORPUS.read_text()),
                         ids=lambda rec: rec["label"])
def test_half_walk_theta_matches_the_full_walk(rec):
    """Every corpus curve at its own p, every layer the CLI defaults read
    (0..3): the same coefficients as the sum over every unit a."""
    es = EigenSymbol(build_manin_space(rec["conductor"]),
                     Curve(*rec["ainvs"]), rec["conductor"])
    for n in range(4):
        theta = theta_element(es, rec["p"], n, N)
        assert coeffs(theta) == tuple(
            Fraction(x, es.den)
            for x in full_walk_theta_numerators(es, rec["p"], n))


@pytest.mark.parametrize("label", ["11a1", "11a3", "n26-3", "n110-1"])
def test_theta_matches_evaluate_sum(label):
    rec = next(r for r in json.loads(CORPUS.read_text())
               if r["label"] == label)
    es = EigenSymbol(build_manin_space(rec["conductor"]),
                     Curve(*rec["ainvs"]), rec["conductor"])
    for n in range(3):
        theta = theta_element(es, rec["p"], n, N)
        assert coeffs(theta) == oracle_theta_element(es, rec["p"], n, N)


def test_layer_checks_raise(thetas):
    with pytest.raises(InvariantViolation, match="layer 0"):
        project_layer(thetas["11a1"][0])
    with pytest.raises(InvariantViolation, match="coefficients"):
        MazurTateElement(5, N, 1, (1,), 1)
    with pytest.raises(InvariantViolation, match="theta_prev"):
        regularized_Lp(thetas["11a1"][2], thetas["11a1"][0], A_P)


def test_layer_checks_raise_under_O():
    """The checks are no bare asserts, so `python -O` keeps them."""
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "from mulab.errors import InvariantViolation\n"
         "from mulab.mazur_tate import MazurTateElement\n"
         "from test_mazur_tate import project_layer\n"
         "theta = MazurTateElement(5, 6, 0, (1,), 1)\n"
         "try:\n"
         "    project_layer(theta)\n"
         "except InvariantViolation:\n"
         "    print('raised')\n"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "raised"


def test_theta_linearity(symbols):
    """theta_n is linear in the symbol, which lets `theta_element` take
    r times the walk sums of phi0: 11a1's symbol with its scale r times
    5 has 5 times its theta, by theta_element on the shared walk sums
    and by one `evaluate` per unit of 5 phi."""
    es = symbols["11a1"]
    t = theta_element(es, P, 1, N)
    es5 = EigenSymbol.__new__(EigenSymbol)
    es5.__dict__.update(es.__dict__)
    es5.scale = 5 * es.scale
    es5.den = es5.scale.denominator * es.space._den
    t5 = theta_element(es5, P, 1, N)
    assert coeffs(t5) == tuple(5 * c for c in coeffs(t))
    assert oracle_theta_element(es5, P, 1, N) == coeffs(t5)


def test_regularized_compatibility(thetas):
    """The image of L_n at layer n-1 equals L_(n-1): gamma^j goes to
    gamma^(j mod p^(n-1)) on the group-ring residues, and the three
    layers read identical invariants."""
    for name in CURVES:
        t = thetas[name]
        L = [regularized_Lp(t[n], t[n - 1], A_P) for n in range(1, 4)]
        for hi, lo in zip(L[1:], L):
            image = [0] * len(lo)
            for j, c in enumerate(hi):
                image[j % len(image)] += c
            assert tuple(c % P**N for c in image) == lo, name
        invs = [mu_lambda_of_polynomial(x, P, N) for x in L]
        assert invs[0] == invs[1] == invs[2]


ZERO_LAYER0 = MazurTateElement(P, N, 0, (0,), 1)


def test_regularized_theta_prev_none(thetas):
    """With a zero previous layer, L_n is alpha^-(n+1) theta_n with no
    correction term."""
    t1 = thetas["11a2"][1]
    L = regularized_Lp(t1, ZERO_LAYER0, A_P)
    ainv2 = pow(hensel_unit_root(A_P, P, N), -2, 5**N)
    direct = tuple(ainv2 * c.numerator * pow(c.denominator, -1, 5**N) % 5**N
                   for c in coeffs(t1))
    assert L == direct


def residues(theta) -> tuple[int, ...]:
    """The coefficients of a Mazur-Tate element mod p^N; DenominatorAtP
    if one is not p-integral."""
    mod = theta.p**theta.N
    out = []
    for c in coeffs(theta):
        if c.denominator % theta.p == 0:
            raise DenominatorAtP(
                f"coefficient {c} has p={theta.p} in its denominator")
        out.append(c.numerator * pow(c.denominator, -1, mod) % mod)
    return tuple(out)


def test_denominator_at_p_raises():
    """Both raise sites: a theta coefficient with p in its denominator
    has no residue mod p^N, and regularizing a layer-1 element with a
    coefficient 1/p over a zero layer 0 leaves 1/p in L_1."""
    theta = MazurTateElement(5, N, 0, (1,), 5)
    with pytest.raises(DenominatorAtP, match="denominator"):
        residues(theta)
    t1 = MazurTateElement(5, N, 1, (1, 0, 0, 0, 0), 5)
    with pytest.raises(DenominatorAtP, match="not p-integral"):
        regularized_Lp(t1, ZERO_LAYER0, A_P)


def test_mu_lambda_11a_class(thetas):
    """The worked example: mu = 1, 2, 0 for 11a1, 11a2, 11a3 at p = 5,
    stabilized across consecutive layers, with lambda an isogeny
    invariant."""
    expected_mu = {"11a1": 1, "11a2": 2, "11a3": 0}
    lambdas = set()
    for name in CURVES:
        t = thetas[name]
        L = [regularized_Lp(t[n], t[n - 1], A_P) for n in range(1, 4)]
        mu, lam, stab = analytic_iwasawa_invariants(
            [mu_lambda_of_polynomial(x, P, N) for x in L])
        assert mu == expected_mu[name], name
        assert stab <= 3
        lambdas.add(lam)
    assert len(lambdas) == 1  # lambda is an isogeny invariant


def test_interpolation_euler_factor(thetas, symbols):
    """aug(L_n) = (1 - alpha^-1)^2 * L(E,1)/Omega, exactly mod p^N after
    clearing the p-part of the rational value's denominator."""
    alpha = hensel_unit_root(A_P, P, N + 3)
    for name in CURVES:
        t = thetas[name]
        L2 = regularized_Lp(t[2], t[1], A_P)
        aug = sum(L2) % P**N
        ratio = symbols[name].base_value
        d0, v = ratio.denominator, 0
        while d0 % P == 0:
            d0 //= P
            v += 1
        bigmod = P**(N + v)
        ainv = pow(alpha, -1, bigmod)
        expected_scaled = ((1 - ainv)**2 * ratio.numerator
                           * pow(d0, -1, bigmod)) % bigmod
        assert (aug * P**v - expected_scaled) % P**N == 0


def test_not_stabilized_and_guard():
    a = group_ring_from_T(5, 4, [1, 0, 0])
    b = group_ring_from_T(5, 4, [5, 1, 0])
    with pytest.raises(NotStabilized):
        analytic_iwasawa_invariants([mu_lambda_of_polynomial(a, 5, 4),
                                     mu_lambda_of_polynomial(b, 5, 4)])
    with pytest.raises(NotStabilized):
        analytic_iwasawa_invariants([mu_lambda_of_polynomial(a, 5, 4)])
    assert precision_guard(6, 2, 2)
    assert not precision_guard(6, 2, 3)


def test_invariants_read_where_every_later_layer_agrees():
    """The pair is read from the run of agreeing layers that ends at the
    last layer; on every sequence whose first agreeing pair no later
    layer contradicts, that is the first-agreeing-pair answer."""
    import itertools

    def layer(mu, lam):
        return group_ring_from_T(3, 6, [0] * lam + [3**mu])

    def read(pairs):
        return analytic_iwasawa_invariants(
            [mu_lambda_of_polynomial(layer(*t), 3, 6) for t in pairs])

    # N = 182, p = 3: layers 1-2 read (1, 2), layers 3-4 read (0, 10)
    with pytest.raises(NotStabilized, match="raise --layers"):
        read([(1, 2), (1, 2), (0, 10)])
    assert read([(1, 2), (1, 2), (0, 10), (0, 10)]) == (0, 10, 4)
    assert read([(2, 0), (0, 1), (0, 1), (0, 1)]) == (0, 1, 3)
    alphabet = [(0, 1), (1, 0), (0, 10)]
    for n in (2, 3, 4):
        for pairs in itertools.product(alphabet, repeat=n):
            first = next((i for i in range(1, n)
                          if pairs[i] == pairs[i - 1]), None)
            if first is not None and len(set(pairs[first:])) == 1:
                assert read(pairs) == (*pairs[first], first + 1), pairs
            elif pairs[-1] != pairs[-2]:
                with pytest.raises(NotStabilized):
                    read(pairs)


KEY_11A1 = theta_cache_key(CURVES["11a1"], 11, P, 2, N)


def test_cache_round_trip(tmp_path, thetas):
    t = thetas["11a1"][2]
    path = write_theta_cache(str(tmp_path), "11a1", t, KEY_11A1)
    assert path == str(tmp_path / "11a1" / "5" / "theta_2.json")
    assert read_theta_cache(str(tmp_path), "11a1", KEY_11A1) == t
    # the file holds the key and theta's numbers, nothing else
    with open(path) as fh:
        assert fh.read() == json.dumps(
            {"key": KEY_11A1, "den": t.den, "nums": list(t.nums)},
            sort_keys=True, separators=(",", ":"))
    assert KEY_11A1["format"] == 3


def test_cache_miss_on_other_key(tmp_path, thetas):
    t = thetas["11a1"][2]
    write_theta_cache(str(tmp_path), "11a1", t, KEY_11A1)
    for other in (theta_cache_key(CURVES["11a3"], 11, P, 2, N),
                  theta_cache_key(CURVES["11a1"], 11, P, 2, N + 2),
                  dict(KEY_11A1, format=KEY_11A1["format"] - 1)):
        assert read_theta_cache(str(tmp_path), "11a1", other) is None
    assert read_theta_cache(str(tmp_path), "11a2", KEY_11A1) is None


def test_cache_miss_on_a_format_2_file(tmp_path, thetas):
    """A file of the previous layout (label, normalization and Fraction
    strings, under a format-2 key) is a miss, never read as format 3."""
    t = thetas["11a1"][2]
    path = write_theta_cache(str(tmp_path), "11a1", t, KEY_11A1)
    old_key = dict(KEY_11A1, format=2)
    with open(path, "w") as fh:
        json.dump({"key": old_key, "label": "11a1", "p": P, "N": N,
                   "n": 2, "normalization": "neron",
                   "coeffs": [str(c) for c in coeffs(t)]}, fh)
    assert read_theta_cache(str(tmp_path), "11a1", KEY_11A1) is None
    assert read_theta_cache(str(tmp_path), "11a1", old_key) is None


@pytest.mark.parametrize("damage", [
    "truncate", "garbage", "list", "short", "long", "bad-coefficient",
    "missing-den", "zero-den", "negative-den", "float-num", "bool-num",
    "string-den", "common-factor", "nums-not-a-list"])
def test_cache_miss_on_corrupt_file(tmp_path, thetas, damage):
    t = thetas["11a1"][2]
    path = write_theta_cache(str(tmp_path), "11a1", t, KEY_11A1)
    with open(path) as fh:
        text = fh.read()
    data = json.loads(text)
    nums = data["nums"]
    changes = {
        "short": {"nums": nums[:-1]},
        "long": {"nums": nums + [0]},
        "bad-coefficient": {"nums": ["1/0"] + nums[1:]},
        "zero-den": {"den": 0},
        "negative-den": {"den": -data["den"], "nums": [-x for x in nums]},
        "float-num": {"nums": [float(nums[0])] + nums[1:]},
        "bool-num": {"nums": [True] + nums[1:]},
        "string-den": {"den": str(data["den"])},
        "common-factor": {"den": 3 * data["den"],
                          "nums": [3 * x for x in nums]},
        "nums-not-a-list": {"nums": dict(enumerate(nums))},
    }
    if damage == "truncate":
        text = text[:len(text) // 2]
    elif damage == "garbage":
        text = "\x00\xff{"
    elif damage == "list":
        text = "[1, 2]"
    elif damage == "missing-den":
        del data["den"]
        text = json.dumps(data)
    else:
        text = json.dumps(dict(data, **changes[damage]))
    with open(path, "w") as fh:
        fh.write(text)
    assert read_theta_cache(str(tmp_path), "11a1", KEY_11A1) is None


# -- the Fraction path that integer numerators over one denominator
# -- replaced: theta as Fractions, and L_n by a modular inverse per
# -- coefficient with alpha carried at a fixed precision ----------------------


def oracle_theta_coeffs(es, p, n):
    """theta_n as Fractions: the half-walk sums, each over es.den."""
    m = p**(n + 1)
    table = _gamma_index_table(p, n)
    acc = [0] * (p**n)
    for a in range(1, (m + 1) // 2):
        if a % p:
            acc[table[a]] += es.path_numerator(a, m)
    return tuple(Fraction(2 * x, es.den) for x in acc)


def oracle_denominator_exponent(cs, p):
    """Largest e with p^e dividing a coefficient denominator."""
    e = 0
    for c in cs:
        d, v = c.denominator, 0
        while d % p == 0:
            d //= p
            v += 1
        e = max(e, v)
    return e


def oracle_regularized_Lp(cs_n, cs_prev, p, N, n, alpha, alpha_N):
    """(e, residues of L_n mod p^N) from the Fraction coefficients of
    layers n and n - 1, alpha the unit root mod p^alpha_N;
    DenominatorAtP when p^e L_n is not divisible by p^e."""
    e = max(oracle_denominator_exponent(cs_n, p),
            oracle_denominator_exponent(cs_prev, p))
    if alpha_N < N + e:
        raise ValueError(f"alpha needs precision >= {N + e}")
    bigmod = p**(N + e)
    ainv = pow(alpha, -1, bigmod)

    def lift(q):
        den, v = q.denominator, 0
        while den % p == 0:
            den //= p
            v += 1
        return q.numerator * p**(e - v) * pow(den, -1, bigmod) % bigmod

    small = len(cs_prev)
    scaled = [(lift(c) - ainv * lift(cs_prev[j % small])) % bigmod
              for j, c in enumerate(cs_n)]
    mod, q = p**N, p**e
    scale = pow(ainv, n + 1, mod)
    out = []
    for c in scaled:
        if c % q:
            raise DenominatorAtP(f"residue {c} mod p^{N + e}")
        out.append(c // q * scale % mod)
    return e, tuple(out)


def _outcome(fn, *args):
    """fn(*args), or the type of the DenominatorAtP or PrecisionExhausted
    it raises."""
    try:
        return fn(*args)
    except (DenominatorAtP, PrecisionExhausted) as exc:
        return type(exc)


DIFFERENTIAL_CASES = [
    pytest.param(r["label"], r["ainvs"], r["conductor"], r["p"], N,
                 id=f"{r['label']}-p{r['p']}")
    for r in json.loads(CORPUS.read_text())
] + [pytest.param("11a1", CURVES["11a1"], 11, 17, 100, id="11a1-p17-N100")]


@pytest.mark.parametrize("label, ainvs, conductor, p, prec",
                         DIFFERENTIAL_CASES)
def test_integer_path_matches_fraction_oracle(label, ainvs, conductor, p,
                                              prec):
    """The corpus at each record's p (11a1, 11a2 and 11a3 at p = 5 among
    it) and 11a1 at p = 17, precision 100, at layers 0-3: the
    eigensymbol's den, generator numerators, denominator bound and base
    value, and at every layer the exponent e, the L_n residues or the
    DenominatorAtP refusal, and (mu, lambda) or PrecisionExhausted, as
    the Fraction path gives them with alpha carried at precision
    prec + layers + 2."""
    E = Curve(*ainvs)
    es = EigenSymbol(build_manin_space(conductor), E, conductor)
    assert (es.den, generator_numerators(es), es.denominator_bound,
            es.base_value) == oracle_eigen_table(es)
    a_p = E.ap(p)
    layers = 3
    alpha_N = prec + layers + 2
    alpha = hensel_unit_root(a_p, p, alpha_N)
    thetas = [theta_element(es, p, n, prec) for n in range(layers + 1)]
    oracle = [oracle_theta_coeffs(es, p, n) for n in range(layers + 1)]
    for n in range(layers + 1):
        assert coeffs(thetas[n]) == oracle[n], n
    for n in range(1, layers + 1):
        e = max(oracle_denominator_exponent([Fraction(1, t.den)], p)
                for t in thetas[n - 1:n + 1])
        got = _outcome(regularized_Lp, thetas[n], thetas[n - 1], a_p)
        want = _outcome(lambda: oracle_regularized_Lp(
            oracle[n], oracle[n - 1], p, prec, n, alpha, alpha_N))
        if want is DenominatorAtP:
            assert got is DenominatorAtP, n
            continue
        assert (e, got) == want, n
        assert _outcome(mu_lambda_of_polynomial, got, p, prec) == \
            _outcome(oracle_mu_lambda, want[1], p, prec), n
