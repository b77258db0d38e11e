"""Residual mod-p analysis of a rational elliptic curve: rational
p-isogeny kernels, the Galois character on each kernel line, trace-based
semisimplification, the aligned/skew dichotomy and congruence evidence
for the degree of alignment.

The scalar by which Frob_ell acts on a kernel line is found by Elkies'
eigenvalue test: the candidate roots of X^2 - a_ell X + ell mod p are
checked against the x- and y-coordinate identities of the division
polynomials in F_ell[x]/(h), h the kernel polynomial mod ell, so no
point, field extension or square root is built.  At ell = 2 the x-test
cannot separate lambda from -lambda, and a_2 = 0 mod p is refused.

Kernel polynomials come out of the p-division polynomial by classical
Zassenhaus factorization (factor mod q, Hensel lift, bounded subset
recombination) restricted to the target degree (p-1)/2: only the factors
mod q of degree <= (p-1)/2 are split out and recombined, and the product
of the others is lifted as one block.  A check in Q[x]/(h) that the
roots are closed under duplication follows.  The factors mod q are
lifted to mod q^k along a balanced factor tree by quadratic Hensel
steps, which double the exponent of q at each step.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from .arith import (
    factorize,
    is_probable_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_xgcd,
)
from .dirichlet import (
    DirichletCharacter,
    enumerate_characters,
    is_odd,
    liftable_character,
    mod_p_cyclotomic,
)
from .elliptic import Curve
from .errors import (
    AmbiguousPair,
    BadReduction,
    FactorizationInconclusive,
    InsufficientLineData,
    InvariantViolation,
    RootLiftFailure,
)
from .ffield import factor_squarefree

# -- Zassenhaus ---------------------------------------------------------------


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


def _hensel_pair(f, g, h, q, k_target):
    """Lift f = g*h (mod q) to mod q^k_target, f and g, h monic.

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
    if poly_sub(f, poly_mul(G, H), q**k_target):
        raise InvariantViolation(
            f"Hensel lift does not factor f mod {q}^{k_target}")
    return G, H


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


def monic_factors_of_degree(poly, d, max_subsets: int = 1 << 16):
    """All monic integer factors of the given degree of the monicized
    polynomial, by Zassenhaus recombination.  Only the factors mod q of
    degree <= d can enter a factor of degree d, so only those are split
    out; the product of the others is lifted as one block and left out
    of the recombination.  The Cantor-Zassenhaus splits mod q draw from
    one fixed seed, so the run is reproducible."""
    prim = [c // _content(poly) for c in poly]
    F, lc = _monicize(prim)
    rng = random.Random(1234567)
    # choose q with F squarefree mod q
    q = 5
    while True:
        q += 2
        if not is_probable_prime(q) or lc % q == 0:
            continue
        if len(poly_gcd(F, poly_deriv(F, q), q)) == 1:
            break
    fac, rest = factor_squarefree(F, q, rng, d)
    if sum(len(g) - 1 for g in fac + [rest]) != len(F) - 1:
        raise InvariantViolation(
            f"factors mod {q} do not account for the degree "
            f"{len(F) - 1} of the monicized polynomial")
    bound = _mignotte_bound(F, d)
    k = 1
    while q**k < 2 * bound + 1:
        k += 1
    blocks = fac + [rest] if len(rest) > 1 else fac
    lifted = _hensel_tree(F, blocks, q, k)[:len(fac)]
    m = q**k
    # subsets with degree sum d
    out = []
    seen = set()
    count = 0
    idxs = list(range(len(lifted)))

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
            key = tuple(H)
            if key not in seen:
                seen.add(key)
                if not poly_divmod(F, H)[1]:
                    out.append(H)
            return
        for i in range(start, len(idxs)):
            dd = len(lifted[i]) - 1
            if dd <= remaining:
                rec(i + 1, remaining - dd, current + [i])

    rec(0, d, [])
    return out, lc


def kernel_polynomials(E: Curve, p: int):
    """Monic rational polynomials (denominators only at p) cutting out the
    kernels of the rational p-isogenies of E; may be empty."""
    psi = E.division_polynomial(p)
    d = (p - 1) // 2
    factors, lc = monic_factors_of_degree(psi, d)
    out = []
    for H in factors:
        # h(x) = H(lc*x) / lc^d
        h = poly_monic([Fraction(c * lc**i, lc**d)
                        for i, c in enumerate(H)])
        if _kernel_stable(E, h):
            out.append(tuple(h))
    # canonical order
    return sorted(set(out))


def _kernel_stable(E: Curve, h) -> bool:
    """The set {roots of h} must be closed under the duplication map."""
    num, den = E.duplication_x()
    one, den_inv, _ = poly_xgcd(den, h)
    if one != [1]:
        return False
    x2 = poly_divmod(poly_mul(num, den_inv), h)[1]
    # h(x2) mod h, by Horner
    acc = []
    for c in reversed(h):
        acc = poly_divmod(poly_add(poly_mul(acc, x2), [c]), h)[1]
    return acc == []


# -- Frobenius scalar on a kernel line ----------------------------------------


def frobenius_scalar(E: Curve, kernel_poly, ell: int, p: int) -> int:
    """Eigenvalue in F_p^* of Frob_ell on the kernel line cut out by
    kernel_poly, for a good prime ell distinct from p.

    Elkies' test (Schoof, J. Theor. Nombres Bordeaux 7 (1995), sections
    7-8) in F_ell[x]/(h), h = kernel_poly mod ell: Frob(P) = lambda P on
    the line for a root lambda of X^2 - a_ell X + ell mod p.  With
    l = min(lambda, p - lambda), x(P)^ell = x(lP) reads

        (x^ell - x) psi_l^2 + psi_(l-1) psi_(l+1) = 0,

    and for odd ell, Y = 2y + a1 x + a3 = psi_2 has Y^ell = Y B^((ell-1)/2)
    with B = psi_2^2, and Y(lP) = psi_(2l) / psi_l^4 = -Y(-lP), so

        B^((ell-1)/2) psi_l^4 = +-psi_(2l) / psi_2,  + iff lambda = l.

    Even-index psi are carried as psi_n / psi_2, so B comes back where an
    identity needs it.  At ell = 2 the x-test alone cannot tell lambda
    from -lambda, so a_2 = 0 mod p is refused.  RootLiftFailure also when
    ell is in a denominator of kernel_poly, when h degenerates or does
    not divide psi_p mod ell, and when no root passes.
    """
    if E.discriminant % ell == 0:
        raise BadReduction(f"bad reduction at {ell}")
    if ell == p:
        raise ValueError("ell must differ from p")
    hbar = []
    for c in kernel_poly:
        c = Fraction(c)
        if c.denominator % ell == 0:
            raise RootLiftFailure("kernel polynomial has ell in a "
                                  "denominator")
        hbar.append(c.numerator * pow(c.denominator, -1, ell) % ell)
    if len(hbar) < 2 or hbar[-1] == 0:
        raise RootLiftFailure("kernel polynomial degenerates mod ell")

    def red(a):
        return poly_divmod(a, hbar, ell)[1]

    def mul(*factors):
        out = [1]
        for f in factors:
            out = red(poly_mul(out, f))
        return out

    cache = {}

    def psi(n):
        return E.psi(n, cache, red)

    if psi(p):
        raise RootLiftFailure("kernel polynomial does not divide psi_p "
                              "mod ell")
    B = red(E.psi2_squared())
    xq = poly_sub(poly_powmod([0, 1], ell, hbar, ell), [0, 1], ell)
    Bq = poly_powmod(B, (ell - 1) // 2, hbar, ell)
    a_ell = E.ap(ell)
    passing = []
    for lam in range(1, p):
        if (lam * lam - a_ell * lam + ell) % p:
            continue
        l = min(lam, p - lam)
        B_l, B_next = ([1], B) if l % 2 else (B, [1])
        sq = mul(B_l, psi(l), psi(l))  # psi_l^2
        if poly_add(mul(xq, sq), mul(B_next, psi(l - 1), psi(l + 1)), ell):
            continue
        sign = 1 if lam == l else -1
        if ell != 2 and poly_sub(mul(Bq, sq, sq),
                                 [sign * c for c in psi(2 * l)], ell):
            continue
        passing.append(lam)
    if len(passing) != 1:
        raise RootLiftFailure(f"{len(passing)} roots of the Frobenius "
                              "polynomial match the kernel line")
    return passing[0]


# -- semisimplification and classification ------------------------------------


def sturm_bound(conductor: int, weight: int = 2) -> int:
    idx = conductor
    for q in factorize(conductor):
        idx = idx // q * (q + 1)
    return idx * weight // 12 + 1


def character_search_modulus(p: int, conductor: int) -> int:
    """Modulus capturing every character that can appear in the residual
    semisimplification: ramified only at p and the bad primes, tame at
    odd primes away from p, with wild part bounded by the p-1 torsion."""
    M = p
    for q, _ in factorize(conductor).items():
        e = 1
        d = p - 1
        while d % q == 0:
            e += 1
            d //= q
        M *= q**e
    return M


def semisimplification(a_table: dict[int, int], p: int, conductor: int,
                       ell_bound: int):
    """The unordered pair (phi1, phi2) of mod-p characters with
    phi1 phi2 = chi-bar and phi1(ell) + phi2(ell) = a_ell mod p for every
    good ell <= ell_bound, or None when the search proves irreducibility
    at this level of evidence."""
    chi = mod_p_cyclotomic(p)
    M = character_search_modulus(p, conductor)
    candidates = enumerate_characters(M, p - 1, p, 1)
    good_ells = [ell for ell in sorted(a_table)
                 if ell <= ell_bound and conductor % ell and ell != p]
    matches = []
    seen = set()
    for phi1 in candidates:
        phi2 = chi.extend(M).mul(phi1.inverse())
        key = tuple(sorted([phi1.images, phi2.images]))
        if key in seen:
            continue
        seen.add(key)
        ok = True
        for ell in good_ells:
            if (phi1(ell) + phi2(ell) - a_table[ell]) % p != 0:
                ok = False
                break
        if ok:
            matches.append((phi1, phi2))
    if not matches:
        return None
    if len(matches) > 1:
        raise AmbiguousPair(
            f"{len(matches)} character pairs fit; raise ell_bound "
            f"(tested {len(good_ells)} primes, Sturm-style bound "
            f"{sturm_bound(conductor)})")
    return matches[0]


def matching_line_characters(scalars: dict[int, int], p: int,
                             conductor: int) -> list[DirichletCharacter]:
    """Every mod-p Dirichlet character matching Frobenius scalars at the
    tested good primes."""
    M = character_search_modulus(p, conductor)
    return [chi for chi in enumerate_characters(M, p - 1, p, 1)
            if all(chi(ell) % p == lam % p for ell, lam in scalars.items())]


def identify_line_character(scalars: dict[int, int], p: int,
                            conductor: int) -> DirichletCharacter:
    """The one mod-p Dirichlet character matching Frobenius scalars at
    the tested good primes."""
    hits = matching_line_characters(scalars, p, conductor)
    if not hits:
        raise InsufficientLineData(
            "no Dirichlet character matches the kernel scalars")
    if len(hits) > 1:
        raise InsufficientLineData(
            f"{len(hits)} characters match; test more primes")
    return hits[0]


def classify_alignment(line_characters, p: int, k_weight: int = 2) -> str:
    """'aligned' iff some stable-line character is odd and carries the
    same p-part of conductor as chi-bar^(k-1); otherwise 'skew'."""
    target_p_part = 1 if (k_weight - 1) % (p - 1) == 0 else p
    for chi in line_characters:
        cond = chi.conductor()
        p_part = p if cond % p == 0 else 1
        if p_part == target_p_part and is_odd(chi):
            return "aligned"
    return "skew"


def alignment_degree(a_table: dict[int, int], p: int, N: int,
                     conductor: int, phi1: DirichletCharacter,
                     ell_bound: int, k_weight: int = 2):
    """Largest n <= N admitting liftable characters phi_(1,n) (odd,
    lifting phi1) and phi_(2,n) with product chi_n^(k-1) matching every
    trace congruence mod p^n.

    This is congruence evidence (a necessary condition for mod-p^n
    alignment), never a proof; the result is tagged accordingly.
    """
    good_ells = [ell for ell in sorted(a_table)
                 if ell <= ell_bound and conductor % ell and ell != p]
    M = character_search_modulus(p, conductor)
    alphas = enumerate_characters(M, p - 1, p, 1)
    # chi_n^i * teich(alpha) reduces mod p to chi-bar^(i mod p-1) * alpha,
    # so whether it lifts phi1 depends on (alpha, i mod p-1) only
    residues = [{r for r in range(p - 1)
                 if liftable_character(r, alpha, 1).agrees_with(phi1)}
                for alpha in alphas]
    evidence = [{"n": 1, "witness": "mod-p alignment established"}]
    n_max = 1
    for n in range(2, N + 1):
        exps = (p - 1) * p**(n - 1)
        psi_n = liftable_character(k_weight - 1, _trivial_alpha(p), n)
        found = None
        for alpha, good in zip(alphas, residues):
            for i in range(exps):
                if i % (p - 1) not in good:
                    continue
                phi1n = liftable_character(i, alpha, n)
                if not is_odd(phi1n):
                    continue
                phi2n = psi_n.mul(phi1n.inverse())
                ok = True
                for ell in good_ells:
                    if (phi1n(ell) + phi2n(ell) - a_table[ell]) \
                            % p**n != 0:
                        ok = False
                        break
                if ok:
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
                       f"(conductor {found[1].conductor()})",
        })
    return n_max, evidence


def _trivial_alpha(p: int) -> DirichletCharacter:
    from .dirichlet import trivial_character
    return trivial_character(p, 1)
