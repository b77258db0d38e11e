"""Residual mod-p analysis of a rational elliptic curve: rational
p-isogeny kernels, the scalar by which Frobenius acts on a kernel line,
trace-based semisimplification, the aligned/skew dichotomy and
congruence evidence for the degree of alignment.  A kernel line is a
sub-representation, so its character is one of the semisimplification
pair, and `analysis` tells which from the eigenvalue of Frob_q on the
line, q the separating prime below (`separating_prime`):
`kernel_polynomials` returns it with each kernel, and a supplied kernel
gets it from one `frobenius_scalar` call at q.

Both the kernel lines and the scalar by which Frob_ell acts on a line
come from Elkies' eigenvalue test (Schoof, J. Theor. Nombres Bordeaux 7
(1995), sections 7-8): for a root lambda of X^2 - a_ell X + ell mod p,
the x- and y-coordinate identities of the division polynomials cut out
the points P with Frob(P) = lambda P, so no point, field extension or
square root is built.

A rational p-isogeny kernel is a Frob_q-stable line of E[p] for every
good q != p.  At the least odd q where X^2 - a_q X + q has two distinct
roots mod p, the only stable lines are the two eigenlines, and each is
cut out of psi_p mod q by a gcd with the two identities in
F_q[x]/(psi_p).  The x-identity depends on lambda only through
min(lambda, p - lambda), so when the roots are lambda and p - lambda
(at p = 3 always) their x-gcd is taken once and split by each root's
y-identity.  Each of these (at most two) factors is lifted alone, by
Newton iteration on its roots (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 9 and section 15.4), until exact division of
psi_p in Z[x] accepts the centred candidate or a bound on the roots of
psi_p rejects it; an accepted factor is a kernel when its roots are
closed under duplication, checked by one exact division in Z[x].  When
X^2 - a_q X + q has no root mod p, no line is stable and there is no
kernel.

Characters are exponent vectors (`dirichlet.character_exponents`) of
`search_characters(p, conductor)`, in the searches and in what they
return.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .arith import (
    factorize,
    is_probable_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_xgcd,
)
from .dirichlet import (
    CharacterExponents,
    _exponent,
    _value_group_generator,
    character_exponents,
)
from .elliptic import Curve
from .errors import (
    AmbiguousPair,
    BadReduction,
    FactorizationInconclusive,
    InvariantViolation,
    NoFrobeniusScalar,
)
from .padic import val_int

# the separating prime q of every kernel line is sought below this bound
SEPARATING_PRIME_LIMIT = 800

# -- Elkies' eigenvalue identities --------------------------------------------


class _EigenTest:
    """Elkies' identities in F_ell[x]/(h), ell an odd or even good prime.

    With l = min(lambda, p - lambda), x(P)^ell = x(lP) reads

        X = (x^ell - x) psi_l^2 + psi_(l-1) psi_(l+1) = 0,

    and for odd ell, Y = 2y + a1 x + a3 = psi_2 has Y^ell = Y B^((ell-1)/2)
    with B = psi_2^2, and Y(lP) = psi_(2l) / psi_l^4 = -Y(-lP), so

        B^((ell-1)/2) psi_l^4 -+ psi_(2l) / psi_2 = 0,  - iff lambda = l.

    Even-index psi are carried as psi_n / psi_2, so B comes back where an
    identity needs it.  Both residues vanish at x(P), P in E[p] not
    2-torsion, exactly when Frob(P) = lambda P."""

    def __init__(self, E: Curve, ell: int, h):
        self.E, self.ell, self.h = E, ell, h
        self._psi = {}
        self._frob = None

    def red(self, a):
        return poly_divmod(a, self.h, self.ell)[1]

    def mul(self, out, *factors):
        """The product of residues (each reduced mod ell and h)."""
        for f in factors:
            out = self.red(poly_mul(out, f))
        return out

    def psi(self, n: int):
        return self.E.psi(n, self._psi, self.red)

    def _frobenius(self):
        """(B, x^ell - x, B^((ell-1)/2)) in F_ell[x]/(h)."""
        if self._frob is None:
            ell, h = self.ell, self.h
            B = self.red(self.E.psi2_squared())
            xq = poly_sub(poly_powmod([0, 1], ell, h, ell), [0, 1], ell)
            self._frob = B, xq, poly_powmod(B, (ell - 1) // 2, h, ell)
        return self._frob

    def _square(self, l: int):
        """psi_l^2, with B for even l."""
        B = self._frobenius()[0]
        return self.mul([1] if l % 2 else B, self.psi(l), self.psi(l))

    def x_residue(self, lam: int, p: int):
        l = min(lam, p - lam)
        B, xq, _ = self._frobenius()
        return poly_add(self.mul(xq, self._square(l)),
                        self.mul(B if l % 2 else [1], self.psi(l - 1),
                                 self.psi(l + 1)), self.ell)

    def y_residue(self, lam: int, p: int):
        l = min(lam, p - lam)
        sq = self._square(l)
        sign = 1 if lam == l else -1
        return poly_sub(self.mul(self._frobenius()[2], sq, sq),
                        [sign * c for c in self.psi(2 * l)], self.ell)


# -- kernel lines ---------------------------------------------------------------


def _primitive(poly):
    """poly over its content, with a positive leading coefficient."""
    c = max(gcd(*poly), 1) * (1 if poly[-1] > 0 else -1)
    return [x // c for x in poly]


def _divides(g, f) -> bool:
    """Whether the primitive integer polynomial g divides f in Z[x] (by
    Gauss's lemma, in Q[x]): integer long division, stopped at the first
    leading coefficient lc(g) does not divide."""
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    for i in range(len(r) - 1 - dg, -1, -1):
        c, rem = divmod(r[i + dg], lc)
        if rem:
            return False
        if c:
            for j, b in enumerate(g):
                r[i + j] -= c * b
    return not any(r[:dg])


def _center(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _root_bound(f) -> int:
    """The least power of two R with |a_n| R^n > sum_{i<n} |a_i| R^i for
    f = sum a_i x^i of degree n >= 1.  Every complex root z of f has
    |z| < R: divided by r^n, the inequality reads
    |a_n| > sum_{i<n} |a_i| r^(i-n), whose right side decreases in r, so
    it holds for every r >= R, and then
    |f(z)| >= |a_n| |z|^n - sum_{i<n} |a_i| |z|^i > 0 for |z| >= R."""
    mags = [abs(c) for c in f]
    R = 1
    while mags[-1] * R ** (len(f) - 1) <= poly_eval(mags[:-1], R):
        R *= 2
    return R


def _lift_factor(f, g, q):
    """The primitive integer factor of f that is g mod q, or None if f
    has none.  f is a primitive integer polynomial, squarefree mod q,
    with q prime to lc(f), and g a monic factor of f mod q.

    Let H be a primitive factor of f of degree d, so f = H K in Z[x] and
    lc(H) divides lc(f).  Then lc(f) monic(H) = lc(K) H is an integer
    polynomial, and its coefficient of x^(d-j) is +-lc(f) e_j, e_j the
    j-th elementary symmetric function of d roots of f.  With R =
    `_root_bound(f)`, |e_j| <= C(d, j) R^j, so every coefficient is at
    most bound = max_j |lc(f)| C(d, j) R^j.  f is squarefree mod q, so
    the lift G of g is monic(H) mod q^k, and lc(f) G centred mod q^k is
    lc(f) monic(H) once q^k exceeds 2 bound.  Each step tries its
    centred primitive candidate, which exact division of f certifies at
    once; past that precision no factor is g mod q.

    G is lifted alone, by Newton iteration on its roots (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 9 and section 15.4): with
    F = f / lc(f) and W = 1/F' mod G, each root a of G moves to
    a - F(a) W(a), so G gains (F G' W mod G), and W is refined by
    W (2 - F' W); from mod q^j both hold mod q^2j.  No product exceeds
    degree 2 deg g.  F = 0 mod (G, q^k) is checked at the last
    precision."""
    lc, d = f[-1], len(g) - 1
    R = _root_bound(f)
    bound = abs(lc) * max(comb(d, j) * R**j for j in range(d + 1))
    k = 1
    while q**k < 2 * bound + 1:
        k += 1
    inv = pow(lc, -1, q**k)
    F = [c * inv % q**k for c in f]
    dF = poly_deriv(F, q**k)
    one, W, _ = poly_xgcd(poly_divmod(dF, g, q)[1], g, q)
    if one != [1]:
        raise InvariantViolation(f"f is not squarefree mod {q}")
    G, j, m = list(g), 1, q
    while True:
        if j < k:
            j = min(2 * j, k)
            m = q**j
            G = poly_add(G, _mulmod(_mulmod(poly_divmod(F, G, m)[1],
                                            poly_deriv(G, m), G, m),
                                    W, G, m), m)
            if j < k:
                dFW = _mulmod(poly_divmod(dF, G, m)[1], W, G, m)
                W = _mulmod(W, poly_sub([2], dFW, m), G, m)
        if j == k and poly_divmod(F, G, m)[1]:
            raise InvariantViolation(
                f"the lift of g does not divide f mod {q}^{k}")
        cand = _primitive([_center(lc * c, m) for c in G])
        if poly_monic(cand, q) == g and _divides(cand, f):
            return cand
        if j == k:
            return None


def _mulmod(a, b, h, m):
    """a b mod (h, m)."""
    return poly_divmod(poly_mul(a, b, m), h, m)[1]


def frobenius_roots(a_ell: int, ell: int, p: int) -> list[int]:
    """The roots in [1, p) of X^2 - a_ell X + ell mod p, ascending."""
    return [lam for lam in range(1, p)
            if (lam * lam - a_ell * lam + ell) % p == 0]


def separating_prime(E: Curve, p: int):
    """(q, roots): the least odd good prime q != p, prime to lc(f), at
    which X^2 - a_q X + q has no root mod p (roots = []) or two distinct
    ones with f squarefree mod q, f the primitive psi_p.  Primes with a
    double root are skipped.  Every rational p-isogeny kernel line is an
    eigenline of Frob_q there, so one Frobenius scalar at q gives a
    line's character."""
    f = _primitive(E.division_polynomial(p))
    bad = E.discriminant * f[-1]
    for q in range(3, SEPARATING_PRIME_LIMIT, 2):
        if q == p or bad % q == 0 or not is_probable_prime(q):
            continue
        roots = frobenius_roots(E.ap(q), q, p)
        if len(roots) == 1:
            continue
        if roots and len(poly_gcd(f, poly_deriv(f, q), q)) > 1:
            continue
        return q, roots
    raise FactorizationInconclusive(
        f"no prime below {SEPARATING_PRIME_LIMIT} separates the Frobenius "
        f"eigenvalues mod {p}")


def kernel_polynomials(E: Curve, p: int):
    """(q, lines): the separating prime q (`separating_prime`) and, in
    canonical order, a pair (kernel, lam) for each rational p-isogeny of
    E; lines may be empty.  kernel is the monic rational polynomial
    (denominators only at p) cutting out the isogeny's kernel, and lam
    the root of X^2 - a_q X + q mod p whose eigenline of Frob_q it
    lifts: `_lift_factor` certifies kernel = the lam-eigenline's factor
    mod q, so Frob_q acts on the kernel line by lam."""
    q, roots = separating_prime(E, p)
    if not roots:
        return q, []
    f = _primitive(E.division_polynomial(p))
    fbar = poly_monic(f, q)
    test = _EigenTest(E, q, fbar)
    out = []
    # roots lam and p - lam share their x-test: gcd once per l
    x_gcds = {}
    for lam in roots:
        l = min(lam, p - lam)
        if l not in x_gcds:
            x_gcds[l] = poly_gcd(fbar, test.x_residue(lam, p), q)
        g = poly_gcd(x_gcds[l], test.y_residue(lam, p), q)
        if len(g) - 1 != (p - 1) // 2:
            raise InvariantViolation(
                f"the {lam}-eigenline of Frob_{q} is cut out by a factor "
                f"of degree {len(g) - 1}, not {(p - 1) // 2}")
        H = _lift_factor(f, g, q)
        if H is not None and _kernel_stable(E, H):
            out.append((tuple(poly_monic([Fraction(c) for c in H])), lam))
    # canonical order
    return q, sorted(out)


def is_kernel_polynomial(E: Curve, p: int, poly) -> bool:
    """Whether the rational polynomial poly passes the checks a computed
    kernel passes: in primitive integer form it has degree (p-1)/2,
    divides psi_p in Z[x] and has its roots closed under duplication."""
    den = lcm(*(Fraction(c).denominator for c in poly))
    H = _primitive([int(Fraction(c) * den) for c in poly])
    return len(H) - 1 == (p - 1) // 2 and H[-1] != 0 and \
        _divides(H, E.division_polynomial(p)) and _kernel_stable(E, H)


def _kernel_stable(E: Curve, H) -> bool:
    """The roots of the primitive integer polynomial H are closed under
    the duplication map x -> num/den: H divides
    sum_i H_i num^i den^(deg H - i) in Z[x].  A root of den (x of a
    2-torsion point) leaves num^deg H there, which is nonzero, so it
    fails too."""
    num, den = E.duplication_x()
    acc = [H[-1]]
    den_power = [1]
    for c in reversed(H[:-1]):
        den_power = poly_mul(den_power, den)
        acc = poly_add(poly_mul(acc, num), [c * x for x in den_power])
    return _divides(H, acc)


# -- Frobenius scalar on a kernel line ----------------------------------------


def frobenius_scalar(E: Curve, kernel_poly, ell: int, p: int) -> int:
    """Eigenvalue in F_p^* of Frob_ell on the kernel line cut out by
    kernel_poly, for a good prime ell distinct from p: what `analysis`
    reads a supplied kernel's character from, at the separating prime
    (a computed kernel comes with that eigenvalue).

    The root lambda of X^2 - a_ell X + ell mod p whose identities of
    `_EigenTest` vanish in F_ell[x]/(h), h = kernel_poly mod ell.  At
    ell = 2 the x-test alone cannot tell lambda from -lambda, so
    a_2 = 0 mod p is refused.  NoFrobeniusScalar also when ell is in a
    denominator of kernel_poly, when h degenerates or does not divide
    psi_p mod ell, and when no root passes.

    The psi_p check stays although every kernel `analyze` passes divides
    psi_p in Z[x] (computed ones by construction, supplied ones after
    `is_kernel_polynomial`): this function is public, and a caller may
    pass any polynomial, for which the root test alone proves nothing.
    It costs 3.2 of 8.2 ms over the 65 corpus (kernel, ell) calls.
    """
    if E.discriminant % ell == 0:
        raise BadReduction(f"bad reduction at {ell}")
    if ell == p:
        raise ValueError("ell must differ from p")
    hbar = []
    for c in kernel_poly:
        c = Fraction(c)
        if c.denominator % ell == 0:
            raise NoFrobeniusScalar("kernel polynomial has ell in a "
                                    "denominator")
        hbar.append(c.numerator * pow(c.denominator, -1, ell) % ell)
    if len(hbar) < 2 or hbar[-1] == 0:
        raise NoFrobeniusScalar("kernel polynomial degenerates mod ell")
    test = _EigenTest(E, ell, hbar)
    if test.psi(p):
        raise NoFrobeniusScalar("kernel polynomial does not divide "
                                "psi_p mod ell")
    passing = []
    for lam in frobenius_roots(E.ap(ell), ell, p):
        if test.x_residue(lam, p):
            continue
        if ell != 2 and test.y_residue(lam, p):
            continue
        passing.append(lam)
    if len(passing) != 1:
        raise NoFrobeniusScalar(f"{len(passing)} roots of the Frobenius "
                                "polynomial match the kernel line")
    return passing[0]


# -- semisimplification and classification ------------------------------------


def sturm_bound(conductor: int) -> int:
    """The weight-2 Sturm bound [SL_2(Z) : Gamma_0(N)] / 6 + 1."""
    idx = conductor
    for q in factorize(conductor):
        idx = idx // q * (q + 1)
    return idx // 6 + 1


def character_search_modulus(p: int, conductor: int) -> int:
    """Modulus capturing every character that can appear in the residual
    semisimplification: ramified only at p and the bad primes, tame at
    odd primes away from p, with wild part bounded by the p-1 torsion."""
    M = p
    for q in factorize(conductor):
        M *= q**(1 + val_int(p - 1, q, p))
    return M


def search_characters(p: int, conductor: int) -> CharacterExponents:
    """Every mod-p character the residual searches consider, as the
    exponent vectors of character_search_modulus(p, conductor); the
    searches return vectors of this set."""
    return character_exponents(character_search_modulus(p, conductor), p)


def _good_ells(a_table, p, conductor, ell_bound):
    return [ell for ell in sorted(a_table)
            if ell <= ell_bound and conductor % ell and ell != p]


def semisimplification(a_table: dict[int, int], p: int, conductor: int,
                       ell_bound: int):
    """The unordered pair (phi1, phi2) of mod-p characters with
    phi1 phi2 = chi-bar and phi1(ell) + phi2(ell) = a_ell mod p for every
    good ell <= ell_bound, or None when the search proves irreducibility
    at this level of evidence.  Both are vectors of search_characters.

    phi1 runs over the exponent vectors k of the characters mod M, and
    phi2 = chi-bar phi1^-1 is c - k, c the vector of chi-bar; each
    unordered pair is tested once."""
    chars = search_characters(p, conductor)
    good_ells = _good_ells(a_table, p, conductor, ell_bound)
    powers, c, order = chars.powers, chars.chi_bar, p - 1
    traces = []
    for ell in good_ells:
        log = chars.log(ell)
        traces.append((log, _exponent(c, log, order), a_table[ell]))
    matches = []
    seen = set()
    for k in chars.vectors:
        k2 = tuple((x - y) % order for x, y in zip(c, k))
        key = (k, k2) if k <= k2 else (k2, k)
        if key in seen:
            continue
        seen.add(key)
        for log, e_c, a_ell in traces:
            e = _exponent(k, log, order)
            if (powers[e] + powers[(e_c - e) % order] - a_ell) % p:
                break
        else:
            matches.append((k, k2))
    if not matches:
        return None
    if len(matches) > 1:
        raise AmbiguousPair(
            f"{len(matches)} character pairs fit; raise ell_bound "
            f"(tested {len(good_ells)} primes, Sturm-style bound "
            f"{sturm_bound(conductor)})")
    return matches[0]


def classify_alignment(line_characters, chars: CharacterExponents) -> str:
    """'aligned' iff some stable-line character (a vector of chars) is
    odd and carries the same p-part of conductor as chi-bar, which is p
    for every odd p; otherwise 'skew'."""
    p = chars.p
    if any(chars.conductor(k) % p == 0 and chars.is_odd(k)
           for k in line_characters):
        return "aligned"
    return "skew"


def _lift_log(a: int, e: int, w: int, p: int, n: int) -> int:
    """dlog of a mod p^n to the primitive root w, from e, its dlog mod
    p^(n-1) (mod p - 1 at n = 2)."""
    step = (p - 1) * p**(n - 2)
    for t in range(p):
        if pow(w, e + t * step, p**n) == a % p**n:
            return e + t * step
    raise InvariantViolation(f"{a} has no discrete log mod {p}^{n}")


def alignment_degree(a_table: dict[int, int], p: int, N: int,
                     conductor: int, phi1: tuple[int, ...],
                     ell_bound: int):
    """Largest n <= N admitting liftable characters phi_(1,n) (odd,
    lifting phi1, a vector of search_characters) and phi_(2,n) with
    product chi_n matching every trace congruence mod p^n.

    phi_(1,n) = chi_n^i * teich(alpha) runs over the characters alpha
    mod M and 0 <= i < (p-1) p^(n-1).  With w_n the primitive root
    mod p^n, chi_n(ell) = w_n^L(ell) and teich(w_n mod p) = w_n^(p^(n-1)),
    so phi_(1,n)(ell) = w_n^(i L(ell) + p^(n-1) A(ell)) for
    alpha(ell) = w^A(ell), and phi_(2,n)(ell) = w_n^L(ell) over it.

    This is congruence evidence (a necessary condition for mod-p^n
    alignment), never a proof; the result is tagged accordingly.
    """
    good_ells = _good_ells(a_table, p, conductor, ell_bound)
    chars = search_characters(p, conductor)
    order, logs = p - 1, chars.logs
    # alpha(ell) as exponents of w
    alpha_logs = [chars.log(ell) for ell in good_ells]
    # chi_n^i * teich(alpha) reduces mod p to chi-bar^(i mod p-1) * alpha,
    # so whether it lifts phi1 depends on (alpha, i mod p-1) only: on each
    # generator, r chi-bar_j + k_j must be phi1_j
    alphas = []
    for k in chars.vectors:
        good = {r for r in range(order)
                if all((r * c + x - y) % order == 0 for c, x, y
                       in zip(chars.chi_bar, k, phi1, strict=True))}
        odd = chars.is_odd(k)
        A = [_exponent(k, log, order) for log in alpha_logs]
        alphas.append((k, good, odd, A))
    L = [logs[ell % p] for ell in good_ells]
    evidence = [{"n": 1, "witness": "mod-p alignment established"}]
    n_max = 1
    for n in range(2, N + 1):
        w, mod = _value_group_generator(p, n), p**n
        exps, top = order * p**(n - 1), p**(n - 1)
        L = [_lift_log(ell, e, w, p, n) for ell, e in zip(good_ells, L)]
        traces = [(Ln, a_table[ell]) for ell, Ln in zip(good_ells, L)]
        found = None
        for k, good, alpha_odd, A in alphas:
            for i in range(exps):
                # phi_(1,n)(-1) = (-1)^i alpha(-1) must be -1
                if i % order not in good or (i % 2 == 1) == alpha_odd:
                    continue
                for (Ln, a_ell), Aa in zip(traces, A):
                    e = (i * Ln + top * Aa) % exps
                    if (pow(w, e, mod) + pow(w, (Ln - e) % exps, mod)
                            - a_ell) % mod:
                        break
                else:
                    found = (i, k)
                    break
            if found:
                break
        if not found:
            break
        n_max = n
        evidence.append({
            "n": n,
            "witness": f"chi_n^{found[0]} * alpha"
                       f"(conductor {chars.conductor(found[1])})",
        })
    return n_max, evidence
