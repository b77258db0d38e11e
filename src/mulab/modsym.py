"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The symbol space is the +1 quotient (Cremona, Algorithms for Modular
Elliptic Curves, ch. II): the free Q-module on P^1(Z/N) modulo the two-
and three-term Manin relations and the star involution (c:d) -> (-c:d).
The two-term relations and star fold into signed slots; the three-term
relations are eliminated sparsely, shortest rows first (Stein, Modular
Forms: A Computational Approach, ch. 7-8).  Hecke operators act through
Merel's matrices.  A rational eigensymbol is cut out as a joint
left-eigenvector and normalized so that its value on the path
{0 -> oo} equals L(f,1) / (real Neron period of the designated curve).
The period and the L-value are fixed-point integers over a power of 2,
with no floating point: the period from the arithmetic-geometric mean
of the 2-division roots by `isqrt` and pi by Machin's formula, the
L-value from the a_n series summed by Horner's rule; each docstring
bounds its error.  Their ratio is rationalized with a denominator
bound, the tolerance compared exactly in integers.

All symbol arithmetic is exact and kept in integers over one common
denominator (1 on every level below 400): each slot of the quotient is
stored as integer numerators in the free basis, Hecke matrices are
summed from integer slot counts and kept per space as those numerators
(the operator times the denominator), and an eigensymbol's value on
every P^1 generator is the primitive kernel vector's value there, kept
as integer numerators over that denominator, times one rational scale,
so a path costs one integer sum.
The eigenvector comes from one integer nullspace of (T_q - a_q)^T for
the first match prime q; each further prime only restricts that kernel K
through the small system (T_ell - a_ell)^T K.  The kernel depends only
on the space and the a_ell at the match primes, so the space keeps it,
with its generator values, under those (ell, a_ell): the curves of one
isogeny class share it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

from .arith import is_probable_prime
from .elliptic import Curve
from .errors import (
    EigenspaceNotOneDimensional,
    EigenspaceNotRational,
    InvariantViolation,
    SizeBound,
)
from .linalg import nullspace
# the benchmark's tracer wraps rref here; the relations are eliminated
# by `_eliminate`, and nullspace calls linalg's own rref
from .linalg import rref  # noqa: F401

# bound on the level N of a Manin-symbol space, whose P^1 table holds
# N^2 slots (8 N^2 bytes) and whose eliminations grow faster than N;
# `build_manin_space` refuses a level above it before allocating.  Near
# the bound a full analyze of a semistable curve took 11.1 s at 217 MB
# peak RSS (N = 4907, [-8,0,7,0,0] at p = 3), and [0,-1,1,-6,7]
# (N = 4685, p = 3) 13.2 s at 200 MB before refusing its rank; N = 1986
# ([13,36,324,0,0] at p = 5) took 5.3 s at 57 MB (Xeon, Python 3.11,
# each under a 1.5 GB address-space limit).  At N = 43210 the table
# alone would take 15 GB.
MAX_CONDUCTOR = 5000


class P1:
    """Representatives for P^1(Z/N): classes of (c:d), gcd(c, d, N) = 1.

    `reps[i]` is the least pair of class i in lexicographic order;
    `table[c * N + d]` is the class of (c mod N : d mod N), None where
    gcd(c, d, N) > 1."""

    def __init__(self, N: int):
        self.N = N
        reps = []
        table = [None] * (N * N)
        units = [u for u in range(1, max(N, 2)) if gcd(u, N) == 1] or [1]
        # a class of pairs with gcd(c, N) = g has a member (g, d), and
        # the first unmarked (g, d) is the least member of its class:
        # mark row g along the units fixing g, then fill each row u g
        # from row g as (ug:d) = (g:d/u)
        filled = set()
        for c in sorted({gcd(c, N) for c in range(1, N)} | {0}):
            g = gcd(c, N)
            fix = [u for u in units if u % (N // g) == 1 % (N // g)]
            row = c * N
            for d in range(N):
                if table[row + d] is None and gcd(g, d) == 1:
                    i = len(reps)
                    for u in fix:
                        table[row + u * d % N] = i
                    reps.append((c, d))
            base = table[row:row + N]
            for u in units:
                cu = u * c % N
                if cu not in filled:
                    filled.add(cu)
                    v = pow(u, -1, N)
                    table[cu * N:(cu + 1) * N] = [base[d * v % N]
                                                  for d in range(N)]
        self.reps = reps
        self.table = table

    def __len__(self):
        return len(self.reps)

    def index(self, c: int, d: int) -> int:
        N = self.N
        return self.table[c % N * N + d % N]


def merel_matrices(n: int):
    """Merel's set X_n of integer matrices of determinant n."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield (a, b, 0, d)
                for c in range(1, d):
                    yield (a, 0, c, d)
            else:
                if d == 1:
                    continue
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield (a, b, bc // b, d)


def _eliminate(rows):
    """Reduced echelon form of sparse relations: rows are tuples of
    (slot, coefficient) pairs, each meaning sum coefficient * slot = 0.
    Returns {pivot slot: {free slot: coefficient}}, each pivot slot being
    that combination of the slots that are no pivot.

    Rows are taken shortest first once the pivots found so far are
    substituted (a row that grew goes back while a shorter one waits),
    and each pivots on a coefficient +-1, in the slot the fewest pivot
    rows hold, so the coefficients stay integers and the rows short
    (Stein, Modular Forms: A Computational Approach, ch. 8).  A row
    with no unit coefficient waits until the others are done and then
    pivots over Q."""
    expr = {}    # pivot slot -> {free slot: coefficient}
    occurs = {}  # free slot -> the pivot slots whose rows hold it
    heap = [(0, len(row), k, dict(row)) for k, row in enumerate(rows)]
    heapify(heap)
    while heap:
        late, _, k, row = heappop(heap)
        cur = {}
        for s, a in row.items():
            for t, b in expr.get(s, {s: 1}).items():
                cur[t] = cur.get(t, 0) + a * b
        cur = {t: a for t, a in cur.items() if a}
        if not cur:
            continue
        if heap and (late, len(cur)) > heap[0][:2]:
            heappush(heap, (late, len(cur), k, cur))
            continue
        units = [t for t, a in cur.items() if a in (1, -1)]
        if not units and len(cur) > 1 and not late:
            heappush(heap, (1, len(cur), k, cur))
            continue
        s = min(units or cur, key=lambda t: (len(occurs.get(t, ())), t))
        a = cur.pop(s)
        e = {t: -b * a if a in (1, -1) else Fraction(-b, a)
             for t, b in cur.items()}
        for q in occurs.pop(s, ()):
            eq = expr[q]
            b = eq.pop(s)
            for t, x in e.items():
                v = eq.get(t, 0) + b * x
                if v:
                    eq[t] = v
                    occurs.setdefault(t, set()).add(q)
                else:
                    del eq[t]
                    occurs[t].discard(q)
        expr[s] = e
        for t in e:
            occurs.setdefault(t, set()).add(s)
    return expr


class ManinSymbolSpace:
    """The +1 quotient of the free module on P^1(Z/N) by the Manin
    relations (Cremona, Algorithms for Modular Elliptic Curves, ch. II).

    A generator x equals -xS and xJ, with S: (c:d) -> (d:-c) and J:
    (c:d) -> (-c:d), so each <S, J>-orbit is one slot up to sign, and an
    orbit where this forces x = -x is zero.  The 3-term relations x + xU
    + xU^2 = 0, U: (c:d) -> (d:-c-d), are rows of at most three entries
    +-1 on the slots, eliminated sparsely (`_eliminate`); the slots left
    without a pivot are the basis."""

    def __init__(self, N: int):
        self.N = N
        self.p1 = p1 = P1(N)
        index = p1.index
        red = [None] * len(p1)  # index -> (slot, sign); (None, 0) if zero
        slots = 0
        for i, (c, d) in enumerate(p1.reps):
            if red[i] is not None:
                continue
            j, k, l = index(d, -c), index(-c, d), index(d, c)  # S, J, SJ
            if i in (j, l):
                red[i] = red[j] = red[k] = red[l] = (None, 0)
            else:
                red[i] = red[k] = (slots, 1)
                red[j] = red[l] = (slots, -1)
                slots += 1
        self._red = red
        # one row per relation, up to sign
        rows = set()
        for i, (c, d) in enumerate(p1.reps):
            row = {}
            for t in (i, index(d, -c - d), index(-c - d, c)):
                s, sgn = red[t]
                if s is not None:
                    row[s] = row.get(s, 0) + sgn
            key = sorted((s, a) for s, a in row.items() if a)
            if key:
                sgn = 1 if key[0][1] > 0 else -1
                rows.add(tuple((s, sgn * a) for s, a in key))
        expr = _eliminate(sorted(rows))
        free = [s for s in range(slots) if s not in expr]
        self.free_slots = free
        self.dim = len(free)
        # express every slot in the free basis, as its nonzero (free
        # index, numerator) pairs over the one denominator _den
        pos = {s: fi for fi, s in enumerate(free)}
        den = lcm(*(x.denominator for e in expr.values()
                    for x in e.values()))
        terms = {s: [(fi, den)] for fi, s in enumerate(free)}
        for s, e in expr.items():
            terms[s] = sorted((pos[t], int(x * den)) for t, x in e.items())
        self._den = den
        self._slot_terms = terms
        self._hecke = {}
        # (ell, a_ell) of the match primes -> ClassFunctional
        self._functionals = {}

    def _column(self, counts):
        """Numerators over _den of sum k * slot_s, for the pairs (s, k)
        of counts, in the free basis."""
        acc = [0] * self.dim
        for s, k in counts.items():
            if s is not None and k:
                for fi, y in self._slot_terms[s]:
                    acc[fi] += k * y
        return acc

    def basis_generator_indices(self):
        """A P^1 index representing each free basis slot (sign +1)."""
        out = []
        inv = {}
        for i in range(len(self.p1)):
            s, sgn = self._red[i]
            if s is not None and sgn == 1 and s not in inv:
                inv[s] = i
        for s in self.free_slots:
            out.append(inv[s])
        return out

    # -- operators -----------------------------------------------------------

    def hecke_matrix(self, n: int):
        """_den * T_n on the quotient as integer rows (columns indexed
        by the free basis).

        Each column sums the signed slot counts of the Merel images as
        integers and expands every slot once; the result is kept per n,
        and each call returns a fresh copy of it."""
        if n not in self._hecke:
            N = self.N
            merel = list(merel_matrices(n))
            table, red = self.p1.table, self._red
            cols = []
            for i in self.basis_generator_indices():
                c, d = self.p1.reps[i]
                counts = {}
                for (a, b, cc, dd) in merel:
                    j = table[(a * c + cc * d) % N * N
                              + (b * c + dd * d) % N]
                    if j is not None:
                        s, sgn = red[j]
                        counts[s] = counts.get(s, 0) + sgn
                cols.append(self._column(counts))
            # columns are images; matrix acts on coordinate vectors
            self._hecke[n] = [list(row) for row in zip(*cols)]
        return [row[:] for row in self._hecke[n]]

    # -- paths ---------------------------------------------------------------

    def path_infty_to(self, a: int, m: int):
        """{oo -> a/m} as a list of P^1 generator indices.

        Each segment {p_(j-1)/q_(j-1) -> p_j/q_j} between consecutive
        continued-fraction convergents of a/m, from p_(-1)/q_(-1) = 1/0,
        is a unimodular path, i.e. a single Manin generator: with
        e = p_j q_(j-1) - p_(j-1) q_j = (-1)^(j+1), gamma = (p_j, e p_(j-1);
        q_j, e q_(j-1)) lies in SL_2(Z) and sends {0 -> oo} to the
        segment.  Its class is (q_j : e q_(j-1)), so only the
        denominators are carried.
        """
        if m < 0:
            a, m = -a, -m
        N, table = self.N, self.p1.table
        out = []
        q1, q0, e = 0, 1, -1  # q_(j-1), q_(j-2) and e at j = 0
        while m:
            k, r = divmod(a, m)
            q1, q0 = k * q1 + q0, q1
            out.append(table[q1 % N * N + e * q0 % N])
            a, m, e = m, r, -e
        return out


def build_manin_space(N: int) -> ManinSymbolSpace:
    """The Manin-symbol space of level N; raises SizeBound, before
    anything is allocated, when N exceeds MAX_CONDUCTOR."""
    if N > MAX_CONDUCTOR:
        raise SizeBound(f"level {N} exceeds {MAX_CONDUCTOR}, the bound on "
                        "the level of a Manin-symbol space")
    return ManinSymbolSpace(N)


def _transpose_shift(A, a):
    """The rows of A^T - a I."""
    return [[x - a if i == j else x for i, x in enumerate(col)]
            for j, col in enumerate(zip(*A))]


# -- period and L-value in fixed point ----------------------------------------

# bits kept beyond the digits each value is computed to
_GUARD_BITS = 32
# the fractional bits of the period and of the L-value: 50 and 40
# decimal digits (the report prints 30 of them) in bits, round((dps + 1)
# log2 10) as mpmath counted them, plus the guard bits; L/Omega is
# rationalized at the period's bits
PERIOD_BITS = 169 + _GUARD_BITS
L_VALUE_BITS = 136 + _GUARD_BITS
RATIONAL_BITS = PERIOD_BITS
# pi is computed once, at these bits, and shifted down where it is used
_PI_BITS = PERIOD_BITS + _GUARD_BITS


@cache
def _pi() -> int:
    """pi * 2^_PI_BITS, off by less than 2, by Machin's formula pi =
    16 arccot 5 - 4 arccot 239.  The series are summed 16 bits finer:
    their k-th power term floor(2^bits / x^(2k+1)) is exact (a floor
    divided by an integer and floored is the floor of the quotient), so
    each of the fewer than 80 terms errs by less than one unit there."""
    bits = _PI_BITS + 16

    def arccot(x):
        total, term, k = 0, (1 << bits) // x, 1
        while term:
            total += term // k if k % 4 == 1 else -(term // k)
            term //= x * x
            k += 2
        return total

    return (16 * arccot(5) - 4 * arccot(239)) >> 16


def _cubic_at(coeffs, n: int, d: int) -> int:
    """d^3 g(n/d) for the cubic g with coefficients coeffs (low degree
    first): an integer with the sign of g(n/d) when d > 0."""
    c0, c1, c2, c3 = coeffs
    return ((c3 * n + c2 * d) * n + c1 * d * d) * n + c0 * d * d * d


def real_period(E: Curve) -> int:
    """Omega * 2^F, F = PERIOD_BITS: the volume of E(R) for the invariant
    differential dx/(2y + a1x + a3), in fixed point.

    With Y = 2y + a1x + a3 the curve reads Y^2 = g(x) = 4x^3 + b2x^2 +
    2b4x + b6, and the least real period 2 * int_(e1)^inf dx/sqrt(g)
    (e1 the largest real root of g) is 2 pi / M, M the arithmetic-
    geometric mean of two expressions in the roots (Cremona, Algorithms
    for Modular Elliptic Curves, 3.7; Cohen, GTM 138, Alg. 7.4.7).  E(R)
    has two components when the discriminant is positive.

    Only the real roots of g enter, three when the discriminant is
    positive and one when it is negative.  They are separated exactly by
    the signs of g at rational points (`_real_root_brackets`), and each
    is certified within 2^-F (`_refine_root`).

    Error: every square root, halving and quotient floors, losing less
    than 2^-F.  The AGM increases in both arguments and is homogeneous
    of degree 1, so errors of at most eps in both move it by at most
    eps / min(a, b) relative, and min(a, b) only grows along the
    iteration.  If the starting arguments are within c 2^-F, the smaller
    being delta, M is within (c + k + 1) 2^-F / delta relative after its
    k steps (c < 1 + 1/delta with three real roots).  Omega = 2 pi / M
    is within that relative error plus 2^-F / 6 (from pi), plus 2^-F
    (its floor).
    """
    F = PERIOD_BITS
    coeffs = E.psi2_squared()
    count = 3 if E.discriminant > 0 else 1
    den, brackets = _real_root_brackets(coeffs, count)
    roots = [_refine_root(coeffs, lo, hi, den) for lo, hi in brackets]
    if count == 3:
        e3, e2, e1 = roots
        a, b = isqrt(e1 - e3 << F), isqrt(e1 - e2 << F)
    else:
        e1, = roots
        # beta = sqrt(3 e1^2 + b2 e1 / 2 + b4 / 2), alpha = 3 e1 + b2 / 4
        beta = isqrt(6 * e1 * e1 + (E.b2 * e1 << F) + (E.b4 << 2 * F) >> 1)
        alpha = 3 * e1 + (E.b2 << F - 2)
        a, b = 2 * isqrt(beta << F), isqrt(2 * beta + alpha << F)
    while abs(a - b) > 1:
        a, b = a + b >> 1, isqrt(a * b)
    two_pi = _pi() >> (_PI_BITS - F - 1)
    return (two_pi << F) // b


def _real_root_brackets(coeffs, count: int):
    """(den, brackets): isolating brackets (lo, hi) of the real roots of
    the squarefree cubic with integer coefficients coeffs (low degree
    first, positive leading coefficient), as integer numerators over one
    denominator den > 0, ascending; lo == hi for a rational root hit
    exactly.

    The sample points are -B and B (B a Cauchy bound) and rational
    approximations from `isqrt` of the two critical points
    (-c2 +- sqrt(c2^2 - 3 c1 c3)) / (3 c3); the approximations are made
    finer until the signs, read exactly from `_cubic_at`, isolate
    `count` roots.  InvariantViolation when they never do, or isolate
    more roots than `count`."""
    c0, c1, c2, c3 = coeffs
    B = 1 + max(abs(c0), abs(c1), abs(c2))
    disc = c2 * c2 - 3 * c1 * c3  # g' = 3 c3 x^2 + 2 c2 x + c1
    k = 0
    while True:
        den = 3 * c3 << k if disc > 0 else 1
        points = {-B * den, B * den}
        if disc > 0:
            s = isqrt(disc << (2 * k))
            points |= {x for x in (-(c2 << k) - s, -(c2 << k) + s)
                       if -B * den <= x <= B * den}
        points = sorted(points)
        signs = [(v > 0) - (v < 0)
                 for v in (_cubic_at(coeffs, x, den) for x in points)]
        brackets = [(x, x) for x, sx in zip(points, signs) if sx == 0]
        brackets += [(x, y) for x, y, sx, sy in zip(
            points, points[1:], signs, signs[1:]) if sx * sy < 0]
        if len(brackets) > count:
            raise InvariantViolation(
                f"{len(brackets)} real roots isolated where the "
                f"discriminant allows {count}")
        if len(brackets) == count:
            return den, sorted(brackets)
        if disc <= 0 or k > 8 * B.bit_length() + 64:
            raise InvariantViolation(
                f"could not isolate {count} real roots of {coeffs}")
        k = 2 * k + 4


def _refine_root(coeffs, lo: int, hi: int, den: int) -> int:
    """X with the root of the integer cubic coeffs (low degree first) in
    [lo/den, hi/den] within 2^-F of X / 2^F, F = PERIOD_BITS: certified,
    as g changes sign on [X - 1, X + 1] / 2^F.

    Safeguarded Newton-bisection on the numerators X over 2^F, with the
    signs of g read exactly (`_cubic_at`): a Newton step is taken when it
    stays inside the bracket and at least halves the step before it,
    else the bracket is bisected; a Newton step of at most one unit is
    checked by the signs one unit on either side, which end the search
    when the root lies between them.  InvariantViolation when g does not
    change sign on the bracket or the iteration does not converge."""
    F = PERIOD_BITS
    one = 1 << F
    _, c1, c2, c3 = coeffs
    a, b = lo * one // den, -(-hi * one // den)
    ga, gb = _cubic_at(coeffs, a, one), _cubic_at(coeffs, b, one)
    if ga == 0:
        return a
    if gb == 0:
        return b
    if (ga > 0) == (gb > 0):
        raise InvariantViolation(
            f"g does not change sign on the bracket [{lo}/{den}, {hi}/{den}]")
    rising = ga < 0
    x, step = a + b >> 1, b - a
    for _ in range(2 * step.bit_length() + 64):
        gx = _cubic_at(coeffs, x, one)
        if gx == 0:
            return x
        if (gx < 0) == rising:
            a = x
        else:
            b = x
        if b - a <= 2:
            return a + b >> 1
        # the Newton step one * g / g' at x / one
        dgx = (3 * c3 * x + (c2 << F + 1)) * x + (c1 << 2 * F)
        dx = gx // dgx if dgx else step
        if -1 <= dx <= 1 and _cubic_at(coeffs, x - dx - 1, one) \
                * _cubic_at(coeffs, x - dx + 1, one) <= 0:
            return x - dx
        if a < x - dx < b and 2 * abs(dx) <= step:
            step, x = abs(dx), x - dx
        else:
            step, x = abs((a + b >> 1) - x), a + b >> 1
    raise InvariantViolation(
        f"root refinement on [{lo}/{den}, {hi}/{den}] did not converge")


def _exp_neg(y: int, bits: int) -> int:
    """exp(-y / 2^bits) * 2^bits: the Taylor series of exp(-z) at
    z = y / 2^(bits + 8), then 8 squarings.

    Error, for 0 <= y < 2^(bits + 1), in units of 2^-bits: z < 2^-7 and
    each term is floored once from the one before, so each errs by less
    than 1.01 and their sum, fewer than 30 terms above 0.99, by less
    than 31 relative units.  Each squaring at most doubles the relative
    error and adds one unit over its result, which is above exp(-2):
    2^8 * 31 + 255 e^2 < 2^14, so the value is off by less than 2^14."""
    total, term, n = 1 << bits, 1 << bits, 0
    while term:
        n += 1
        term = term * y // (n << bits + 8)
        total += -term if n & 1 else term
    for _ in range(8):
        total = total * total >> bits
    return total


def l_value(E: Curve, conductor: int) -> int:
    """L(E, 1) * 2^F, F = L_VALUE_BITS, by the exponentially convergent
    a_n series (~0 for odd functional equation).

    2 sum_(n <= n_max) a_n/n x^n, x = exp(-2 pi / sqrt(N)) and n_max =
    max(80, floor(9 sqrt N)), is summed by Horner's rule in integers with
    F fractional bits: x, from `_exp_neg` at the guard bits below 2^-F
    and floored to F bits, is off by less than 2^-F (1 + 2^-17), each of the n_max steps rounds down by
    less than 2 * 2^-F, and |x| < 1 keeps those errors from growing
    beyond the guard bits."""
    F = L_VALUE_BITS
    W = F + _GUARD_BITS
    two_pi = _pi() >> (_PI_BITS - W - 1)
    y = (two_pi << W) // isqrt(conductor << 2 * W)  # 2 pi / sqrt(N) * 2^W
    x = _exp_neg(y, W) >> _GUARD_BITS
    n_max = max(80, isqrt(81 * conductor))
    a = E.an_list(n_max)
    acc = 0
    for n in range(n_max, 0, -1):
        acc = ((acc + (a[n - 1] << F) // n) * x) >> F
    return 2 * acc


# rationalize: the largest denominator tried, and the relative error
# below which the fraction is taken
RATIONAL_MAX_DEN = 10**6
RATIONAL_TOL = Fraction(1, 10**25)


def rationalize(man: int) -> Fraction:
    """The fraction n/d, d <= RATIONAL_MAX_DEN, that the value v = man /
    2^RATIONAL_BITS rationalizes to: the double nearest v (int true
    division rounds correctly) through `limit_denominator`, taken when
    |v - n/d| <= RATIONAL_TOL * max(1, |v|), compared exactly in
    integers.  EigenspaceNotRational otherwise."""
    one = 1 << RATIONAL_BITS
    fr = Fraction(*(man / one).as_integer_ratio()) \
        .limit_denominator(RATIONAL_MAX_DEN)
    n, d = fr.numerator, fr.denominator
    if abs(man * d - n * one) * RATIONAL_TOL.denominator \
            > RATIONAL_TOL.numerator * d * max(one, abs(man)):
        raise EigenspaceNotRational(
            f"value {man / one!r} does not rationalize "
            f"within denominator {RATIONAL_MAX_DEN}")
    return fr


class ClassFunctional:
    """What every curve with the same a_ell at the match primes shares
    on one space: `kernel`, the joint kernel of their constraints, and,
    once it is the line of phi0, phi0's values on every P^1 generator as
    integer numerators `num` over the space's _den, and `walks`, the
    walk sums of those numerators that `mazur_tate.theta_element` keeps
    per (p, n).  All of it is computed from the space and those a_ell
    alone, so sharing it asserts no isogeny."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.num = None
        self.walks = {}


class EigenSymbol:
    """Rational dual eigenvector on the plus-quotient, normalized so that
    the value of {0 -> oo} is L(f,1)/Omega_plus(E).

    phi = r * phi0 for the primitive integer kernel vector phi0 and one
    rational scale r, `scale`.  phi0 and its values on the P^1
    generators, integer numerators over the space's denominator, are the
    `functional` that the space keeps for the a_ell at the match primes.
    phi's values are r's numerator times those, over one common
    denominator `den`, r's denominator times the space's; since phi0 is
    primitive, r's denominator is the lcm of phi's, `denominator_bound`.
    `path_numerator` sums phi's numerators along a path for
    `evaluate`."""

    def __init__(self, space: ManinSymbolSpace, curve: Curve,
                 conductor: int):
        self.space = space
        self.curve = curve
        self.conductor = conductor
        self.match_primes = self._good_primes(3)
        self._a = {ell: curve.ap(ell) for ell in self.match_primes}
        self._find_functional()
        self._normalize()

    def _good_primes(self, count):
        out = []
        q = 2
        while len(out) < count:
            if is_probable_prime(q) and self.conductor % q != 0:
                out.append(q)
            q += 1
        return out

    def _find_functional(self):
        """phi0: the primitive integer vector spanning the joint kernel of
        (T_ell - a_ell)^T over the match primes, a star-invariant
        functional since the space is the +1 quotient.  While that kernel
        has more than one dimension, three more primes are added, up to
        twelve.  Like a nullspace basis vector, phi0 is zero after its
        last free column and positive there; each restriction keeps that,
        so phi0 is the stacked system's own."""
        fn = self._functional()
        while len(fn.kernel) > 1 and len(self.match_primes) < 10:
            self.match_primes = self._good_primes(len(self.match_primes) + 3)
            self._a = {ell: self.curve.ap(ell) for ell in self.match_primes}
            fn = self._functional()
        kern = fn.kernel
        if not kern:
            raise EigenspaceNotRational(
                f"no rational eigensymbol for a_ell = {self._a}")
        if len(kern) > 1:
            raise EigenspaceNotOneDimensional(
                f"eigenspace dimension {len(kern)}")
        self._phi0 = kern[0]
        self.functional = fn

    def _functional(self):
        """The space's ClassFunctional for the (ell, a_ell) of the match
        primes, made from `_joint_kernel` when the space has none: the
        kernel is a function of the space and those a_ell."""
        memo = self.space._functionals
        key = tuple(self._a.items())
        if key not in memo:
            memo[key] = ClassFunctional(self._joint_kernel(self.match_primes))
        return memo[key]

    def _constraint(self, ell):
        """_den * (T_ell - a_ell)^T as integer rows: v (T - a) = 0 iff
        (T^T - a I) v = 0, and `hecke_matrix` is _den * T_ell."""
        sp = self.space
        return _transpose_shift(sp.hecke_matrix(ell), self._a[ell] * sp._den)

    def _joint_kernel(self, primes):
        """Integer basis of the joint kernel of the constraints of primes:
        the nullspace of (T_q - a_q)^T for the first prime q, restricted
        by each further prime ell through the small system
        (T_ell - a_ell)^T K."""
        kern = nullspace(self._constraint(primes[0]))
        for ell in primes[1:]:
            if not kern:
                break
            kern = self._restrict(kern, ell)
        return kern

    def _restrict(self, kern, ell):
        """Primitive integer basis of {K c : (T_ell - a_ell)^T K c = 0}
        for the basis K."""
        small = [[sum(x * y for x, y in zip(row, v)) for v in kern]
                 for row in self._constraint(ell)]
        out = []
        for coef in nullspace(small):
            v = [sum(c * x for c, x in zip(coef, xs)) for xs in zip(*kern)]
            g = gcd(*v)
            out.append([x // g for x in v])
        return out

    def _normalize(self):
        sp, fn = self.space, self.functional
        if fn.num is None:
            phi0 = self._phi0
            slot_values = {s: sum(phi0[fi] * y for fi, y in terms)
                           for s, terms in sp._slot_terms.items()}
            fn.num = [0 if s is None else sgn * slot_values[s]
                      for s, sgn in sp._red]
        num = fn.num
        # phi0 on {0 -> oo} = -(phi0 on {oo -> 0})
        raw_base = Fraction(-sum(num[i] for i in sp.path_infty_to(0, 1)),
                            sp._den)
        if raw_base == 0:
            raise EigenspaceNotRational(
                "base path value is zero (positive analytic rank); "
                "the Neron-period normalization needs L(E,1) != 0")
        omega = real_period(self.curve)
        lval = l_value(self.curve, self.conductor)
        # L / Omega * 2^RATIONAL_BITS
        ratio = rationalize(
            (lval << PERIOD_BITS + RATIONAL_BITS - L_VALUE_BITS) // omega)
        if ratio == 0:
            raise EigenspaceNotRational(
                "L(E,1) = 0: positive analytic rank not supported")
        self.scale = scale = ratio / raw_base
        self.base_value = ratio
        self.period = omega
        self.l_value = lval
        self.denominator_bound = scale.denominator
        self.den = scale.denominator * sp._den

    def path_numerator(self, a: int, m: int) -> int:
        """The value of the path {a/m -> oo} times `den`."""
        num = self.functional.num
        return -self.scale.numerator * sum(
            num[i] for i in self.space.path_infty_to(a, m))

    def evaluate(self, a: int, m: int) -> Fraction:
        """[a/m]^+ = value of the path {a/m -> oo}."""
        if gcd(a, m) != 1:
            raise ValueError("a/m must be in lowest terms")
        return Fraction(self.path_numerator(a, m), self.den)
