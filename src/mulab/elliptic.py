"""Weierstrass models: invariants, point counting over F_ell and
division polynomials.

For odd ell, a point count is the number of square roots of the
completed square summed over x in F_ell (one table per ell).  For
ell < 256 no arithmetic runs per x: the values at every x sit in the
slots of one integer, built from packed columns of x, x^2 and x^3 kept
per ell, are reduced mod ell together by one Barrett step, and are read
by one C-level pass over their bytes; larger ell sum over x.  ell = 2
uses brute force, and a_ell is counted once per curve instance.
At a multiplicative prime a_q is read from the sign of -c6.  Division
polynomials follow the classical recurrence, with even-index
polynomials carried as psi_n / psi_2 so everything stays polynomial in
x.  The one recurrence runs in Z[x] or, reduced mod (ell, h), in
F_ell[x]/(h), where the Frobenius scalar of a kernel line is read from
it without building any point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import isqrt
from operator import mul

from .arith import factorize, poly_mul, poly_sub
from .errors import BadReduction, InvalidModel


@dataclass(frozen=True)
class Curve:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 +
    a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @cached_property
    def b2(self):
        return self.a1**2 + 4 * self.a2

    @cached_property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self):
        return self.a3**2 + 4 * self.a6

    @cached_property
    def b8(self):
        return (self.a1**2 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3**2
                - self.a4**2)

    @cached_property
    def c4(self):
        return self.b2**2 - 24 * self.b4

    @cached_property
    def c6(self):
        return -self.b2**3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def discriminant(self):
        """Computed once per instance, as are the b and c invariants (the
        dataclass is frozen, and cached_property writes the instance
        __dict__ directly)."""
        return (-self.b2**2 * self.b8 - 8 * self.b4**3 - 27 * self.b6**2
                + 9 * self.b2 * self.b4 * self.b6)

    def __post_init__(self):
        if self.discriminant == 0:
            raise InvalidModel(f"singular model {self.ainvs()}")

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def bad_primes(self):
        return list(factorize(abs(self.discriminant)))

    # -- point counting ------------------------------------------------------

    def _memo(self, name: str) -> dict:
        """A dict kept on this instance (the dataclass is frozen, so it is
        set once through object.__setattr__)."""
        memo = self.__dict__.get(name)
        if memo is None:
            memo = {}
            object.__setattr__(self, name, memo)
        return memo

    def count_points(self, ell: int) -> int:
        """|E(F_ell)| including the point at infinity (good reduction
        required)."""
        if self.discriminant % ell == 0:
            raise BadReduction(f"bad reduction at {ell}")
        if ell == 2:
            return 1 + self._affine_points_mod_2()
        # complete the square: (2y + a1 x + a3)^2 = 4x^3+b2x^2+2b4x+b6,
        # so each x gives as many points as its value has square roots
        b2, b4, b6 = self.b2 % ell, 2 * self.b4 % ell, self.b6 % ell
        # the packed count reads each value mod ell from one byte
        if ell < 256:
            return 1 + _packed_root_count_sum(ell, b2, b4, b6)
        roots = _square_root_counts(ell)
        return 1 + sum(roots[(((4 * x + b2) * x + b4) * x + b6) % ell]
                       for x in range(ell))

    def _affine_points_mod_2(self) -> int:
        """Solutions (x, y) in F_2^2 of the Weierstrass equation."""
        return sum((y * y + self.a1 * x * y + self.a3 * y
                    - (x**3 + self.a2 * x * x + self.a4 * x + self.a6))
                   % 2 == 0 for x in range(2) for y in range(2))

    def ap(self, ell: int) -> int:
        """a_ell = ell + 1 - |E(F_ell)|, counted once per instance."""
        memo = self._memo("_ap_memo")
        if ell not in memo:
            memo[ell] = ell + 1 - self.count_points(ell)
        return memo[ell]

    def an_list(self, n_max: int) -> list[int]:
        """a_n for 1 <= n <= n_max by multiplicativity, over one
        smallest-prime-factor sieve.  With q the least prime of n and q^k
        its power in n, a_n = a_(q^k) a_(n/q^k) unless n = q^k, and
        a_(q^k) = a_q a_(q^(k-1)) - q a_(q^(k-2)) at good q, a_q
        a_(q^(k-1)) at bad q, where a_q = 0 at additive primes."""
        # spf[n]: n's least prime factor.  q runs down, so of the q with
        # q | n and q^2 <= n the least, which is n's least prime factor
        # when n is composite, marks n last
        spf = list(range(n_max + 1))
        for q in range(isqrt(n_max), 1, -1):
            spf[q * q::q] = [q] * ((n_max - q * q) // q + 1)
        disc = self.discriminant
        a = [0, 1] + [0] * (n_max - 1)
        power = [1] * (n_max + 1)  # q^k for n's least prime q
        for n in range(2, n_max + 1):
            q = spf[n]
            m = n // q
            power[n] = pe = power[m] * q if spf[m] == q else q
            if pe < n:
                a[n] = a[pe] * a[n // pe]
            elif m == 1:
                a[n] = self.ap(q) if disc % q else \
                    self._multiplicative_ap(q) if self.c4 % q else 0
            else:
                a[n] = a[q] * a[m] - (q * a[m // q] if disc % q else 0)
        return a[1:]

    def _multiplicative_ap(self, q: int) -> int:
        """a_q at a multiplicative prime: +1 (split) or -1 (nonsplit).
        For odd q the tangents at the node are rational iff -c6 is a
        square mod q (c6 is prime to q there, as c4 is).  At q = 2,
        |E^ns(F_2)| = 2 - a_2 counts the point at infinity and the affine
        points but the node."""
        if q == 2:
            return 2 - self._affine_points_mod_2()
        return 1 if pow(-self.c6, (q - 1) // 2, q) == 1 else -1

    # -- division polynomials -------------------------------------------------

    def psi2_squared(self):
        """B(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 = psi_2^2."""
        return [self.b6, 2 * self.b4, self.b2, 4]

    def division_polynomial(self, n: int):
        """psi_n as a polynomial in x for odd n; psi_n / psi_2 for even n."""
        return self.psi(n, self._memo("_psi_cache"), _in_z)

    def psi(self, n: int, cache: dict, red):
        """psi_n (psi_n / psi_2 for even n) by the classical recurrence,
        memoized in cache, with every product and difference passed
        through red, the reduction into the ring the recurrence runs in:
        the identity keeps it in Z[x], reduction mod (ell, h) puts it in
        F_ell[x]/(h).  One cache serves one red."""
        if not cache:
            b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
            f3 = [b8, 3 * b6, 3 * b4, b2, 3]
            g4 = [b4 * b8 - b6**2, b2 * b8 - b4 * b6, 10 * b8, 10 * b6,
                  5 * b4, b2, 2]
            cache.update({k: red(v) for k, v in (
                (-1, [-1]), (0, []), (1, [1]), (2, [1]), (3, f3),
                (4, g4))})
        if n in cache:
            return cache[n]

        def psi(k):
            return self.psi(k, cache, red)

        def mul(a, b):
            return red(poly_mul(a, b))

        m = n // 2
        if n % 2 == 1:
            # psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3; even
            # psi_n are kept as psi_n / psi_2, so the term whose factors
            # have even index takes back psi_2^4 = B^2
            a, b = psi(m), psi(m + 1)
            t1 = mul(psi(m + 2), mul(mul(a, a), a))
            t2 = mul(psi(m - 1), mul(mul(b, b), b))
            B = red(self.psi2_squared())
            if m % 2 == 0:
                t1 = mul(t1, mul(B, B))
            else:
                t2 = mul(t2, mul(B, B))
            out = red(poly_sub(t1, t2))
        else:
            # g_{2m} = psi._(m) * (psi._(m+2) psi._(m-1)^2
            #                      - psi._(m-2) psi._(m+1)^2): the psi_2
            # bookkeeping cancels identically for both parities of m
            a, b = psi(m - 1), psi(m + 1)
            inner = red(poly_sub(mul(psi(m + 2), mul(a, a)),
                                 mul(psi(m - 2), mul(b, b))))
            out = mul(psi(m), inner)
        cache[n] = out
        return out

    def duplication_x(self):
        """x(2P) = num/den with num = x^4 - b4 x^2 - 2 b6 x - b8 and
        den = psi_2^2."""
        num = [-self.b8, -2 * self.b6, -self.b4, 0, 1]
        return num, self.psi2_squared()


def _in_z(poly):
    return poly


# ell -> bytes r with r[t] the number of square roots of t mod ell, for
# the ell below SQUARE_TABLE_LIMIT (at most 76 KB in all); built on first
# use, larger ell build theirs per count
_SQUARE_ROOT_COUNTS: dict[int, bytes] = {}
SQUARE_TABLE_LIMIT = 1000


def _square_root_counts(ell: int) -> bytes:
    roots = _SQUARE_ROOT_COUNTS.get(ell)
    if roots is None:
        table = bytearray(ell)
        table[0] = 1
        for y in range(1, (ell + 1) // 2):
            table[y * y % ell] = 2
        roots = bytes(table)
        if ell < SQUARE_TABLE_LIMIT:
            _SQUARE_ROOT_COUNTS[ell] = roots
    return roots


def _slot_layout(ell: int) -> tuple[int, int, int]:
    """(k, s, m): the slot width in bytes, the shift and the multiplier
    m = ceil(2^s / ell) of the packed count mod the odd prime ell.

    Every slot value v of the sum S in `_packed_root_count_sum` is at
    most 4 (ell - 1) + 2 (ell - 1)^2 + (ell - 1), below V = 4 ell^2.  s
    is the least with 2^s >= V ell, and k the least with V m < 2^(8k).
    - Barrett (CRYPTO '86): write v = q ell + r with 0 <= r < ell and
      e = m ell - 2^s, so 0 <= e < ell.  Then v m / 2^s =
      q + (r + v e / 2^s) / ell, and v e < V ell <= 2^s, so
      r + v e / 2^s < r + 1 <= ell and floor(v m / 2^s) = q.
    - No carry: v m < V m < 2^(8k), so S m holds each v m in its own
      slot.  As V m >= 4 ell 2^s > 2^s, s < 8k, so the shift moves the
      top 8k - s bits of each slot to its bottom, and the mask of
      `_columns` keeps just those: floor(v m / 2^s) < 2^(8k - s)."""
    V = 4 * ell * ell
    s = (V * ell - 1).bit_length()
    m = -(-(1 << s) // ell)
    k = -(-(V * m).bit_length() // 8)
    return k, s, m


# ell -> _columns(ell) for the odd primes ell < 256 (under 0.2 MB for
# all of them); built on first use
_COLUMNS: dict[int, tuple] = {}


def _columns(ell: int) -> tuple:
    """(cubes, squares, xs, ones, mask, k, s, m, roots): the columns
    4 (x^3 mod ell), x^2 mod ell, x and 1 over x in F_ell, each packed
    into one integer with slot x in bytes k x .. k x + k - 1, the mask
    of the low 8k - s bits of every slot, the `_slot_layout`, and
    `_square_root_counts(ell)` padded to 256 bytes as a
    `bytes.translate` table."""
    cols = _COLUMNS.get(ell)
    if cols is None:
        k, s, m = _slot_layout(ell)
        xs = range(ell)

        def pack(values):
            return int.from_bytes(b"".join(map(
                int.to_bytes, values, repeat(k), repeat("little"))),
                "little")

        squares = list(map(pow, xs, repeat(2), repeat(ell)))
        ones = int.from_bytes(b"\1".ljust(k, b"\0") * ell, "little")
        cols = _COLUMNS[ell] = (
            4 * pack(map(ell.__rmod__, map(mul, squares, xs))),
            pack(squares), pack(xs), ones, ones * ((1 << 8 * k - s) - 1),
            k, s, m, _square_root_counts(ell).ljust(256, b"\0"))
    return cols


def _packed_root_count_sum(ell: int, c2: int, c1: int, c0: int) -> int:
    """The sum over x in F_ell of the number of square roots of
    4x^3 + c2 x^2 + c1 x + c0 mod the odd prime ell < 256, given
    0 <= c2, c1, c0 < ell, with no arithmetic per x: the slots of
    S = 4 x^3 + c2 x^2 + c1 x + c0 are reduced together by one Barrett
    step (`_slot_layout`), and the reduced slots, each its own low
    byte, are read by one `bytes.translate`."""
    cubes, squares, xs, ones, mask, k, s, m, roots = _columns(ell)
    S = cubes + c2 * squares + c1 * xs + c0 * ones
    # each slot v < 4 ell^2 becomes v - ell floor(v / ell) = v mod ell
    R = S - ell * ((S * m >> s) & mask)
    counts = R.to_bytes(k * ell, "little")[::k].translate(roots)
    return counts.count(1) + 2 * counts.count(2)
