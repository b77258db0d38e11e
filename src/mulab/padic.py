"""Exact arithmetic in Z/p^N and truncated polynomials over it.

Values carry their precision: a PAdicElement is a residue mod p^N together
with (p, N), and mixing precisions raises instead of silently coercing.
Valuations are saturated at N -- a zero residue has valuation reported as N,
printed as ">=N", because working mod p^N cannot distinguish p^N from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotOrdinary, PrecisionExhausted, PrecisionMismatch


def val_int(n: int, p: int, cap: int) -> int:
    """p-adic valuation of the integer n, saturated at cap."""
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PAdicElement:
    """A residue 0 <= value < p^N, exact mod p^N."""

    p: int
    N: int
    value: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "value", self.value % self.p**self.N)

    @property
    def modulus(self) -> int:
        return self.p**self.N

    def _check(self, other: "PAdicElement") -> None:
        if self.p != other.p or self.N != other.N:
            raise PrecisionMismatch(
                f"({self.p},{self.N}) vs ({other.p},{other.N})")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PAdicElement(self.p, self.N, self.value + other.value)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PAdicElement(self.p, self.N, self.value - other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PAdicElement(self.p, self.N, self.value * other.value)

    def __neg__(self):
        return PAdicElement(self.p, self.N, -self.value)

    def _coerce(self, other):
        if isinstance(other, int):
            return PAdicElement(self.p, self.N, other)
        return other

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def inverse(self) -> "PAdicElement":
        if not self.is_unit():
            raise ZeroDivisionError("division by a non-unit mod p^N")
        return PAdicElement(self.p, self.N,
                            pow(self.value, -1, self.modulus))

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PAdicElement(self.p, self.N, pow(self.value, k, self.modulus))

    def reduce(self, N_new: int) -> "PAdicElement":
        if N_new > self.N:
            raise PrecisionMismatch("cannot raise precision of a residue")
        return PAdicElement(self.p, N_new, self.value % self.p**N_new)

    def valuation(self) -> int:
        return val_int(self.value, self.p, self.N)

    def __repr__(self):
        return f"{self.value} (mod {self.p}^{self.N})"


def valuation(x: PAdicElement) -> int:
    """Largest e <= N with p^e | value; returns N itself for a zero
    residue (precision exhaustion, rendered as ">=N")."""
    return x.valuation()


def format_valuation(e: int, N: int) -> str:
    return f">={N}" if e >= N else str(e)


def hensel_unit_root(a_p: int, p: int, N: int) -> PAdicElement:
    """Unit root of x^2 - a_p x + p mod p^N, by Newton iteration.

    Requires p not dividing a_p (the ordinary case); the unit root is the
    one congruent to a_p mod p.
    """
    if a_p % p == 0:
        raise NotOrdinary(f"p={p} divides a_p={a_p}")
    mod = p**N
    x = a_p % p
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        m = p**prec
        fx = (x * x - a_p * x + p) % m
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    root = PAdicElement(p, N, x % mod)
    assert (root.value * root.value - a_p * root.value + p) % mod == 0
    assert root.is_unit()
    return root


def sqrt_unit_one_mod_p(t: int, p: int, N: int) -> int:
    """The square root of t mod p^N that is congruent to 1 mod p.

    Requires t = 1 mod p and p odd; this is the square-root convention used
    for the tame local families.
    """
    if p == 2:
        raise ValueError("p must be odd")
    if t % p != 1:
        raise ValueError(f"{t} is not 1 mod {p}")
    x = 1
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        m = p**prec
        x = (x - (x * x - t) * pow(2 * x, -1, m)) % m
    return x % p**N


def teichmuller(a: int, p: int, N: int) -> int:
    """The (p-1)-st root of unity mod p^N congruent to a mod p (0 for
    a = 0 mod p)."""
    if a % p == 0:
        return 0
    mod = p**N
    x = a % mod
    # Iterating x -> x^p converges to the Teichmuller representative.
    for _ in range(N):
        x = pow(x, p, mod)
    return x


def fraction_mod(q: Fraction, p: int, N: int) -> PAdicElement:
    """Reduce a rational with p-free denominator mod p^N."""
    num, den = q.numerator, q.denominator
    if den % p == 0:
        raise ZeroDivisionError(f"denominator of {q} divisible by {p}")
    mod = p**N
    return PAdicElement(p, N, num * pow(den, -1, mod))


class IwasawaPolynomial:
    """Element of (Z/p^N)[T]/(T^M): a truncated power series used both for
    working in the Iwasawa algebra and for reading off mu/lambda."""

    __slots__ = ("p", "N", "M", "coeffs")

    def __init__(self, p: int, N: int, M: int, coeffs):
        self.p = p
        self.N = N
        self.M = M
        mod = p**N
        cs = [c % mod for c in coeffs[:M]]
        cs += [0] * (M - len(cs))
        self.coeffs = tuple(cs)

    def _check(self, other: "IwasawaPolynomial"):
        if (self.p, self.N, self.M) != (other.p, other.N, other.M):
            raise PrecisionMismatch("incompatible truncations")

    def __add__(self, other):
        self._check(other)
        return IwasawaPolynomial(
            self.p, self.N, self.M,
            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return IwasawaPolynomial(
            self.p, self.N, self.M,
            [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IwasawaPolynomial(self.p, self.N, self.M,
                                     [other * a for a in self.coeffs])
        self._check(other)
        out = [0] * self.M
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= self.M:
                    break
                out[i + j] += a * b
        return IwasawaPolynomial(self.p, self.N, self.M, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, IwasawaPolynomial)
                and (self.p, self.N, self.M) == (other.p, other.N, other.M)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.N, self.M, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def reduce_precision(self, N_new: int) -> "IwasawaPolynomial":
        return IwasawaPolynomial(self.p, N_new, self.M, self.coeffs)

    def __repr__(self):
        terms = [f"{c}*T^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"{body} (mod {self.p}^{self.N}, T^{self.M})"


def mu_lambda_of_polynomial(f: IwasawaPolynomial) -> tuple[int, int]:
    """(mu, lambda) of a nonzero truncated Iwasawa polynomial.

    mu is the minimal coefficient valuation, lambda the first index
    attaining it.  Raises PrecisionExhausted when f = 0 mod p^N.
    """
    vals = [val_int(c, f.p, f.N) for c in f.coeffs]
    mu = min(vals) if vals else f.N
    if mu >= f.N:
        raise PrecisionExhausted("all coefficients vanish mod p^N")
    lam = vals.index(mu)
    return mu, lam


def gamma_basis_to_T(p: int, N: int, coeffs_gamma) -> IwasawaPolynomial:
    """Rewrite sum c_j * gamma^j (gamma = 1+T) as a polynomial in T.

    The output lives in (Z/p^N)[T] truncated at T^(len coeffs), which
    drops nothing: the result has degree < len coeffs.
    """
    size = len(coeffs_gamma)
    mod = p**N
    out = [0] * size
    # Horner in gamma: out <- out * (1 + T) + c, from the top coefficient;
    # after m steps out has degree < m
    for m, c in enumerate(reversed(coeffs_gamma)):
        for i in range(min(m, size - 1), 0, -1):
            out[i] = (out[i] + out[i - 1]) % mod
        out[0] = (out[0] + c) % mod
    return IwasawaPolynomial(p, N, size, out)
