"""Mazur-Tate elements along the cyclotomic tower and analytic Iwasawa
invariants.

theta_n lives on Gal(Q_n/Q), realized as coefficients on the powers of a
fixed topological generator gamma = (image of) 1+p.  The element is the
sum over units a mod p^(n+1) of the plus-symbol [a/p^(n+1)] placed at
gamma^t, where (1+p)^t is the 1-unit part of a.  Coefficients are kept
exact, as integer numerators over one denominator: the raw theta can
carry p in that denominator (the Eisenstein part at the trivial
character; theta_0 of 11a1 is -1/5), and only the unit-root-regularized
combination is reduced mod p^N.  (mu, lambda) are read off once every
layer from some point to the last agrees.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import gcd, lcm

from .dirichlet import primitive_root
from .errors import DenominatorAtP, InvariantViolation, NotStabilized
from .modsym import EigenSymbol
from .padic import hensel_unit_root
# the benchmark's tracer wraps mu_lambda_of_polynomial here and in
# `analysis`; this module reads no layer itself
from .padic import mu_lambda_of_polynomial  # noqa: F401


@dataclass(frozen=True)
class MazurTateElement:
    """Group-ring element on the layer-n quotient of the cyclotomic tower:
    nums[t] / den sits at gamma^t.  den > 0 and no prime divides den and
    every numerator, so p^e, e = v_p(den), is the largest power of p in
    a coefficient's denominator."""

    p: int
    N: int
    n: int
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.nums) != self.p**self.n:
            raise InvariantViolation(
                f"{len(self.nums)} coefficients at layer {self.n}, "
                f"expected p^n = {self.p**self.n}")


def _gamma_index_table(p: int, n: int) -> list[int]:
    """table[a] = t with a * teichmuller(a)^(-1) = (1+p)^t mod p^(n+1),
    for every unit a mod p^(n+1) (0 at the non-units).

    u(a) = a * teichmuller(a)^(-1) is a homomorphism onto the 1-units.
    For r a primitive root mod p, g = teichmuller(r) * (1+p) generates
    the units mod p^(n+1) and has u(g) = 1+p, so one walk along g^k fills
    table[g^k] = k mod p^n.  teichmuller(r) is r^(p^n) mod p^(n+1)."""
    mod, size = p**(n + 1), p**n
    g = pow(primitive_root(p), size, mod) * (1 + p) % mod
    table = [0] * mod
    x = 1
    for k in range(mod - size):
        table[x] = k % size
        x = x * g % mod
    return table


def theta_element(es: EigenSymbol, p: int, n: int, N: int
                  ) -> MazurTateElement:
    """theta_n: r times the walk sums of phi0 (`_walk_sums`), r the
    numerator of the symbol's scale, over its one denominator, divided
    by their common gcd.

    theta_n is linear in the symbol, a sum of path values, so for
    phi = r phi0 it is r times theta_n of phi0: the sums are those of
    phi's own numerators.  They depend on phi0 alone, so they are
    computed once per (p, n) and kept on es.functional, which every
    symbol with the same a_ell at the match primes on the same space
    shares."""
    fn = es.functional
    sums = fn.walks.get((p, n))
    if sums is None:
        sums = fn.walks[p, n] = _walk_sums(es.space, fn.num, p, n)
    r = es.scale.numerator
    nums = [2 * r * x for x in sums]
    g = gcd(es.den, *nums)
    return MazurTateElement(p, N, n, tuple(x // g for x in nums),
                            es.den // g)


def _walk_sums(space, num, p, n: int) -> list[int]:
    """Half the path sums of theta_n for the generator numerators num: at
    gamma^t, the sum of the values of {a/m -> oo}, m = p^(n+1), over the
    units a < m/2 of gamma-index t.

    The units a and m - a add the same term, so only a < m/2 is walked
    (and theta_element counts it twice): -a has the gamma-index of a (-1
    is a Teichmuller unit), and the path to (m - a)/m = 1 - a/m takes the
    value of the path to -a/m (translation by 1 lies in Gamma_0(N)),
    which is that of the path to a/m (the symbol is star-invariant)."""
    m = p**(n + 1)
    table = _gamma_index_table(p, n)
    path = space.path_infty_to
    acc = [0] * (p**n)
    for a in range(1, (m + 1) // 2):
        if a % p:
            acc[table[a]] -= sum(num[i] for i in path(a, m))
    return acc


def inflate_norm(theta: MazurTateElement) -> MazurTateElement:
    """The norm-inflation map layer n -> n+1: gamma-bar^i maps to the sum
    of its p preimages."""
    return MazurTateElement(theta.p, theta.N, theta.n + 1,
                            theta.nums * theta.p, theta.den)


def regularized_Lp(theta_n: MazurTateElement, theta_prev: MazurTateElement,
                   a_p: int) -> tuple[int, ...]:
    """L_n = alpha^-(n+1) (theta_n - alpha^-1 nu(theta_(n-1))), alpha the
    unit root of x^2 - a_p x + p, as its p^n group-ring residues mod p^N
    on gamma^0 .. gamma^(p^n - 1), N = theta_n.N.

    With D the common denominator of the two layers and p^e its p-part,
    p^e L_n is computed mod p^(N+e), alpha at that precision, and then
    divided by p^e; DenominatorAtP when it is not divisible.
    """
    p, N, n = theta_n.p, theta_n.N, theta_n.n
    if theta_prev.n != n - 1:
        raise InvariantViolation(
            f"theta_prev is at layer {theta_prev.n}, not {n - 1}")
    D = lcm(theta_n.den, theta_prev.den)
    e, unit = 0, D
    while unit % p == 0:
        unit //= p
        e += 1
    bigmod = p**(N + e)
    ainv = pow(hensel_unit_root(a_p, p, N + e), -1, bigmod)
    # p^e * (x / den) = x * (D / den) / unit
    uinv = pow(unit, -1, bigmod)
    f_n = D // theta_n.den * uinv
    f_prev = D // theta_prev.den * uinv * ainv
    nu = inflate_norm(theta_prev).nums
    mod, q = p**N, p**e
    scale = pow(ainv, n + 1, mod)
    out = []
    for x, y in zip(theta_n.nums, nu):
        c = (x * f_n - y * f_prev) % bigmod
        if c % q:
            raise DenominatorAtP(
                "regularized coefficient not p-integral "
                f"(residue {c} mod p^{N + e})")
        out.append(c // q * scale % mod)
    return tuple(out)


def analytic_iwasawa_invariants(pairs: list[tuple[int, int]]
                                ) -> tuple[int, int, int]:
    """(mu, lambda, stabilized_at): the invariants on which every layer
    from some point to the last agrees.

    pairs[i] is (mu, lambda) read off the regularized element at layer
    i+1 (`mu_lambda_of_polynomial`); at least two entries are required.
    stabilized_at is the second layer of the longest run of agreeing
    layers that ends at the last one.  Early layers can agree on a pair
    that a later one contradicts (a true lambda >= p^n makes every
    coefficient of layer n divisible by p), so a run that does not reach
    the last layer counts for nothing, and a last layer that disagrees
    with the one before raises NotStabilized.
    """
    if len(pairs) < 2:
        raise NotStabilized("need at least two consecutive layers")
    start = len(pairs) - 1
    while start >= 1 and pairs[start - 1] == pairs[-1]:
        start -= 1
    if start == len(pairs) - 1:
        raise NotStabilized(
            f"the last two layers disagree: {pairs}; raise --layers")
    return pairs[-1][0], pairs[-1][1], start + 2


def precision_guard(N: int, mu_bound: int, n: int) -> bool:
    """Working precision adequate for reading mu at layer n: the unit-root
    division is numerically delicate when a_p = 1 mod p, so demand
    N >= mu_bound + n + 2."""
    return N >= mu_bound + n + 2


# -- on-disk cache -------------------------------------------------------------

# bump when the file layout or the meaning of a cached theta changes
CACHE_FORMAT = 3


def cache_path(cache_dir: str, label: str, p: int, n: int) -> str:
    return os.path.join(cache_dir, label, str(p), f"theta_{n}.json")


def theta_cache_key(ainvs, conductor: int, p: int, n: int, N: int
                    ) -> dict:
    """Everything a cached (Neron-normalized) theta_n is computed from; a
    cache file is reused only under an equal key, so a label reused for
    another curve or another precision is a miss."""
    return {"format": CACHE_FORMAT, "ainvs": list(ainvs),
            "conductor": conductor, "p": p, "n": n, "N": N,
            "normalization": "neron"}


def write_theta_cache(cache_dir: str, label: str, theta: MazurTateElement,
                      key: dict) -> str:
    """Store theta under label as {"key", "den", "nums"}."""
    path = cache_path(cache_dir, label, theta.p, theta.n)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "den": theta.den, "nums": list(theta.nums)},
                  fh, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)
    return path


def read_theta_cache(cache_dir: str, label: str, key: dict
                     ) -> MazurTateElement | None:
    """The theta_n cached under label and key, or None on a miss: no
    file, a file stored under another key, or one that does not hold p^n
    integer numerators over a positive denominator, all with gcd 1
    (corrupt or truncated), which the caller recomputes and overwrites."""
    p, n = key["p"], key["n"]
    try:
        with open(cache_path(cache_dir, label, p, n)) as fh:
            data = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("key") != key:
        return None
    nums, den = data.get("nums"), data.get("den")
    if not (isinstance(nums, list) and len(nums) == p**n
            and all(type(x) is int for x in nums + [den])
            and den > 0 and gcd(den, *nums) == 1):
        return None
    return MazurTateElement(p, key["N"], n, tuple(nums), den)
