"""Refined mu-invariants of finitely presented torsion modules over
Zp[[T]], computed through graded ranks over Fp[[T]].

The module must be torsion.  Its relation matrix R has entries in Z[T]
of degree < M, so every maximal minor has degree <= c(M - 1) for c
generators; R has rank c over Q(T) iff R(t) has rank c over Q at one
integer t in 0 .. c(M - 1), and `torsion_certificate` returns the least
such t, each rank taken by `linalg.rank`.

The k-th graded rank q_k is the Fp[[T]]-rank of p^(k-1) M / p^k M.  For a
module whose p-power torsion is a sum of pieces Lambda/p^i, q_k counts the
summands with i >= k, so the multiplicity of Lambda/p^i is q_i - q_(i+1).
Everything is computed from the relation rows by exact linear algebra
over A = (Z/p^N)[T]/(T^M), each entry M coefficients and one zero pad
slot: one elimination mod p per k gives the Fp[[T]]-rank of the
T-stable space W_k of x mod p with p^(k-1) x in the span of the
relations, and hands generators of W_(k+1) to the next level (see
`smith_rank_over_power_series_field_char_p`).
Finite (pseudonull) junk is insensitive to the T-truncation bound, so each
profile is recomputed at doubled truncation and must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_probable_prime, poly_eval
from .errors import (
    InvariantViolation,
    NotTorsion,
    PrecisionInsufficient,
    TruncationUnresolved,
)
from .linalg import rank
from .modp import MAX_MODULUS, matmul_mod

# bounds that `load_presentation` checks before any matrix is built.
# MT: the doubled-truncation pass of the elimination works at M = 2 MT
# with (M + 1) x (M + 1) int64 arrays (the T-shift index, the
# multiplication matrix of a pivot and the limb halves of a product; the
# extra slot is the zero pad), and M + 1 is the inner dimension of its
# `matmul_mod` products, which must stay below 2^16.  At MT = 1024 such
# an array takes 32 MiB.
MAX_TRUNCATION = 1024
# a refused torsion certificate evaluates the r x c relation matrix at
# c(MT - 1) + 1 points and takes each rank by `linalg.rank` (one exact
# RREF, a single elimination mod 2^62 - 57 at a full-rank point),
# about r c (c + MT) operations a point (MT big-integer steps an entry
# to evaluate, c to eliminate).  At both bounds, over r x c from 1 x 1
# to 128 x 2 and 158 x 158, refusals (a repeated column, a zero one at
# c = 1; p^N = 5^3) took at most 1.0 s (2 x 2 at MT 706) and accepted
# dense presentations (p^N = 2^31, or 46337^2 with limb products) at
# most 0.95 s (158 x 158 at MT 1) and 166 MB (2 x 1 at MT 1024).  The
# forward-only elimination mod 2^31 - 1 that `linalg.rank` replaced, run
# before the exact one, took at most 1.2 s to refuse (158 x 158 at MT 1
# went 0.93 -> 0.57 s) and 0.70 s to accept (158 x 158 at MT 1 now 0.79
# to 0.95 s, the full back-substitution mod the larger prime).  Two runs
# each through `lambda-invariants` in-process, shared 2-CPU Xeon,
# Python 3.11, numpy 2.4.
MAX_CERTIFICATE_WORK = 4 * 10**6


def certificate_work(r: int, c: int, M: int) -> int:
    """(c(M - 1) + 1) r c (c + M): the operations of a refused torsion
    certificate on r relations, c generators and truncation M, up to a
    constant."""
    return (c * (M - 1) + 1) * r * c * (c + M)


def _shift_index(M: int) -> np.ndarray:
    """S[s, t] = t - s for s <= t < M and M otherwise, for s, t <= M:
    indexing a length-M coefficient vector padded by one zero with S[s]
    multiplies it by T^s mod T^M and keeps the pad, so indexing with S
    gives the matrix of multiplication by it, with a zero last row and
    column for the pad slot."""
    s, t = np.ogrid[:M + 1, :M + 1]
    return np.where((t >= s) & (t < M), t - s, M)


# a few truncations recur (MT and 2 MT of each presentation), and
# building S costs a level about 10 % of its time on small modules; S
# takes 8 (M + 1)^2 bytes, so only those up to _SHIFT_CACHE_MAX are kept
# (0.7 MB for all of them) and a larger one is built per call
_SHIFT_CACHE_MAX = 64
_small_shift_index = lru_cache(maxsize=None)(_shift_index)


def _valuations(X: np.ndarray, p: int) -> np.ndarray:
    """The T-valuation mod p of each entry of the (rows, c, M + 1) array
    X with a zero pad slot: the index of its first coefficient that is
    nonzero mod p, or M."""
    nz = X % p != 0
    nz[:, :, -1] = True
    return nz.argmax(axis=2)


def smith_rank_over_power_series_field_char_p(G: np.ndarray, p: int,
                                              mod: int):
    """One level of the graded ranks.  G is an int64 (rows, c, M + 1)
    array over A = (Z/p^n)[T]/(T^M), mod = p^n, whose last slot is a
    zero pad, and U is the A-span of its rows.  Returns the Fp[[T]]-rank
    of W = U mod p, and rows, padded the same way, that span
    U' = {x : p x in U} mod p^(n-1), or None when n = 1.

    Each step pivots on an entry of least T-valuation e, read mod p,
    among the rows not yet pivoted, ties broken by the least flat index,
    and clears its column mod p from the others: with T^e u and a the
    column's entries mod p in the pivot row g and in another row,
    row <- u row - (a / T^e) g is invertible over A, so U is kept.  The
    pivot rows g_r are divisible mod p by T^(e_r) and zero mod p in the
    earlier pivot columns, so they are minimal generators of W, a sum of
    pieces T^(e_r) Fp[T]/(T^M), and the rank is their number.  Every
    other row ends 0 mod p.

    If p x = sum a_r g_r + (A-multiples of the other rows), reading the
    pivot columns mod p in order gives a_r in (p, T^(M-e_r)), and
    T^(M-e_r) g_r = 0 mod p.  So U' is spanned mod p^(n-1) by each g_r,
    by T^(M-e_r) g_r / p and by each other row / p: a level adds at most
    c rows.  Rows that are 0 are dropped.

    The valuations `val` of every entry are kept between steps: a pivot
    row's are set to M, so it is never chosen or updated again, and only
    the updated rows are read again.  Both step matrices are gathers by
    S: u as the matrix of multiplication by it mod T^M, from a buffer
    whose slots past M stay zero, and the T-shifts of g, laid out
    coefficient-major so that the gather is contiguous.
    """
    G = G % mod
    n, c, M1 = G.shape
    M = M1 - 1
    S = _small_shift_index(M) if M <= _SHIFT_CACHE_MAX else _shift_index(M)
    val = _valuations(G, p)
    u = np.zeros(2 * M + 1, dtype=np.int64)
    pivots, vals = [], []
    while val.size:
        r, j = divmod(int(val.argmin()), c)
        e = int(val[r, j])
        if e == M:
            break
        pivots.append(r)
        vals.append(e)
        val[r] = M
        others = (val[:, j] < M).nonzero()[0]
        if not others.size:
            continue
        # u = G[r, j] / T^e mod p, and its multiplication matrix
        np.remainder(G[r, j], p, out=u[:M1])
        U = u[e:e + M1][S]
        gT = G[r].T[S[:M - e]].reshape(M - e, M1 * c)
        rows = G[others]
        scaled = matmul_mod(rows.reshape(-1, M1), U, mod)
        taken = matmul_mod(rows[:, j, e:M] % p, gT, mod)
        new = (scaled.reshape(-1, c, M1)
               - taken.reshape(-1, M1, c).transpose(0, 2, 1)) % mod
        G[others] = new
        val[others] = _valuations(new, p)
    if mod == p:
        return len(pivots), None
    shifted = np.zeros((len(pivots), c, M1), dtype=np.int64)
    for k, (r, e) in enumerate(zip(pivots, vals)):
        shifted[k, :, M - e:M] = G[r, :, :e] // p
    pivoted = np.zeros(n, dtype=bool)
    pivoted[pivots] = True
    nxt = np.concatenate([G[pivots] % (mod // p), shifted,
                          G[~pivoted] // p])
    return len(pivots), nxt[nxt.any(axis=(1, 2))]


@dataclass(frozen=True)
class MuProfile:
    """Refined mu-data: vector (mu_1..mu_t), mu = sum i*mu_i, exponent t,
    multiplicity r = sum mu_i."""

    mu_vector: tuple[int, ...]
    mu: int
    t: int
    r: int

    def __post_init__(self):
        vec = self.mu_vector
        if vec == (0,):
            ok = self.mu == 0 and self.t == 0 and self.r == 0
        else:
            ok = (bool(vec) and vec[-1] > 0
                  and self.mu == sum((i + 1) * m for i, m in enumerate(vec))
                  and self.r == sum(vec)
                  and self.t == len(vec))
        if not ok:
            raise InvariantViolation(f"inconsistent mu-profile: {self}")


class LambdaPresentation:
    """Finitely presented torsion module over Z_p[[T]], given by a relation
    matrix with entries truncated at (p^N, T^M).

    `relations` is the int64 (relations, generators, M) array of the
    coefficients reduced mod p^N; `raw` holds the exact coefficients for
    the torsion certificate, with object entries only when they overflow
    int64.  `rows` is a list of rows of coefficient lists, or such an
    array."""

    def __init__(self, p: int, N: int, M: int, rows):
        # a huge N is refused before p^N is computed
        if N >= MAX_MODULUS.bit_length() or p**N > MAX_MODULUS:
            raise ValueError(f"p^N = {p}^{N} exceeds 2^31, the bound on "
                             "the modulus of the int64 products")
        self.p = p
        self.N = N
        self.M = M
        if isinstance(rows, np.ndarray):
            raw = rows
        else:
            rows = [[list(e)[:M] for e in row] for row in rows]
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("ragged relation matrix")
            padded = [[e + [0] * (M - len(e)) for e in row] for row in rows]
            try:
                raw = np.array(padded, dtype=np.int64)
            except OverflowError:
                raw = np.array(padded, dtype=object)
            raw = raw.reshape(len(rows), len(rows[0]) if rows else 0, M)
        self.ncols = raw.shape[1]
        self.relations = (raw % p**N).astype(np.int64)
        self.raw = self.relations if np.array_equal(raw, self.relations) \
            else raw

    # -- torsion certificate ------------------------------------------------

    def torsion_certificate(self) -> int:
        """The least integer t at which the relation matrix R(t), the
        exact integer coefficients evaluated at T = t, has rank c over Q;
        NotTorsion if there is none.

        The module is torsion iff R has rank c over Q(T).  Every c x c
        minor of R is a polynomial of degree <= c(M - 1), so a nonzero
        minor is nonzero at one of the c(M - 1) + 1 points 0 .. c(M - 1):
        rank c at some point certifies torsion, and rank < c at every
        point proves the module is not torsion.
        """
        c = self.ncols
        if len(self.raw) < c:
            raise NotTorsion("fewer relations than generators")
        rows = self.raw.tolist()
        for t in range(c * (self.M - 1) + 1):
            R = [[poly_eval(e, t) for e in row] for row in rows]
            if rank(R) == c:
                return t
        raise NotTorsion(f"rank < {c} over Q(T): the relation matrix has "
                         f"rank < {c} at every T = 0 .. {c * (self.M - 1)}")


def _graded_ranks_at(pres: LambdaPresentation, M: int) -> list[int]:
    """q_k = c - (Fp[[T]]-rank of W_k) for k = 1..N at truncation M, with
    W_k = U_k mod p and U_k = {x : p^(k-1) x in V}, V the span of the
    relations.  U_1 = V and U_(k+1) = {x : p x in U_k}; U_k contains
    p^(N-k+1) A^c, so level k works mod p^(N-k+1).  The rank never falls
    as k grows (the socle of W_k lies in that of W_(k+1)), so once it is
    c it stays c.  The relations are truncated or padded with zeros to
    M coefficients, plus the zero pad slot of the elimination."""
    p, N, c = pres.p, pres.N, pres.ncols
    keep = min(M, pres.M)
    G = np.zeros((len(pres.relations), c, M + 1), dtype=np.int64)
    G[:, :, :keep] = pres.relations[:, :, :keep]
    qs = []
    for k in range(1, N + 1):
        rank, G = smith_rank_over_power_series_field_char_p(
            G, p, p**(N - k + 1))
        qs.append(c - rank)
        if rank == c:
            return qs + [0] * (N - k)
    return qs


def graded_ranks(pres: LambdaPresentation) -> list[int]:
    """q_k = F_p[[T]]-rank of p^(k-1) M / p^k M for k = 1..N.

    Computed at the stated truncation and re-checked at doubled truncation;
    disagreement raises TruncationUnresolved.  Monotonicity (q_k
    non-increasing) is asserted on every run.
    """
    pres.torsion_certificate()
    qs = _graded_ranks_at(pres, pres.M)
    qs2 = _graded_ranks_at(pres, 2 * pres.M)
    if qs != qs2:
        raise TruncationUnresolved(
            f"graded ranks unstable under truncation doubling: "
            f"{qs} at T^{pres.M} vs {qs2} at T^{2 * pres.M}")
    for a, b in zip(qs, qs[1:]):
        if b > a:
            raise TruncationUnresolved(
                f"graded ranks not monotone: {qs}")
    return qs


def profile_from_ranks(qs: list[int], N: int) -> MuProfile:
    """Refined mu-invariants from graded ranks: mu_i = q_i - q_(i+1).

    Requires q_N = 0 (the working precision sees past the mu-exponent);
    otherwise raises PrecisionInsufficient.
    """
    if qs[-1] != 0:
        raise PrecisionInsufficient(
            f"q_N = {qs[-1]} > 0 at N = {N}: mu-exponent not resolved")
    ext = qs + [0]
    mus = [ext[i] - ext[i + 1] for i in range(len(qs))]
    while mus and mus[-1] == 0:
        mus.pop()
    return _profile(tuple(mus))


@lru_cache(maxsize=None)
def _profile(vec: tuple[int, ...]) -> MuProfile:
    """The one MuProfile of each mu-vector (() for mu = 0)."""
    if not vec:
        return MuProfile((0,), 0, 0, 0)
    return MuProfile(vec,
                     sum((i + 1) * m for i, m in enumerate(vec)),
                     len(vec),
                     sum(vec))


def mu_profile(pres: LambdaPresentation) -> MuProfile:
    """The refined mu-profile of `pres` (see `profile_from_ranks`)."""
    return profile_from_ranks(graded_ranks(pres), pres.N)


def load_presentation(path: str) -> LambdaPresentation:
    """Read {"p": int, "N": int, "MT": int, "rows": [[[c0,c1,..], ..], ..]}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(
            f"a presentation is a JSON object, got {type(data).__name__}")
    for key in ("p", "N", "MT", "rows"):
        if key not in data:
            raise ValueError(f"presentation file missing '{key}'")
    p = data["p"]
    if type(p) is not int or not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {p!r}")
    for key in ("N", "MT"):
        if type(data[key]) is not int or data[key] < 1:
            raise ValueError(
                f"{key} must be an integer >= 1, got {data[key]!r}")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(e, list) for e in row)
            for row in rows):
        raise ValueError("rows must be a list of rows of coefficient lists")
    for c in (c for row in rows for e in row for c in e):
        if type(c) is not int:
            raise ValueError(f"coefficients must be integers, got {c!r}")
    N, M = data["N"], data["MT"]
    if M > MAX_TRUNCATION:
        raise ValueError(
            f"MT = {M} exceeds {MAX_TRUNCATION}, the bound on the "
            "truncation: each doubled-truncation matrix of the "
            "elimination is 2 MT x 2 MT; lower MT")
    r, c = len(rows), len(rows[0]) if rows else 0
    if (work := certificate_work(r, c, M)) > MAX_CERTIFICATE_WORK:
        raise ValueError(
            f"{r} relations on {c} generators at MT = {M} take {work} "
            "steps of the torsion certificate, over its bound "
            f"{MAX_CERTIFICATE_WORK}; lower MT or the size of the "
            "presentation")
    return LambdaPresentation(p, N, M, rows)
