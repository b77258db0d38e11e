"""Refined mu-invariants of finitely presented torsion modules over
Zp[[T]], computed through graded ranks over Fp[[T]].

The module must be torsion.  Its relation matrix R has entries in Z[T]
of degree < M, so every maximal minor has degree <= c(M - 1) for c
generators; R has rank c over Q(T) iff R(t) has rank c over Q at one
integer t in 0 .. c(M - 1), and `torsion_certificate` returns the least
such t.

The k-th graded rank q_k is the Fp[[T]]-rank of p^(k-1) M / p^k M.  For a
module whose p-power torsion is a sum of pieces Lambda/p^i, q_k counts the
summands with i >= k, so the multiplicity of Lambda/p^i is q_i - q_(i+1).
Everything is computed from the relation matrix by exact linear algebra:
one Smith form over Z/p^N of the T-shifted relations locates the
p^(k-1)-divisible relations for every k at once, and the Fp[[T]]-rank of
the T-stable space W_k they span mod p is dim W_k - dim TW_k, read for
every k from one elimination.
Finite (pseudonull) junk is insensitive to the T-truncation bound, so each
profile is recomputed at doubled truncation and must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .arith import is_probable_prime, poly_eval
from .errors import (
    InvariantViolation,
    NotTorsion,
    PrecisionInsufficient,
    TruncationUnresolved,
)
from .linalg import rref
from .modp import MAX_MODULUS, smith_zpk

Poly = tuple[int, ...]  # coefficients of a truncated polynomial in T

# bound on the entries of the doubled-truncation matrix, (relations*2*MT)
# x (generators*2*MT), that graded_ranks puts through smith_zpk; square
# is the costliest shape, and dense presentations at the bound (4 x 4 at
# MT 176, 1 x 1 at MT 707, p^N = 2^31 with every entry 0 or 2^30) took
# 20-22 s for graded_ranks and about 110 MB (Xeon, Python 3.11, numpy 2.4)
MAX_SMITH_ENTRIES = 2 * 10**6


def _poly(coeffs, M: int, mod: int) -> Poly:
    cs = [c % mod for c in coeffs[:M]]
    cs += [0] * (M - len(cs))
    return tuple(cs)


def smith_rank_over_power_series_field_char_p(
        basis: np.ndarray, labels, p: int, M: int, N: int) -> list[int]:
    """Ranks over F_p[[T]] of the T-stable subspaces W_1 <= ... <= W_N of
    (F_p[T]/(T^M))^c, where W_k is spanned by the rows of `basis` (c
    blocks of M coefficients) whose label is < k.

    W is a sum of cyclic pieces T^e F_p[T]/(T^M), and multiplying by T
    drops exactly one dimension from each piece with e < M, so the rank is
    dim W - dim TW.  One elimination over the T-shifted rows gives dim TW_k
    for every k: each column pivots on the live row of least label, so a
    row only ever takes multiples of rows of no larger label, every prefix
    keeps its span, and dim TW_k is the number of pivots with label < k.
    """
    labels = np.asarray(labels)
    # T shifts each block of M coefficients up by one and drops T^M
    R = np.zeros_like(basis)
    R[:, 1:] = basis[:, :-1] % p
    R[:, ::M] = 0
    live = np.ones(len(R), dtype=bool)
    pivot_labels = []
    for col in range(R.shape[1]):
        # live rows are zero left of col: earlier columns were cleared
        nz = np.flatnonzero(live & (R[:, col] != 0))
        if not nz.size:
            continue
        r = nz[labels[nz].argmin()]
        live[r] = False
        pivot_labels.append(int(labels[r]))
        rest = nz[nz != r]
        if rest.size:
            f = R[rest, col] * pow(int(R[r, col]), -1, p) % p
            R[rest, col:] = (R[rest, col:] - np.outer(f, R[r, col:])) % p
    return [int((labels < k).sum()) - sum(d < k for d in pivot_labels)
            for k in range(1, N + 1)]


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
    matrix with entries truncated at (p^N, T^M)."""

    def __init__(self, p: int, N: int, M: int, rows):
        self.p = p
        self.N = N
        self.M = M
        mod = p**N
        # raw coefficients are kept for the exact torsion witness; the
        # reduced rows drive every precision-N computation
        self.rows_raw = [[tuple(int(c) for c in list(e)[:M]) +
                          (0,) * max(0, M - len(list(e))) for e in row]
                         for row in rows]
        self.rows = [[_poly(e, M, mod) for e in row] for row in rows]
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged relation matrix")

    def with_truncation(self, M_new: int) -> "LambdaPresentation":
        return LambdaPresentation(self.p, self.N, M_new,
                                  [[list(e) for e in row]
                                   for row in self.rows_raw])

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
        if len(self.rows) < c:
            raise NotTorsion("fewer relations than generators")
        for t in range(c * (self.M - 1) + 1):
            R = [[poly_eval(e, t) for e in row] for row in self.rows_raw]
            if len(rref(R)[1]) == c:
                return t
        raise NotTorsion(f"rank < {c} over Q(T): the relation matrix has "
                         f"rank < {c} at every T = 0 .. {c * (self.M - 1)}")


def _graded_ranks_at(pres: LambdaPresentation, M: int) -> list[int]:
    p, N, c = pres.p, pres.N, pres.ncols
    # T^t * r_alpha for every relation and t < M, as vectors in
    # (Z/p^N)^(c*M) with each column's M coefficients side by side;
    # object entries, so that smith_zpk rejects a p^N beyond int64
    nr = len(pres.rows)
    rel = np.array(pres.rows, dtype=object).reshape(nr, c, M)
    G = np.zeros((nr, M, c, M), dtype=object)
    for t in range(M):
        G[:, t, :, t:] = rel[:, :, :M - t]
    diag, Minv = smith_zpk(G.reshape(nr * M, c * M), p, N)
    # reduced mod p^k, Minv is still a Smith basis with diagonal
    # min(d_i, k), so the rows w_i with d_i < k, reduced mod p, are an
    # F_p-basis of (V intersect p^(k-1) R^c) / p^(k-1) for every k
    ranks = smith_rank_over_power_series_field_char_p(
        Minv[:len(diag)] % p, diag, p, M, N)
    return [c - rank for rank in ranks]


def graded_ranks(pres: LambdaPresentation) -> list[int]:
    """q_k = F_p[[T]]-rank of p^(k-1) M / p^k M for k = 1..N.

    Computed at the stated truncation and re-checked at doubled truncation;
    disagreement raises TruncationUnresolved.  Monotonicity (q_k
    non-increasing) is asserted on every run.
    """
    pres.torsion_certificate()
    qs = _graded_ranks_at(pres, pres.M)
    qs2 = _graded_ranks_at(pres.with_truncation(2 * pres.M), 2 * pres.M)
    if qs != qs2:
        raise TruncationUnresolved(
            f"graded ranks unstable under truncation doubling: "
            f"{qs} at T^{pres.M} vs {qs2} at T^{2 * pres.M}")
    for a, b in zip(qs, qs[1:]):
        if b > a:
            raise TruncationUnresolved(
                f"graded ranks not monotone: {qs}")
    return qs


def profile_from_ranks(qs: list[int], N: int,
                       allow_lower_bound: bool = False) -> MuProfile:
    """Refined mu-invariants from graded ranks: mu_i = q_i - q_(i+1).

    Requires q_N = 0 (the working precision sees past the mu-exponent);
    otherwise raises PrecisionInsufficient unless allow_lower_bound, in
    which case the truncated profile is returned (a lower bound).
    """
    if qs[-1] != 0 and not allow_lower_bound:
        raise PrecisionInsufficient(
            f"q_N = {qs[-1]} > 0 at N = {N}: mu-exponent not resolved")
    ext = qs + [0]
    mus = [ext[i] - ext[i + 1] for i in range(len(qs))]
    while mus and mus[-1] == 0:
        mus.pop()
    if not mus:
        return MuProfile((0,), 0, 0, 0)
    vec = tuple(mus)
    return MuProfile(vec,
                     sum((i + 1) * m for i, m in enumerate(vec)),
                     len(vec),
                     sum(vec))


def mu_profile(pres: LambdaPresentation,
               allow_lower_bound: bool = False) -> MuProfile:
    """The refined mu-profile of `pres` (see `profile_from_ranks`)."""
    return profile_from_ranks(graded_ranks(pres), pres.N, allow_lower_bound)


def load_presentation(path: str) -> LambdaPresentation:
    """Read {"p": int, "N": int, "MT": int, "rows": [[[c0,c1,..], ..], ..]}."""
    with open(path) as fh:
        data = json.load(fh)
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
    # a huge N is refused before p^N is computed
    if N >= MAX_MODULUS.bit_length() or p**N > MAX_MODULUS:
        raise ValueError(f"p^N = {p}^{N} exceeds 2^31, the bound on the "
                         "modulus of the int64 Smith form")
    shape = (len(rows) * 2 * M, (len(rows[0]) if rows else 0) * 2 * M)
    if shape[0] * shape[1] > MAX_SMITH_ENTRIES:
        raise ValueError(
            f"the doubled-truncation matrix is {shape[0]} x {shape[1]}, "
            f"over {MAX_SMITH_ENTRIES} entries, the bound on the Smith "
            "form; lower MT or the size of the presentation")
    return LambdaPresentation(p, N, M, rows)
