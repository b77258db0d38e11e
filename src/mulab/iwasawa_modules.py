"""Refined mu-invariants of finitely presented torsion modules over
Zp[[T]], computed through graded ranks over Fp[[T]].

The k-th graded rank q_k is the Fp[[T]]-rank of p^(k-1) M / p^k M.  For a
module whose p-power torsion is a sum of pieces Lambda/p^i, q_k counts the
summands with i >= k, so the multiplicity of Lambda/p^i is q_i - q_(i+1).
Everything is computed from the relation matrix by exact linear algebra:
one Smith form over Z/p^N of the T-shifted relations locates the
p^(k-1)-divisible relations for every k at once, and the Fp[[T]]-rank of
the T-stable space W they span mod p is dim W - dim TW.
Finite (pseudonull) junk is insensitive to the T-truncation bound, so each
profile is recomputed at doubled truncation and must agree.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .arith import is_probable_prime, poly_add, poly_mul, poly_sub
from .errors import (
    NotTorsion,
    PrecisionInsufficient,
    TruncationUnresolved,
)
from .modp import rref_modp, smith_zpk

Poly = tuple[int, ...]  # coefficients of a truncated polynomial in T


def _poly(coeffs, M: int, mod: int) -> Poly:
    cs = [c % mod for c in coeffs[:M]]
    cs += [0] * (M - len(cs))
    return tuple(cs)


def smith_rank_over_power_series_field_char_p(
        basis: np.ndarray, p: int, M: int) -> int:
    """Rank over F_p[[T]] of a T-stable subspace W of (F_p[T]/(T^M))^c.

    `basis` holds an F_p-basis of W as rows of c blocks of M coefficients.
    W is a sum of cyclic pieces T^e F_p[T]/(T^M), and multiplying by T
    drops exactly one dimension from each piece with e < M, so the rank is
    dim W - dim TW.
    """
    n = basis.shape[0]
    W = basis.reshape(n, -1, M)
    TW = np.zeros_like(W)
    TW[:, :, 1:] = W[:, :, :-1]
    return n - len(rref_modp(TW.reshape(n, -1), p)[1])


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
            assert self.mu == 0 and self.t == 0 and self.r == 0
        else:
            assert vec[-1] > 0
            assert self.mu == sum((i + 1) * m for i, m in enumerate(vec))
            assert self.r == sum(vec)
            assert self.t == len(vec)


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

    def _det(self, row_idx: tuple[int, ...]) -> Poly:
        """Determinant of the square submatrix on the given rows (all
        columns), by subset dynamic programming over columns.

        Computed with exact integer coefficients (canonical residues as
        lifts): the torsion witness for e.g. diag(p, p^2) is p^3, which a
        mod-p^N computation at N = 3 could not distinguish from zero.
        """
        n, M = self.ncols, self.M
        # dp over subsets of used columns, rows taken in order
        cur = {0: [1]}
        for r in row_idx:
            nxt: dict[int, list[int]] = {}
            for mask, v in cur.items():
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    e = self.rows_raw[r][j]
                    if all(c == 0 for c in e):
                        continue
                    # sign: parity of columns already used above j
                    odd = bin(mask >> (j + 1)).count("1") % 2
                    key = mask | bit
                    nxt[key] = (poly_sub if odd else poly_add)(
                        nxt.get(key, []), poly_mul(v, e)[:M])
            cur = nxt
        det = cur.get((1 << n) - 1, [])
        return tuple(det) + (0,) * (M - len(det))

    def torsion_certificate(self, max_tries: int = 64) -> Poly:
        """A nonzero c x c minor of the relation matrix (exact integer
        coefficients), or NotTorsion."""
        if len(self.rows) < self.ncols:
            raise NotTorsion("fewer relations than generators")
        if self.ncols == 0:
            return (1,) + (0,) * (self.M - 1)
        tried = 0
        for combo in itertools.combinations(range(len(self.rows)),
                                            self.ncols):
            d = self._det(combo)
            tried += 1
            if any(c != 0 for c in d):
                return d
            if tried >= max_tries:
                break
        raise NotTorsion("no nonzero maximal minor found "
                         f"within {tried} submatrices")


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
    qs: list[int] = []
    for k in range(1, N + 1):
        basis = Minv[[i for i, d in enumerate(diag) if d < k]] % p
        if not len(basis):
            qs.append(c)
            continue
        qs.append(c - smith_rank_over_power_series_field_char_p(
            basis, p, M))
    return qs


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
    return LambdaPresentation(data["p"], data["N"], data["MT"], data["rows"])
