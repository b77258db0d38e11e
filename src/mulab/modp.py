"""Dense linear algebra over Z/p^k with numpy int64 entries: reduced row
echelon form, kernels and solutions over F_p, and a Smith form over Z/p^k.

The Smith form finds each pivot one valuation level at a time (one pass
over the block in the common case) and updates only the active block,
the part of the matrix that later steps read.

This is the one mod-p^k kernel of the package: `liftlab` takes its
cohomology and local-condition systems here, and `iwasawa_modules` its
graded ranks.  The `analyze` path (`linalg`, `modsym`, `analysis`) does
not import it, so numpy stays out of that process.
"""

from __future__ import annotations

import itertools

import numpy as np

# bound on p^k in smith_zpk: entries stay below it, so every product of
# two entries stays below 2^62 and fits in int64
MAX_MODULUS = 2**31


def rref_modp(A: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (R, pivot_cols)."""
    R = np.array(A, dtype=np.int64)
    R %= p
    return R, _rref_in_place(R, p)


def _rref_in_place(R: np.ndarray, p: int) -> list[int]:
    """Bring the int64 matrix R, entries in [0, p), to reduced row echelon
    form mod p in place; returns the pivot columns.  When column c is
    pivoted, row r is zero left of c (earlier pivot columns are cleared
    and skipped columns are zero from row r down), so the scaling and the
    row updates touch columns c.. only."""
    nr, nc = R.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i], c:] = R[[i, r], c:]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            R[rows, c:] = (R[rows, c:] - np.outer(R[rows, c], R[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def nullspace_modp(A: np.ndarray, p: int):
    """Basis (rows) of the right kernel mod p."""
    if A.size == 0:
        return np.eye(A.shape[1], dtype=np.int64)
    R, pivots = rref_modp(A, p)
    nc = A.shape[1]
    free = [c for c in range(nc) if c not in pivots]
    basis = np.zeros((len(free), nc), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-int(R[ri, fc])) % p
    return basis


def solve_modp(A: np.ndarray, b: np.ndarray, p: int):
    """One solution of A x = b mod p, or None.  A and b are left as they
    are: the augmented matrix is one new array, eliminated in place."""
    nr, nc = A.shape
    aug = np.empty((nr, nc + 1), dtype=np.int64)
    aug[:, :nc] = A
    aug[:, nc] = np.reshape(b, nr)
    aug %= p
    pivots = _rref_in_place(aug, p)
    if nc in pivots:
        return None
    x = np.zeros(nc, dtype=np.int64)
    for ri, pc in enumerate(pivots):
        x[pc] = aug[ri, nc]
    return x


def coset_modp(x0: np.ndarray, K: np.ndarray, p: int) -> np.ndarray:
    """The p^f vectors x0 + c K mod p, one a row, for the f rows of K and
    c running over itertools.product(range(p), repeat=f).  With f = 0 it
    is the one row x0."""
    coeffs = np.array(list(itertools.product(range(p), repeat=len(K))),
                      dtype=np.int64)
    return (x0 + coeffs @ K) % p


def smith_zpk(G: np.ndarray, p: int, k: int):
    """Diagonalize G over Z/p^k by unimodular operations.

    Returns (diag_vals, Minv) where diag_vals[i] is the p-valuation of the
    i-th diagonal entry (k meaning zero) and Minv's rows w_i satisfy
    rowspan(G) = span{p^(d_i) w_i}.  The valuations are non-decreasing.

    Step s pivots on the first entry, in row-major order, of least
    valuation v in the active block A[s:, s:].  The search goes one level
    at a time, from the previous pivot's valuation (p to that power
    divides every entry of the block) up to the first v with an entry
    nonzero mod p^(v+1), so most steps make one pass over the block.
    Later steps read only the block A[s+1:, s+1:], so that is all the row
    elimination updates, and the column elimination, which would only
    clear row s's tail, acts on Minv alone.
    Entries stay below p^k <= MAX_MODULUS, so every product fits in int64.
    """
    pk = p**k
    if pk > MAX_MODULUS:
        raise ValueError("p^k too large for the int64 fast path")
    A = np.ascontiguousarray(G.astype(np.int64) % pk)
    nr, nc = A.shape
    Minv = np.eye(nc, dtype=np.int64)
    diag: list[int] = []
    v = 0
    for s in range(min(nr, nc)):
        sub = A[s:, s:]
        for v in range(v, k):
            hits = np.flatnonzero(sub % p**(v + 1))
            if hits.size:
                break
        else:
            break
        i, j = divmod(int(hits[0]), sub.shape[1])
        A[[s, s + i], s:] = A[[s + i, s], s:]
        if j:
            A[s:, [s, s + j]] = A[s:, [s + j, s]]
            Minv[[s, s + j]] = Minv[[s + j, s]]
        uinv = pow(int(A[s, s]) // p**v, -1, pk)
        # row elimination (rowspan-preserving): row_i -= q*row_s
        nzr = s + 1 + np.flatnonzero(A[s + 1:, s])
        q = (A[nzr, s] // p**v) * uinv % pk
        A[nzr, s + 1:] = (A[nzr, s + 1:] - q[:, None] * A[s, s + 1:]) % pk
        # column elimination col_j -= q*col_s: Minv row_s += q*row_j
        nzc = s + 1 + np.flatnonzero(A[s, s + 1:])
        q = (A[s, nzc] // p**v) * uinv % pk
        Minv[s] = (Minv[s] + q @ Minv[nzc]) % pk
        diag.append(v)
    return diag, Minv
