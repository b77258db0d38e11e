"""Dense linear algebra over Z/p^k with numpy int64 entries: reduced row
echelon form, kernels and solutions over F_p, and a Smith form over Z/p^k.

This is the one mod-p^k kernel of the package: `liftlab` takes its
cohomology and local-condition systems here, and `iwasawa_modules` its
graded ranks.  The `analyze` path (`linalg`, `modsym`, `analysis`) does
not import it, so numpy stays out of that process.
"""

from __future__ import annotations

import numpy as np


def rref_modp(A: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (R, pivot_cols)."""
    R = A.astype(np.int64) % p
    nr, nc = R.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        col = R[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            R[rows] = (R[rows] - np.outer(R[rows, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


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
    """One solution of A x = b mod p, or None."""
    nr, nc = A.shape
    aug = np.concatenate([A % p, (b % p).reshape(nr, 1)], axis=1)
    R, pivots = rref_modp(aug, p)
    if nc in pivots:
        return None
    x = np.zeros(nc, dtype=np.int64)
    for ri, pc in enumerate(pivots):
        x[pc] = R[ri, nc]
    return x


def smith_zpk(G: np.ndarray, p: int, k: int):
    """Diagonalize G over Z/p^k by unimodular operations.

    Returns (diag_vals, Minv) where diag_vals[i] is the p-valuation of the
    i-th diagonal entry (k meaning zero) and Minv's rows w_i satisfy
    rowspan(G) = span{p^(d_i) w_i}.

    Entries stay below p^k and all updates are elementwise, so int64 is
    exact as long as p^(2k) fits (p^k < 3e9; far beyond desk scale).
    """
    pk = p**k
    if pk > 2**31:
        raise ValueError("p^k too large for the int64 fast path")
    A = np.ascontiguousarray(G.astype(np.int64) % pk)
    nr, nc = A.shape
    Minv = np.eye(nc, dtype=np.int64)
    diag: list[int] = []

    def vals(block):
        out = np.full(block.shape, k, dtype=np.int64)
        tmp = block.copy()
        for v in range(k):
            newly = (tmp % p != 0) & (out == k)
            out[newly] = v
            tmp //= p
        return out

    r0 = 0
    for c0 in range(min(nr, nc)):
        sub = A[r0:, c0:]
        if sub.size == 0:
            break
        V = vals(sub)
        v = int(V.min())
        if v >= k:
            break
        i, j = np.unravel_index(int(V.argmin()), V.shape)
        bi, bj = r0 + int(i), c0 + int(j)
        A[[r0, bi]] = A[[bi, r0]]
        if bj != c0:
            A[:, [c0, bj]] = A[:, [bj, c0]]
            Minv[[c0, bj]] = Minv[[bj, c0]]
        pivot = int(A[r0, c0])
        uinv = pow(pivot // p**v, -1, pk)
        # row elimination (rowspan-preserving), one vectorized update
        col = A[r0 + 1:, c0]
        if col.size:
            q = (col // p**v) * uinv % pk
            nzr = np.nonzero(col)[0]
            if nzr.size:
                A[r0 + 1 + nzr, :] = (
                    A[r0 + 1 + nzr, :] - q[nzr, None] * A[r0, :]) % pk
        # column elimination: col_j -= q*col_c0; Minv row_c0 += q*row_j
        rowtail = A[r0, c0 + 1:]
        nzc = np.nonzero(rowtail)[0]
        if nzc.size:
            q = (rowtail[nzc] // p**v) * uinv % pk
            A[:, c0 + 1 + nzc] = (
                A[:, c0 + 1 + nzc] - A[:, [c0]] * q[None, :]) % pk
            Minv[c0, :] = (Minv[c0, :]
                           + q @ Minv[c0 + 1 + nzc, :]) % pk
        diag.append(v)
        r0 += 1
        if r0 >= nr:
            break
    return diag, Minv
