"""Dense linear algebra over Z/p^k with numpy int64 entries: reduced row
echelon form, kernels and solutions over F_p, and exact matrix products
mod m.

This is the one mod-p^k kernel of the package: `liftlab` takes its
cohomology systems here, and `iwasawa_modules` the products of its
graded-rank elimination.  The `analyze` path (`linalg`,
`modsym`, `analysis`) does not import it, so numpy stays out of that
process.
"""

from __future__ import annotations

import numpy as np

# bound on the modulus of matmul_mod: entries stay below it, so a product
# of an entry and a 16-bit limb stays below 2^47
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


def matmul_mod(X: np.ndarray, Y: np.ndarray, m: int) -> np.ndarray:
    """(X @ Y) mod m, exactly, for int64 X and Y with entries in [0, m)
    and m <= MAX_MODULUS.  When a sum of products might pass 2^63, Y is
    split into 16-bit limbs: each limb product stays below
    inner * 2^31 * 2^16, which fits for an inner dimension below 2^16."""
    if m > MAX_MODULUS:
        raise ValueError("p^k too large for the int64 fast path")
    inner = X.shape[-1]
    if inner * (m - 1) ** 2 < 2**63:
        return X @ Y % m
    if inner >= 2**16:
        raise ValueError(f"inner dimension {inner} too large for the "
                         "16-bit limb product")
    return (X @ (Y & 0xFFFF) % m + (X @ (Y >> 16) % m << 16)) % m
