"""The Fraction linear algebra that `linalg`'s integer API replaced: the
oracle of tests/test_linalg.py, test_modsym.py and
test_iwasawa_modules.py."""

from fractions import Fraction
from math import gcd, lcm


def fraction_rref(rows):
    """Reduced row echelon form over Q by Fraction Gaussian elimination:
    (rows as Fractions, pivot_columns), only the nonzero rows kept."""
    A = [[Fraction(x) for x in row] for row in rows]
    if not A:
        return [], []
    ncols = len(A[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(A)):
            if A[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        A[r], A[pivot_row] = A[pivot_row], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A[:r], pivots


def fraction_nullspace(rows):
    """Basis of the right kernel over Q: for each free column f, 1 at f
    and -R_i[f] at the i-th pivot column, as Fractions."""
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints
