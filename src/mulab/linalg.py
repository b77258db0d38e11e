"""Exact linear algebra over Q on integer matrices by modular elimination.

Matrices are lists of integer rows.  `rref` row-reduces mod primes just
below 2^62 with plain Python ints, lifts the residues to rationals by
rational reconstruction and accepts the candidate only after an exact
integer check that every input row lies in its row span.  Since the rank
mod a prime never exceeds the rank over Q, a candidate that passes the
check is the reduced row echelon form of the input; it is returned as
integer rows over one common denominator, and `nullspace` and `rank` are
read off it.  No fractions and no floating point anywhere.  Helpers
return new objects and never mutate inputs.

Multimodular linear algebra: W. Stein, Modular Forms: A Computational
Approach, ch. 7.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .arith import is_probable_prime

# the largest primes below 2^62, in decreasing order; `_large_primes`
# continues the sequence with Miller-Rabin
_PRIMES = (2**62 - 57, 2**62 - 87, 2**62 - 117, 2**62 - 143)


def _large_primes():
    """The primes below 2^62, largest first."""
    yield from _PRIMES
    q = _PRIMES[-1] - 2
    while True:
        if is_probable_prime(q):
            yield q
        q -= 2


def _rref_mod(A, P):
    """RREF of the integer rows A over F_P: (rows, pivot_columns)."""
    M = [[x % P for x in row] for row in A]
    nrows = len(M)
    pivots = []
    r = 0
    for c in range(len(M[0])):
        for i in range(r, nrows):
            if M[i][c]:
                break
        else:
            continue
        M[r], M[i] = M[i], M[r]
        # entries left of c in the pivot row are zero
        prow = M[r][c:]
        inv = pow(prow[0], -1, P)
        if inv != 1:
            prow = [x * inv % P for x in prow]
        M[r][c:] = prow
        for i in range(nrows):
            f = M[i][c]
            if f and i != r:
                row = M[i]
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M[:r], pivots


def _reconstruct(x, M, bound):
    """n/d = x mod M with |n|, d <= bound, as (n, d); None if none."""
    if x <= bound:
        return x, 1
    if M - x <= bound:
        return x - M, 1
    r0, r1, t0, t1 = M, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(image, M):
    """Integer rows N and a common denominator D with N/D = image mod M,
    or None when some entry has no rational reconstruction."""
    bound = isqrt(M // 2)
    fracs = []
    for row in image:
        out = []
        for x in row:
            nd = _reconstruct(x, M, bound)
            if nd is None:
                return None
            out.append(nd)
        fracs.append(out)
    D = lcm(*(d for row in fracs for _, d in row))
    return [[n * (D // d) for n, d in row] for row in fracs], D


def _spans(A, pivots, free, N, D):
    """True when every row a of A equals sum_i a[pivots[i]] * R_i with
    R_i = N_i / D, checked in integers on the free (non-pivot) columns,
    which N holds; the pivot columns hold by construction."""
    for a in A:
        terms = [(a[p], N[i]) for i, p in enumerate(pivots) if a[p]]
        for k, j in enumerate(free):
            if D * a[j] != sum(c * row[k] for c, row in terms):
                return False
    return True


def _better(pivots, than):
    """A prime whose image has fewer pivots, or as many but one further
    right, is unlucky: the k-th pivot mod a prime is never left of the
    k-th pivot over Q."""
    return (len(pivots) > len(than)
            or (len(pivots) == len(than) and pivots < than))


def rref(rows):
    """Reduced row echelon form over Q of the integer rows: (R, D,
    pivot_columns), R integer rows over the least common denominator
    D > 0, so that R / D is the reduced echelon form; only the nonzero
    rows are kept."""
    if not rows:
        return [], 1, []
    ncols = len(rows[0])
    pivots = None
    for P in _large_primes():
        rows_p, piv_p = _rref_mod(rows, P)
        if len(piv_p) == ncols:
            # full column rank mod P, so over Q: the RREF is the identity
            return ([[int(i == j) for j in range(ncols)]
                     for i in range(ncols)], 1, piv_p)
        if pivots is None or _better(piv_p, pivots):
            pivset = set(piv_p)
            free = [j for j in range(ncols) if j not in pivset]
            pivots, M = piv_p, P
            image = [[row[j] for j in free] for row in rows_p]
        elif piv_p == pivots:
            # combine the two images by Chinese remaindering
            u = pow(M, -1, P)
            image = [[x + M * ((row[j] - x) * u % P)
                      for x, j in zip(xs, free)]
                     for xs, row in zip(image, rows_p)]
            M *= P
        else:
            continue
        lifted = _lift(image, M)
        if lifted is not None and _spans(rows, pivots, free, *lifted):
            break
    N, D = lifted
    R = []
    for p, nums in zip(pivots, N):
        row = [0] * ncols
        row[p] = D
        for j, n in zip(free, nums):
            row[j] = n
        R.append(row)
    return R, D, pivots


def nullspace(rows):
    """Basis of the right kernel over Q of the integer rows, as primitive
    integer vectors: for each free column f, D at f and -R_i[f] at the
    i-th pivot column (R / D the reduced echelon form), divided by their
    gcd."""
    if not rows:
        return []
    ncols = len(rows[0])
    R, D, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * ncols
        v[fcol] = D
        for i, pcol in enumerate(pivots):
            v[pcol] = -R[i][fcol]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def rank(rows) -> int:
    """Rank over Q of the integer rows: the pivot count of `rref`."""
    return len(rref(rows)[2])
