"""The dense mod-p^k kernel against brute force over F_p^n (n <= 4), and
two oracles of code that left it: the Smith form over Z/p^k that
computed the graded ranks of `iwasawa_modules` before the p-adic
lifting, and the numpy coset listing `coset_modp`."""

import itertools
import random

import numpy as np
import pytest

from mulab.modp import (MAX_MODULUS, matmul_mod, nullspace_modp, rref_modp,
                        solve_modp)


def coset_modp(x0: np.ndarray, K: np.ndarray, p: int) -> np.ndarray:
    """The p^f vectors x0 + c K mod p, one a row, for the f rows of K and
    c running over itertools.product(range(p), repeat=f).  With f = 0 it
    is the one row x0.  `liftlab.enumerate_lifts` and
    `liftlab._layer_solver` listed their cosets with it before they did
    so in plain ints (`liftlab._coset`); it is kept as their oracle."""
    coeffs = np.array(list(itertools.product(range(p), repeat=len(K))),
                      dtype=np.int64)
    return (x0 + coeffs @ K) % p


def span(rows, p, n):
    """Every F_p-combination of the given rows, as a set of tuples."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * int(r[j]) for c, r in zip(coeffs, rows)) % p
                      for j in range(n)))
    return out


def random_matrices(p, count=40):
    rng = random.Random(1000 + p)
    for _ in range(count):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        # a low-rank product now and then, so kernels are not all trivial
        if rng.random() < 0.5:
            r = rng.randint(0, min(nr, nc))
            A = (np.array([[rng.randrange(p) for _ in range(r)]
                           for _ in range(nr)], dtype=np.int64).reshape(nr, r)
                 @ np.array([[rng.randrange(p) for _ in range(nc)]
                             for _ in range(r)], dtype=np.int64
                            ).reshape(r, nc)) % p
        else:
            A = np.array([[rng.randrange(p) for _ in range(nc)]
                          for _ in range(nr)], dtype=np.int64)
        yield rng, A


@pytest.mark.parametrize("p", [3, 5])
def test_rref_modp_row_space_and_form(p):
    for _, A in random_matrices(p):
        nr, nc = A.shape
        R, pivots = rref_modp(A, p)
        rank = len(pivots)
        assert span(list(R[:rank]), p, nc) == span(list(A), p, nc)
        assert not R[rank:].any()
        assert pivots == sorted(pivots)
        for i, c in enumerate(pivots):
            assert R[i, c] == 1
            assert not np.delete(R[:, c], i).any()
            assert not R[i, :c].any()


@pytest.mark.parametrize("p", [3, 5])
def test_nullspace_modp_is_the_kernel(p):
    for _, A in random_matrices(p):
        nc = A.shape[1]
        K = nullspace_modp(A, p)
        kernel = {x for x in itertools.product(range(p), repeat=nc)
                  if not (A @ np.array(x) % p).any()}
        assert span(list(K), p, nc) == kernel
        assert len(kernel) == p**len(K)


@pytest.mark.parametrize("p", [3, 5])
def test_solve_modp_iff_solvable(p):
    for rng, A in random_matrices(p):
        nr, nc = A.shape
        images = {tuple(A @ np.array(x) % p)
                  for x in itertools.product(range(p), repeat=nc)}
        for _ in range(4):
            b = np.array([rng.randrange(p) for _ in range(nr)],
                         dtype=np.int64)
            x = solve_modp(A, b, p)
            if tuple(b) in images:
                assert x is not None
                assert ((A @ x - b) % p == 0).all()
            else:
                assert x is None


def oracle_rref_modp(A: np.ndarray, p: int):
    """The elimination `rref_modp` replaces: whole-row swaps, scalings and
    updates."""
    R = A.astype(np.int64) % p
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
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        rows = np.nonzero(R[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            R[rows] = (R[rows] - np.outer(R[rows, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def larger_matrices(p, count=30):
    """Seeded matrices up to 40 x 40 with negative entries, zero columns
    and low-rank products, in int64 and int32."""
    rng = np.random.default_rng(p)
    for t in range(count):
        nr, nc = (int(x) for x in rng.integers(1, 41, size=2))
        if t % 3 == 0:
            r = int(rng.integers(0, min(nr, nc) + 1))
            A = rng.integers(-p, p, size=(nr, r)) @ \
                rng.integers(-p, p, size=(r, nc))
        else:
            A = rng.integers(-3 * p, 3 * p, size=(nr, nc))
        A[:, rng.random(nc) < 0.2] = 0
        yield A.astype(np.int32 if t % 2 else np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_modp_matches_full_row_oracle(p):
    """Updating columns c.. only gives the very R and pivots of the
    whole-row elimination, and leaves A as it was."""
    cases = [A for _, A in random_matrices(p)] + list(larger_matrices(p))
    for A in cases:
        before = A.copy()
        R, pivots = rref_modp(A, p)
        want_R, want_pivots = oracle_rref_modp(A, p)
        assert R.dtype == np.int64
        assert np.array_equal(R, want_R) and pivots == want_pivots, A
        assert np.array_equal(A, before) and A.dtype == before.dtype


@pytest.mark.parametrize("p", [3, 5])
def test_solve_modp_leaves_its_inputs_unmodified(p):
    """solve_modp eliminates its own augmented array: A and b keep their
    values, dtypes and shapes, and the solution solves the system."""
    rng = np.random.default_rng(10 + p)
    solved = 0
    for A in larger_matrices(p):
        nr, nc = A.shape
        x_true = rng.integers(0, p, size=nc)
        for b in (A.astype(np.int64) @ x_true - p,
                  rng.integers(-p, p, size=(nr, 1))):
            A0, b0 = A.copy(), b.copy()
            x = solve_modp(A, b, p)
            assert np.array_equal(A, A0) and A.dtype == A0.dtype
            assert np.array_equal(b, b0) and b.shape == b0.shape
            if x is not None:
                assert not ((A @ x - b.reshape(nr)) % p).any()
                solved += 1
    assert solved >= 30


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_modp_lists_the_coset_in_product_order(p):
    """Row i of coset_modp is x0 + c K mod p for the i-th coefficient
    tuple c of itertools.product; a trivial kernel gives the one row
    x0."""
    for _, A in random_matrices(p, count=15):
        K = nullspace_modp(A, p)
        x0 = np.arange(A.shape[1], dtype=np.int64) % p
        rows = coset_modp(x0, K, p)
        want = [[(x0[i] + sum(c * k[i] for c, k in zip(cc, K))) % p
                 for i in range(A.shape[1])]
                for cc in itertools.product(range(p), repeat=len(K))]
        assert rows.tolist() == want
        assert not ((A @ (rows - x0).T) % p).any()
    x0 = np.array([1, 2, 0], dtype=np.int64)
    K = nullspace_modp(np.eye(3, dtype=np.int64), p)
    assert K.shape == (0, 3)
    assert coset_modp(x0, K, p).tolist() == [[1, 2 % p, 0]]


# -- the Smith form over Z/p^k ----------------------------------------------


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
    Entries stay below p^k <= 2^31, so every product fits in int64.
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


@pytest.mark.parametrize("p", [3, 5])
def test_smith_zpk_rank_at_k1_is_rref_rank(p):
    for _, A in random_matrices(p):
        diag, Minv = smith_zpk(A, p, 1)
        assert diag == [0] * len(rref_modp(A, p)[1])
        assert Minv.shape == (A.shape[1], A.shape[1])


# -- the Smith form over Z/p^k against the full-valuation search it replaces --


def oracle_smith_zpk(G: np.ndarray, p: int, k: int):
    """The Smith form `smith_zpk` replaces: the full valuation table of
    the remaining block at every step, and updates of whole rows and
    columns."""
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


def smith_cases(p, k):
    """Seeded matrices over Z/p^k: tall, wide and square, with entries of
    every valuation, plus the zero matrix, a matrix divisible by p^(k-1)
    throughout, zero rows and rank-deficient products."""
    rng = random.Random(100 * p + k)
    pk = p**k

    def entry():
        return rng.randrange(pk) * p**rng.choice([0, 0, 1, k - 1]) % pk

    for nr, nc in ((7, 3), (3, 7), (5, 5), (1, 6), (6, 1), (8, 8)):
        for _ in range(6):
            yield np.array([[entry() for _ in range(nc)]
                            for _ in range(nr)], dtype=np.int64)
        yield np.zeros((nr, nc), dtype=np.int64)
        yield np.array([[rng.randrange(pk) * p**(k - 1) % pk
                         for _ in range(nc)] for _ in range(nr)],
                       dtype=np.int64)
        A = np.array([[entry() for _ in range(nc)] for _ in range(nr)],
                     dtype=np.int64)
        A[rng.sample(range(nr), (nr + 1) // 2)] = 0
        yield A
        r = rng.randint(1, min(nr, nc))
        B = np.array([[entry() for _ in range(r)] for _ in range(nr)],
                     dtype=np.int64)
        C = np.array([[entry() for _ in range(nc)] for _ in range(r)],
                     dtype=np.int64)
        yield B @ C % pk


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_smith_zpk_matches_oracle(p, k):
    """The one-level pivot search and the active-block updates pick the
    same pivots, so (diag, Minv) is identical, not just equivalent."""
    for A in smith_cases(p, k):
        diag, Minv = smith_zpk(A, p, k)
        want_diag, want_Minv = oracle_smith_zpk(A, p, k)
        assert diag == want_diag, (A, diag, want_diag)
        assert Minv.dtype == want_Minv.dtype
        assert np.array_equal(Minv, want_Minv), A



# -- exact products mod m ------------------------------------------------------


@pytest.mark.parametrize("m", [2**31, 2**31 - 1, 46337**2, 625, 2])
def test_matmul_mod_is_exact(m):
    """Against Python integers, at inner dimensions up to 1414 (2 MT at
    the size bound) and with entries up to m - 1, where a plain int64
    product overflows."""
    rng = np.random.default_rng(m % 1000)
    for inner in (1, 7, 1414):
        X = rng.integers(0, m, size=(3, inner), dtype=np.int64)
        Y = rng.integers(0, m, size=(inner, 4), dtype=np.int64)
        X[0] = m - 1
        Y[:, 0] = m - 1
        want = (X.astype(object) @ Y.astype(object)) % m
        got = matmul_mod(X, Y, m)
        assert got.dtype == np.int64
        assert (got == want).all(), (m, inner)


def test_matmul_mod_refuses_what_it_cannot_do_exactly():
    X = np.ones((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        matmul_mod(X, X.T, MAX_MODULUS + 1)
    X = np.ones((1, 2**16), dtype=np.int64)
    with pytest.raises(ValueError, match="inner dimension"):
        matmul_mod(X, X.T, MAX_MODULUS)
