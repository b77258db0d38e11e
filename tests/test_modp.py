"""The dense mod-p^k kernel against brute force over F_p^n (n <= 4)."""

import itertools
import random

import numpy as np
import pytest

from mulab.modp import nullspace_modp, rref_modp, smith_zpk, solve_modp


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


@pytest.mark.parametrize("p", [3, 5])
def test_smith_zpk_rank_at_k1_is_rref_rank(p):
    for _, A in random_matrices(p):
        diag, Minv = smith_zpk(A, p, 1)
        assert diag == [0] * len(rref_modp(A, p)[1])
        assert Minv.shape == (A.shape[1], A.shape[1])
