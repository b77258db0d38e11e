import ast
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from fraction_linalg import clear_denominators, fraction_nullspace, \
    fraction_rref
from mulab import linalg, modsym
from mulab.arith import is_probable_prime
from mulab.elliptic import Curve
from mulab.linalg import _PRIMES, _large_primes, nullspace, rank, rref
from mulab.modsym import EigenSymbol, build_manin_space
from test_modsym import cuspidal_dimension


def assert_matches_oracle(rows):
    """rref, nullspace and rank of the integer rows against the Fraction
    oracle: R / D is its echelon form over the least common denominator
    D, and the kernel basis is its vectors made primitive integers."""
    R, D, pivots = rref(rows)
    R0, pivots0 = fraction_rref(rows)
    assert pivots == pivots0
    assert D == lcm(*(x.denominator for row in R0 for x in row))
    assert R == [[x * D for x in row] for row in R0]
    assert all(type(x) is int for row in R for x in row)
    assert nullspace(rows) == [clear_denominators(v)
                               for v in fraction_nullspace(rows)]
    assert rank(rows) == len(pivots0)


CORPUS = json.loads((Path(__file__).resolve().parents[1] / "data"
                     / "corpus_reducible.json").read_text())
LEVEL_CURVES = {}
for _rec in CORPUS:
    LEVEL_CURVES.setdefault(_rec["conductor"], []).append(_rec["ainvs"])
LEVEL_CURVES[77] = [[-8, 0, 1, 0, 0]]
LEVEL_CURVES[210] = []


@pytest.mark.parametrize("N", sorted(LEVEL_CURVES))
def test_symbol_matrices_match_fraction_rref(monkeypatch, N):
    """Every rref call behind the cuspidal boundary and the Hecke
    systems of the eigensymbols, and the nullspace and rank of the same
    integer rows, equal the Fraction oracle.  The relations are
    eliminated sparsely, with no call; each class of symbols (the same
    a_ell at the match primes, so one kernel kept on the space) makes
    one call for its first constraint and one per further match prime,
    which restricts the kernel."""
    calls = []

    def recording(rows):
        calls.append(rows)
        return rref(rows)

    monkeypatch.setattr(modsym, "rref", recording)
    monkeypatch.setattr(linalg, "rref", recording)
    sp = build_manin_space(N)
    cuspidal_dimension(sp)
    symbols = [EigenSymbol(sp, Curve(*ainvs), N)
               for ainvs in LEVEL_CURVES[N]]
    classes = {id(es.functional): es for es in symbols}.values()
    assert len(calls) == 1 + sum(len(es.match_primes) for es in classes)
    monkeypatch.undo()
    for rows in calls:
        assert all(type(x) is int for row in rows for x in row)
        assert_matches_oracle(rows)


def random_matrix(rng, m, n, r):
    """m x n rational matrix of rank <= r: a product of random factors
    with small denominators."""
    left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(r)] for _ in range(m)]
    right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              for _ in range(n)] for _ in range(r)]
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*right)] for row in left]


@pytest.mark.parametrize("seed", range(30))
def test_random_rational_matrices(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    rows = random_matrix(rng, m, n, rng.randint(0, min(m, n)))
    # each row scaled to integers: the same row space and echelon form
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
            for row in rows]
    R, D, pivots = rref(ints)
    assert ([[Fraction(x, D) for x in row] for row in R], pivots) \
        == fraction_rref(rows)
    assert_matches_oracle(ints)
    assert_matches_oracle([[int(x * 720) for x in row] for row in rows])


@pytest.mark.parametrize("rows", [[], [[]], [[], []], [[0, 0, 0]],
                                  [[0, 0], [0, 0], [0, 0]], [[5]],
                                  [[0], [-3]]])
def test_degenerate_shapes(rows):
    assert_matches_oracle(rows)


@pytest.mark.parametrize("rows,pivots", [
    # rank 1 mod the first prime, rank 2 over Q
    ([[1, 0], [0, _PRIMES[0]]], [0, 1]),
    # rank 2 mod the first prime too, but with pivots [1, 2]
    ([[_PRIMES[0], 1, 0], [0, 1, 1]], [0, 1]),
])
def test_unlucky_prime_is_dropped(rows, pivots):
    assert rref(rows)[2] == pivots
    assert_matches_oracle(rows)


def test_pivot_order_of_images():
    # more pivots, or as many further left, is the better image
    assert linalg._better([0, 1], [0])
    assert linalg._better([0, 1], [1, 2])
    assert linalg._better([0, 2], [1, 2])
    assert not linalg._better([1, 2], [0, 1])
    assert not linalg._better([0, 1], [0, 1])
    assert not linalg._better([0], [1, 2])


def test_span_check_reads_every_row_and_free_column():
    A = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
    assert linalg._spans(A, [0], [1, 2], [[2, 3]], 1)
    assert linalg._spans(A, [0], [1, 2], [[4, 6]], 2)
    assert not linalg._spans(A, [0], [1, 2], [[2, 4]], 1)
    assert not linalg._spans(A + [[0, 0, 1]], [0], [1, 2], [[2, 3]], 1)


def test_entries_beyond_one_prime():
    rows = [[3**60, 7**60], [2 * 3**60, 2 * 7**60]]
    assert rref(rows) == ([[3**60, 7**60]], 3**60, [0])
    assert_matches_oracle(rows)
    # a kernel vector with a large entry in every free column
    rows = [[3**40, 0, 5**50, 1], [0, 11**30, 2**90, 13**20]]
    assert_matches_oracle(rows)


def test_rref_leaves_input_unchanged():
    rows = [[1, 6], [6, 10], [7, 16]]
    copy = [row[:] for row in rows]
    rref(rows)
    nullspace(rows)
    rank(rows)
    assert rows == copy


@pytest.mark.parametrize("rows, r", [
    # singular mod the first prime, not over Q: the exact rref decides
    ([[_PRIMES[0]]], 1),
    ([[1, 0], [0, _PRIMES[0]]], 2),
    ([[2, 3], [5, 7 + 3 * _PRIMES[0]]], 2),
    ([[_PRIMES[0], 2 * _PRIMES[0]], [1, 2]], 1),
    # full column rank mod the first prime
    ([[1, 2], [3, 4], [5, 6]], 2),
    # rank below the column count
    ([[1, 2, 3], [2, 4, 6]], 1),
    ([[0, 0]], 0),
])
def test_rank_matches_fraction_rank(rows, r):
    assert rank(rows) == len(fraction_rref(rows)[1]) == r
    assert_matches_oracle(rows)


def test_linalg_imports_no_fractions():
    """linalg takes and returns integers only: it imports no fractions
    module and names no Fraction (arith, which it imports for
    Miller-Rabin, still imports fractions for its own polynomials)."""
    path = Path(linalg.__file__)
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "math", "arith"}
    assert not any(isinstance(node, ast.Name) and node.id == "Fraction"
                   for node in ast.walk(tree))


def test_primes_are_the_largest_below_2_62():
    assert all(is_probable_prime(q) for q in _PRIMES)
    gen = _large_primes()
    first = [next(gen) for _ in range(len(_PRIMES) + 3)]
    assert tuple(first[:len(_PRIMES)]) == _PRIMES
    assert all(is_probable_prime(q) for q in first)
    # consecutive: no prime is skipped between 2^62 and the last one
    assert not any(is_probable_prime(q)
                   for q in range(first[-1] + 1, 2**62)
                   if q not in first)


def is_prime(n: int) -> bool:
    """Trial division; the oracle for Miller-Rabin."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_against_trial_division():
    assert [q for q in range(3000) if is_probable_prime(q)] == \
        [q for q in range(3000) if is_prime(q)]
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_probable_prime(n)
