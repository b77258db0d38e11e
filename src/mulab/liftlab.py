"""Desk-scale laboratory for one-step deformation lifting over finite
group models: cohomology with adjoint coefficients (Z^1 and coboundary
solves in the generator values of a cochain, H^2 and B from the bar
resolution), the obstruction 2-cocycle of a set-theoretic lift, lift
enumeration and its cocycle-torsor structure, tame local conditions at
trivial primes with their four conjugated families, and the versality
degree of each (condition, twist-space) pair.

Everything is exhaustively checkable: groups are explicit tables, the
lifts of one step are the solutions of one affine system over F_p in the
generator images, certified by the full relation check at an affine
basis of them, and membership
of a twisted local deformation in a family is decided by a
layer-by-layer normal-form search over conjugators congruent to the
identity mod p.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .arith import is_probable_prime
from .errors import (
    InvariantViolation,
    LocalTwistUnrealizable,
    ParseError,
    SizeBound,
    TameRelationError,
)
from .group_model import (
    MAT_ID,
    FiniteGroupModel,
    mat_det,
    mat_inv,
    mat_mul,
)
from .linalg import _rref_mod
from .modp import MAX_MODULUS, matmul_mod, nullspace_modp, rref_modp
# the benchmark's tracer wraps solve_modp here; no path of this module
# calls it any more
from .modp import solve_modp  # noqa: F401
from .padic import val_int

# search bounds, past which each search raises SizeBound: the order of a
# group whose H^2 `cohomology` computes (d^2 is n^2 g d x n^2 d), the
# dimension of Z^1 whose p^dim twists `lift_step` tries, the lifts
# `enumerate_lifts` lists, and the nodes of one
# `membership_up_to_equivalence` search
H2_SIZE_BOUND = 14
Z1_ENUMERATION_BOUND = 6
MAX_LIFTS = 1 << 22
MEMBERSHIP_NODE_BOUND = 500000

# -- adjoint module -------------------------------------------------------------

AD0_BASIS = ((0, 1, 0, 0), (1, 0, 0, -1), (0, 0, 1, 0))  # E, H, F
SUBMODULE_BASIS = {
    "ad0": AD0_BASIS,
    "n": ((0, 1, 0, 0),),
    "b": ((0, 1, 0, 0), (1, 0, 0, -1)),
}
# per submodule, the entries (a, b, c, d) of a matrix w that are its
# coordinates, and the sums of entries that vanish exactly when w lies in
# it: ad0 = aE + bH + cF has trace 0, n = span E, b = span(E, H)
SUBMODULE_COORDS = {
    "ad0": ((1, 0, 2), ((0, 3),)),
    "n": ((1,), ((2,), (0,), (3,))),
    "b": ((1, 0), ((2,), (0, 3))),
}


def _coord_matrix(entries, forms) -> np.ndarray:
    """The (4, d + f) matrix that takes the entries of w to its d
    coordinates, then to its f vanishing sums, as one product."""
    X = np.zeros((4, len(entries) + len(forms)), dtype=np.int64)
    X[list(entries), range(len(entries))] = 1
    for col, form in enumerate(forms, len(entries)):
        X[list(form), col] = 1
    X.flags.writeable = False
    return X


COORD_MATRICES = {s: _coord_matrix(*c) for s, c in SUBMODULE_COORDS.items()}


class AdjointModule:
    """Ad^0 of a residual representation on a group model, or its
    upper-triangular submodules n and b (which require the image of
    rho-bar to be upper triangular).  The action is one (n, d, d) int64
    array: _action[i] is the matrix of element i in the module's basis."""

    def __init__(self, model: FiniteGroupModel, rhobar_images,
                 selector: str, p: int):
        if selector not in SUBMODULE_BASIS:
            raise ValueError(f"unknown submodule selector {selector}")
        self.model = model
        self.selector = selector
        self.p = p
        self.rhobar = rhobar_images  # list over element indices, mod p
        self.basis = SUBMODULE_BASIS[selector]
        self.dim = len(self.basis)
        if selector in ("n", "b"):
            for m in rhobar_images:
                if m[2] % p != 0:
                    raise ValueError(
                        "n and b require upper-triangular rho-bar")
        self._action = np.array([self._action_matrix(i)
                                 for i in range(len(model))],
                                dtype=np.int64)

    def _action_matrix(self, i: int) -> np.ndarray:
        p = self.p
        g = self.rhobar[i]
        ginv = mat_inv(g, p)
        cols = []
        for v in self.basis:
            c, inside = self._coords(mat_mul(mat_mul(g, v, p), ginv, p))
            if not inside:
                # conjugation keeps the trace 0, and an upper-triangular
                # rho-bar keeps n and b
                raise InvariantViolation(
                    f"rho-bar of element {i} moves {self.selector} "
                    "out of itself")
            cols.append(c)
        return np.array(cols, dtype=np.int64).T % p

    def _coords(self, W):
        """(coordinates mod p, whether every matrix lies in the module)
        of the matrices W, a 4-tuple or an array (..., 4)."""
        X = np.asarray(W) @ COORD_MATRICES[self.selector] % self.p
        return X[..., :self.dim], not np.any(X[..., self.dim:])

    @cached_property
    def tree_maps(self):
        """`_tree_maps(model, self)`, read-only, built on first use: they
        depend only on the model, the action and p, which are fixed."""
        maps = _tree_maps(self.model, self)
        for a in maps:
            a.flags.writeable = False
        return maps

    @cached_property
    def obstruction_maps(self) -> np.ndarray:
        """(n, n, 4, 4), read-only, built on first use: at (g, h), the
        matrix that takes the entries w of a 2 x 2 matrix W to the d
        coordinates and the 4 - d vanishing sums (`COORD_MATRICES`) of
        -W rho-bar(gh)^-1 mod p.  On entries, W B is w kron(Id, B), so it
        is kron(Id, -rho-bar(gh)^-1) `COORD_MATRICES[selector]` mod p."""
        B = np.array([mat_inv(m, self.p) for m in self.rhobar],
                     dtype=np.int64).reshape(-1, 2, 2)
        R = np.zeros((len(B), 4, 4), dtype=np.int64)
        R[:, :2, :2] = R[:, 2:, 2:] = -B
        maps = (R @ COORD_MATRICES[self.selector] % self.p).take(
            self.model.table_array, axis=0)
        maps.flags.writeable = False
        return maps

    @cached_property
    def coboundary_maps(self) -> CoboundaryMaps:
        """`_coboundary_maps(model, self)`, read-only, built on first use:
        the one elimination of the edge system L, and the maps that the
        coboundary solve and the cocycle identity apply to a cochain."""
        return _coboundary_maps(self.model, self)

    @cached_property
    def coboundary_solve(self) -> np.ndarray:
        """`_coboundary_solve(model, self)`, read-only, built on first
        use: the (n d, n g d) matrix of `is_coboundary`."""
        F = _coboundary_solve(self.model, self)
        F.flags.writeable = False
        return F

    @cached_property
    def lift_maps(self) -> LiftMaps:
        """`_lift_maps(self)`, built on first use: the maps that
        `enumerate_lifts` reads of an ad0 module, as tuples of ints."""
        return _lift_maps(self)

    @cached_property
    def lift_columns(self) -> tuple:
        """Per element, the `_linear_column` of its `lift_maps.steps`,
        built on first use, which `enumerate_lifts` makes only after its
        MAX_LIFTS check: each column has p^(dim ker L) entries."""
        return tuple(_linear_column(ys, self.p)
                     for ys in self.lift_maps.steps)

    @cached_property
    def z1(self):
        """(Z, free), the `_z1_normal_form` of the tree maps and of the
        kernel of L that `coboundary_maps` read off L's elimination, as
        read-only arrays, built on first use."""
        Z, free = _z1_normal_form(self.tree_maps[0],
                                  self.coboundary_maps.kernel, self.p)
        free = np.array(free, dtype=np.intp)
        Z.flags.writeable = free.flags.writeable = False
        return Z, free

    def to_matrix(self, vec) -> tuple:
        p = self.p
        out = [0, 0, 0, 0]
        for c, b in zip(vec, self.basis):
            for k in range(4):
                out[k] = (out[k] + int(c) * b[k]) % p
        return tuple(out)


@dataclass
class Cochain:
    """Degree-1 or degree-2 cochain with values in an adjoint module,
    stored as a dense array over (tuples of) element indices."""

    degree: int
    module: AdjointModule
    values: np.ndarray  # shape (n, d) or (n, n, d)


def _coboundary(M, k: int, last=None) -> np.ndarray:
    """Matrix of the bar-resolution coboundary d^k: C^k -> C^(k+1),
    k in {0, 1, 2}:

        (d f)(g_0..g_k) = g_0 f(g_1..g_k)
                          + sum_i (-1)^(i+1) f(.., g_i g_(i+1), ..)
                          + (-1)^(k+1) f(g_0..g_(k-1)).

    Row (g_0..g_k) * d + component, the tuple flattened base n with g_k
    counted by its position in last (all n elements by default);
    columns likewise on k-tuples.  Each term is its own +=: inside one
    statement every row occurs once, so fancy indexing is exact, while
    two terms of one row can hit the same column (g = h, gh = g, ...).

    With last the generators, the rows still cut out the kernel of d^k
    for k >= 1: d^(k+1) d^k = 0 evaluated at (g_0..g_k, s) gives
    (d f)(g_0..g_(k-1), hs) = (d f)(g_0..g_(k-1), h) whenever d f
    vanishes on every row ending in a generator s, and every element,
    the identity too, is a nonempty word in the generators of a finite
    group.
    """
    G = M.model
    n, d, p = len(G), M.dim, M.p
    T = G.table_array
    last = np.arange(n) if last is None else np.asarray(last)
    g = [a.ravel() for a in np.indices((n,) * k + (len(last),))]
    g[k] = last[g[k]]
    rows = np.arange(g[0].size)

    def col(hs):
        c = 0
        for h in hs:
            c = c * n + h
        return c

    eye = np.eye(d, dtype=np.int64)
    D = np.zeros((rows.size, d, n**k, d), dtype=np.int64)
    D[rows, :, col(g[1:]), :] += np.asarray(M._action)[g[0]]
    for i in range(k):
        merged = g[:i] + [T[g[i], g[i + 1]]] + g[i + 2:]
        D[rows, :, col(merged), :] += (-1)**(i + 1) * eye
    D[rows, :, col(g[:k]), :] += (-1)**(k + 1) * eye
    D %= p
    return D.reshape(rows.size * d, n**k * d)


def cohomology(model: FiniteGroupModel, M: AdjointModule, degree: int):
    """(dimension, list of representative cocycles) for H^1 or H^2: the
    cocycles Z modulo the image B of d^(degree-1), which the rows of its
    transpose span.  Z^1 is `z1_basis`, from the generator values of a
    cocycle; Z^2 is the kernel of the rows of d^2 whose last argument is
    a generator (see `_coboundary`).

    B lies in Z, so the pivots of RREF(B) are pivots of RREF(Z), and the
    rows of RREF(Z) at the other pivots are independent modulo B (a
    combination of them leads at one of those pivots, which no vector
    of B does): rank Z - rank B of them, a basis of Z / B.  Raises
    ValueError unless model is M's group."""
    _check_model(model, M)
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if degree == 2 and len(model) > H2_SIZE_BOUND:
        raise SizeBound(
            f"degree-2 cohomology limited to |G| <= {H2_SIZE_BOUND}")
    p = M.p
    Z = (z1_basis(model, M) if degree == 1 else
         nullspace_modp(_coboundary(M, 2, model.generators), p))
    Zred, zpiv = rref_modp(Z, p)
    _, bpiv = rref_modp(_coboundary(M, degree - 1).T, p)
    reps = [Zred[i] for i, c in enumerate(zpiv) if c not in bpiv]
    shape = (len(model),) * degree + (M.dim,)
    return len(reps), [Cochain(degree, M, z.reshape(shape)) for z in reps]


def _tree_maps(G, M):
    """(A, S, keep, L), the maps that write a 1-cochain f in generator
    coordinates.

    The unknowns are u = (u_0, ..., u_(g-1)), u_j in M the value at
    generator s_j.  A[x] is the d x g d matrix with f(x) = A[x] u for the
    cochain grown along G.tree by f(i s_j) = f(i) + rho(i) u_j: A[s_j] =
    E_j (the block of u_j; the last one when s_j is listed twice) and
    A[i s_j] = A[i] + rho(i) E_j.  S is the (n, g) table of x s_j.  L
    stacks the edge maps A[x s_j] - A[x] - rho(x) E_j over the pairs
    (x, j) in order where keep is set: all but the tree's own, where they
    vanish by construction."""
    n, d, p = len(G), M.dim, M.p
    g = len(G.generators)
    # step[x, j] = rho(x) E_j
    step = np.zeros((n, g, d, g * d), dtype=np.int64)
    for j in range(g):
        step[:, j, :, j * d:(j + 1) * d] = M._action
    A = np.zeros((n, d, g * d), dtype=np.int64)
    for j, s in enumerate(G.generators):
        A[s] = step[G.identity, j]  # rho(1) E_j = E_j
    keep = np.ones(n * g, dtype=bool)
    for k, i, j in G.tree:
        A[k] = A[i] + step[i, j]
        keep[i * g + j] = False
    A %= p
    keep = keep.reshape(n, g)
    S = G.table_array[:, G.generators]
    L = (A[S] - A[:, None] - step) % p
    return A, S, keep, L[keep].reshape(-1, g * d)


def _z1_normal_form(A, K, p: int):
    """(Z, free): the basis of Z^1 in n d coordinates that is the
    identity on the columns free, and those columns in increasing order,
    from the tree map A and a basis K of ker L.

    f = A u is a cocycle exactly when L u = 0 (see `z1_basis`), and u is
    f's generator values, so A K spans Z^1.  free is the set of last
    nonzero positions of the cocycles, and the basis is the rows of the
    reduced echelon form of the cocycles read right to left, put back in
    order.  `nullspace_modp` on d^1 gives a basis of the same space that
    is the identity on the non-pivot columns of d^1, the columns that
    are combinations of earlier ones, i.e. the last nonzero positions of
    the kernel vectors again; a basis that is the identity on a given
    column set is unique, so the two are equal."""
    nd = A.shape[0] * A.shape[1]
    R, pivots = rref_modp((K @ A.reshape(nd, -1).T % p)[:, ::-1], p)
    free = [nd - 1 - c for c in reversed(pivots)]
    return np.ascontiguousarray(R[::-1, ::-1]), free


@dataclass(frozen=True)
class CoboundaryMaps:
    """What Z^1, the coboundary solve and the cocycle identity read of a
    module, every array read-only (`_coboundary_maps`).  L is the m x g d
    edge system of `_tree_maps`, one row per edge (x, j) and component:

    solve    (g d, m): u = solve rhs mod p solves L u = rhs, 0 on the
             free unknowns, whenever the m equations are consistent
    kernel   the basis of ker L that `nullspace_modp(L, p)` gives
    gens     the generators, to read c(x, s_j) off a 2-cochain
    triples  (3, n, g, n): at [h, s, g], the rows of (gh, s), (g, hs)
             and (g, h) among a 2-cochain's n^2 rows, (x, y) at x n + y
    action   (d, n d): the transposed action matrices side by side"""

    solve: np.ndarray
    kernel: np.ndarray
    gens: np.ndarray
    triples: np.ndarray
    action: np.ndarray


def _coboundary_maps(G, M) -> CoboundaryMaps:
    """The maps of `CoboundaryMaps`, from one elimination of [L | I] mod p.

    The elimination brings [L | I] to [R | T] with T invertible and
    T L = R in reduced echelon form, its first r rows led at L's pivots.
    When L u = rhs is consistent, (T rhs)[r:] = 0 and [R | T rhs] is the
    reduced echelon form of [L | rhs] that `solve_modp` computes: its
    solution puts (T rhs)[i] at the i-th pivot and 0 elsewhere, which is
    solve rhs.  The kernel is read off R as `nullspace_modp` reads it."""
    n, p = len(G), M.p
    L = M.tree_maps[3]
    m, gd = L.shape
    R, pivots = rref_modp(np.hstack([L, np.eye(m, dtype=np.int64)]), p)
    piv = [c for c in pivots if c < gd]
    free = [c for c in range(gd) if c not in piv]
    solve = np.zeros((gd, m), dtype=np.int64)
    solve[piv] = R[:len(piv), gd:]
    kernel = np.zeros((len(free), gd), dtype=np.int64)
    kernel[range(len(free)), free] = 1
    kernel[:, piv] = -R[:len(piv), free].T % p
    gens = np.array(G.generators, dtype=np.intp)
    T = G.table_array
    h, s, x = np.indices((n, len(gens), n))
    triples = np.stack([T[x, h] * n + gens[s], x * n + T[h, gens[s]],
                        x * n + h])
    action = M._action.transpose(2, 0, 1).reshape(M.dim, n * M.dim)
    maps = CoboundaryMaps(solve, kernel, gens, triples,
                          np.ascontiguousarray(action))
    for a in vars(maps).values():
        a.flags.writeable = False
    return maps


def _coboundary_solve(G, M) -> np.ndarray:
    """The (n d, n g d) matrix F of `is_coboundary`: f = F c mod p for
    the generator values c = (c(x, s_j)), one block of d at x g + j.

    Each step from c to f is linear over F_p, and each but the solve
    acts on c block by block, as an integer matrix on the blocks:
    - the tree offsets b, b[s_j] = 0 and b[i s_j] = b[i] - c(i, s_j),
      are b = offsets c;
    - the right-hand side of the edge system is rhs c, with
      b[x] - b[x s_j] - c(x, s_j) on each edge (x, s_j) off the tree;
    - u = solve rhs c (`CoboundaryMaps.solve`) and f = A u + b, with
      the tree maps A;
    - the representative 0 on the free columns of `z1_basis` is
      f - Z^T f[free].
    The products are `matmul_mod`s, exact while p <= 2^31."""
    n, d, p, g = len(G), M.dim, M.p, len(G.generators)
    A, S, keep, _ = M.tree_maps
    offsets = np.zeros((n, n * g), dtype=np.int64)
    for k, i, j in G.tree:
        offsets[k] = offsets[i]
        offsets[k, i * g + j] -= 1
    # entries in [-2, 1], so solve rhs stays far below 2^63
    rhs = (offsets[:, None] - offsets[S]
           - np.eye(n * g, dtype=np.int64).reshape(n, g, n * g))[keep]
    # U[a, l, x g + j] = sum_e solve[a, e d + l] rhs[e, x g + j]
    U = M.coboundary_maps.solve.reshape(g * d, -1, d).transpose(0, 2, 1) \
        @ rhs % p
    F = matmul_mod(A.reshape(n * d, g * d),
                   U.transpose(0, 2, 1).reshape(g * d, -1),
                   p).reshape(n, d, n * g, d)
    F[:, range(d), :, range(d)] += offsets
    F = F.reshape(n * d, -1)
    Z, free = M.z1
    return (F - matmul_mod(np.ascontiguousarray(Z.T), F[free] % p, p)) % p


@dataclass(frozen=True)
class LiftMaps:
    """What `enumerate_lifts` reads of an ad0 module (`_lift_maps`), as
    tuples of ints, in the coordinates x = (a_j, b_j, c_j) of the
    generator values X_j = a_j H + b_j E + c_j F; m and g d as in
    `CoboundaryMaps`:

    edges   per block of d = 3 rows of L, one an edge (x, s_j) off the
            tree: (x g + j, the columns of `obstruction_maps` at
            (x, s_j))
    solve   (g d, m): solve rhs solves L u = rhs whenever it is solvable
    edge    (m, g d): L
    kernel  a basis of ker L in reduced echelon form, row k led at lead[k]
    lead    the leading columns of kernel
    steps   per element i and kernel row k, the entries of
            F_i(kernel[k]) rho-bar(i) mod p, with F = A u the tree maps"""

    edges: tuple
    solve: tuple
    edge: tuple
    kernel: tuple
    lead: tuple
    steps: tuple


def _lift_maps(M) -> LiftMaps:
    """The `LiftMaps` of the ad0 module M: its tree maps, its one
    elimination of L (`coboundary_maps`) and its `obstruction_maps`, with
    the columns put in x order, and ker L brought to reduced echelon form
    in that order (`linalg._rref_mod`)."""
    G, p = M.model, M.p
    g = len(G.generators)
    A, _, keep, L = M.tree_maps
    maps = M.coboundary_maps
    # u = (E, H, F) coordinates and x = (a, b, c) swap the first two
    perm = [c + (1, -1, 0)[c % 3] for c in range(3 * g)]
    K, lead = (_rref_mod(maps.kernel[:, perm].tolist(), p)
               if len(maps.kernel) else ([], []))
    # at x g + j, the map at x s_j
    obs = M.obstruction_maps[:, G.generators].reshape(-1, 4, 4)
    edges = tuple((e, tuple(map(tuple, obs[e].T.tolist())))
                  for e in np.flatnonzero(keep).tolist())
    # F_i(k) rho-bar(i) as the 2 x 2 product of the matrices of F and rho-bar
    F = A[:, :, perm] @ np.array(K, dtype=np.int64).reshape(-1, 3 * g).T % p
    W = F.transpose(0, 2, 1) @ np.array(AD0_BASIS, dtype=np.int64) % p
    R = np.array(M.rhobar, dtype=np.int64).reshape(-1, 1, 2, 2)
    Y = (W.reshape(W.shape[:2] + (2, 2)) @ R % p).reshape(W.shape)
    return LiftMaps(
        edges, tuple(map(tuple, maps.solve[perm].tolist())),
        tuple(map(tuple, L[:, perm].tolist())), tuple(map(tuple, K)),
        tuple(lead), tuple(tuple(map(tuple, y)) for y in Y.tolist()))


def _check_model(model: FiniteGroupModel, M: AdjointModule) -> None:
    """Raise ValueError unless model is M's group."""
    if model is not M.model:
        raise ValueError(f"the group model (order {len(model)}) is not the "
                         f"module's own (order {len(M.model)})")


def _check_cochain2(model: FiniteGroupModel, M: AdjointModule,
                    c: Cochain) -> None:
    """Raise ValueError unless model is M's group and c a degree-2
    cochain of M with values of shape (n, n, d)."""
    _check_model(model, M)
    if c.degree != 2 or c.module is not M:
        raise ValueError("expected a degree-2 cochain of this module, got "
                         f"a degree-{c.degree} cochain"
                         + ("" if c.module is M else " of another module"))
    shape = (len(model), len(model), M.dim)
    if np.shape(c.values) != shape:
        raise ValueError(f"cochain values of shape {np.shape(c.values)}, "
                         f"expected {shape}")


def z1_basis(model: FiniteGroupModel, M: AdjointModule) -> np.ndarray:
    """Basis of the 1-cocycles, one a row of n d values, in the normal
    form of `nullspace_modp` on d^1 (the identity on its free columns).

    A cocycle is fixed by its g d generator values (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 7.6): with f(1) = 0,
    f(x s_j) = f(x) + rho(x) f(s_j) grows it along the BFS tree.  So the
    unknowns are u in M^g, f = A u, and u is a cocycle's generator
    values exactly when L u = 0 (`_tree_maps`):

    - a cocycle f satisfies every edge equation, and f = A u by
      induction along the tree;
    - conversely, let f = A u with L u = 0.  The edge (1, j') for the
      last j' listing s_j gives f(1) = 0 and then f(s_j) = u_j.  So
      phi(x) = (f(x), x) in M x| G has phi(x s_j) = phi(x) phi(s_j) for
      all x and j, and by induction on word length phi(x y) = phi(x)
      phi(y): f is a cocycle.

    L has g d columns, at most 6 on every shipped group, where the bar
    resolution solves for n d unknowns.  ker L is read off the one
    elimination of L that `is_coboundary` solves with too
    (`AdjointModule.coboundary_maps`), and the basis is read-only and
    built once per module (`AdjointModule.z1`).  Raises ValueError
    unless model is M's group."""
    _check_model(model, M)
    return M.z1[0]


def is_coboundary(model: FiniteGroupModel, M: AdjointModule, c2: Cochain):
    """Solve d^1 f = c for f in C^1; returns the cochain, or None when c
    is no coboundary (also when c fails the cocycle identity).  Raises
    ValueError unless model is M's group and c2 a 2-cochain of M.

    d^1 f = c reads f(x y) = f(x) + rho(x) f(y) - c(x, y), and every
    2-cocycle that vanishes on the pairs (x, s) with s a generator is 0
    (the cocycle identity at (x, h, s) gives z(x, h s) = z(x, h)), so
    for a 2-cocycle c only those pairs need solving.  Along the tree,
    f = A u + b with u the generator values and b[s_j] = 0,
    b[i s_j] = b[i] - c(i, s_j); the pairs (x, s_j) are then the g d
    unknowns' system (0 = 0 on the tree's own pairs, left out)

        L u = b[x] - b[x s_j] - c(x, s_j),

    whose solutions are those of the pairs, u = (f(s_j)), by the argument
    of `z1_basis` (the edges (1, j') give f(1) = c(1, s_j) and
    f(s_j) = u_j).  The solutions f form one coset of Z^1, and the one
    returned is 0 on the free columns of `z1_basis`, the coset
    representative that `solve_modp` gives on the n g d rows of d^1
    ending in a generator.  From the c(x, s_j) to that f every step is
    linear over F_p, so f = F c for one matrix F, built once per module
    (`AdjointModule.coboundary_solve`).

    Certificate: f is returned only when d^1 f = c holds on all n^2
    pairs, else None.  This is None exactly when c is no coboundary:
    - if d^1 f = c, then c is a coboundary, so it is a cocycle;
    - if c is a coboundary, it is a cocycle, so the pair system is
      consistent, and by the argument above the solved f satisfies
      d^1 f = c on every pair.
    The check is one product with the action matrices and one gather
    by the table, both mod p."""
    _check_cochain2(model, M, c2)
    n, d, p = len(model), M.dim, M.p
    maps = M.coboundary_maps
    c = c2.values % p
    f = matmul_mod(M.coboundary_solve, c[:, maps.gens].reshape(-1),
                   p).reshape(n, d)
    # at [y, x]: rho(x) f(y) + f(x) - f(xy) - c(x, y)
    e = matmul_mod(f, maps.action, p).reshape(n, n, d) + f \
        - f.take(model.table_array.T, axis=0) - c.transpose(1, 0, 2)
    return None if np.count_nonzero(e % p) else Cochain(1, M, f)


# -- lifting --------------------------------------------------------------------


class RepresentationModPn:
    """A homomorphism model -> GL_2(Z/p^n), stored on every element.
    The lift-lab calls that read one refuse it unless it holds one image
    per element (`_check_images`)."""

    __slots__ = ("model", "p", "n", "images")

    def __init__(self, model: FiniteGroupModel, p: int, n: int, images):
        self.model = model
        self.p = p
        self.n = n
        mod = p**n
        self.images = [(a % mod, b % mod, c % mod, d % mod)
                       for a, b, c, d in images]

    def verify(self) -> bool:
        _check_images(self)
        mod, t, images = self.p**self.n, self.model.table, self.images
        return all(mat_mul(images[i], images[g], mod) == images[t[i][g]]
                   for i in range(len(self.model))
                   for g in self.model.generators)

    def rhobar(self):
        p = self.p
        return [(a % p, b % p, c % p, d % p) for a, b, c, d in self.images]


def _check_images(rho: RepresentationModPn) -> None:
    """Raise ValueError unless rho holds one image per group element."""
    if len(rho.images) != len(rho.model):
        raise ValueError(f"rho has {len(rho.images)} images, but its group "
                         f"has {len(rho.model)} elements")


def set_theoretic_lift(rho: RepresentationModPn, det_target):
    """Entrywise lift of each image with the determinant fixed to the
    supplied character values mod p^(n+1), one per element.  Raises
    ValueError when rho does not hold one image per element
    (`_check_images`), and, naming the element, when det_target does not
    hold one value per element or a value does not reduce mod p^n to
    det rho(g)."""
    _check_images(rho)
    p, n = rho.p, rho.n
    mod = p**(n + 1)
    size = len(rho.images)
    if len(det_target) < size:
        raise ValueError(f"det_target has no value for element "
                         f"{len(det_target)} of {size}")
    if len(det_target) > size:
        raise ValueError(f"det_target has a value for element {size}, "
                         f"but the group has {size} elements")
    pn = p**n
    out = []
    for i, (a, b, c, d) in enumerate(rho.images):
        dA = (a * d - b * c) % mod
        k, r = divmod((det_target[i] - dA) % mod, pn)
        if r:
            raise ValueError(f"det_target of element {i} does not reduce "
                             f"mod {p}^{n} to det rho of element {i}")
        # scale the first row by 1 + p^n delta to fix the determinant:
        # det_target = dA (1 + p^n delta) mod p^(n+1) when k = delta dA
        s = 1 + k * pow(dA, -1, p) % p * pn
        A = (a * s % mod, b * s % mod, c % mod, d % mod)
        if mat_det(A, mod) != det_target[i] % mod:
            raise InvariantViolation(
                f"set-theoretic lift of element {i} misses its "
                "determinant target")
        out.append(A)
    return out


def obstruction_class(rho: RepresentationModPn, det_target,
                      M: AdjointModule) -> Cochain:
    """The 2-cocycle tau(gh) tau(h)^-1 tau(g)^-1 of the set-theoretic
    lift tau = `set_theoretic_lift(rho, det_target)`, identified with
    Id + p^n (value).  Raises ValueError when M is not a module of rho's
    residual representation (`_check_representation`) or rho is not a
    homomorphism mod p^n, and InvariantViolation when the cochain fails
    the cocycle identity."""
    _check_representation(rho, M)
    obs = _obstruction_cochain(rho, M, set_theoretic_lift(rho, det_target))
    _check_obstruction(rho.model, M, obs)
    return obs


def _check_representation(rho: RepresentationModPn,
                          M: AdjointModule) -> None:
    """Raise ValueError unless rho holds one image per group element
    (`_check_images`) and M is a module of rho-bar on rho's own group
    model: `_obstruction_cochain` reads rho-bar(gh)^-1 off M."""
    _check_images(rho)
    _check_model(rho.model, M)
    if M.p != rho.p or M.rhobar != rho.rhobar():
        raise ValueError("the module is not built on the reduction mod "
                         f"{rho.p} of rho")


def _obstruction_cochain(rho: RepresentationModPn, M: AdjointModule,
                         tau) -> Cochain:
    """The cochain of `obstruction_class` from the set-theoretic lift tau,
    unchecked but for ValueError when rho is not a homomorphism mod p^n.

    Let Q = tau_g tau_h tau_gh^-1 = Id + p^n c mod p^(n+1).  The stored
    value is that of F = tau_gh tau_h^-1 tau_g^-1 = Q^-1, which is
    Id - p^n c mod p^(n+1) because 2n >= n + 1.  Since
    tau_g tau_h - tau_gh = (Q - Id) tau_gh = p^n c tau_gh and
    tau_gh = rho-bar(gh) mod p,

        value(g, h) = -((tau_g tau_h - tau_gh) / p^n) rho-bar(gh)^-1
                                                          (mod p).

    p^n divides tau_g tau_h - tau_gh on every pair exactly when rho is a
    homomorphism mod p^n.  So the cochain is one batched product mod
    p^(n+1), an exact division by p^n, and one product with the
    module's `obstruction_maps` at (g, h), which also gives the sums that
    vanish exactly when the value lies in the module.  The products are
    taken in int64 while p^(n+1) <= 2^31 keeps a sum of two products
    below 2^63, and in Python integers above that."""
    p, n = rho.p, rho.n
    mod, pn = p**(n + 1), p**n
    T = rho.model.table_array
    dtype = np.int64 if mod <= MAX_MODULUS else object
    t = np.array(tau, dtype=dtype).reshape(-1, 2, 2)
    # entries in (-mod, mod), so the quotients by p^n lie in [-p, p);
    # np.divmod has no loop for object arrays
    D = (t[:, None] @ t % mod - t.take(T, axis=0)).reshape(T.shape + (1, 4))
    value, rem = (np.divmod(D, pn) if dtype is np.int64
                  else (D // pn, D % pn))
    if np.count_nonzero(rem):
        raise ValueError(f"rho is not a homomorphism mod {p}^{n}")
    X = (value @ M.obstruction_maps)[..., 0, :] % p
    if np.count_nonzero(X[..., M.dim:]):
        # the lift fixes the determinant, so the value has trace 0; with
        # n or b the images above level 1 may still leave the submodule
        raise ParseError(f"the obstruction at level {n + 1} takes a value "
                         f"outside the submodule {M.selector}")
    return Cochain(2, M, X[..., :M.dim].astype(np.int64))


def _check_obstruction(G, M, obs: Cochain):
    if not _cocycle2_identity_holds(G, M, obs):
        raise InvariantViolation(
            "obstruction cochain failed the cocycle identity")


def _cocycle2_identity_holds(G, M, c: Cochain) -> bool:
    """Whether c satisfies the 2-cocycle identity

        g c(h, k) - c(gh, k) + c(g, hk) - c(g, h) = 0  (mod p)

    for every triple (g, h, k), from the triples with k a generator s
    alone, all n^2 g of them in one step.  This is exact: e = d^2 c has
    d^3 e = 0, which at (g, h, k, s) reads

        g e(h, k, s) - e(gh, k, s) + e(g, hk, s) - e(g, h, ks)
            + e(g, h, k) = 0,

    so e(g, h, ks) = e(g, h, k) when e vanishes on every triple ending in
    a generator, and every element, the identity too, is a nonempty word
    in the generators of a finite group.  Holds O(n^2 g d) integers,
    gathered at the module's index arrays in the order [h, s, g]
    (`AdjointModule.coboundary_maps`).
    """
    maps = M.coboundary_maps
    v = c.values
    vs = v[:, maps.gens].reshape(-1, v.shape[-1])  # c(h, s)
    V = v.reshape(len(G)**2, -1).take(maps.triples, axis=0)
    lhs = (vs @ maps.action).reshape(V.shape[1:]) - V[0] + V[1] - V[2]
    return not np.count_nonzero(lhs % M.p)


def twist(images, z_values, M: AdjointModule, p: int, n: int):
    """(Id + p^n z(g)) * rho(g) on every element."""
    mod = p**(n + 1)
    out = []
    for i, m in enumerate(images):
        Z = M.to_matrix(z_values[i])
        factor = (1 + Z[0] * p**n, Z[1] * p**n,
                  Z[2] * p**n, 1 + Z[3] * p**n)
        out.append(mat_mul(tuple(x % mod for x in factor),
                           tuple(x % mod for x in m), mod))
    return out


def lift_step(rho: RepresentationModPn, det_target,
              M: AdjointModule, conditions):
    """One lifting step mod p^(n+1).

    Solves the obstruction coboundary system; on success twists by global
    1-cocycles until every labelled local condition of conditions, a list
    of (label, condition) pairs, holds.  Returns ("ok", lifted
    representation) or ("obstructed", obstruction class).  Raises
    LocalTwistUnrealizable when no global twist restricts to an
    admissible local one.

    The cochain is built from the set-theoretic lift that the step
    twists.  When `is_coboundary` solves it, its certificate d^1 f = c
    shows the cochain a coboundary, so a cocycle, and the cocycle
    identity is not checked again; when it does not, the identity is
    checked here, so that a cochain failing it raises InvariantViolation
    either way.  The maps that the solve and the Z^1 basis read are M's,
    built once per module.
    Raises ValueError when M is not a module of rho's residual
    representation (`_check_representation`).
    """
    _check_representation(rho, M)
    p, n = rho.p, rho.n
    G = rho.model
    tau = set_theoretic_lift(rho, det_target)
    obs = _obstruction_cochain(rho, M, tau)
    f = is_coboundary(G, M, obs)
    if f is None:
        _check_obstruction(G, M, obs)
        return "obstructed", obs
    # r = (Id + p^n f) tau is a homomorphism
    r = RepresentationModPn(G, p, n + 1, twist(tau, f.values, M, p, n))
    if not r.verify():
        raise InvariantViolation(
            "twisted set lift failed to be a homomorphism")
    if not conditions:
        return "ok", r
    Z = z1_basis(G, M)
    if Z.shape[0] > Z1_ENUMERATION_BOUND:
        raise SizeBound(
            f"Z^1 dimension {Z.shape[0]} exceeds enumeration bound")
    for coeffs in itertools.product(range(p), repeat=Z.shape[0]):
        zvec = np.array(coeffs, dtype=np.int64) @ Z % p
        cand = RepresentationModPn(G, p, n + 1, twist(
            r.images, zvec.reshape(len(G), M.dim), M, p, n))
        if all(cond.holds(cand) for _, cond in conditions):
            return "ok", cand
    raise LocalTwistUnrealizable(
        "no global 1-cocycle twist satisfies every local condition")


def enumerate_lifts(rho: RepresentationModPn, det_target):
    """All homomorphic lifts mod p^(n+1) with the fixed determinant, n >= 1.

    Generator j goes to g_j = (1 + p^n X_j) A_j, with A_j the
    set-theoretic lift and X_j = a_j H + b_j E + c_j F mod p (the
    determinant is already matched), x = (a_j, b_j, c_j)_j.  Since
    2n >= n + 1,

        (1 + p^n X) A (1 + p^n Y) B = (1 + p^n (X + A Y A^-1)) AB
                                                        mod p^(n+1),

    so the extension along the group's BFS tree gives element i the image
    out_i(x) = (1 + p^n F_i) out_i(0) = out_i(0) + p^n F_i rho-bar(i),
    with F_(s_j) = X_j and F_(i s_j) = F_i + rho-bar(i) X_j rho-bar(i)^-1:
    F = A u for the tree maps A of the ad0 module of rho-bar = out(0)
    mod p, u being x in its basis (E, H, F).  So images are affine in x,
    and so are the relation defects:

        out_(i s_j) - out_i g_j = d0 + p^n (L u)_(i, j) rho-bar(i s_j)

    mod p^(n+1), with d0 the defect at x = 0 and L the module's edge
    system (the tree's own pairs have no defect).  When p^n does not
    divide d0, rho's generator images break a relation mod p^n: there is
    no lift, and no module is looked up.  Otherwise, with D = d0 / p^n,
    the lifts are the solutions of L u = rhs, rhs = -coords(D rho-bar(i
    s_j)^-1) on each edge, if every D rho-bar(i s_j)^-1 has trace 0 (as
    L u has), and there are none if not.  The module is one per (model,
    p, rho-bar), kept in `FiniteGroupModel.lift_modules`, so the levels
    of one rho-bar share it; u0 = solve rhs is read off its one
    elimination of L and kept after L u0 = rhs is checked
    (`AdjointModule.lift_maps`).

    With the basis K of ker L in reduced echelon form in x order, and x0
    made 0 at its leading columns, x0 + sum c_k K_k is in lexicographic
    order of x as c runs through itertools.product(range(p), repeat=f):
    where two such x first differ is the leading column of the first
    K_k where their c differ, and x is c_k there.  At c, element i has
    the image out_i(x0) + p^n sum c_k F_i(K_k) rho-bar(i), built once per
    distinct value of the sum (`AdjointModule.lift_columns`).

    Certificate: after the MAX_LIFTS check, `extend_homomorphism` builds
    the images at x0 and at each x0 + K_k, f + 1 full relation checks,
    and the listed images there must equal them.  The true images, the
    listed ones and the relation defects are all affine in c over F_p
    (p^n times a linear map mod p, plus a constant), and an affine map is
    fixed by its values at c = 0 and at the f unit vectors: every listed
    lift is the extension of its generator images, and a homomorphism.
    A failed check raises InvariantViolation.  Raises SizeBound when
    there are more than MAX_LIFTS lifts."""
    p, n = rho.p, rho.n
    G = rho.model
    mod, pn = p**(n + 1), p**n
    base = set_theoretic_lift(rho, det_target)
    base_gen = [base[g] for g in G.generators]

    def mul(a, b):
        return mat_mul(a, b, mod)

    out0 = G.extend_along_tree(base_gen, mul)
    # the 4 entries of the defect at each pair (i, j), in order i g + j
    d0 = [(e - f) % mod
          for i, img in enumerate(out0)
          for g, A in zip(G.generators, base_gen)
          for e, f in zip(out0[G.table[i][g]], mul(img, A))]
    if any(e % pn for e in d0):
        return []
    key = (p,) + tuple(tuple(e % p for e in m) for m in base_gen)
    M = G.lift_modules.get(key)
    if M is None:
        M = G.lift_modules[key] = AdjointModule(
            G, [tuple(e % p for e in m) for m in out0], "ad0", p)
    maps = M.lift_maps
    rhs = []
    for pair, cols in maps.edges:
        D = [e // pn for e in d0[4 * pair:4 * pair + 4]]
        *r, trace = [sum(map(operator.mul, D, col)) % p for col in cols]
        if trace:
            return []
        rhs += r
    x0 = [sum(map(operator.mul, row, rhs)) % p for row in maps.solve]
    if any(sum(map(operator.mul, row, x0)) % p != r
           for row, r in zip(maps.edge, rhs)):
        return []
    for K, lead in zip(maps.kernel, maps.lead):
        x0 = [(a - x0[lead] * b) % p for a, b in zip(x0, K)]
    f = len(maps.kernel)
    if p**f > MAX_LIFTS:
        raise SizeBound(f"{p**f} lifts exceed the bound")

    def extension(x):
        gen_images = [
            mul((1 + a * pn, b * pn, c * pn, 1 + (-a % p) * pn), A)
            for A, a, b, c in zip(base_gen, x[0::3], x[1::3], x[2::3])]
        try:
            return G.extend_homomorphism(gen_images, mul)
        except ValueError as exc:
            raise InvariantViolation(
                "a solution of the linearized relations is not a "
                "homomorphism") from exc

    # lifts differ by 1-cocycles, which take few values on many elements
    # (one at the identity): the lifts share one tuple per distinct image
    shared = {}
    columns = []
    for (a, b, c, d), (values, index) in zip(extension(x0),
                                              M.lift_columns):
        distinct = [shared.setdefault(w, w) for w in (
            ((a + pn * y0) % mod, (b + pn * y1) % mod, (c + pn * y2) % mod,
             (d + pn * y3) % mod) for y0, y1, y2, y3 in values)]
        columns.append(list(map(distinct.__getitem__, index)))
    lifts = []
    for images in zip(*columns):
        lift = RepresentationModPn(G, p, n + 1, ())
        lift.images = list(images)
        lifts.append(lift)
    for k, K in enumerate(maps.kernel):
        if extension([(a + b) % p for a, b in zip(x0, K)]) \
                != lifts[p**(f - 1 - k)].images:
            raise InvariantViolation(
                f"the listed lift at kernel vector {k} is not the "
                "extension of its generator images")
    return lifts


def _linear_column(ys, p: int):
    """(values, index): the values of sum_k c_k ys[k] mod p for c in the
    order of itertools.product(range(p), repeat=len(ys)), each distinct
    one once in order of first occurrence, and the position in values of
    each c.  Each ys[k] moves every distinct value so far once, by
    c = 0, ..., p - 1."""
    column = [(0, 0, 0, 0)]
    for y in ys:
        moved = {}
        for v in column:
            if v not in moved:
                moved[v] = [tuple((a + c * b) % p for a, b in zip(v, y))
                            for c in range(p)]
        column = [w for v in column for w in moved[v]]
    position = {v: i for i, v in enumerate(dict.fromkeys(column))}
    return tuple(position), tuple(map(position.__getitem__, column))


def _unit_vectors(dim: int):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _kernel_basis(R, pivots, ncols: int, p: int):
    """Basis of the kernel over F_p of the first ncols columns of a
    matrix whose reduced echelon form mod p is the rows R with pivot
    columns pivots: for each free column f, 1 at f and -R_i[f] at the
    i-th pivot column."""
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivset:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(R, pivots):
                if c < ncols:
                    v[c] = -row[f] % p
            basis.append(v)
    return basis


def _coset(x0, K, p: int):
    """The p^f vectors x0 + c K mod p as tuples, for the f rows of K and
    c running over itertools.product(range(p), repeat=f): each row of K
    in turn adds its multiples to every vector so far, the last
    coefficient varying fastest."""
    out = [tuple(x0)]
    for k in K:
        out = [tuple((x + c * y) % p for x, y in zip(v, k))
               for v in out for c in range(p)]
    return out


# -- trivial primes and tame local conditions -----------------------------------


@dataclass(frozen=True)
class LocalTameData:
    """Images (Sigma, Tau) of (sigma_v, tau_v) mod p^level, constrained by
    Sigma Tau Sigma^-1 = Tau^v."""

    v: int
    p: int
    level: int
    Sigma: tuple
    Tau: tuple

    def __post_init__(self):
        mod = self.p**self.level
        object.__setattr__(self, "Sigma",
                           tuple(x % mod for x in self.Sigma))
        object.__setattr__(self, "Tau",
                           tuple(x % mod for x in self.Tau))
        lhs = mat_mul(mat_mul(self.Sigma, self.Tau, mod),
                      mat_inv(self.Sigma, mod), mod)
        rhs = _mat_pow(self.Tau, self.v, mod)
        if lhs != rhs:
            raise TameRelationError(
                f"Sigma Tau Sigma^-1 != Tau^v mod p^{self.level}")


def _mat_pow(A, k, mod):
    out = MAT_ID
    base = A
    while k:
        if k & 1:
            out = mat_mul(out, base, mod)
        base = mat_mul(base, base, mod)
        k >>= 1
    return out


TYPE_CONJUGATORS = {
    1: (1, 0, 1, 1),
    2: (0, 1, 1, 0),
    3: MAT_ID,
    4: MAT_ID,
}


def basis_cocycles(v: int, p: int, y_param: int = 0):
    """The four spanning cocycles f1, f2, g_nr, g_ram on the tame local
    group, as value tables on (sigma_v, tau_v) with entries in Ad^0 of the
    trivial residual representation.

    g_ram depends on the y-parameter of the deformation being twisted
    through w = (y/p) / ((v-1)/p) mod p.
    """
    if v % p != 1:
        raise ValueError("v must be 1 mod p at a trivial prime")
    if (v - 1) % (p * p) == 0:
        raise ZeroDivisionError(
            "v = 1 mod p^2: (v-1)/p is not a unit")
    if y_param % p != 0:
        raise ValueError("y must lie in the maximal ideal")
    E = (0, 1, 0, 0)
    F = (0, 0, 1, 0)
    zero = (0, 0, 0, 0)
    u = ((v - 1) // p) % p
    w = (y_param // p) * pow(u, -1, p) % p
    g_ram_tau = ((-w) % p, 0, 0, w % p)
    out = {
        "f1": {"sigma": E, "tau": zero},
        "f2": {"sigma": zero, "tau": E},
        "g_nr": {"sigma": F, "tau": zero},
        "g_ram": {"sigma": F, "tau": g_ram_tau},
    }
    # the 1-cocycle identity against the tame relation (trivial action),
    # (v-1) f(tau) = 0 in F_p, holds since v = 1 mod p
    return out


# -- membership in the tame families --------------------------------------------


def _standard_form_params(data: LocalTameData):
    """Extract (x, y) if (Sigma, Tau) literally has the standard shape
    (v, x; 0, 1), (1, y; 0, 1); None otherwise."""
    mod = data.p**data.level
    S, T = data.Sigma, data.Tau
    if S[2] % mod or T[2] % mod:
        return None
    if T[0] % mod != 1 or T[3] % mod != 1:
        return None
    if S[0] % mod != data.v % mod or S[3] % mod != 1:
        return None
    return S[1] % mod, T[1] % mod


def _subtype_valuations_ok(x: int, y: int, cond: str, p: int,
                           level: int) -> bool:
    vx = val_int(x % p**level, p, level)
    vy = val_int(y % p**level, p, level)
    if cond == "nr":
        return vx >= min(2, level) and vy >= min(2, level)
    return vx >= min(2, level) and vy == 1


def local_condition_membership(data: LocalTameData, cond_type) -> bool:
    """Literal membership after un-conjugating by the type's fixed
    matrix: the representative must have the parametrized shape with the
    subtype's (x, y) valuations."""
    kind, sub = _condition_kind(cond_type)
    mod = data.p**data.level
    B = TYPE_CONJUGATORS[kind]
    Binv = mat_inv(B, mod)
    S = mat_mul(mat_mul(Binv, data.Sigma, mod), B, mod)
    T = mat_mul(mat_mul(Binv, data.Tau, mod), B, mod)
    unconj = LocalTameData(data.v, data.p, data.level, S, T)
    params = _standard_form_params(unconj)
    if params is None:
        return False
    x, y = params
    return _subtype_valuations_ok(x, y, sub, data.p, data.level)


def _condition_kind(cond_type):
    """Map a condition name to (conjugation type 1-4, 'nr'|'ram')."""
    table = {
        "type1": (1, "nr"), "type2": (2, "ram"),
        "type3": (3, "nr"), "type4": (4, "ram"),
    }
    if cond_type not in table:
        raise ValueError(f"unknown condition type {cond_type}")
    return table[cond_type]


def membership_up_to_equivalence(data: LocalTameData, cond_type) -> bool:
    """Membership as a deformation: search for a conjugator A = Id mod p
    bringing (Sigma, Tau) to the parametrized shape, then check the
    subtype's (x, y) valuations.  The shape is (v, x; 0, 1), (1, y; 0, 1),
    that of `standard_family_element`: psi = chi (weight 2), so
    psi(sigma_v) = v and no scalar multiplies the sigma_v image.

    Any such A factors as a product of layers Id + p^j Y_j (j = 1, 2,
    ...), and a layer-j factor moves the shape conditions only from the
    p^(j+1) digit on; so the intermediate state after layer j must have
    conditions vanishing mod p^(j+1), and the admissible Y_j form an
    affine F_p-space.  Both images are scalar mod p at a trivial prime,
    which makes the digit-moving map L: Y -> [Y, W_1] independent of the
    layer and of the branch (states agree mod p^2 throughout); it is
    probed once and every solution branch is explored.

    Once the p^0 and p^1 digits of the conditions vanish, they are all
    0 mod p^2, so a change d moves the p^2 digit by d / p^2 mod p with no
    carry.  Conjugating by Id + pY changes (Sigma, Tau) by
    p[Y, W]A^-1 = p[Y, W] - p^2 [Y, W] Y mod p^3, which depends only on
    W mod p^2.  So L depends only on (p, Sigma mod p^2, Tau mod p^2) in
    the type's coordinates, and `_layer_solver` factors it once per such
    key.  Below level 3 the root is already a leaf (layer 1 would fix the
    p^2 digit, which does not exist), so L is never read there and is
    not probed.
    """
    kind, sub = _condition_kind(cond_type)
    p, level, v = data.p, data.level, data.v
    mod = p**level
    B = TYPE_CONJUGATORS[kind]
    Binv = mat_inv(B, mod)
    S0 = mat_mul(mat_mul(Binv, data.Sigma, mod), B, mod)
    T0 = mat_mul(mat_mul(Binv, data.Tau, mod), B, mod)

    def cond_values(S, T):
        return ((S[2]) % mod, (S[0] - v) % mod, (S[3] - 1) % mod,
                (T[2]) % mod, (T[0] - 1) % mod, (T[3] - 1) % mod)

    def digits(vals, t):
        pt = p**t
        return [(x // pt) % p for x in vals]

    vals0 = cond_values(S0, T0)
    if any(x % p for x in vals0):
        return False  # digit-0 defects are impossible
    if level >= 2 and any(digits(vals0, 1)):
        return False  # no conjugator = Id mod p moves the p^1 digit
    if level >= 3:
        p2 = p * p
        E, pivots, offsets = _layer_solver(
            p, tuple(x % p2 for x in S0), tuple(x % p2 for x in T0))

    nodes = 0

    def dfs(S, T, j):
        # layer j fixes the p^(j+1) digit; digits 0..level-1 are done
        # once j reaches level-1
        nonlocal nodes
        nodes += 1
        if nodes > MEMBERSHIP_NODE_BOUND:
            raise SizeBound("normal-form search exceeded node bound")
        if j >= level - 1:
            x = S[1] % mod
            y = T[1] % mod
            return _subtype_valuations_ok(x, y, sub, p, level)
        # solve L Y = b: E b is the reduced right-hand side, zero below
        # the rank iff the system is consistent
        b = [(-d) % p for d in digits(cond_values(S, T), j + 1)]
        e = [sum(r * x for r, x in zip(row, b)) % p for row in E]
        if any(e[len(pivots):]):
            return False
        y0 = [0, 0, 0]
        for i, col in enumerate(pivots):
            y0[col] = e[i]
        for off in offsets:
            Y = ((y0[0] + off[0]) % p, (y0[1] + off[1]) % p,
                 (y0[2] + off[2]) % p, 0)
            S2, T2 = _conjugate_pair(S, T, Y, j, p, mod)
            if dfs(S2, T2, j + 1):
                return True
        return False

    return dfs(S0, T0, 1)


@lru_cache(maxsize=None)
def _layer_solver(p: int, S0: tuple, T0: tuple):
    """Factor the digit-moving map L of `membership_up_to_equivalence`
    for the key (p, S0 mod p^2, T0 mod p^2).

    L is probed at modulus p^3 with layer j = 1 and Y running over a
    complement of the scalars: column i is the change of the six
    condition entries under Id + p Y_i, read as its p^2 digit.  Returns
    plain-int tuples (E, pivots, offsets) from one elimination of
    [L | Id] mod p (`linalg._rref_mod`), which gives [E L | E]: E is
    invertible with E L the reduced row echelon form of L, pivots are its
    pivot columns, and offsets are the p^(dim ker L) kernel elements in
    the order of itertools.product over the coefficients of the kernel
    basis read off E L (`_kernel_basis`).
    """
    mod = p**3
    cols = []
    for Y in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)):
        S2, T2 = _conjugate_pair(S0, T0, Y, 1, p, mod)
        cols.append([((new[i] - old[i]) % mod) // (p * p)
                     for new, old in ((S2, S0), (T2, T0))
                     for i in (2, 0, 3)])
    R, pivots = _rref_mod([list(row) + unit for row, unit
                           in zip(zip(*cols), _unit_vectors(6))], p)
    E = tuple(tuple(row[3:]) for row in R)
    K = _kernel_basis(R, pivots, 3, p)
    pivots = tuple(col for col in pivots if col < 3)
    return E, pivots, tuple(_coset((0, 0, 0), K, p))


def _conjugate_pair(S, T, Y, j, p, mod):
    """Conjugate both matrices by A = Id + p^j Y."""
    A = (1 + p**j * Y[0], p**j * Y[1], p**j * Y[2], 1 + p**j * Y[3])
    A = tuple(x % mod for x in A)
    Ainv = mat_inv(A, mod)
    return (mat_mul(mat_mul(A, S, mod), Ainv, mod),
            mat_mul(mat_mul(A, T, mod), Ainv, mod))


# -- versality degree of the tame families --------------------------------------


def standard_family_element(v: int, p: int, k: int, x: int, y: int,
                            cond_type) -> LocalTameData:
    """The parametrized deformation (v, x; 0, 1), (1, y; 0, 1) with
    parameters (x, y) mod p^k, conjugated into the given type's
    coordinates."""
    kind, _ = _condition_kind(cond_type)
    mod = p**k
    S = (v % mod, x % mod, 0, 1)
    T = (1, y % mod, 0, 1)
    B = TYPE_CONJUGATORS[kind]
    Binv = mat_inv(B, mod)
    S = mat_mul(mat_mul(B, S, mod), Binv, mod)
    T = mat_mul(mat_mul(B, T, mod), Binv, mod)
    return LocalTameData(v, p, k, S, T)


def family_parameter_grid(p: int, k: int, sub: str):
    """(x, y) classes mod p^k with the subtype's valuations."""
    mod = p**k
    if sub == "nr":
        xs = list(range(0, mod, min(p * p, mod)))
        ys = list(range(0, mod, min(p * p, mod)))
    else:
        xs = list(range(0, mod, min(p * p, mod)))
        ys = [y for y in range(0, mod, p) if (y // p) % p != 0]
        if not ys:
            ys = [p % mod] if p < mod else [0]
    return [(x, y) for x in xs for y in ys]


def twist_tame(data: LocalTameData, f_sigma, f_tau) -> LocalTameData:
    """(Id + p^(k-1) f) applied to (Sigma, Tau)."""
    p, k = data.p, data.level
    mod = p**k
    e = p**(k - 1)
    A = (1 + e * f_sigma[0], e * f_sigma[1],
         e * f_sigma[2], 1 + e * f_sigma[3])
    Bm = (1 + e * f_tau[0], e * f_tau[1],
          e * f_tau[2], 1 + e * f_tau[3])
    return LocalTameData(
        data.v, p, k,
        mat_mul(tuple(a % mod for a in A), data.Sigma, mod),
        mat_mul(tuple(b % mod for b in Bm), data.Tau, mod))


def _conjugated_cocycle(cs, name, kind, p):
    """Transport a basis cocycle into the type's coordinates."""
    B = TYPE_CONJUGATORS[kind]
    Binv = mat_inv(B, p)
    out = {}
    for part in ("sigma", "tau"):
        out[part] = mat_mul(mat_mul(B, cs[name][part], p), Binv, p)
    return out


def _strict_class_representative(y: int, p: int, k: int) -> int:
    """The y of the representative (0, y_rep) of the strict-equivalence
    class of a grid point (x, y) mod p^k, k >= 3: the leading p-adic digit
    of y at its valuation, or 0 when y = 0."""
    j = val_int(y, p, k)
    return y // p**j % p * p**j


def versal_twists_stable(cond_type, v: int, p: int, k: int) -> bool:
    """Whether C_v(Z/p^k) is stable under every N_v twist at level k, for
    psi = chi (weight 2): psi(sigma_v) = v, and the family's sigma_v
    images are (v, x; 0, 1) with no scalar.

    For k >= 3 a twist by c1 f1 + c2 f2 shifts (x, y) by p^(k-1)(c1, c2)
    inside their valuation classes (an exact matrix identity), so the c3
    component of the twist is the only one that needs the equivalence
    search.  At k = 2 the shift by p leaves the classes and the full
    (c1, c2, c3) cube is run.

    For k >= 3 the c3 != 0 search runs once per strict-equivalence class
    of the grid (conjugation by A = Id mod p), on the representative
    (0, y_rep) of `_strict_class_representative`: p - 1 classes for ram,
    1 + (k - 2)(p - 1) for nr.  In standard coordinates (before the
    type's conjugator B) the grid has x in p^2 Z and v_p(v - 1) = 1, and

        A = B (1, t; 0, 1) diag(d, 1) B^-1,
        t = (x/p) ((1 - v)/p)^-1,  d = (y/p^j) (y_rep/p^j)^-1, j = v_p(y)

    (d = 1 when y = 0) is Id mod p with A twist(0, y_rep) A^-1 =
    twist(x, y) literally mod p^k for every c3: diag(d, 1) takes the
    (1, 2) entries 0 and y_rep to 0 and y, (1, t; 0, 1) adds t (1 - v) = x
    to the (1, 2) entry of (v, 0; 0, 1) and fixes (1, y; 0, 1), A fixes
    every twist factor Id + p^(k-1) M mod p^k, and the g cocycle depends
    on y only mod p^2, where y and y_rep agree.  Membership up to
    equivalence is a class function, so the representative's verdict is
    every member's.  The literal c3 = 0 check is not a class function and
    runs on every grid point.
    """
    kind, sub = _condition_kind(cond_type)
    basis_cocycles(v, p)  # rejects v that is not a trivial prime
    g_name = "g_nr" if sub == "nr" else "g_ram"
    mod, e = p**k, p**(k - 1)
    combos = (list(itertools.product(range(p), repeat=3)) if k == 2
              else [(0, 0, c3) for c3 in range(p)])
    memo = {}
    for (x, y) in family_parameter_grid(p, k, sub):
        for (c1, c2, c3) in combos:
            x2 = (x + e * c1) % mod
            y2 = (y + e * c2) % mod
            if c3 and k >= 3:
                x2, y2 = 0, _strict_class_representative(y2, p, k)
            key = (x2, y2, c3)
            if key in memo:
                if not memo[key]:
                    return False
                continue
            elem = standard_family_element(v, p, k, x2, y2, cond_type)
            if c3 == 0:
                ok = local_condition_membership(elem, cond_type)
            else:
                cocycles = basis_cocycles(v, p, y_param=y2 % p**2)
                g = _conjugated_cocycle(cocycles, g_name, kind, p)
                scaled_sigma = tuple(c3 * t % p for t in g["sigma"])
                scaled_tau = tuple(c3 * t % p for t in g["tau"])
                twisted = twist_tame(elem, scaled_sigma, scaled_tau)
                ok = membership_up_to_equivalence(twisted, cond_type)
            memo[key] = ok
            if not ok:
                return False
    return True


def highly_versal_degree(cond_type, v: int, p: int, k_max: int) -> int:
    """Smallest m such that N_v-twisting stabilizes C_v(Z/p^k) for every
    m <= k <= k_max, with an escape at level m-1."""
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    stable = {k: versal_twists_stable(cond_type, v, p, k)
              for k in range(2, k_max + 1)}
    m = None
    for k in range(2, k_max + 1):
        if all(stable[j] for j in range(k, k_max + 1)) and \
                (k == 2 or not stable[k - 1]):
            m = k
            break
    if m is None:
        raise SizeBound(
            f"no versality threshold within k_max={k_max}: {stable}")
    return m


# -- ordinary condition ----------------------------------------------------------


def ordinary_condition_check(images, inertia_flags, cochar_values,
                             p: int, n: int) -> bool:
    """Upper-triangularizability by a conjugator = Id mod p, with inertia
    acting on the (1,1) entry through the designated cocharacter and
    trivially on the (2,2) entry.

    images: matrices mod p^n for the subgroup's elements (in order);
    inertia_flags: booleans marking inertia elements; cochar_values: the
    chi^(k-1)-cocharacter values mod p^n for inertia elements (None
    elsewhere).
    """
    mod = p**n
    # candidate stable lines reduce to the standard line mod p: (1, t p)
    for t in range(p**(n - 1)):
        vec = (1, (t * p) % mod)
        ok = True
        for m, is_inertia, topchar in zip(images, inertia_flags,
                                          cochar_values):
            # m fixes the line spanned by vec?
            w = (m[0] * vec[0] + m[1] * vec[1],
                 m[2] * vec[0] + m[3] * vec[1])
            # w = lambda * vec for some scalar: vec[0] = 1 forces
            # lambda = w[0]
            lam = w[0] % mod
            if (w[1] - lam * vec[1]) % mod:
                ok = False
                break
            if is_inertia:
                # (1,1)-action = cocharacter, (2,2)-action trivial
                if (lam - topchar) % mod:
                    ok = False
                    break
                det = mat_det(m, mod)
                if (det - topchar) % mod:  # quotient action trivial
                    ok = False
                    break
        if ok:
            return True
    return False


# -- scenario runner --------------------------------------------------------------


class OrdinaryCondition:
    """Ordinary local condition bound to a labelled subgroup."""

    def __init__(self, model, subgroup_label, inertia_indices,
                 cochar_by_element, p):
        self.model = model
        self.label = subgroup_label
        self.inertia = set(inertia_indices)
        self.cochar = cochar_by_element
        self.p = p

    def holds(self, rep) -> bool:
        H = self.model.subgroups[self.label]
        images = [rep.images[i] for i in H]
        flags = [i in self.inertia for i in H]
        chars = [self.cochar.get(i, 0) for i in H]
        return ordinary_condition_check(images, flags, chars,
                                        self.p, rep.n)


class TameCondition:
    """Tame family condition at a labelled subgroup generated by (sigma,
    tau) images."""

    def __init__(self, model, subgroup_label, sigma_index, tau_index,
                 v, cond_type):
        self.model = model
        self.label = subgroup_label
        self.sigma_index = sigma_index
        self.tau_index = tau_index
        self.v = v
        self.cond_type = cond_type

    def holds(self, rep) -> bool:
        S = rep.images[self.sigma_index]
        T = rep.images[self.tau_index]
        try:
            data = LocalTameData(self.v, rep.p, rep.n, S, T)
        except TameRelationError:
            return False
        return membership_up_to_equivalence(data, self.cond_type)


def _is_int(x) -> bool:
    return type(x) is int


def _check_matrices(spec: dict, key: str, count: int) -> None:
    mats = spec.get(key)
    if (not isinstance(mats, list) or len(mats) != count
            or not all(isinstance(m, list) and len(m) == 4
                       and all(map(_is_int, m)) for m in mats)):
        raise ParseError(f"{key} must hold one matrix of 4 ints per "
                         f"group generator ({count}), got {mats!r}")


def _check_scenario(spec) -> None:
    """Raise ParseError unless spec has the fields run_scenario reads,
    with the right types: p an odd prime, levels and start_level ints
    >= 1 with start_level <= levels, a permutation group or a matrix
    group with unit determinants, one 2x2 matrix (4 ints) per group
    generator in rhobar, invertible mod p (and in start_images above
    level 1), and well-formed subgroups."""
    if not isinstance(spec, dict):
        raise ParseError(
            f"a scenario is a JSON object, got {type(spec).__name__}")
    p = spec.get("p")
    if not _is_int(p) or p == 2 or not is_probable_prime(p):
        raise ParseError(f"p must be an odd prime, got {p!r}")
    for key in ("levels", "start_level"):
        value = spec.get(key, 1)
        if not _is_int(value) or value < 1:
            raise ParseError(
                f"{key} must be an integer >= 1, got {value!r}")
    if spec.get("start_level", 1) > spec.get("levels", 2):
        # run_scenario lifts from start_level up to levels + 1
        raise ParseError(f"start_level {spec['start_level']} is above "
                         f"levels {spec.get('levels', 2)}: nothing to lift")
    gspec = spec.get("group")
    kind = gspec.get("kind") if isinstance(gspec, dict) else None
    if kind not in ("permutations", "matrices"):
        raise ParseError("group kind must be permutations or matrices, "
                         f"got {kind!r}")
    gens = gspec.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ParseError("group generators must be a nonempty list")
    if kind == "matrices":
        _check_matrices(gspec, "generators", len(gens))
        modulus = gspec.get("modulus")
        if not _is_int(modulus) or modulus < 2:
            raise ParseError(
                f"matrix modulus must be an integer >= 2, got {modulus!r}")
        if any(gcd(mat_det(tuple(g), modulus), modulus) != 1 for g in gens):
            raise ParseError("matrix generators must have a determinant "
                             f"prime to the modulus {modulus}")
    elif not all(isinstance(g, list) and len(g) == len(gens[0])
                 and all(map(_is_int, g)) and sorted(g) == list(range(len(g)))
                 for g in gens):
        raise ParseError("permutation generators must be permutations of "
                         "0..m-1 of one length m")
    _check_matrices(spec, "rhobar", len(gens))
    if any(mat_det(tuple(m), p) == 0 for m in spec["rhobar"]):
        raise ParseError(f"rhobar images must be invertible mod {p}")
    base, mod = spec["rhobar"], p
    if spec.get("start_level", 1) > 1:
        _check_matrices(spec, "start_images", len(gens))
        base, mod = spec["start_images"], p**spec["start_level"]
    dets = spec.get("det", [mat_det(tuple(m), p) for m in spec["rhobar"]])
    if (not isinstance(dets, list) or len(dets) != len(gens)
            or not all(map(_is_int, dets))):
        raise ParseError("det must hold one int per group generator "
                         f"({len(gens)}), got {dets!r}")
    # the set-theoretic lift can only fix a determinant it reduces to
    if any((d - mat_det(tuple(m), mod)) % mod for d, m in zip(dets, base)):
        raise ParseError(f"det does not reduce mod {mod} to the "
                         "determinants of the generator images")
    if spec.get("module", "ad0") not in SUBMODULE_BASIS:
        raise ParseError(f"unknown module {spec['module']!r}")
    _check_subgroups(spec.get("subgroups", {}), p)


def _check_subgroups(subgroups, p: int) -> None:
    """Raise ParseError unless subgroups maps labels to objects
    {generators: [int >= 0], condition?: {type, ...}} whose condition
    type is none, ordinary (inertia: [int], cochar: {index: int}) or
    tame1..tame4 (sigma, tau: int >= 0, v: int, a trivial prime: v = 1
    mod p and v != 1 mod p^2, as `basis_cocycles` requires).  Indices are
    checked against |G| by run_scenario once the group is built."""
    if not isinstance(subgroups, dict):
        raise ParseError(f"subgroups must be an object, got {subgroups!r}")
    for label, sub in subgroups.items():
        gens = sub.get("generators") if isinstance(sub, dict) else None
        if not isinstance(gens, list) or not all(
                _is_int(i) and i >= 0 for i in gens):
            raise ParseError(f"subgroup {label!r} needs generators, a list "
                             f"of element indices, got {sub!r}")
        cond = sub.get("condition", {"type": "none"})
        kind = cond.get("type") if isinstance(cond, dict) else None
        if kind == "ordinary":
            inertia = cond.get("inertia", [])
            cochar = cond.get("cochar", {})
            ok = (isinstance(inertia, list) and all(map(_is_int, inertia))
                  and isinstance(cochar, dict)
                  and all(k.isdecimal() and _is_int(x)
                          for k, x in cochar.items()))
        elif kind in ("tame1", "tame2", "tame3", "tame4"):
            ok = (all(_is_int(cond.get(k)) and cond[k] >= 0
                      for k in ("sigma", "tau", "v"))
                  and cond["v"] % p == 1 and cond["v"] % (p * p) != 1)
        else:
            ok = kind == "none"
        if not ok:
            raise ParseError(f"subgroup {label!r} has a malformed condition "
                             f"{cond!r}")


def _extend(model, gen_images, mul, what: str):
    """Images of every element, or ParseError when the generator images
    break a relation of the group."""
    try:
        return model.extend_homomorphism(gen_images, mul)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def run_scenario(spec: dict) -> dict:
    """Execute a lift-lab scenario: build the model, extend rho-bar, and
    lift step by step, reporting a verdict per step."""
    from .group_model import (group_from_matrices,
                              group_from_permutations)
    _check_scenario(spec)
    p = spec["p"]
    target = spec.get("levels", 2)
    gspec = spec["group"]
    if gspec["kind"] == "permutations":
        model = group_from_permutations(gspec["generators"])
    else:
        model = group_from_matrices(gspec["generators"],
                                    gspec["modulus"])
    rhobar_gen = [tuple(m) for m in spec["rhobar"]]
    images = _extend(model, rhobar_gen, lambda a, b: mat_mul(a, b, p),
                     "rhobar")
    rep = RepresentationModPn(model, p, 1, images)
    start = spec.get("start_level", 1)
    if start > 1:
        mod_s = p**start
        start_images = _extend(
            model, [tuple(m) for m in spec["start_images"]],
            lambda a, b: mat_mul(a, b, mod_s), "start_images")
        rep = RepresentationModPn(model, p, start, start_images)
        if rep.rhobar() != images:
            raise ParseError("start_images do not reduce to rhobar")
    mod_target = p**(target + 1)
    det_gen = [d % mod_target for d in spec.get(
        "det", [mat_det(m, p) for m in rhobar_gen])]
    det_by_element = _extend(model, det_gen,
                             lambda a, b: a * b % mod_target, "det")
    M = AdjointModule(model, images, spec.get("module", "ad0"), p=p)
    conditions = []
    for label, sub in spec.get("subgroups", {}).items():
        cond = sub.get("condition", {"type": "none"})
        kind = cond["type"]
        if kind == "ordinary":
            inertia = cond.get("inertia", [])
            cochar = {int(k): v for k, v in cond.get("cochar", {}).items()}
            named = inertia + list(cochar)
        else:
            named = [] if kind == "none" else [cond["sigma"], cond["tau"]]
        if not all(0 <= i < len(model) for i in sub["generators"] + named):
            raise ParseError(f"subgroup {label!r} names an element index "
                             f"outside 0..{len(model) - 1}")
        model.label_subgroup(label, sub["generators"])
        if kind == "ordinary":
            conditions.append(
                (label, OrdinaryCondition(model, label, inertia,
                                          cochar, p)))
        elif kind != "none":
            conditions.append(
                (label, TameCondition(
                    model, label, cond["sigma"], cond["tau"],
                    cond["v"], "type" + kind[-1])))
    steps = []
    current = rep
    for n in range(start, target + 1):
        det_target = [d % p**(n + 1) for d in det_by_element]
        try:
            status, result = lift_step(current, det_target, M, conditions)
        except (LocalTwistUnrealizable, SizeBound) as exc:
            steps.append({"level": n + 1, "status": "failed",
                          "reason": f"{type(exc).__name__}: {exc}"})
            break
        if status == "obstructed":
            steps.append({"level": n + 1, "status": "obstructed"})
            break
        steps.append({"level": n + 1, "status": "ok"})
        current = result
    return {
        "name": spec.get("name", "scenario"),
        "p": p,
        "group_order": len(model),
        "steps": steps,
        "reached_level": current.n,
    }
