"""Finite group models: explicit element sets with a multiplication
table, labelled subgroups, and multiplicative extension of generator-level
data (representations, determinant characters) to the whole group.

Groups are built by closure from generators given as permutations or as
matrices over Z/m; elements are canonical tuples.  A homomorphism is
extended along the BFS words and then verified on every (element,
generator) pair, which suffices by induction on word length.
"""

from __future__ import annotations


from .errors import SizeBound


def mat_mul(a, b, m):
    return ((a[0] * b[0] + a[1] * b[2]) % m,
            (a[0] * b[1] + a[1] * b[3]) % m,
            (a[2] * b[0] + a[3] * b[2]) % m,
            (a[2] * b[1] + a[3] * b[3]) % m)


def mat_det(a, m):
    return (a[0] * a[3] - a[1] * a[2]) % m


def mat_inv(a, m):
    d = mat_det(a, m)
    dinv = pow(d, -1, m)
    return (a[3] * dinv % m, -a[1] * dinv % m,
            -a[2] * dinv % m, a[0] * dinv % m)


MAT_ID = (1, 0, 0, 1)


def perm_mul(a, b):
    """(a*b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


class FiniteGroupModel:
    """Explicit finite group: canonical elements, index-based
    multiplication table, generator list, labelled subgroups."""

    def __init__(self, generators, mul, max_size: int = 200):
        self._mul_raw = mul
        elems = []
        index = {}

        def add(x):
            if x not in index:
                index[x] = len(elems)
                elems.append(x)
            return index[x]

        # identity by iterating a generator power (all elements have
        # finite order); simpler: close under multiplication from the
        # generators and locate the identity afterwards
        frontier = [add(g) for g in generators]
        words = {}
        for gi, g in enumerate(generators):
            words[index[g]] = None  # generator marker
        while frontier:
            new_frontier = []
            for i in list(frontier):
                for gj, g in enumerate(generators):
                    prod = mul(elems[i], g)
                    if prod not in index:
                        k = add(prod)
                        words[k] = (i, gj)
                        new_frontier.append(k)
                    if len(elems) > max_size:
                        raise SizeBound(
                            f"group exceeds size bound {max_size}")
            frontier = new_frontier
        # ensure closure (products of non-generator pairs) and identity
        changed = True
        while changed:
            changed = False
            for i in range(len(elems)):
                for j in range(len(elems)):
                    prod = mul(elems[i], elems[j])
                    if prod not in index:
                        k = add(prod)
                        words[k] = None
                        changed = True
                        if len(elems) > max_size:
                            raise SizeBound(
                                f"group exceeds size bound {max_size}")
        self.elements = elems
        self.index = index
        self.generators = [index[g] for g in generators]
        n = len(elems)
        self.table = [[index[mul(elems[i], elems[j])] for j in range(n)]
                      for i in range(n)]
        self._words = words
        # identity and inverses
        self.identity = next(i for i in range(n)
                             if all(self.table[i][j] == j
                                    for j in range(n)))
        self.inverse = [next(j for j in range(n)
                             if self.table[i][j] == self.identity)
                        for i in range(n)]
        self.subgroups: dict[str, list[int]] = {}

    def __len__(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def label_subgroup(self, label: str, generator_indices) -> list[int]:
        """Close the given element indices into a subgroup and record it."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(generator_indices)
        while frontier:
            nxt = []
            for i in frontier:
                for g in gens:
                    k = self.table[i][g]
                    if k not in seen:
                        seen.add(k)
                        nxt.append(k)
            frontier = nxt
        out = sorted(seen)
        self.subgroups[label] = out
        return out

    def extend_homomorphism(self, gen_images, mul_img, verify=True):
        """Extend generator images multiplicatively; returns a list
        indexed by element index.  Raises ValueError if the images do not
        define a homomorphism on this model."""
        n = len(self.elements)
        out = [None] * n
        img_id = None
        # identity image: product over nothing; derive from a generator g
        # with g^k = e
        out[self.identity] = None
        for gi, img in zip(self.generators, gen_images):
            out[gi] = img
        # identity: g * g^(ord-1) = e; easier: walk powers of the first
        # generator until identity
        g0 = self.generators[0]
        acc_idx, acc_img = g0, gen_images[0]
        while acc_idx != self.identity:
            acc_idx = self.table[acc_idx][g0]
            acc_img = mul_img(acc_img, gen_images[0])
        out[self.identity] = acc_img
        # BFS fill: repeatedly extend known * generator
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if out[i] is None:
                    continue
                for gi, img in zip(self.generators, gen_images):
                    k = self.table[i][gi]
                    if out[k] is None:
                        out[k] = mul_img(out[i], img)
                        changed = True
        if any(x is None for x in out):
            raise ValueError("generators do not generate the model")
        if verify:
            for i in range(n):
                for gi, img in zip(self.generators, gen_images):
                    if out[self.table[i][gi]] != mul_img(out[i], img):
                        raise ValueError(
                            "generator images are not compatible with the "
                            "group relations")
        return out


def group_from_permutations(perms, max_size: int = 200
                            ) -> FiniteGroupModel:
    return FiniteGroupModel([tuple(p) for p in perms], perm_mul,
                            max_size=max_size)


def group_from_matrices(mats, modulus: int, max_size: int = 200
                        ) -> FiniteGroupModel:
    gens = [tuple(x % modulus for x in m) for m in mats]
    return FiniteGroupModel(gens, lambda a, b: mat_mul(a, b, modulus),
                            max_size=max_size)


def verify_table_associativity(model: FiniteGroupModel,
                               full_bound: int = 48) -> bool:
    """Full associativity check for small models, sampled beyond."""
    n = len(model)
    t = model.table
    if n <= full_bound:
        rng = range(n)
        return all(t[t[i][j]][k] == t[i][t[j][k]]
                   for i in rng for j in rng for k in rng)
    import random
    rng = random.Random(1)
    return all(
        t[t[i][j]][k] == t[i][t[j][k]]
        for i, j, k in (tuple(rng.randrange(n) for _ in range(3))
                        for _ in range(20000)))
