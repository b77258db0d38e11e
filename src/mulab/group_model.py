"""Finite group models: explicit element sets with a multiplication
table, labelled subgroups, and multiplicative extension of generator-level
data (representations, determinant characters) to the whole group.

Groups are built from generators given as permutations or as matrices
over Z/m by one breadth-first search by right multiplication with the
generators; elements are canonical tuples, numbered in the order the
search finds them.  The search records its tree (each new element as a
found element times a generator), so a homomorphism is extended with one
multiplication per element and then verified on every (element,
generator) pair, which suffices by induction on word length.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

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
    multiplication table, generator list, labelled subgroups.

    tree holds one triple (k, i, j) per element that is not a generator,
    in BFS order: elements[k] = elements[i] * generator j (j indexes the
    generators as given), with elements[i] found before elements[k]."""

    def __init__(self, generators, mul, max_size: int):
        elems = list(dict.fromkeys(generators))
        index = {x: k for k, x in enumerate(elems)}
        tree = []
        # elems is the BFS queue: every element is multiplied on the
        # right by each generator once, in the order it was found
        for i, x in enumerate(elems):
            for j, g in enumerate(generators):
                prod = mul(x, g)
                if prod not in index:
                    index[prod] = len(elems)
                    tree.append((len(elems), i, j))
                    elems.append(prod)
                if len(elems) > max_size:
                    raise SizeBound(f"group exceeds size bound {max_size}")
        # a set closed under right multiplication by the generators is
        # closed under all products
        self.elements = elems
        self.index = index
        self.generators = [index[g] for g in generators]
        self.tree = tree
        self.table = [[index[mul(x, y)] for y in elems] for x in elems]
        row = list(range(len(elems)))
        self.identity = next((i for i, r in enumerate(self.table)
                              if r == row), None)
        if self.identity is None:
            raise ValueError("the generators do not generate a group")
        self.subgroups: dict[str, list[int]] = {}

    def __len__(self):
        return len(self.elements)

    @cached_property
    def table_array(self) -> np.ndarray:
        """The multiplication table as one read-only (n, n) int array,
        built on first use."""
        T = np.asarray(self.table)
        T.flags.writeable = False
        return T

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

    def extend_along_tree(self, gen_images, mul_img):
        """Images of every element, indexed by element index: the
        generator images, then one product per element along the BFS
        tree.  Nothing is checked against the group's relations."""
        out = [None] * len(self.elements)
        for g, img in zip(self.generators, gen_images):
            out[g] = img
        for k, i, j in self.tree:
            out[k] = mul_img(out[i], gen_images[j])
        return out

    def extend_homomorphism(self, gen_images, mul_img):
        """Extend generator images multiplicatively along the BFS tree;
        returns a list indexed by element index.  Raises ValueError if the
        images do not define a homomorphism on this model: every
        (element, generator) pair is checked, which suffices by induction
        on word length."""
        out = self.extend_along_tree(gen_images, mul_img)
        for i, x in enumerate(out):
            for g, img in zip(self.generators, gen_images):
                if out[self.table[i][g]] != mul_img(x, img):
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
