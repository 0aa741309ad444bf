"""The principal-ideal categories of a Rees matrix semigroup.

Both are connected groupoids: objects are indexed by Lambda (left
ideals) or by I (right ideals), and every hom-set is a copy of the
ground group.  Composition is written diagrammatically (left to right)
everywhere.  The right-ideal category of S is the left-ideal category of
S^op = M[G^op; Lambda, I; P^T]: its morphisms are left translations, so
it is built over the opposite group and realized from S.opposite, with
no second code path.

A `Morphism` whose fields are arrays stands for a batch of arrows, and
`ArrowCategory`'s methods take such a batch elementwise, broadcasting as
numpy arrays do, with one array step per call: `morphisms()` is every
arrow of the category as one batch.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotComposable, SizeGuardExceeded
from .groups import FiniteGroup
from .rees import DEFAULT_SIZE_GUARD, ReesSemigroup


class Morphism(NamedTuple):
    """An arrow dom -> cod carrying a group element; with arrays for fields, a
    batch of arrows."""

    dom: int
    cod: int
    g: int


class Cone(NamedTuple):
    """A tuple of group elements indexed by the object set, plus a vertex object."""

    values: tuple[int, ...]
    vertex: int


class ArrowCategory:
    """Category with objects 0..n_objects-1 and hom(a, b) a copy of the group.

    The composite of g1 then g2 carries g1*g2.
    """

    def __init__(self, group: FiniteGroup, n_objects: int):
        if n_objects < 1:
            raise IndexOutOfRange(f"need at least one object, got {n_objects}")
        self.group = group
        self.n_objects = n_objects

    def objects(self) -> range:
        return range(self.n_objects)

    def identity(self, obj: int) -> Morphism:
        return Morphism(obj, obj, self.group.identity)

    def is_identity(self, m: Morphism):
        return (m.dom == m.cod) & (m.g == self.group.identity)

    def compose(self, m1: Morphism, m2: Morphism) -> Morphism:
        """m1 followed by m2; requires m1.cod == m2.dom."""
        if np.any(m1.cod != m2.dom):
            raise NotComposable(
                f"codomain {m1.cod} of the first morphism is not the domain {m2.dom} "
                "of the second"
            )
        return Morphism(m1.dom, m2.cod, _element(self.group, self.group.array, m1.g, m2.g))

    def invert(self, m: Morphism) -> Morphism:
        """Every morphism is an isomorphism; the inverse carries the group inverse."""
        return Morphism(m.cod, m.dom, _element(self.group, np.asarray(self.group.inverse), m.g))

    def normal_factorization(self, m: Morphism) -> tuple[Morphism, Morphism, Morphism]:
        """(retraction, isomorphism, inclusion).

        All inclusions here are identities and every morphism is its own
        epimorphic part, so the factorization is (id, m, id).
        """
        return (self.identity(m.dom), m, self.identity(m.cod))

    def morphisms(self) -> Morphism:
        """Every morphism, in (dom, cod, g) order, as one batch."""
        n = self.n_objects
        return Morphism(*np.indices((n, n, self.group.order)).reshape(3, -1))


def _element(group: FiniteGroup, table: np.ndarray, *index):
    """table[index] for elements of the group: an array for arrays of them, an
    int for elements; an index outside the group raises, as `group.mul` does."""
    if any(np.any((np.asarray(x) < 0) | (np.asarray(x) >= group.order)) for x in index):
        raise IndexOutOfRange(f"element index out of range for order {group.order}")
    out = table[index]
    return out if np.ndim(out) else int(out)


def left_category(group: FiniteGroup, n_lambda: int) -> ArrowCategory:
    """The category of principal left ideals: right translations, plain group order."""
    return ArrowCategory(group, n_lambda)


def right_category(group: FiniteGroup, n_i: int) -> ArrowCategory:
    """The category of principal right ideals: left translations, so the
    composite of g1 then g2 carries g2*g1, which is g1*g2 in the opposite group."""
    return ArrowCategory(group.opposite, n_i)


class RealizationReport(NamedTuple):
    """Outcome of rebuilding a category from actual ideals and translation maps."""

    side: str
    hom_sizes: dict[tuple[int, int], int]
    matched: bool
    mismatches: list[str]


def realize_category(
    S: ReesSemigroup, side: str = "left", size_guard: int = DEFAULT_SIZE_GUARD
) -> RealizationReport:
    """Build the ideal category concretely and match it against the abstract one.

    Objects are the actual ideal sets; morphisms are the translation maps
    x -> x*s for s ranging over eSf, read as columns of S.table().  Each
    induced map must equal the action of exactly one abstract morphism and
    vice versa, and every hom-set must have exactly |G| members.  The
    right side (s*x over fSe) is the left side of S.opposite.

    Every hom-set (dom, cod) is realized in one array pass: eSf of every
    pair of base idempotents, then one row per translation, its images of
    the domain ideal, gathered from the table in blocks of rows.  The maps
    of a hom-set are its distinct rows that stay in the codomain ideal, and
    its abstract maps x -> (x.g * h, x.i, cod) are the same rows for every
    domain.  Sets of rows are counted per hom-set by
    `kernel.distinct_counts`: the two sets of a hom-set are equal when their
    union has no more members than either.  The mismatches are read off the
    masks, hom-set by hom-set.
    """
    if S.size > size_guard:
        raise SizeGuardExceeded(f"|S| = {S.size} exceeds the guard {size_guard}")
    if side == "right":
        return realize_category(S.opposite, "left", size_guard)._replace(side="right")
    if side != "left":
        raise IndexOutOfRange(f"side must be 'left' or 'right', got {side!r}")
    G, n_l, order = S.group, S.n_lambda, S.group.order
    table = S.table()
    objects = np.arange(n_l)
    # the base idempotent (p[obj][0]^-1, 0, obj) of each object, by the index layout
    base = np.asarray(G.inverse)[S.matrix.array[:, 0]] * (S.n_i * n_l) + objects

    # in_middle[dom, cod, s]: whether s is in eSf, for the base idempotents e of dom and f of cod
    in_middle = np.zeros((n_l, n_l, S.size), dtype=bool)
    for rows in kernel.blocks(n_l, S.size * n_l):
        esf = table[table[base[rows]][:, :, None], base]
        in_middle[objects[rows, None, None], objects, esf] = True
    # one translation per row, hom-set by hom-set in (dom, cod) order, s in index order
    dom, cod, s = np.nonzero(in_middle)
    hom = dom * n_l + cod

    # the domain ideal of dom is (g, i, dom) in index order: member j is j*|Lambda| + dom
    width = S.size // n_l
    images = np.empty((len(s), width), dtype=np.int32)
    for rows in kernel.blocks(len(s), width):
        images[rows] = table[dom[rows, None] + n_l * np.arange(width), s[rows, None]]
    leaves = (images % n_l != cod[:, None]).any(axis=1)
    kept = ~leaves

    # row (cod, h): x -> (x.g * h, x.i, cod) on a domain ideal, whatever the domain
    g, i = np.divmod(np.arange(width), S.n_i)
    abstract = (G.array[g].T * S.n_i + i)[None] * n_l + objects[:, None, None]
    n_homs, cods = n_l * n_l, np.arange(n_l * n_l) % n_l
    labels, translations = hom[kept], images[kept]
    maps = kernel.distinct_counts(labels, n_homs, translations)
    members = kernel.distinct_counts(np.repeat(objects, order), n_l, abstract.reshape(-1, width))
    # each hom-set's translations beside its abstract maps, which are its codomain's
    union = kernel.distinct_counts(
        np.concatenate([labels, np.repeat(np.arange(n_homs), order)]),
        n_homs,
        np.concatenate([translations, abstract[cods].reshape(-1, width)]),
    )
    disagree = (union != maps) | (union != members[cods])

    hom_sizes = dict(zip(product(range(n_l), repeat=2), maps.tolist()))
    mismatches: list[str] = []
    for k in np.flatnonzero(disagree | (np.bincount(hom[leaves], minlength=n_homs) > 0)):
        d, c = divmod(int(k), n_l)
        for x in s[leaves & (hom == k)].tolist():
            mismatches.append(f"hom({d},{c}): translation by {S.element(x)} leaves the ideal")
        if maps[k] != order:
            mismatches.append(f"hom({d},{c}) realizes {maps[k]} maps, expected {order}")
        if disagree[k]:
            mismatches.append(f"hom({d},{c}): translation maps and abstract morphisms disagree")

    return RealizationReport(side, hom_sizes, not mismatches, mismatches)
