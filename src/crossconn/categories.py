"""The principal-ideal categories of a Rees matrix semigroup.

Both are connected groupoids: objects are indexed by Lambda (left
ideals) or by I (right ideals), and every hom-set is a copy of the
ground group.  Composition is written diagrammatically (left to right)
everywhere.  The right-ideal category of S is the left-ideal category of
S^op = M[G^op; Lambda, I; P^T]: its morphisms are left translations, so
it is built over the opposite group and realized by the same code path,
with S^op's products read through S's own table.

A `Morphism` whose fields are arrays stands for a batch of arrows, and
`ArrowCategory`'s methods take such a batch elementwise, broadcasting as
numpy arrays do, with one array step per call: `morphisms()` is every
arrow of the category as one batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotComposable
from .groups import FiniteGroup
from .rees import ReesElement, ReesSemigroup


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
        return Morphism(m.cod, m.dom, _element(self.group, self.group.inverse, m.g))

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


def realize_category(S: ReesSemigroup, side: str = "left") -> list[str]:
    """Build the ideal category concretely and match it against the abstract
    one, and return the mismatches: none exactly when the two agree.
    S was held to its size guard when it was built, so this takes no guard.

    Objects are the actual ideal sets; morphisms are the translation maps
    x -> x*s for s ranging over eSf, read off S.table().  Each induced map
    must equal the action of exactly one abstract morphism and vice versa,
    and every hom-set must have exactly |G| members.  The right side
    (s*x over fSe) is the left side of S^op = M[G^op; Lambda, I; P^T], whose
    u*v is relabel[table[inverse[v], inverse[u]]]: (g, lam, i) there is (g, i, lam) here.

    eSf of every pair of base idempotents comes first, in blocks of
    domains, as (e*s)*f over the distinct values of e*s only, and gives
    one row per translation, sorted by hom-set (dom, cod).  Then the
    hom-sets go in blocks of about `kernel.BLOCK` entries: each block
    gathers its rows' images of the domain ideal from the table, marks the
    rows that leave the codomain ideal, and counts the distinct rows that
    stay, the hom-set's maps, beside its abstract maps
    x -> (x.g * h, x.i, cod), with `kernel.split_counts`: the two sets of a
    hom-set are equal when their union has no more members than either.
    The abstract maps are the same rows for every domain, built once in
    int32 into object 0, the map into cod adding cod.  Nothing of one block
    outlives it, so beyond S's table this holds O(n) and one block.  The
    mismatches are read off the masks, hom-set by hom-set.
    """
    if side not in ("left", "right"):
        raise IndexOutOfRange(f"side must be 'left' or 'right', got {side!r}")
    table = S.table()
    if side == "left":
        G, n_i, n_l, P = S.group, S.n_i, S.n_lambda, S.matrix.array

        def mul(u, v):
            return table[u, v]

    else:
        G, n_i, n_l, P = S.group.opposite, S.n_lambda, S.n_i, S.matrix.array.T
        g, i, lam = kernel.element_arrays(S.group.order, S.n_i, S.n_lambda)
        relabel = ((g * S.n_lambda + lam) * S.n_i + i).astype(table.dtype)  # S -> S^op
        inverse = np.argsort(relabel).astype(table.dtype)  # S^op -> S

        def mul(u, v):
            return relabel[table[inverse[v], inverse[u]]]

    objects = np.arange(n_l)
    # the base idempotent (p[obj][0]^-1, 0, obj) of each object, by the index layout
    base = G.inverse[P[:, 0]] * (n_i * n_l) + objects

    # one translation per row, sorted by hom-set (dom, cod), s in index order:
    # in_middle[d, cod, s] marks s in eSf, for the base idempotents e of the
    # block's d-th domain and f of cod, a block of domains at a time
    translations = []
    for rows in kernel.blocks(n_l, S.size * n_l):
        e = base[rows]
        eS = np.zeros((len(e), S.size), dtype=bool)  # the distinct values of e*s
        eS[np.arange(len(e))[:, None], mul(e[:, None], np.arange(S.size))] = True
        d, es = np.nonzero(eS)
        in_middle = np.zeros((len(e), n_l, S.size), dtype=bool)
        in_middle[d[:, None], objects, mul(es[:, None], base)] = True
        d, c, x = np.nonzero(in_middle)
        translations.append((d + rows.start, c, x))
    dom, cod, s = (np.concatenate(parts) for parts in zip(*translations))
    # the rows of hom-set k are starts[k]:starts[k + 1]
    hom = dom * n_l + cod
    n_homs, order = n_l * n_l, G.order
    starts = np.searchsorted(hom, np.arange(n_homs + 1))

    # row h: x -> (x.g * h, x.i, 0) on a domain ideal, whatever the domain;
    # the abstract map into cod is the row plus cod
    width = S.size // n_l
    g, i = np.divmod(np.arange(width, dtype=np.int32), n_i)
    abstract = (G.array.astype(np.int32)[g].T * n_i + i) * n_l

    # the domain ideal of dom is (g, i, dom) in index order: member j is j*|Lambda| + dom
    ideal = n_l * np.arange(width, dtype=table.dtype)

    def realize(homs: np.ndarray, rows: slice):
        """For the hom-sets homs, whose translations are the rows: which rows
        leave the codomain ideal, and `kernel.split_counts` of the rows that
        stay beside each hom-set's abstract maps, labelled within the block.
        Its arrays are freed on return, before the next block's."""
        images = mul(dom[rows, None].astype(table.dtype) + ideal, s[rows, None])
        leaving = (images % n_l != cod[rows, None]).any(axis=1)
        split = int(len(leaving) - leaving.sum())
        keys = np.empty((split + len(homs) * order, width + 1), dtype=kernel.KEY_DTYPE)
        keys[:split, 0] = hom[rows][~leaving] - homs[0]
        keys[:split, 1:] = images[~leaving]
        abstract_rows = keys[split:].reshape(len(homs), order, width + 1)
        abstract_rows[..., 0] = np.arange(len(homs))[:, None]
        abstract_rows[..., 1:] = abstract + (homs % n_l).astype(np.int32)[:, None, None]
        return leaving, *kernel.split_counts(keys, split, len(homs))

    leaves = np.empty(len(s), dtype=bool)
    maps, members, union = (np.empty(n_homs, dtype=np.intp) for _ in range(3))
    for block in kernel.blocks(n_homs, 2 * order * width):
        homs = np.arange(block.start, block.stop)
        rows = slice(starts[homs[0]], starts[homs[-1] + 1])
        leaves[rows], maps[block], members[block], union[block] = realize(homs, rows)
    disagree = (union != maps) | (union != members)

    mismatches: list[str] = []
    for k in np.flatnonzero(disagree | (np.bincount(hom[leaves], minlength=n_homs) > 0)):
        d, c = divmod(int(k), n_l)
        for x in s[leaves & (hom == k)].tolist():
            element = ReesElement(*map(int, kernel.coordinates(x, n_i, n_l)))  # S^op's on the right
            mismatches.append(f"hom({d},{c}): translation by {element} leaves the ideal")
        if maps[k] != G.order:
            mismatches.append(f"hom({d},{c}) realizes {maps[k]} maps, expected {G.order}")
        if disagree[k]:
            mismatches.append(f"hom({d},{c}): translation maps and abstract morphisms disagree")

    return mismatches
