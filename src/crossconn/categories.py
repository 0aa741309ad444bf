"""The principal-ideal categories of a Rees matrix semigroup.

Both are connected groupoids: objects are indexed by Lambda (left
ideals) or by I (right ideals), and every hom-set is a copy of the
ground group.  Composition is written diagrammatically (left to right)
everywhere.  The right-ideal category of S is the left-ideal category of
S^op = M[G^op; Lambda, I; P^T]: its morphisms are left translations, so
it is built over the opposite group and realized from S.opposite, with
no second code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotComposable, SizeGuardExceeded
from .groups import FiniteGroup
from .rees import DEFAULT_SIZE_GUARD, ReesElement, ReesSemigroup


@dataclass(frozen=True)
class Morphism:
    """An arrow dom -> cod carrying a group element."""

    dom: int
    cod: int
    g: int


@dataclass(frozen=True)
class Cone:
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

    def is_identity(self, m: Morphism) -> bool:
        return m.dom == m.cod and m.g == self.group.identity

    def compose(self, m1: Morphism, m2: Morphism) -> Morphism:
        """m1 followed by m2; requires m1.cod == m2.dom."""
        if m1.cod != m2.dom:
            raise NotComposable(
                f"codomain {m1.cod} of the first morphism is not the domain {m2.dom} "
                "of the second"
            )
        return Morphism(m1.dom, m2.cod, self.group.mul(m1.g, m2.g))

    def invert(self, m: Morphism) -> Morphism:
        """Every morphism is an isomorphism; the inverse carries the group inverse."""
        return Morphism(m.cod, m.dom, self.group.inv(m.g))

    def normal_factorization(self, m: Morphism) -> tuple[Morphism, Morphism, Morphism]:
        """(retraction, isomorphism, inclusion).

        All inclusions here are identities and every morphism is its own
        epimorphic part, so the factorization is (id, m, id).
        """
        return (self.identity(m.dom), m, self.identity(m.cod))

    def hom(self, dom: int, cod: int) -> list[Morphism]:
        return [Morphism(dom, cod, g) for g in self.group.elements()]

    def morphisms(self) -> Iterator[Morphism]:
        for dom in self.objects():
            for cod in self.objects():
                for g in self.group.elements():
                    yield Morphism(dom, cod, g)


def left_category(group: FiniteGroup, n_lambda: int) -> ArrowCategory:
    """The category of principal left ideals: right translations, plain group order."""
    return ArrowCategory(group, n_lambda)


def right_category(group: FiniteGroup, n_i: int) -> ArrowCategory:
    """The category of principal right ideals: left translations, so the
    composite of g1 then g2 carries g2*g1, which is g1*g2 in the opposite group."""
    return ArrowCategory(group.opposite, n_i)


@dataclass
class RealizationReport:
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
    """
    if S.size > size_guard:
        raise SizeGuardExceeded(f"|S| = {S.size} exceeds the guard {size_guard}")
    if side == "right":
        return replace(realize_category(S.opposite, "left", size_guard), side="right")
    if side != "left":
        raise IndexOutOfRange(f"side must be 'left' or 'right', got {side!r}")
    G = S.group
    table = S.table()
    g, i, lam = kernel.element_arrays(G.order, S.n_i, S.n_lambda)

    def base_idempotent(obj: int) -> int:
        return S.index(ReesElement(G.inv(S.matrix.entry(obj, 0)), 0, obj))

    hom_sizes: dict[tuple[int, int], int] = {}
    mismatches: list[str] = []
    for dom, cod in product(range(S.n_lambda), repeat=2):
        e, f = base_idempotent(dom), base_idempotent(cod)
        dom_carrier = np.flatnonzero(lam == dom)

        # eSf in index order.  Column s of the table, restricted to the
        # domain ideal, is the translation x -> x*s, keyed by its images.
        middle = np.flatnonzero(np.bincount(table[table[e], f], minlength=S.size))
        images = table[np.ix_(dom_carrier, middle)]
        leaves = (lam[images] != cod).any(axis=0)
        concrete: set[tuple] = set()
        for s, column, out in zip(middle.tolist(), images.T.tolist(), leaves.tolist()):
            if out:
                mismatches.append(
                    f"hom({dom},{cod}): translation by {S.element(s)} leaves the ideal"
                )
            else:
                concrete.add(tuple(column))

        # row h: x -> (x.g * h, x.i, cod) on the domain ideal
        h_images = (G.array[g[dom_carrier], :].T * S.n_i + i[dom_carrier]) * S.n_lambda + cod
        abstract = set(map(tuple, h_images.tolist()))

        hom_sizes[(dom, cod)] = len(concrete)
        if len(concrete) != G.order:
            mismatches.append(
                f"hom({dom},{cod}) realizes {len(concrete)} maps, expected {G.order}"
            )
        if concrete != abstract:
            mismatches.append(
                f"hom({dom},{cod}): translation maps and abstract morphisms disagree"
            )

    return RealizationReport(side, hom_sizes, not mismatches, mismatches)
