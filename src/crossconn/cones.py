"""Normal-cone semigroups: the semidirect product of G^Lambda with the
right-zero semigroup Lambda, and its opposite twin over G^I and I.

A cone is a tuple over the object set plus a vertex.  The semigroup
product broadcasts one coordinate of the second factor across the first
factor's tuple: on the right for the left-ideal side, on the left for
the right-ideal side.  Only the left side is written out.  The right
side is the left side over the opposite group (and, for principal
cones, of the opposite semigroup S^op = M[G^op; Lambda, I; P^T]), so
each right-hand function is one call into its left twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .categories import Cone
from .errors import IndexOutOfRange, NotClosed, ParseError, SizeGuardExceeded
from .groups import FiniteGroup
from .rees import ReesElement, ReesSemigroup, SandwichMatrix

DEFAULT_CONE_BOUND = 100_000


def act(group: FiniteGroup, k: int, values: Sequence[int]) -> tuple[int, ...]:
    """Left action of object k on a tuple: broadcast the k-th coordinate."""
    if not 0 <= k < len(values):
        raise IndexOutOfRange(f"object {k} out of range for a tuple of length {len(values)}")
    return (values[k],) * len(values)


def mul_L(group: FiniteGroup, c1: Cone, c2: Cone) -> Cone:
    """Semidirect product on the left-ideal side: scale c1's tuple on the right
    by c2's value at c1's vertex."""
    g_k = c2.values[c1.vertex]
    return Cone(tuple(group.mul(v, g_k) for v in c1.values), c2.vertex)


def mul_R(group: FiniteGroup, c1: Cone, c2: Cone) -> Cone:
    """Opposite-side product: the broadcast value multiplies on the left,
    which is mul_L over the opposite group."""
    return mul_L(group.opposite, c1, c2)


def _left_cone(S: ReesSemigroup, a: ReesElement) -> Cone:
    return Cone(tuple(S.group.mul(p, a.g) for p in S.matrix.column(a.i)), a.lam)


def principal_pair(S: ReesSemigroup, a: ReesElement) -> tuple[Cone, Cone]:
    """The cone pair induced by translations by a.

    The left cone is column a.i of the sandwich matrix scaled on the
    right by a.g, with vertex a.lam.  The right cone is the left cone of
    (a.g, a.lam, a.i) in S^op: row a.lam scaled on the left by a.g, with
    vertex a.i.
    """
    S._validate(a)
    return _left_cone(S, a), _left_cone(S.opposite, ReesElement(a.g, a.lam, a.i))


@dataclass(frozen=True)
class InjectivityResult:
    holds: bool
    witness: tuple[int, int, int] | None  # (g, i1, i2) with columns i1 = i2 * g


def injectivity_criterion(P: SandwichMatrix) -> InjectivityResult:
    """Whether distinct elements always induce distinct principal left cones.

    Fails exactly when two different columns agree up to a constant right
    factor: p[lam][i1] == p[lam][i2] * g for every lam.
    """
    G = P.group
    for g in G.elements():
        for i1 in range(P.cols):
            for i2 in range(P.cols):
                if i1 == i2:
                    continue
                if all(
                    P.entry(lam, i1) == G.mul(P.entry(lam, i2), g) for lam in range(P.rows)
                ):
                    return InjectivityResult(False, (g, i1, i2))
    return InjectivityResult(True, None)


@dataclass(frozen=True)
class CosetHandle:
    """Canonical representative of a coset of the diagonal copy of G.

    side 'left' stands for tuple*G, side 'right' for G*tuple (the left
    coset over the opposite group); in both cases the representative has
    the identity in coordinate 0, so two cosets are equal exactly when
    their handles are equal.
    """

    side: str
    canonical: tuple[int, ...]


def coset_normalize(group: FiniteGroup, side: str, values: Sequence[int]) -> CosetHandle:
    values = tuple(int(v) for v in values)
    if not values:
        raise IndexOutOfRange("cannot normalize an empty tuple")
    if side == "right":
        group = group.opposite
    elif side != "left":
        raise ParseError(f"side must be 'left' or 'right', got {side!r}")
    a = group.inv(values[0])
    return CosetHandle(side, tuple(group.mul(v, a) for v in values))


def green_cones(group: FiniteGroup, kind: str, c1: Cone, c2: Cone) -> bool:
    """Green's L/R for cones on the left-ideal side.

    L is vertex equality; R is equality of the left cosets tuple*G, which
    never depends on the vertices.
    """
    if kind == "L":
        return c1.vertex == c2.vertex
    if kind == "R":
        left = coset_normalize(group, "left", c1.values)
        right = coset_normalize(group, "left", c2.values)
        return left == right
    raise ParseError(f"unknown Green relation {kind!r}; expected L or R")


def is_idempotent_cone(group: FiniteGroup, c: Cone) -> bool:
    """Closed form: the coordinate at the vertex is the identity."""
    return c.values[c.vertex] == group.identity


def enumerate_TL(group: FiniteGroup, n_lambda: int, bound: int = DEFAULT_CONE_BOUND) -> list[Cone]:
    """All of G^Lambda x Lambda in lexicographic (tuple, vertex) order."""
    if n_lambda < 1:
        raise IndexOutOfRange(f"need at least one object, got {n_lambda}")
    total = (group.order ** n_lambda) * n_lambda
    if total > bound:
        raise SizeGuardExceeded(f"cone semigroup has {total} elements, above the bound {bound}")
    return [
        Cone(values, vertex)
        for values in product(group.elements(), repeat=n_lambda)
        for vertex in range(n_lambda)
    ]


def cone_table(group: FiniteGroup, cones: Iterable[Cone]) -> np.ndarray:
    """Multiplication table of a closed cone set under mul_L, indexed by
    enumeration order, as an int32 array from `kernel.cone_product_table`.
    The table under mul_R is the one over `group.opposite`."""
    M, batch = kernel.group_array(group), kernel.cone_arrays(list(cones))
    table, bad = kernel.cone_product_table(M, batch)
    if bad is not None:
        raise NotClosed(f"cone {bad[0]} times cone {bad[1]} is not in the set")
    return table
