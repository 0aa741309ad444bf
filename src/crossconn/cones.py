"""Normal-cone semigroups: the semidirect product of G^Lambda with the
right-zero semigroup Lambda, and its opposite twin over G^I and I.

A cone is a tuple over the object set plus a vertex, and a set of cones
is one batch (values, vertices), an (m, k) array of group indices and an
(m,) array of vertices.  The semigroup product broadcasts one coordinate
of the second factor across the first factor's tuple: on the right for
the left-ideal side, on the left for the right-ideal side.  Only the left
side is written out, as `kernel.mul_L`, the product every cone table is
built from.  The right side is the left side over the opposite group
(and, for principal cones, of the opposite semigroup
S^op = M[G^op; Lambda, I; P^T]), so a right-hand product is
`kernel.mul_L` over `group.opposite.array`.

T_L = G^Lambda x Lambda is one batch (`enumerate_TL`), and `cone_table`
its table.  The action of the objects on tuples (`act`) and the closed
form of the idempotents (`is_idempotent_cone`) take batches too: the T_L
checks of `verify.cone_suite` hold `kernel.mul_L` against them.
`injectivity_criterion` reads the matrix's array alone: one
`kernel.factors` pass of the columns of P through each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotClosed
from .groups import FiniteGroup
from .rees import SandwichMatrix


def act(k, values: np.ndarray) -> np.ndarray:
    """Left action of objects on tuples: each tuple's k-th coordinate broadcast
    across it.  The tuples (rows of values) and the objects k broadcast
    against each other; the result has their broadcast shape."""
    values, at = np.broadcast_arrays(values, np.expand_dims(k, -1))
    return np.broadcast_to(np.take_along_axis(values, at[..., :1], axis=-1), values.shape)


def is_idempotent_cone(group: FiniteGroup, cones) -> np.ndarray:
    """Closed form, for a batch of cones: the coordinate at the vertex is the identity."""
    values, vertices = cones
    at = np.take_along_axis(values, np.expand_dims(vertices, -1), axis=-1)
    return at[..., 0] == group.identity


def injectivity_criterion(P: SandwichMatrix) -> tuple[int, int, int] | None:
    """The witness that distinct elements can induce one principal left cone,
    or None when distinct elements always induce distinct ones.

    The criterion fails exactly when two different columns agree up to a
    constant right factor: p[lam][i1] == p[lam][i2] * g for every lam.
    `kernel.factors` of the columns through themselves gives that g for
    every (i1, i2) at once; the witness is the first (g, i1, i2) with
    i1 != i2, in that order.
    """
    G, columns = P.group, P.array.T
    g = kernel.factors(G.array, G.inverse, columns, columns)
    np.fill_diagonal(g, -1)
    i1, i2 = np.nonzero(g >= 0)  # in (i1, i2) order, so argmin takes the first of equal g
    if not len(i1):
        return None
    k = int(np.argmin(g[i1, i2]))
    return int(g[i1[k], i2[k]]), int(i1[k]), int(i2[k])


class CosetHandle(NamedTuple):
    """Canonical representative of a coset of the diagonal copy of G.

    side 'left' stands for tuple*G, side 'right' for G*tuple (the left
    coset over the opposite group); in both cases the representative has
    the identity in coordinate 0, so two cosets are equal exactly when
    their handles are equal.
    """

    side: str
    canonical: tuple[int, ...]


def enumerate_TL(group: FiniteGroup, n_lambda: int) -> tuple[np.ndarray, np.ndarray]:
    """All of G^Lambda x Lambda as one batch (values, vertices), in
    lexicographic (tuple, vertex) order: |G|^|Lambda| |Lambda| cones of
    |Lambda| entries each, unbounded here.  `verify` builds it only for a
    check whose cost is within its budget (`verify.BUDGET`)."""
    if n_lambda < 1:
        raise IndexOutOfRange(f"need at least one object, got {n_lambda}")
    # tuple k holds the |Lambda| base-|G| digits of k, most significant first
    # (numpy's `indices` would need an axis per object, at most 64)
    place = group.order ** np.arange(n_lambda - 1, -1, -1)
    tuples = np.arange(group.order**n_lambda)[:, None] // place % group.order
    return np.repeat(tuples, n_lambda, axis=0), np.tile(np.arange(n_lambda), len(tuples))


def cone_table(group: FiniteGroup, cones) -> np.ndarray:
    """Multiplication table of a closed batch of cones under mul_L, indexed by
    batch order, from `kernel.cone_product_table`.
    The right-side table is the one over `group.opposite`."""
    table = kernel.cone_product_table(group.array, group.inverse, kernel.ConeClasses(cones))
    bad = kernel.first_hole(table)
    if bad is not None:
        raise NotClosed(f"cone {bad[0]} times cone {bad[1]} is not in the set")
    return table
