"""Row-at-a-time array kernel for the O(|S|^2) scans of the verification suites.

Layout.  Element k of S = M[G; I, Lambda; P] is (g, i, lam) with
k = (g*|I| + i)*|Lambda| + lam, so `element_arrays` gives its coordinates
as three index arrays and `ReesSemigroup.table()` its product as a
read-only (n, n) int32 array of indices, the one format of every
multiplication table up to the table oracle.  G and P own their arrays,
read-only and built once: `FiniteGroup.array` is the Cayley table M,
`SandwichMatrix.array` the (|Lambda|, |I|) matrix P, and G^op's and
P^T's are the views M.T and P.T.  A batch of cones over one object set
is a pair (values, vertices): an (m, k) array of group indices and an
(m,) array of vertices.  One cone is (values (k,), vertex).

Rows.  A scan fixes the first factor a and forms a*b for every b in one
numpy step, so beyond one (n, n) table it holds one (n, k) row of
products at a time and never an (n, n, k) array.

Keys.  Membership is exact.  The key of a cone is its row of int32
coordinates read as one np.void of raw bytes.  A `KeyIndex` sorts the
keys once and finds each query with searchsorted, then confirms the
candidate by equality.  No key is packed into one integer, so none can
overflow, however wide the cones are.  Only sets of cones are indexed,
each once, by `cones.cone_table` (T_L) or `connections.pair_arrays`
(U-Gamma, U-Delta); pairs are found by the positions of their halves.

Linkage.  `right_factor` extracts the scalar g with values == base * g
for a batch of tuples at once, and `is_linked` tests one gamma cone
against a batch of delta cones with it, over M and its transpose M.T.

Cells.  A cell map of the connection bifunctor and the duality chi are
scalings: `bifunctor` and `chi` factor a batch of tuples through a column
of P with `right_factor`, rescale, and return the mask of the tuples that
factor, so a cone outside its cell is a failed comparison rather than an
exception.  The dual bifunctor is `bifunctor` over the opposite
connection's group and matrix.  These serve `crossconn.naturality` and
`crossconn.duality_bijection`; `category.cone_product_agreement` compares
the category's cone product with `mul_L` row by row.

Pairs.  `connections.pair_arrays` holds the linked pairs as a gamma and a
delta batch, U-Gamma and U-Delta with their tables GT and DT, and the
pair table.  The product of two pairs is componentwise, so the pair
table is a gather: with g[p] and d[p] the positions of pair p's halves in
U-Gamma and U-Delta, and `pair_at[x, y]` the pair with halves at x and y
(or -1), row p is pair_at[GT[g[p], g], DT[d, d[p]]].  No product of two
pairs is formed and no pair key is searched.  It also holds the
positions in U-Gamma and U-Delta of each element's principal cones, the
halves of phi.  Every scan of the pairs or of the principal cones in a
suite, and the CLI's report of the pairs, reads it; each suite and
`connections.verify_phi` takes it from its caller.

Tables.  `cone_product_table` is the one place a set of cones becomes
its multiplication table: one row of products under `mul_L` at a time,
looked up in the set's own `KeyIndex`, with -1 wherever a product lies
outside the set.  The set is closed when no entry is -1, and
`first_hole` names the first -1 in row order as the closure witness.
It builds three tables, T_L, U-Gamma and U-Delta, and the linked-pair
table is gathered from the U-Gamma and U-Delta tables; the table oracle
judges the rest of each closed table from the table alone.  The
principal image is U-Gamma and the dual image U-Delta, so
`cones.principal_homomorphism` and `cones.dual_antihomomorphism` are
read off their tables.

The scalar functions (`cones.mul_L`, `connections.s_tilde_mul`,
`connections.is_linked`, `connections.bifunctor_gamma`,
`connections.chi`, `rees.product`) stay the definitions.
`rees.table_matches_product` ties `table()` to `rees.product`, the Rees
product on plain coordinates that `ReesSemigroup.mul` calls, evaluated
in plain Python one row at a time and never through this kernel; tests
compare every scan with its scalar loop.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

KEY_DTYPE = np.int32


def element_arrays(n_g: int, n_i: int, n_lambda: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (g, i, lam) coordinates of elements 0..n-1, in element order."""
    g, rem = np.divmod(np.arange(n_g * n_i * n_lambda), n_i * n_lambda)
    i, lam = np.divmod(rem, n_lambda)
    return g, i, lam


def cone_arrays(cones: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Cones over one object set as (values (m, k), vertices (m,))."""
    values = np.array([c.values for c in cones], dtype=np.intp).reshape(len(cones), -1)
    return values, np.array([c.vertex for c in cones], dtype=np.intp)


def pick(cones: tuple[np.ndarray, np.ndarray], rows):
    """The cones at the given rows (one cone for an int)."""
    values, vertices = cones
    return values[rows], vertices[rows]


def mul_L(M: np.ndarray, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """`cones.mul_L` over the group with Cayley array M: c1's values scaled on
    the right by c2's value at c1's vertex, with c2's vertex.

    Either factor may be one cone or a batch; against a batch the product
    is taken row by row.  The result is always a batch.
    """
    (v1, x1), (v2, x2) = c1, c2
    scale = np.take_along_axis(np.atleast_2d(v2), np.reshape(x1, (-1, 1)), axis=1)
    values = M[v1, scale]
    return values, np.broadcast_to(x2, values.shape[:-1])


def differ(c1, c2) -> np.ndarray:
    """Row mask: where the cones of c1 and c2 differ."""
    return (c1[0] != c2[0]).any(axis=-1) | (c1[1] != c2[1])


def row_keys(*columns: np.ndarray) -> np.ndarray:
    """One exact key per row of the arrays ((m, k) or (m,)) laid side by side."""
    rows = np.ascontiguousarray(np.column_stack(columns), dtype=KEY_DTYPE)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


class KeyIndex:
    """Exact lookup of row keys: sorted once, searched, confirmed by equality."""

    def __init__(self, keys: np.ndarray):
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The position of each key in the indexed list, or -1 where it is absent.
        Among equal keys the last position wins, as in a dict built in list order."""
        at = np.maximum(np.searchsorted(self._sorted, keys, side="right") - 1, 0)
        return np.where(self._sorted[at] == keys, self._order[at], -1)


def right_factor(M: np.ndarray, inverse: np.ndarray, base, values) -> tuple[np.ndarray, np.ndarray]:
    """`connections._right_factor` row by row over the group with Cayley array M:
    g = base[0]^-1 * values[0], and whether values == base * g holds pointwise.

    base and values are (..., k) arrays that broadcast against each other;
    the result is two arrays of their broadcast leading shape.
    """
    base, values = np.broadcast_arrays(base, values)
    g = M[inverse[base[..., 0]], values[..., 0]]
    return g, (M[base, g[..., None]] == values).all(axis=-1)


def is_linked(M: np.ndarray, inverse: np.ndarray, P: np.ndarray, gamma, deltas) -> np.ndarray:
    """`connections.is_linked` of one gamma cone against a batch of delta cones,
    for the sandwich matrix P as an (|Lambda|, |I|) array: both cones factor
    through the cell (gamma's vertex, delta's vertex) by the same scalar."""
    (gamma_values, gamma_vertex), (delta_values, delta_vertices) = gamma, deltas
    g1, ok1 = right_factor(M, inverse, P[:, delta_vertices].T, gamma_values)
    g2, ok2 = right_factor(M.T, inverse, P[gamma_vertex], delta_values)
    return ok1 & ok2 & (g1 == g2)


def bifunctor(M: np.ndarray, inverse: np.ndarray, dom_column, cod_column, g1, g2, values):
    """`connections.bifunctor_gamma` on the tuples of cones, over the group with
    Cayley array M: dom_column * g -> cod_column * (g1*g*g2).  Also returns
    the mask of the tuples that factor through dom_column, the only ones the
    cell map is defined on.  Columns, scalars and tuples broadcast.
    """
    g, ok = right_factor(M, inverse, dom_column, values)
    return M[cod_column, M[M[g1, g], g2][..., None]], ok


def chi(M: np.ndarray, inverse: np.ndarray, column, row, values):
    """`connections.chi` on the tuples of cones: column * g -> g * row, with
    the mask of the tuples that factor through column."""
    g, ok = right_factor(M, inverse, column, values)
    return M[g[..., None], row], ok


def first_failure(n: int, bad_row: Callable[[int], np.ndarray]) -> tuple[int, int] | None:
    """The first (a, b) in row order where the mask bad_row(a) is true."""
    for a in range(n):
        bad = bad_row(a)
        if bad.any():
            return a, int(bad.argmax())
    return None


def first_hole(table: np.ndarray) -> tuple[int, int] | None:
    """The first (a, b) in row order where `cone_product_table` found no product."""
    return first_failure(len(table), lambda a: table[a] < 0)


def cone_product_table(M: np.ndarray, members, index: KeyIndex) -> np.ndarray:
    """The (n, n) int32 table of a batch of n cones under mul_L over the group
    with Cayley array M, given the batch's own `KeyIndex`: row a holds the
    positions of member a times every member, -1 where a product is not a
    member.  The set is closed when no entry is -1."""
    table = np.empty((len(members[1]),) * 2, dtype=np.int32)
    for a in range(len(table)):
        table[a] = index.find(row_keys(*mul_L(M, pick(members, a), members)))
    return table
