"""Row-at-a-time array kernel for the O(|S|^2) scans of the verification suites.

Layout.  Element k of S = M[G; I, Lambda; P] is (g, i, lam) with
k = (g*|I| + i)*|Lambda| + lam, so `element_arrays` gives its coordinates
as three index arrays and `ReesSemigroup.table()` its product as a
read-only (n, n) int32 array of indices, the one format of every
multiplication table up to the table oracle.  G and P own their arrays,
read-only and built once: `FiniteGroup.array` is the Cayley table M,
`SandwichMatrix.array` the (|Lambda|, |I|) matrix P, and G^op's and
P^T's are the views M.T and P.T; `SandwichMatrix.scaled` is the
(|I|, |G|, |Lambda|) array of the columns scaled on the right,
[i, g] = col_i * g, and P^T's is [lam, g] = g * row_lam.  A batch of
cones over one object set is a pair (values, vertices): an (m, k) array
of group indices and an (m,) array of vertices.  One cone is
(values (k,), vertex).

Rows.  A scan fixes the first factor a and forms a*b for every b in one
numpy step, so beyond one (n, n) table it holds one (n, k) row of
products at a time and never an (n, n, k) array.  A table gathered from
smaller tables is filled in blocks of about BLOCK entries, so that no
(n, n) temporary is held beside it, and a batch of scalings is formed in
blocks of the same size.  `blocks` gives the slices of rows: S's table
(`ReesSemigroup.index_table`) and S^op's are filled through it too, and
the table oracle scans through it, with `first_block_failure` naming the
first failing (a, b) in row order, as a scan one row at a time would.

Keys.  Membership is exact.  The key of a tuple is its row of int32
coordinates read as one np.void of raw bytes.  A `KeyIndex` sorts the
keys once and finds each query with searchsorted, then confirms the
candidate by equality.  No key is packed into one integer, so none can
overflow, however wide the cones are.  `connections.u_cones` keeps the
first of equal keys of the scaled columns, and only the distinct tuples
of a set of cones are indexed, each set once, by its `ConeClasses`:
`cones.cone_table` for T_L, `connections.pair_arrays` for U-Gamma and
U-Delta.  A cone is found as pos[t, vertex], the position of the cone
with tuple class t and that vertex; pairs are found by the positions of
their halves.

Linkage.  `right_factor` extracts the scalar g with values == base * g
for a batch of tuples at once.  Linkage depends only on the tuples and
vertices of the two cones, so `linkage_table` factors each gamma tuple
through each column of P and each delta tuple through each row over M.T
(`factors`, -1 where a tuple does not factor), and compares the two
factors of every gamma and delta cone in one gather (`same_factor`).

Cells.  A cell map of the connection bifunctor and the duality chi are
scalings: `bifunctor` and `chi` factor a batch of tuples through a column
of P with `right_factor`, rescale, and return the mask of the tuples that
factor, so a cone outside its cell is a failed comparison rather than an
exception.  The dual bifunctor is `bifunctor` over the opposite
connection's group and matrix.  These serve `crossconn.naturality` and
`crossconn.duality_bijection`; `category.cone_product_agreement` compares
the category's cone product with `mul_L` row by row.

Pairs.  `connections.pair_arrays` holds the linked pairs as a gamma and a
delta batch, read off `SandwichMatrix.scaled` at the coordinates of each
element (`connections.pair_cones`), U-Gamma and U-Delta with their
tables GT and DT, and the pair table.  Pair k is phi of element k, its
pair of principal cones, so g[k] and d[k], the positions of pair k's
halves in U-Gamma and U-Delta, are also those of element k's principal
cones.  The product of two pairs is componentwise, so the pair table is
a gather: with `pair_at[x, y]` the pair with halves at x and y (or -1),
row p is pair_at[GT[g[p], g], DT[d, d[p]]].  No product of two pairs is
formed and no pair key is searched.  Every scan of the pairs or of the
principal cones in a suite reads it; each suite and
`connections.verify_phi` takes it from its caller.  Witnesses and reports
turn cones of a batch into `Cone`s of Python ints
(`connections.as_cones`).

Tables.  `cone_product_table` is the one place a set of cones becomes
its multiplication table, with -1 wherever a product lies outside the
set.  A product a*b is a's tuple scaled by b's value s at a's vertex,
with b's vertex, so it depends only on a's tuple class, s and b's
vertex: `mul_L` scales every class by every group element, in a
batch per block of classes, `ConeClasses` looks the |T|*|G| scaled
tuples up, and the table is one gather from that (|T|, |G|) table and
the (|T|, k) positions.  The
set is closed when no entry is -1, and `first_hole` names the first -1
in row order as the closure witness.  It builds three tables, T_L,
U-Gamma and U-Delta, and the linked-pair table is gathered from the
U-Gamma and U-Delta tables; the table oracle judges the rest of each
closed table from the table alone.  The principal image is U-Gamma and
the dual image U-Delta, so `cones.principal_homomorphism` and
`cones.dual_antihomomorphism` are read off their tables.

The package keeps two scalar definitions: `cones.mul_L`, against which
`cones.semidirect_law` and `category.cone_product_agreement` check the
kernel's products, and `rees.product`, the Rees product on plain
coordinates that `ReesSemigroup.mul` calls.  `rees.table_matches_product`
ties `table()` to it, evaluated in plain Python one row at a time and
never through this kernel.  The scalar definitions of the connection's
cone sets and maps (the linked pairs and their product, U-Gamma and
U-Delta, the cells, the cell map, chi, linkage and phi) live in
tests/scalar_reference.py, where tests compare every scan and every set
read off `SandwichMatrix.scaled` with its loop, and the class tables
with their row-by-row versions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

KEY_DTYPE = np.int32
# Entries per block of a batch of scalings or of a gathered table.  Blocks
# of 2^16 entries left the heap grown: S5 2x2 `verify` peaked 0.8 MB higher.
BLOCK = 1 << 14


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


class ConeClasses:
    """A batch of cones (values, vertices) by tuple class: the distinct tuples
    T, indexed once by a `KeyIndex`; `tid[a]`, the class of cone a; and
    `pos[t, mu]`, the position of the cone (T[t], mu), or -1, with a last
    row of -1 that the class -1 of an absent tuple reads.  Among equal cones
    the last position wins, as in `KeyIndex`."""

    def __init__(self, members):
        self.members = members
        values, self.vertices = members
        keys, first, self.tid = np.unique(
            row_keys(values), return_index=True, return_inverse=True
        )
        self.tuples = values[first]
        self._index = KeyIndex(keys)
        self.pos = np.full((len(keys) + 1, values.shape[1]), -1, dtype=np.int32)
        self.pos[self.tid, self.vertices] = np.arange(len(self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    def find_tuples(self, values: np.ndarray) -> np.ndarray:
        """The class of each tuple (row of values), or -1 where it is no member's."""
        return self._index.find(row_keys(values)).astype(np.int32)

    def find(self, cones) -> np.ndarray:
        """The position of each cone of the batch among the members, or -1."""
        values, vertices = cones
        return self.pos[self.find_tuples(values), vertices]


def right_factor(M: np.ndarray, inverse: np.ndarray, base, values) -> tuple[np.ndarray, np.ndarray]:
    """`connections._right_factor` row by row over the group with Cayley array M:
    g = base[0]^-1 * values[0], and whether values == base * g holds pointwise.

    base and values are (..., k) arrays that broadcast against each other;
    the result is two arrays of their broadcast leading shape.
    """
    base, values = np.broadcast_arrays(base, values)
    g = M[inverse[base[..., 0]], values[..., 0]]
    return g, (M[base, g[..., None]] == values).all(axis=-1)


def factors(M: np.ndarray, inverse: np.ndarray, bases: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """The (len(tuples), len(bases)) int32 table of `right_factor`: entry
    (t, j) is the g with tuples[t] == bases[j] * g, or -1 where there is none."""
    g, ok = right_factor(M, inverse, bases, tuples[:, None])
    return np.where(ok, g, -1).astype(np.int32)


def same_factor(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Where two factors from `factors` exist and coincide."""
    return (f1 >= 0) & (f1 == f2)


def blocks(n_rows: int, row_size: int):
    """Slices of consecutive rows, of row_size entries each, about BLOCK entries
    to a slice."""
    step = max(1, BLOCK // max(1, row_size))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def linkage_table(
    M: np.ndarray, inverse: np.ndarray, P: np.ndarray, gammas: ConeClasses, deltas: ConeClasses
) -> np.ndarray:
    """Whether each gamma cone is linked with each delta cone, for the sandwich
    matrix P as an (|Lambda|, |I|) array, as an (m, n) bool table.

    A gamma and a delta cone are linked when gamma's tuple factors through
    the column of P at delta's vertex, and delta's tuple through the row at
    gamma's vertex over the opposite group, by the same scalar.  So F1 holds
    the factor of each gamma tuple through each column and F2 that of each
    delta tuple through each row, and the table is `same_factor` of the two
    gathered at the classes and vertices, in blocks of rows."""
    f1 = factors(M, inverse, P.T, gammas.tuples)[:, deltas.vertices]
    f2 = factors(M.T, inverse, P, deltas.tuples).T[:, deltas.tid]
    table = np.empty((len(gammas.tid), len(deltas.tid)), dtype=bool)
    for rows in blocks(*table.shape):
        table[rows] = same_factor(f1[gammas.tid[rows]], f2[gammas.vertices[rows]])
    return table


def bifunctor(M: np.ndarray, inverse: np.ndarray, dom_column, cod_column, g1, g2, values):
    """The cell map of the connection bifunctor on the tuples of cones, over the
    group with Cayley array M: dom_column * g -> cod_column * (g1*g*g2), for
    rho = g2 and kappa = g1.  Also returns
    the mask of the tuples that factor through dom_column, the only ones the
    cell map is defined on.  Columns, scalars and tuples broadcast.
    """
    g, ok = right_factor(M, inverse, dom_column, values)
    return M[cod_column, M[M[g1, g], g2][..., None]], ok


def chi(M: np.ndarray, inverse: np.ndarray, column, row, values):
    """The duality chi of a cell on the tuples of cones: column * g -> g * row,
    with the mask of the tuples that factor through column."""
    g, ok = right_factor(M, inverse, column, values)
    return M[g[..., None], row], ok


def first_failure(n: int, bad_row: Callable[[int], np.ndarray]) -> tuple[int, int] | None:
    """The first (a, b) in row order where the mask bad_row(a) is true."""
    for a in range(n):
        bad = bad_row(a)
        if bad.any():
            return a, int(bad.argmax())
    return None


def first_block_failure(
    n_rows: int, row_size: int, bad_rows: Callable[[slice], np.ndarray]
) -> tuple[int, int] | None:
    """The first (a, b) in row order where the mask bad_rows(rows) is true,
    for slices of rows of about BLOCK entries from `blocks`; bad_rows(rows)
    has one row of the mask per row of the slice."""
    for rows in blocks(n_rows, row_size):
        bad = bad_rows(rows)
        if bad.any():
            a, b = divmod(int(bad.argmax()), bad.shape[1])
            return rows.start + a, b
    return None


def first_hole(table: np.ndarray) -> tuple[int, int] | None:
    """The first (a, b) in row order where `cone_product_table` found no product."""
    return first_failure(len(table), lambda a: table[a] < 0)


def cone_product_table(M: np.ndarray, classes: ConeClasses) -> np.ndarray:
    """The (n, n) int32 table of a batch of n cones, given by tuple class,
    under mul_L over the group with Cayley array M: row a holds the
    positions of member a times every member, -1 where a product is not a
    member.  The set is closed when no entry is -1.

    a*b is a's tuple scaled by s, b's value at a's vertex, with b's vertex,
    so with scale[t, s] the class of T[t]*s the table is one gather,
    pos[scale[tid[a], s], vertex[b]], taken in blocks of rows.  scale is
    one `mul_L` batch per block of classes (one for a small set), each
    (T[t], s) times the cone (0, 1, ..., |G|-1), whose value at s is s,
    looked up among the classes: -1 where T[t]*s is no member's tuple.
    """
    (values, vertices), order, tuples = classes.members, len(M), classes.tuples
    scale = np.empty((len(tuples), order), dtype=np.int32)
    for rows in blocks(len(tuples), order * tuples.shape[1]):
        part = tuples[rows]
        scalings = np.repeat(part, order, axis=0), np.tile(np.arange(order), len(part))
        scaled, _ = mul_L(M, scalings, (np.arange(order), 0))
        scale[rows] = classes.find_tuples(scaled).reshape(len(part), order)
    at = values.T.astype(np.int32)  # at[v, b]: member b's value at object v
    table = np.empty((len(vertices),) * 2, dtype=np.int32)
    for rows in blocks(*table.shape):
        table[rows] = classes.pos[scale[classes.tid[rows, None], at[vertices[rows]]], vertices]
    return table
