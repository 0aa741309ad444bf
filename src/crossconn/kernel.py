"""Block-at-a-time array kernel for the O(|S|^2) scans of the verification suites.

Layout.  Element k of S = M[G; I, Lambda; P] is (g, i, lam) with
k = (g*|I| + i)*|Lambda| + lam, so `coordinates` decodes indices into
three index arrays, `element_arrays` gives those of every element, and
`ReesSemigroup.table()` its product as a read-only (n, n) array of
indices in `index_dtype(n)`, the one format of every multiplication
table up to the table oracle.  G and P are held as their arrays alone,
read-only np.intp and built once: `FiniteGroup.array` is the Cayley
table M, `FiniteGroup.inverse` the inverse of each element,
`SandwichMatrix.array` the (|Lambda|, |I|) matrix P, and G^op's and
P^T's are the views M.T and P.T; `SandwichMatrix.scaled` is the
(|I|, |G|, |Lambda|) array of the columns scaled on the right,
[i, g] = col_i * g, and P^T's is [lam, g] = g * row_lam.  A batch of
cones over one object set is a pair (values, vertices): an (m, k) array
of group indices and an (m,) array of vertices.  One cone is
(values (k,), vertex).  Cones and batches broadcast over their leading
axes, so a block of cones with an axis of length one against a batch is
every pair of them: `mul_L` multiplies them so, and the abstract
categories compose a `Morphism` of arrays the same way.

Integers.  An array that only indexes is native np.intp, which numpy
indexes with, so no gather casts it: the group and matrix arrays, a cone
table's flat offsets, `ConeClasses.pos` and the classes `find_tuples`
returns, and through them the pairs' positions and the keys of
`oracle.ProductTables`.  An array stored at table size or compared as
bytes stays narrow: the tables in `index_dtype`, the keys in KEY_DTYPE
and the int32 factors of `factors`, whose gathered blocks are
table-sized.

Blocks.  A scan takes a block of first factors a and forms a*b for every
b in one numpy step.  `blocks` gives the slices of rows, of about BLOCK
entries of the scan's largest temporary each, so beyond one (n, n) table
a scan never holds an (n, n, k) array, and a table gathered from smaller
tables is filled without an (n, n) temporary beside it; a batch of
scalings is formed in blocks of the same size, and
`categories.realize_category` takes a block of hom-sets per step, S^op's
products read through S's one table.  The slices are exact, none past
the last row, so a scan decodes its rows as np.arange(rows.start,
rows.stop), at the cost of its own rows alone.
`first_block_failure` is the one loop over blocks: it names the first failing
(a, b) in row order, as a scan one pair at a time would.  The table
oracle's scans, the closure witness `first_hole` and the suites' block
scans, `rees.table_matches_product` among them, all run through it.

Keys.  Membership is exact.  The key of a tuple is its row of int32
coordinates read as one np.void of raw bytes.  `ConeClasses` holds the
distinct keys of a set's tuples as `np.unique` returns them, sorted, and
finds each query with searchsorted on them, then confirms the candidate
by equality.  No key is packed into one integer, so none can overflow,
however wide the cones are.  A cone table reads its products by coset
first (`cone_product_table`) and searches the keys only for a product
that read does not confirm.  `connections.u_cones` keeps the
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
`cones.injectivity_criterion` is the `factors` of the columns of P
through themselves.

Cells.  A cell map of the connection bifunctor and the duality chi are
scalings: `bifunctor` and `chi` factor a batch of tuples through a column
of P with `right_factor`, rescale, and return the mask of the tuples that
factor, so a cone outside its cell is a failed comparison rather than an
exception.  The dual bifunctor is `bifunctor` over the group and the
array of `SandwichMatrix.transpose`.  Columns, rows and tuples broadcast, so
`crossconn.duality_bijection` runs every cell of a block of cells through
one `chi` there and one back, and `crossconn.naturality` a block of
triples of objects (l1, l2, i1) per step.  `canonical` gives each tuple's
coset key, the member of its coset with the identity at coordinate 0,
for the objects of the connection functor and the cosets of T_L alike.
Sets that are one
per cell, hom-set or object (the cones of a cell, the images of a
functor) are counted in one sort by `distinct_counts`, each row keyed
with its label, and two such sets are equal exactly when their union
counts no more than each of them.  `split_counts` counts two sets per
label and their union in one stable sort of one key array, in place:
the translation maps and the abstract maps of each hom-set of a block
(`categories.realize_category`).

Pairs.  `connections.pair_arrays` holds the linked pairs as a gamma and a
delta batch, read off `SandwichMatrix.scaled` at the coordinates of each
element (`connections.pair_cones`), and U-Gamma and U-Delta with their
tables GT and DT; the rest is O(n).  Pair k is phi of element k, its
pair of principal cones, so g[k] and d[k], the positions of pair k's
halves in U-Gamma and U-Delta, are also those of element k's principal
cones.  The product of two pairs is componentwise, the pair of positions
(GT[g[p], g[q]], DT[d[p], d[q]]), DT being held transposed, so no
table of the pairs is built: phi is judged by its components g and d,
one pass over each U table that serves the principal checks too, and
the map check reads each pair as one key (`oracle.ProductTables`).
That pass alone reads the U tables at g and d; `verify.rbg_suite`
gathers there bool tables of the U cones.  Every scan of the pairs or of
the principal cones in a suite reads these arrays, which each suite and
`connections.verify_phi` takes from its caller.  Witnesses and reports
turn cones of a batch into `Cone`s of Python ints (`connections.as_cones`).

Tables.  `cone_product_table` is the one place a set of cones becomes
its multiplication table, with -1 wherever a product lies outside the
set.  A product a*b is a's tuple scaled by b's value s at a's vertex,
with b's vertex, so it depends only on a's tuple class, s and b's
vertex: `mul_L` scales every class by every group element, in a
batch per block of classes.  Scaling keeps a tuple's coset, so each of
the |T|*|G| scaled tuples is read from an array of the classes by
coset (`canonical`) and first entry, and confirmed against the product;
`ConeClasses` searches its keys only for a product the read does not
confirm.  The table is then two flat takes, from that (|T|, |G|) table
of classes and from the (|T|, k) positions.  The
set is closed when no entry is -1, and `first_hole` names the first -1
in row order as the closure witness.  It builds three tables, T_L,
U-Gamma and U-Delta, the last one transposed, row by row with no copy:
entry [x, y] of DT is U-Delta[y] * U-Delta[x] over G^op, as the delta
halves of a product of pairs multiply.  The table oracle judges the
rest of each closed table from the table alone, and phi as a map into
the direct product of the U-Gamma and U-Delta tables.  The
principal image is U-Gamma and the dual image U-Delta, so
`cones.principal_homomorphism` and `cones.dual_antihomomorphism` are
phi's two components, read off their tables by rows.

`mul_L` is the cone product every table is built from, and the checks
hold it against independent statements of it: `cones.semidirect_law`
against the action `cones.act`, `cones.idempotent_closed_form` against
`cones.is_idempotent_cone` and `category.cone_product_agreement` against
the category's composition.  The package keeps one definition of the
Rees product, `rees.product` on plain coordinates, which
`ReesSemigroup.mul` calls on ints and `rees.table_matches_product` on
the coordinate arrays of `element_arrays`, a block of rows against every
element per step of `first_block_failure`.  That check encodes each
block of products in the layout and compares it once with the block of
`table()`, so `index_table`'s own gathers stay the other route.  The scalar
definitions of the cone product, the action, the coset key and the
idempotent closed form, and of the connection's cone sets and maps (the
linked pairs and their product, U-Gamma and U-Delta, the cells, the cell
map, chi, linkage, phi and the two functors) live in
tests/scalar_reference.py, where tests compare every scan and every set
read off `SandwichMatrix.scaled` with its loop, and the class tables
with their row-by-row versions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

KEY_DTYPE = np.int32
# Entries per block of a batch of scalings or of a gathered table.  Blocks
# of 2^16 entries left the heap grown: S5 2x2 `verify` peaked 0.8 MB higher.
BLOCK = 1 << 14


def index_dtype(n: int) -> np.dtype:
    """The format of an (n, n) table of indices below n, -1 for a hole:
    int16 while n < 2^15, int32 beyond."""
    return np.dtype(np.int16 if n < 1 << 15 else np.int32)


def coordinates(k: np.ndarray, n_i: int, n_lambda: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (g, i, lam) coordinates of an array of element indices, by divmod."""
    g, rem = np.divmod(k, n_i * n_lambda)
    i, lam = np.divmod(rem, n_lambda)
    return g, i, lam


def element_arrays(n_g: int, n_i: int, n_lambda: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (g, i, lam) coordinates of elements 0..n-1, in element order."""
    return coordinates(np.arange(n_g * n_i * n_lambda), n_i, n_lambda)


def pick(cones: tuple[np.ndarray, np.ndarray], rows):
    """The cones at the given rows (one cone for an int)."""
    values, vertices = cones
    return values[rows], vertices[rows]


def mul_L(M: np.ndarray, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """The semidirect product on the left-ideal side over the group with
    Cayley array M: c1's values scaled on the right by c2's value at c1's
    vertex, with c2's vertex.

    Cones and batches broadcast over their leading axes as numpy arrays do
    (values (..., k), vertices (...)): a batch against a batch is taken row
    by row, one cone against a batch cone by cone, and a block of cones
    with an axis of length one against a batch gives every product.
    """
    (v1, x1), (v2, x2) = c1, c2
    v2, at = np.broadcast_arrays(v2, np.expand_dims(x1, -1))
    values = M[v1, np.take_along_axis(v2, at[..., :1], axis=-1)]
    return values, np.broadcast_to(x2, values.shape[:-1])


def differ(c1, c2) -> np.ndarray:
    """Row mask: where the cones of c1 and c2 differ."""
    return (c1[0] != c2[0]).any(axis=-1) | (c1[1] != c2[1])


def row_keys(*columns: np.ndarray) -> np.ndarray:
    """One exact key per row of the arrays ((m, k) or (m,)) laid side by side."""
    rows = np.ascontiguousarray(np.column_stack(columns), dtype=KEY_DTYPE)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def distinct_counts(labels: np.ndarray, n_labels: int, *columns: np.ndarray) -> np.ndarray:
    """The number of distinct rows of the columns laid side by side among the
    rows of each label 0..n_labels-1: many small sets counted in one sort."""
    _, first = np.unique(row_keys(labels, *columns), return_index=True)
    return np.bincount(labels[first], minlength=n_labels)


def split_counts(
    rows: np.ndarray, split: int, n_labels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a C-contiguous (m, k) KEY_DTYPE array of m >= 1 rows whose column 0
    is each row's label 0..n_labels-1: the number of distinct rows of each
    label among rows[:split], among rows[split:] and among all of them.

    One stable sort of the row keys, read in place: a run of equal keys
    holds a row before split exactly when its first row is one, and a row
    from split on exactly when its last row is.  The two sets of a label
    are equal exactly when the third count is no more than either."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    edges = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    first, last = order[np.r_[0, edges]], order[np.r_[edges, len(order)] - 1]

    def count(at: np.ndarray) -> np.ndarray:
        return np.bincount(rows[at, 0], minlength=n_labels)

    return count(first[first < split]), count(last[last >= split]), count(first)


def gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray, holes: bool = True) -> np.ndarray:
    """The (len(rows), len(cols)) array table[rows[:, None], cols], -1 wherever
    a row or a column is -1, the position of an absent cone.  The rows are
    taken first and then the columns of each, which is faster than one 2-d
    fancy gather; the -1 rows and columns read the table's last ones, and
    are overwritten.  A scan that has found no -1 among its rows and
    columns, once for all its blocks, passes holes=False, and no mask is
    formed or written.  In a bool table the -1 rows and columns read True."""
    out = np.take(table[rows], cols, axis=1)
    if holes:
        out[rows < 0] = -1
        out[:, cols < 0] = -1
    return out


class ConeClasses:
    """A batch of cones (values, vertices) by tuple class: the distinct tuples
    T, in the order of their keys, which `np.unique` sorts; `tid[a]`, the
    class of cone a; and `pos[t, mu]`, the position of the cone (T[t], mu),
    or -1, with a last row of -1 that the class -1 of an absent tuple reads.
    Among equal cones the last position wins."""

    def __init__(self, members):
        self.members = members
        values, self.vertices = members
        keys, first, self.tid = np.unique(
            row_keys(values), return_index=True, return_inverse=True
        )
        self.tuples = values[first]
        self._keys = keys
        self.pos = np.full((len(keys) + 1, values.shape[1]), -1, dtype=np.intp)
        self.pos[self.tid, self.vertices] = np.arange(len(self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    def find_tuples(self, values: np.ndarray) -> np.ndarray:
        """The class of each tuple (row of values), or -1 where it is no member's:
        its key searched among the sorted keys, and confirmed by equality."""
        keys = row_keys(values)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[at] == keys, at, -1)

    def find(self, cones) -> np.ndarray:
        """The position of each cone of the batch among the members, or -1."""
        values, vertices = cones
        return self.pos[self.find_tuples(values), vertices]


def right_factor(M: np.ndarray, inverse: np.ndarray, base, values) -> tuple[np.ndarray, np.ndarray]:
    """The scalar g with values == base * g, row by row over the group with
    Cayley array M: g = base[0]^-1 * values[0], and whether values == base * g
    holds pointwise.

    base and values are (..., k) arrays that broadcast against each other;
    the result is two arrays of their broadcast leading shape.
    """
    base, values = np.broadcast_arrays(base, values)
    g = M[inverse[base[..., 0]], values[..., 0]]
    return g, (M[base, g[..., None]] == values).all(axis=-1)


def canonical(M: np.ndarray, inverse: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The canonical representative of the left coset values * G of each
    tuple (row of values) over the group with Cayley array M:
    values * values[0]^-1, with the identity at coordinate 0, so that two
    tuples span one coset exactly when their representatives are equal.
    Over M.T it is the representative of the right coset G * values."""
    return M[values, inverse[values[..., :1]]]


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
    to a slice, that cover range(n_rows) exactly."""
    step = max(1, BLOCK // max(1, row_size))
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


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
    return first_block_failure(*table.shape, lambda rows: table[rows] < 0)


def cone_product_table(
    M: np.ndarray, inverse: np.ndarray, classes: ConeClasses, transposed: bool = False
) -> np.ndarray:
    """The (n, n) table of a batch of n cones, given by tuple class,
    under mul_L over the group with Cayley array M and inverses inverse
    (G's, which G^op shares): row a holds the positions of member a times
    every member, -1 where a product is not a member.  The set is closed
    when no entry is -1.  With transposed, row b holds every member times
    member b instead: the transpose, built row by row with no (n, n) copy.

    a*b is a's tuple scaled by s, b's value at a's vertex, with b's vertex,
    so with scale[t, s] the class of T[t]*s the table is
    pos[scale[tid[a], s], vertex[b]], read as two flat takes in blocks of
    rows.  scale is one `mul_L` batch per block of classes (one for a
    small set), each (T[t], s) times the cone (0, 1, ..., |G|-1), whose
    value at s is s.

    The products are found by coset.  A tuple v spans the left coset v*G,
    whose `canonical` representative is c = v*v[0]^-1, and v = c*v[0]: a
    tuple is its coset's representative times its first entry.  Scaling
    keeps the coset, (v*s)*(v*s)[0]^-1 = v*s*s^-1*v[0]^-1 = v*v[0]^-1, so
    T[t]*s is the member tuple, if any, with T[t]'s coset and first entry
    (T[t]*s)[0]: a read of the (cosets, |G|) array of classes by coset and
    first entry.  Each read is confirmed against the whole product, and
    only a product it does not confirm is searched among the keys
    (`ConeClasses.find_tuples`), so the table is exact whatever `mul_L`
    returns; on a closed set of a valid group the search never runs.
    Over M.T the cosets are the right ones, G*v, and the same holds.
    """
    (values, vertices), order, tuples = classes.members, len(M), classes.tuples
    cosets, coset = np.unique(row_keys(canonical(M, inverse, tuples)), return_inverse=True)
    by_coset = np.full((len(cosets), order), -1, dtype=np.intp)
    by_coset[coset, tuples[:, 0]] = np.arange(len(tuples))
    scale = np.empty((len(tuples), order), dtype=np.intp)
    for rows in blocks(len(tuples), order * tuples.shape[1]):
        part = tuples[rows]
        scalings = np.repeat(part, order, axis=0), np.tile(np.arange(order), len(part))
        scaled, _ = mul_L(M, scalings, (np.arange(order), 0))
        found = by_coset[np.repeat(coset[rows], order), scaled[:, 0]]
        missed = np.flatnonzero((found < 0) | (np.take(tuples, found, axis=0) != scaled).any(axis=1))
        if len(missed):
            found[missed] = classes.find_tuples(scaled[missed])
        scale[rows] = found.reshape(len(part), order)

    n, k = len(vertices), tuples.shape[1]
    scale, pos = scale.ravel(), classes.pos.ravel()
    start = classes.tid * order  # row of tid[a] in the flat scale
    # at[b, v] (at[v, b] untransposed): member b's value at object v
    at = values if transposed else np.ascontiguousarray(values.T)
    table = np.empty((n, n), dtype=index_dtype(n))
    for rows in blocks(n, n):
        if transposed:  # row b: every member a times b, b's value at a's vertex
            found = np.take(at[rows], vertices, axis=1) + start
            vertex = vertices[rows, None]
        else:  # row a: a times every member b, b's value at a's vertex
            found = np.take(at, vertices[rows], axis=0) + start[rows, None]
            vertex = vertices
        table[rows] = pos[scale[found] * k + vertex]
    return table
