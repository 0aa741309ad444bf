"""Cross-connections determined by a sandwich matrix.

Each sandwich matrix P corresponds to a cross-connection, so the
connection is P itself: every function here takes the `SandwichMatrix`.
It links the two ideal categories: each column spans a
left coset of the diagonal group inside G^Lambda (the object map of the
connection), each row a right coset inside G^I (its dual).  The linked
cone pairs form a semigroup isomorphic to the Rees matrix semigroup
itself, which is what the verification suite checks exhaustively.

Every cone set of the connection is read off one array,
`SandwichMatrix.scaled`, whose entry [i, g] is col_i * g.  U-Gamma is its
distinct tuples at every vertex (`u_cones`); the cell (lam, i) of the
bifunctor is its slice [i] at vertex lam (`gamma_cells`, every cell at
once, as a view); and the linked pair of the element (g, i, lam) is
((col_i * g, lam), (g * row_lam, i)) (`pair_cones`), which is that
element's image under phi, its pair of principal cones.  So pair k is phi
of element k, by one formula, and no second list of phi's images is formed:
its positions in U-Gamma and U-Delta are phi's components (`PairArrays`).
A product of two pairs is a pair of positions in the U tables, which only
phi's pass reads; `verify.rbg_suite` states its closed form on the U cones.

The dual side is never written out: a row of P is a column of P^T, a
right coset over G is a left coset over G^op, so every dual set and map
is its connection-side twin over the transposed matrix
(`SandwichMatrix.transpose`, over `FiniteGroup.opposite`, whose `scaled`
is [lam, g] = g * row_lam).  Those two are the only providers of the
opposite data, each built once and read as views of P's and G's arrays.

`verify_crossconnection` reads each functor as arrays of the images of
all morphisms (`gamma_images`, `delta_images`): the canonical tuples of
every object's coset come in one gather, and the image of kappa(g): i1 ->
i2 is sigma_g between the cosets of i1 and i2, recorded as (h, dom id, cod
id).  Those arrays are the functors' definition, and the package's only
statement of the normal dual N*L: a coset is its canonical tuple
(`kernel.canonical`), and a morphism of N*L a row (h, dom id, cod id).
`crossconn.matrix_roundtrip` reads the object tuples (`Images.objects`)
as the extracted columns.  The functor laws,
`fully_faithful`, `ideal_restriction` and coverage run on them in blocks
of hom-sets, with no scalar group product, and a faulty image is a failed
check, never an exception.  `fully_faithful` counts each hom-set's maps
as its distinct keys cod * (h * o[0]), o the tuple of the domain object:
one k-tuple per image, with no member of the coset formed
(`_induced_maps`).  The scalar functors, with the coset handles and the
sigma arithmetic they apply and compose, live on in
tests/scalar_reference.py as the reference that tests compare them with.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernel
from .categories import Cone, Morphism, left_category, right_category
from .checks import Check, verdict
from .oracle import GenericSemigroup, ProductTables, homomorphism_witness, is_regular, verify_map
from .rees import ReesSemigroup, SandwichMatrix


Cones = tuple[np.ndarray, np.ndarray]


def as_cones(cones: Cones) -> list[Cone]:
    """A batch of cones (values, vertices) as `Cone`s of Python ints, for
    witnesses and reports."""
    values, vertices = cones
    return [Cone(tuple(v), x) for v, x in zip(values.tolist(), vertices.tolist())]


def as_cone(cones: Cones, k: int) -> Cone:
    """Cone k of a batch, as a `Cone` of Python ints."""
    return as_cones(kernel.pick(cones, [k]))[0]


def gamma_cells(P: SandwichMatrix) -> Cones:
    """Every cell of P's connection bifunctor, indexed [lam, i]: the cell
    (lam, i) is the right scalings of column i, `scaled[i]` (one per group
    element), at vertex lam.  Values (|Lambda|, |I|, |G|, |Lambda|) and
    vertices (|Lambda|, |I|, |G|), read-only views of `scaled`."""
    scaled = P.scaled
    shape = (P.rows, *scaled.shape[:2])
    vertices = np.broadcast_to(np.arange(P.rows)[:, None, None], shape)
    return np.broadcast_to(scaled, (P.rows, *scaled.shape)), vertices


def delta_cells(P: SandwichMatrix) -> Cones:
    """The dual cells, indexed [lam, i] as well: the left scalings of row lam,
    vertex i, which are the cells of P.transpose."""
    values, vertices = gamma_cells(P.transpose)
    return values.swapaxes(0, 1), vertices.swapaxes(0, 1)


def u_cones(P: SandwichMatrix) -> Cones:
    """U-Gamma of P's connection: the distinct tuples col_i * g of `P.scaled`
    in their first appearance over (g, i), each at every vertex in turn.
    U-Delta is u_cones(P.transpose)."""
    tuples = P.scaled.transpose(1, 0, 2).reshape(-1, P.rows)
    _, first = np.unique(kernel.row_keys(tuples), return_index=True)
    tuples = tuples[np.sort(first)]
    return np.repeat(tuples, P.rows, axis=0), np.tile(np.arange(P.rows), len(tuples))


def pair_cones(P: SandwichMatrix) -> tuple[Cones, Cones]:
    """The linked pairs of P's connection as a gamma and a delta batch, in
    element order: pair k, of the element (g, i, lam), is
    ((col_i * g, lam), (g * row_lam, i)), the element's image under phi."""
    g, i, lam = kernel.element_arrays(P.group.order, P.cols, P.rows)
    return (P.scaled[i, g], lam), (P.transpose.scaled[lam, g], i)


class LinkedPair(NamedTuple):
    gamma: Cone
    delta: Cone


def is_regular_set(table: np.ndarray) -> bool:
    """Whether a set with this `kernel.cone_product_table` is closed (no -1) and,
    judged by the oracle, regular."""
    return bool(table.min() >= 0) and is_regular(GenericSemigroup(table))


class UCones:
    """U-Gamma (or U-Delta) by tuple class (`kernel.ConeClasses`, which finds
    its cones), and its table as the linked pairs read it: U-Gamma's
    `kernel.cone_product_table`, and U-Delta's over the opposite group held
    transposed, so that the delta half of a product of two pairs sits at
    [d[p], d[q]] as its gamma half sits at [g[p], g[q]].  A set is regular
    exactly when its opposite is.  A position -1 stands for an absent cone,
    so a product with one is read with `kernel.gather`."""

    def __init__(self, classes: kernel.ConeClasses, table: np.ndarray):
        self.classes = classes
        self.table = table

    @cached_property
    def regular(self) -> bool:
        """`is_regular_set` of the table, judged once however many checks ask."""
        return is_regular_set(self.table)


class PairArrays:
    """The linked pairs of a connection and the arrays every scan of them reads:
    the two U tables, and O(n) beside them, where n is the number of pairs.

    `gamma` and `delta` are the pairs' halves from `pair_cones`, pair k
    being phi of element k, and `g` and `d` their positions in U-Gamma and
    U-Delta (-1 where a half is absent): the positions of each element's
    principal cones.  `complete` says whether every half lies in its U
    set, so that no -1 is in `g` or `d`, decided once.  No table of the
    pairs is held: a product of two pairs p and q is componentwise, the
    pair of positions (GT[g[p], g[q]], DT[d[p], d[q]]) in the U tables,
    which phi's pass (`witnesses`) alone reads at the pairs' positions.
    S, whose table `witnesses` reads, is kept as `semigroup`."""

    def __init__(self, S: ReesSemigroup, gamma: Cones, delta: Cones, ug: UCones, ud: UCones):
        self.semigroup, self.u_gamma, self.u_delta = S, ug, ud
        self.gamma, self.delta = gamma, delta
        self.g, self.d = ug.classes.find(gamma), ud.classes.find(delta)
        self.complete = bool((self.g >= 0).all() and (self.d >= 0).all())

    def pair(self, p: int) -> LinkedPair:
        return LinkedPair(as_cone(self.gamma, p), as_cone(self.delta, p))

    @cached_property
    def witnesses(self) -> tuple[tuple | None, tuple | None, str | None, str | None]:
        """(rho, lam, closure, phi), judged once however many suites ask: the
        first (a, b) where phi's components `g` and `d` fail the law of
        `oracle.homomorphism_witness`, and the witnesses of `verify_phi`,
        each None where it holds.  Unless a half lies outside its U set,
        all four come from `oracle.verify_map` into the two U tables."""
        T, tables = self.semigroup.to_generic(), (self.u_gamma.table, self.u_delta.table)
        if self.complete:
            rho, lam, closure, phi = verify_map((self.g, self.d), T, ProductTables(*tables))
            if closure is None:
                return rho, lam, None, phi
            p, q = (self.pair(k) for k in closure)
            witness = f"product of {p} and {q} is not a linked pair"
        else:
            rho, lam = (homomorphism_witness(m, T, t) for m, t in zip((self.g, self.d), tables))
            p = int(((self.g < 0) | (self.d < 0)).argmax())
            half, where = ("gamma", "U-Gamma") if self.g[p] < 0 else ("delta", "U-Delta")
            witness = f"the {half} half of {self.pair(p)} is not in {where}"
        return rho, lam, witness, witness


def pair_arrays(S: ReesSemigroup) -> PairArrays:
    """The linked pairs (`pair_cones`), U-Gamma and U-Delta (`u_cones`) of S's
    connection, with the arrays every scan of them reads.  U-Delta's table
    is built transposed, as `UCones` holds it."""
    P = S.matrix
    gammas, deltas = kernel.ConeClasses(u_cones(P)), kernel.ConeClasses(u_cones(P.transpose))
    G = S.group
    ug = UCones(gammas, kernel.cone_product_table(G.array, G.inverse, gammas))
    ud = UCones(deltas, kernel.cone_product_table(G.opposite.array, G.inverse, deltas, transposed=True))
    return PairArrays(S, *pair_cones(P), ug, ud)


def verify_phi(linked: PairArrays) -> tuple[str | None, str | None]:
    """The witnesses (closure, phi) of the linked pairs' closure and of phi
    as a bijective homomorphism onto them, each None where it holds, from
    the table oracle (`PairArrays.witnesses`), not a closed form.  The
    pairs are closed when each pair's halves lie in U-Gamma and U-Delta
    and each product of two pairs is a pair; pairs that are not closed
    fail both, with the closure witness.  They need no associativity
    scan: a bijective homomorphism carries S's onto them."""
    return linked.witnesses[2:]


class Images(NamedTuple):
    """The images of every morphism of an ideal category under a functor into
    a normal dual, as (n, n, |G|) arrays indexed [dom, cod, g], with the
    object images they are read from."""

    h: np.ndarray
    dom: np.ndarray  # coset ids, numbered by first appearance over the objects
    cod: np.ndarray
    canonical: np.ndarray  # (ids, k): the canonical tuple of each coset id
    M: np.ndarray  # Cayley array of the group the images compute in
    objects: np.ndarray  # (n, k): the canonical tuple of each object's coset


def gamma_images(P: SandwichMatrix) -> Images:
    """P's connection functor on the right-ideal category, as arrays.

    Object i goes to the left coset of column i, whose canonical tuple is
    col_i * col_i[0]^-1: all columns in one gather, `kernel.canonical` of
    the rows of P^T.  kappa(g): i1 -> i2 goes to sigma_g
    between the cosets of i1 and i2.  A coset id stands for a canonical
    tuple, so two images agree exactly when their (h, dom, cod) agree.
    """
    G = P.group
    objects = kernel.canonical(G.array, G.inverse, P.array.T)
    _, first, ids = np.unique(kernel.row_keys(objects), return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = rank[ids]
    shape = (len(objects),) * 2 + (G.order,)
    return Images(
        np.broadcast_to(np.arange(G.order), shape),
        np.broadcast_to(ids[:, None, None], shape),
        np.broadcast_to(ids[None, :, None], shape),
        objects[np.sort(first)],
        G.array,
        objects,
    )


def delta_images(P: SandwichMatrix) -> Images:
    """The dual functor on the left-ideal category: lam goes to the right coset
    of row lam and rho(g) to tau_g, which is `gamma_images` of P.transpose,
    over G^op."""
    return gamma_images(P.transpose)


def _functor_witness(cat, im: Images) -> str | None:
    """The first failure of the functor laws, identities first, then the
    composites of m1 = (o1, o2, g1) and m2 = (o2, o3, g2) in (o1, o2, o3, g1, g2) order.

    One row is one pair (o1, o2), run in blocks of rows: axes [o3, g1, g2],
    the image of m1 * m2 against the composite of the images.
    """
    e, n, order = cat.group.identity, cat.n_objects, cat.group.order
    h, dom, cod = (x[np.arange(n), np.arange(n), e] for x in (im.h, im.dom, im.cod))
    bad = np.flatnonzero((h != e) | (dom != cod))
    if len(bad):
        return f"identity at object {bad[0]} is not sent to an identity"
    C = cat.group.array

    def bad_rows(rows: slice) -> np.ndarray:
        o1, o2 = np.divmod(np.arange(rows.start, rows.stop), n)
        h1, dom1, cod1 = (x[o1, o2][:, None, :, None] for x in (im.h, im.dom, im.cod))
        h2, dom2, cod2 = (x[o2][:, :, None, :] for x in (im.h, im.dom, im.cod))
        h, dom, cod = (np.take(x[o1], C, axis=2) for x in (im.h, im.dom, im.cod))
        bad = (cod1 != dom2) | (h != im.M[h2, h1]) | (dom != dom1) | (cod != cod2)
        return bad.reshape(len(o1), -1)

    bad = kernel.first_block_failure(n * n, n * order * order, bad_rows)
    if bad is None:
        return None
    (o1, o2), (o3, rest) = divmod(bad[0], n), divmod(bad[1], order * order)
    g1, g2 = divmod(rest, order)
    return f"composite of {Morphism(o1, o2, g1)} and {Morphism(o2, o3, g2)} is not preserved"


def _induced_maps(im: Images) -> np.ndarray:
    """The number of distinct coset maps that the images induce on each hom-set
    (i1, i2), in row order, counted in blocks of hom-sets.

    With o the tuple of object i1, the image (h, dom, cod) of kappa(g) sends
    the member o * x of o's coset to cod * (h * (o[0] * x)), and holds it in
    its domain when dom * (o[0] * x) == o * x; it induces a map only when its
    domain holds every member.  Cancelling x on the right, both are free of
    x: the domain holds the whole coset exactly when dom * o[0] == o, and
    then the member o * x goes to key * x, with key = cod * (h * o[0]).  So
    two images that induce a map induce the same one exactly when their keys
    agree, and a hom-set's maps are counted as its distinct keys.
    """
    n, M = len(im.objects), im.M
    maps = np.empty(n * n, dtype=np.intp)
    for rows in kernel.blocks(n * n, len(M) * im.objects.shape[1]):
        i1, i2 = np.divmod(np.arange(rows.start, rows.stop), n)
        # axes [hom-set, g, coordinate]
        o = im.objects[i1][:, None, :]
        inside = (M[im.canonical[im.dom[i1, i2]], o[..., :1]] == o).all(axis=2)
        keys = M[im.canonical[im.cod[i1, i2]], M[im.h[i1, i2], o[..., 0]][..., None]]
        hom = np.broadcast_to(np.arange(len(i1))[:, None], inside.shape)
        maps[rows] = kernel.distinct_counts(hom[inside], len(i1), keys[inside])
    return maps


def verify_crossconnection(matrix: SandwichMatrix) -> list[Check]:
    """Functor, faithfulness, ideal-restriction and coverage checks for the
    connection of the matrix.

    Failures land in the returned checks rather than raising.  Each check
    reads the image arrays of `gamma_images` and `delta_images` in one
    array pass over its hom-sets or objects; the witness is the first
    failure in the order a loop over them would meet it.
    """
    G = matrix.group
    n_i, n_l = matrix.cols, matrix.rows
    checks: list[Check] = []

    # Covariant functor laws, identities included, for the connection and its dual.
    gamma, delta = gamma_images(matrix), delta_images(matrix)
    for name, cat, im in (
        ("gamma", right_category(G, n_i), gamma),
        ("delta", left_category(G, n_l), delta),
    ):
        checks.append(verdict(f"crossconn.functor_{name}", _functor_witness(cat, im)))

    # Fully faithful: on each hom-set the induced coset maps are pairwise
    # distinct and there are exactly |G| of them.  An image whose domain is
    # not the object's coset induces no map on it.
    maps = _induced_maps(gamma)
    bad = np.flatnonzero(maps != G.order)
    witness = None
    if len(bad):
        i1, i2 = divmod(int(bad[0]), n_i)
        witness = f"hom({i1},{i2}) induces {maps[bad[0]]} maps, expected {G.order}"
    checks.append(verdict("crossconn.fully_faithful", witness))

    # With no nontrivial inclusions every principal ideal is a single
    # object, so the restriction being an isomorphism reduces to the
    # endomorphism hom-sets matching up bijectively.
    diagonal = np.arange(n_i)
    endomorphisms = (x[diagonal, diagonal].ravel() for x in (gamma.h, gamma.dom, gamma.cod))
    images = kernel.distinct_counts(np.repeat(diagonal, G.order), n_i, *endomorphisms)
    bad = np.flatnonzero(images != G.order)
    witness = None
    if len(bad):
        witness = f"restriction to object {bad[0]} is not a bijection on endomorphisms"
    checks.append(verdict("crossconn.ideal_restriction", witness))

    # Coverage: every left-ideal object carries an isomorphism component
    # of some (here: every) image cone, scanned rather than assumed: the
    # image cones are the columns, and a column's components are
    # isomorphisms when each entry v has v v^-1 = v^-1 v = e.
    M, P, inverse = G.array, matrix.array, G.inverse
    iso = ((M[P, inverse[P]] == G.identity) & (M[inverse[P], P] == G.identity)).all(axis=0)
    witness = None if iso.any() else f"objects {list(range(n_l))} are not covered"
    checks.append(verdict("crossconn.coverage", witness))

    return checks
