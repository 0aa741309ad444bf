"""Cross-connections determined by a sandwich matrix.

A sandwich matrix links the two ideal categories: each column spans a
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
element's image under phi, its pair of principal cones.  So pair k is phi of element k, by one formula, and no
second list of phi's images is formed.

The dual side is never written out: a row of P is a column of P^T, a
right coset over G is a left coset over G^op, so every dual set is its
connection-side twin over the transposed matrix (`SandwichMatrix.transpose`,
whose `scaled` is [lam, g] = g * row_lam) and every dual map its twin
applied to `CrossConnection.opposite`.

`verify_crossconnection` reads each functor as arrays of the images of
all morphisms (`gamma_images`, `delta_images`): the canonical tuples of
every object's coset come in one gather, and the image of kappa(g): i1 ->
i2 is sigma_g between the cosets of i1 and i2, recorded as (h, dom id, cod
id).  Those arrays are the functors' definition.  The functor laws,
`fully_faithful`, `ideal_restriction` and coverage run on them in blocks
of hom-sets, with no scalar group product, and a faulty image is a failed
check, never an exception.  The scalar functors live on in
tests/scalar_reference.py as the reference that tests compare them with.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import kernel
from .categories import Cone, Morphism, left_category, right_category
from .checks import Check
from .cones import CosetHandle
from .errors import NotComposable, NotInDomainCoset, ParseError
from .groups import FiniteGroup
from .oracle import GenericSemigroup, MapCheck, is_regular, verify_map
from .rees import ReesSemigroup, SandwichMatrix


class CrossConnection(NamedTuple):
    """A connection and its dual, both read off one representative matrix."""

    matrix: SandwichMatrix

    @property
    def group(self) -> FiniteGroup:
        return self.matrix.group

    @property
    def n_i(self) -> int:
        return self.matrix.cols

    @property
    def n_lambda(self) -> int:
        return self.matrix.rows

    @property
    def opposite(self) -> CrossConnection:
        """The connection of P.transpose, whose connection side is this one's dual side."""
        return CrossConnection(self.matrix.transpose)


class DualMorphism(NamedTuple):
    """A morphism of a normal dual: 'sigma' between left cosets, 'tau' between right cosets."""

    kind: str
    h: int
    dom: CosetHandle
    cod: CosetHandle


def _kind_group(group: FiniteGroup, kind: str) -> FiniteGroup:
    """The group whose sigma arithmetic a dual morphism of this kind uses:
    a tau between right cosets is a sigma over the opposite group."""
    if kind == "sigma":
        return group
    if kind == "tau":
        return group.opposite
    raise ParseError(f"unknown dual morphism kind {kind!r}")


def sigma_apply(group: FiniteGroup, m: DualMorphism, values: Sequence[int]) -> tuple[int, ...]:
    """Apply a normal-dual morphism to a member of its domain coset.

    For sigma the input is dom_rep * g and the output cod_rep * (h * g);
    tau is the same over the opposite group, with the scalars on the left.
    """
    values = tuple(int(v) for v in values)
    base = m.dom.canonical
    if len(values) != len(base):
        raise NotInDomainCoset(f"tuple length {len(values)} does not match the coset")
    group = _kind_group(group, m.kind)
    g = values[0]  # canonical representatives carry the identity in coordinate 0
    if any(group.mul(b, g) != v for b, v in zip(base, values)):
        raise NotInDomainCoset(f"{values} is not in the domain coset of {base}")
    scale = group.mul(m.h, g)
    return tuple(group.mul(c, scale) for c in m.cod.canonical)


def compose_duals(group: FiniteGroup, m1: DualMorphism, m2: DualMorphism) -> DualMorphism:
    """m1 followed by m2.  Sigmas compose with reversed group order, taus in order."""
    if m1.kind != m2.kind:
        raise NotComposable(f"cannot compose {m1.kind} with {m2.kind}")
    if m1.cod != m2.dom:
        raise NotComposable("codomain coset of the first is not the domain of the second")
    h = _kind_group(group, m1.kind).mul(m2.h, m1.h)
    return DualMorphism(m1.kind, h, m1.dom, m2.cod)


Cones = tuple[np.ndarray, np.ndarray]


def as_cones(cones: Cones) -> list[Cone]:
    """A batch of cones (values, vertices) as `Cone`s of Python ints, for
    witnesses and reports."""
    values, vertices = cones
    return [Cone(tuple(v), x) for v, x in zip(values.tolist(), vertices.tolist())]


def as_cone(cones: Cones, k: int) -> Cone:
    """Cone k of a batch, as a `Cone` of Python ints."""
    return as_cones(kernel.pick(cones, [k]))[0]


def gamma_cells(conn: CrossConnection) -> Cones:
    """Every cell of the connection bifunctor, indexed [lam, i]: the cell
    (lam, i) is the right scalings of column i, `scaled[i]` (one per group
    element), at vertex lam.  Values (|Lambda|, |I|, |G|, |Lambda|) and
    vertices (|Lambda|, |I|, |G|), read-only views of `scaled`."""
    scaled = conn.matrix.scaled
    shape = (conn.n_lambda, *scaled.shape[:2])
    vertices = np.broadcast_to(np.arange(conn.n_lambda)[:, None, None], shape)
    return np.broadcast_to(scaled, (conn.n_lambda, *scaled.shape)), vertices


def delta_cells(conn: CrossConnection) -> Cones:
    """The dual cells, indexed [lam, i] as well: the left scalings of row lam, vertex i."""
    values, vertices = gamma_cells(conn.opposite)
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


class PhiReport(NamedTuple):
    """Outcome of checking that the pair representation is an isomorphism."""

    closed: bool
    closure_witness: str | None
    map_check: MapCheck | None

    @property
    def is_isomorphism(self) -> bool:
        return self.closed and self.map_check is not None and self.map_check.is_isomorphism

    @property
    def witness(self) -> str | None:
        """The map check's witness, or the closure witness when there is none."""
        return self.map_check.witness if self.map_check is not None else self.closure_witness


def is_regular_set(table: np.ndarray) -> bool:
    """Whether a set with this `kernel.cone_product_table` is closed (no -1) and,
    judged by the oracle, regular."""
    return bool((table >= 0).all()) and is_regular(GenericSemigroup(table))


class UCones:
    """U-Gamma (or U-Delta) by tuple class (`kernel.ConeClasses`, which finds
    its cones), and its `kernel.cone_product_table`.  A position -1 stands for
    an absent cone, so a product with one is read with `kernel.gather`."""

    def __init__(self, classes: kernel.ConeClasses, table: np.ndarray):
        self.classes = classes
        self.table = table

    @cached_property
    def regular(self) -> bool:
        """`is_regular_set` of the table, judged once however many checks ask."""
        return is_regular_set(self.table)


def _tabulate(cones: Cones, M: np.ndarray) -> UCones:
    """`UCones` of the cones, classed once and tabulated under mul_L over M."""
    classes = kernel.ConeClasses(cones)
    return UCones(classes, kernel.cone_product_table(M, classes))


class PairArrays(NamedTuple):
    """The linked pairs of a connection and the tables every scan of them reads.

    `gamma` and `delta` are the pairs' halves from `pair_cones`, pair k
    being phi of element k, and `g` and `d` their positions in U-Gamma and
    U-Delta (-1 where a half is absent): the positions of each element's
    principal cones.  `pair_at[x, y]` is the pair with halves U-Gamma[x] and
    U-Delta[y], or -1; its last row and column, all -1, absorb the -1 of an
    absent cone.  `table` is the pairs' product table, -1 where a product is
    no pair.
    """

    gamma: Cones
    delta: Cones
    u_gamma: UCones
    u_delta: UCones
    g: np.ndarray
    d: np.ndarray
    pair_at: np.ndarray
    table: np.ndarray

    def pair(self, p: int) -> LinkedPair:
        return LinkedPair(as_cone(self.gamma, p), as_cone(self.delta, p))

    def product_halves(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """The positions in U-Gamma and U-Delta of the halves of the product of
        each pair p of the rows with every pair q, gamma_p gamma_q and
        delta_q delta_p, read off the two tables as (rows, pairs) arrays:
        -1 where a half is outside its set."""
        g, d = self.g, self.d
        return (
            kernel.gather(self.u_gamma.table, g[rows], g),
            kernel.gather(self.u_delta.table.T, d[rows], d),
        )


def pair_arrays(S: ReesSemigroup) -> PairArrays:
    """The linked pairs (`pair_cones`), U-Gamma and U-Delta (`u_cones`) of S's
    connection, with the arrays and tables every scan of them reads.  The
    product of two pairs is componentwise, so row p of the pair table is
    gathered from the U-Gamma and U-Delta tables, `pair_at` at
    `product_halves`, in blocks of rows: no product of two pairs is formed
    and no pair key is searched."""
    P = S.matrix
    gamma, delta = pair_cones(P)
    ug = _tabulate(u_cones(P), S.group.array)
    ud = _tabulate(u_cones(P.transpose), S.group.opposite.array)
    g, d = ug.classes.find(gamma), ud.classes.find(delta)
    pair_at = np.full((len(ug.classes) + 1, len(ud.classes) + 1), -1, dtype=np.int32)
    inside = (g >= 0) & (d >= 0)
    pair_at[g[inside], d[inside]] = np.flatnonzero(inside)
    table = np.empty((len(g),) * 2, dtype=kernel.index_dtype(len(g)))
    linked = PairArrays(gamma, delta, ug, ud, g, d, pair_at, table)
    for rows in kernel.blocks(*table.shape):
        linked.table[rows] = pair_at[linked.product_halves(rows)]
    return linked


def verify_phi(S: ReesSemigroup, linked: PairArrays) -> PhiReport:
    """Check closure of the linked-pair product and that phi is a bijective homomorphism.

    `linked` is `pair_arrays(S)`, which the caller builds.  The pairs are
    closed when each pair's halves lie in U-Gamma and U-Delta and the
    gathered table has no -1.  Pair k is phi of element k, so phi sends k
    to that pair's position in `pair_at`; the map check goes through the
    independent table oracle rather than any closed form.  The pair table
    is not scanned for associativity: a bijective homomorphism from S
    carries S's associativity onto it.
    """
    outside = (linked.g < 0) | (linked.d < 0)
    if outside.any():
        p = int(outside.argmax())
        half, where = ("gamma", "U-Gamma") if linked.g[p] < 0 else ("delta", "U-Delta")
        return PhiReport(False, f"the {half} half of {linked.pair(p)} is not in {where}", None)
    bad = kernel.first_hole(linked.table)
    if bad is not None:
        p, q = (linked.pair(k) for k in bad)
        return PhiReport(False, f"product of {p} and {q} is not a linked pair", None)
    f = linked.pair_at[linked.g, linked.d]
    check = verify_map(f.tolist(), S.to_generic(), GenericSemigroup(linked.table))
    return PhiReport(True, None, check)


def matrix_of(group: FiniteGroup, handles: Sequence[CosetHandle]) -> SandwichMatrix:
    """The matrix read off an object assignment: column i is the canonical
    representative of the i-th coset handle."""
    if not handles:
        raise ParseError("need at least one coset handle")
    if any(h.side != "left" for h in handles):
        raise ParseError("object assignments use left coset handles")
    depth = len(handles[0].canonical)
    if any(len(h.canonical) != depth for h in handles):
        raise ParseError("coset handles have inconsistent lengths")
    entries = [[h.canonical[lam] for h in handles] for lam in range(depth)]
    return SandwichMatrix(group, entries)


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


def gamma_images(conn: CrossConnection) -> Images:
    """The connection functor on the right-ideal category, as arrays.

    Object i goes to the left coset of column i, whose canonical tuple is
    col_i * col_i[0]^-1: all columns in one gather, `kernel.canonical` of
    the rows of P^T.  kappa(g): i1 -> i2 goes to sigma_g
    between the cosets of i1 and i2.  A coset id stands for a canonical
    tuple, so two images agree exactly when their (h, dom, cod) agree.
    """
    G = conn.group
    objects = kernel.canonical(G.array, np.asarray(G.inverse), conn.matrix.array.T)
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


def delta_images(conn: CrossConnection) -> Images:
    """The dual functor on the left-ideal category: lam goes to the right coset
    of row lam and rho(g) to tau_g, which is `gamma_images` of the opposite
    connection, over G^op and P^T."""
    return gamma_images(conn.opposite)


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
        o1, o2 = np.divmod(np.arange(n * n)[rows], n)
        h1, dom1, cod1 = (x[o1, o2][:, None, :, None] for x in (im.h, im.dom, im.cod))
        h2, dom2, cod2 = (x[o2][:, :, None, :] for x in (im.h, im.dom, im.cod))
        h, dom, cod = (x[o1][:, :, C] for x in (im.h, im.dom, im.cod))
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

    The image of kappa(g) sends the member x = dom * x[0] of the coset of
    i1 to cod * (h * x[0]); it induces a map only when its domain holds
    every member of that coset.  A map is the row of its outputs.
    """
    n, order = len(im.objects), len(im.M)
    M, ids = im.M, np.arange(order)
    maps = np.empty(n * n, dtype=np.intp)
    for rows in kernel.blocks(n * n, order * order * im.objects.shape[1]):
        i1, i2 = np.divmod(np.arange(n * n)[rows], n)
        # axes [hom-set, g, member, coordinate]; member x is object i1's tuple times x
        members = M[im.objects[i1][:, None, :], ids[:, None]][:, None]
        first = members[..., :1]
        base = im.canonical[im.dom[i1, i2]][:, :, None]
        inside = (M[base, first] == members).all(axis=(2, 3))
        scale = M[im.h[i1, i2][:, :, None], first[..., 0]]
        outputs = M[im.canonical[im.cod[i1, i2]][:, :, None], scale[..., None]]
        hom = np.broadcast_to(np.arange(len(i1))[:, None], inside.shape)
        maps[rows] = kernel.distinct_counts(
            hom[inside], len(i1), outputs.reshape(*inside.shape, -1)[inside]
        )
    return maps


def verify_crossconnection(conn: CrossConnection) -> list[Check]:
    """Functor, faithfulness, ideal-restriction and coverage checks for the connection.

    Failures land in the returned checks rather than raising.  Each check
    reads the image arrays of `gamma_images` and `delta_images` in one
    array pass over its hom-sets or objects; the witness is the first
    failure in the order a loop over them would meet it.
    """
    G = conn.group
    n_i, n_l = conn.n_i, conn.n_lambda
    checks: list[Check] = []

    # Covariant functor laws, identities included, for the connection and its dual.
    gamma, delta = gamma_images(conn), delta_images(conn)
    for name, cat, im in (
        ("gamma", right_category(G, n_i), gamma),
        ("delta", left_category(G, n_l), delta),
    ):
        witness = _functor_witness(cat, im)
        checks.append(Check(f"crossconn.functor_{name}", witness is None, witness))

    # Fully faithful: on each hom-set the induced coset maps are pairwise
    # distinct and there are exactly |G| of them.  An image whose domain is
    # not the object's coset induces no map on it.
    maps = _induced_maps(gamma)
    bad = np.flatnonzero(maps != G.order)
    witness = None
    if len(bad):
        i1, i2 = divmod(int(bad[0]), n_i)
        witness = f"hom({i1},{i2}) induces {maps[bad[0]]} maps, expected {G.order}"
    checks.append(Check("crossconn.fully_faithful", witness is None, witness))

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
    checks.append(Check("crossconn.ideal_restriction", witness is None, witness))

    # Coverage: every left-ideal object carries an isomorphism component
    # of some (here: every) image cone, scanned rather than assumed: the
    # image cones are the columns, and a column's components are
    # isomorphisms when each entry v has v v^-1 = v^-1 v = e.
    M, P, inverse = G.array, conn.matrix.array, np.asarray(G.inverse)
    iso = ((M[P, inverse[P]] == G.identity) & (M[inverse[P], P] == G.identity)).all(axis=0)
    witness = None if iso.any() else f"objects {list(range(n_l))} are not covered"
    checks.append(Check("crossconn.coverage", witness is None, witness))

    return checks
