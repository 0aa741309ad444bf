"""Cross-connections determined by a sandwich matrix.

A sandwich matrix links the two ideal categories: each column spans a
left coset of the diagonal group inside G^Lambda (the object map of the
connection), each row a right coset inside G^I (its dual).  The linked
cone pairs form a semigroup isomorphic to the Rees matrix semigroup
itself, which is what the verification suite checks exhaustively.

Every cone set of the connection is read off one array,
`SandwichMatrix.scaled`, whose entry [i, g] is col_i * g.  U-Gamma is its
distinct tuples at every vertex (`u_cones`); the cell (lam, i) of the
bifunctor is its slice [i] at vertex lam (`gamma_cell`); and the linked
pair of the element (g, i, lam) is ((col_i * g, lam), (g * row_lam, i))
(`pair_cones`), which is that element's image under phi, its pair of
principal cones.  So pair k is phi of element k, by one formula, and no
second list of phi's images is formed.

The dual side is never written out: a row of P is a column of P^T, a
right coset over G is a left coset over G^op, so every dual set is its
connection-side twin over the transposed matrix (`SandwichMatrix.transpose`,
whose `scaled` is [lam, g] = g * row_lam) and every dual map its twin
applied to `CrossConnection.opposite`.

`verify_crossconnection` calls each functor once per morphism and records
the images as (h, dom id, cod id) arrays; the functor laws,
`fully_faithful` and `ideal_restriction` then run on those arrays, one
pair of objects or one hom-set at a time.  `gamma_apply` and
`delta_apply` stay the definitions, and a faulty image is a failed check,
never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from . import kernel
from .categories import Cone, Morphism, left_category, right_category
from .checks import Check
from .cones import CosetHandle, coset_normalize
from .errors import NotComposable, NotInDomainCoset, ParseError
from .groups import FiniteGroup
from .oracle import GenericSemigroup, MapCheck, verify_map
from .rees import ReesSemigroup, SandwichMatrix


@dataclass(frozen=True)
class CrossConnection:
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


@dataclass(frozen=True)
class DualMorphism:
    """A morphism of a normal dual: 'sigma' between left cosets, 'tau' between right cosets."""

    kind: str
    h: int
    dom: CosetHandle
    cod: CosetHandle


def gamma_apply(conn: CrossConnection, x):
    """The connection functor on the right-ideal category.

    An object index i goes to the left coset of column i; a morphism
    kappa(g) goes to sigma_g between the corresponding cosets.
    """
    if isinstance(x, Morphism):
        return DualMorphism(
            "sigma", x.g, gamma_apply(conn, x.dom), gamma_apply(conn, x.cod)
        )
    return coset_normalize(conn.group, "left", conn.matrix.column(x))


def delta_apply(conn: CrossConnection, x):
    """The dual functor on the left-ideal category: lam -> right coset of row lam, rho(g) -> tau_g."""
    if isinstance(x, Morphism):
        return DualMorphism("tau", x.g, delta_apply(conn, x.dom), delta_apply(conn, x.cod))
    return coset_normalize(conn.group, "right", conn.matrix.row(x))


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


def _right_factor(group: FiniteGroup, base: Sequence[int], values: Sequence[int]) -> int | None:
    """g with values == base * g pointwise, or None."""
    if len(base) != len(values):
        return None
    g = group.mul(group.inv(base[0]), values[0])
    if all(group.mul(b, g) == v for b, v in zip(base, values)):
        return g
    return None


Cones = tuple[np.ndarray, np.ndarray]


def as_cones(cones: Cones) -> list[Cone]:
    """A batch of cones (values, vertices) as `Cone`s of Python ints, for
    witnesses and reports."""
    values, vertices = cones
    return [Cone(tuple(v), x) for v, x in zip(values.tolist(), vertices.tolist())]


def as_cone(cones: Cones, k: int) -> Cone:
    """Cone k of a batch, as a `Cone` of Python ints."""
    return as_cones(kernel.pick(cones, [k]))[0]


def gamma_cell(conn: CrossConnection, lam: int, i: int) -> Cones:
    """The cell (lam, i) of the connection bifunctor: the right scalings of
    column i, `scaled[i]` (one per group element), at vertex lam."""
    values = conn.matrix.scaled[i]
    return values, np.full(len(values), lam)


def delta_cell(conn: CrossConnection, lam: int, i: int) -> Cones:
    """The dual cell: the left scalings of row lam, vertex i."""
    return gamma_cell(conn.opposite, i, lam)


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


@dataclass(frozen=True)
class LinkedPair:
    gamma: Cone
    delta: Cone


@dataclass(frozen=True)
class PhiReport:
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


class UCones(NamedTuple):
    """U-Gamma (or U-Delta) by tuple class (`kernel.ConeClasses`, which finds
    its cones), and its `kernel.cone_product_table`, padded with a last row
    and column of -1 so that the position -1 of an absent cone reads -1."""

    classes: kernel.ConeClasses
    table: np.ndarray


def _tabulate(cones: Cones, M: np.ndarray) -> UCones:
    """`UCones` of the cones, classed once and tabulated under mul_L over M."""
    classes = kernel.ConeClasses(cones)
    table = np.pad(kernel.cone_product_table(M, classes), (0, 1), constant_values=-1)
    return UCones(classes, table)


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

    def product_halves(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions in U-Gamma and U-Delta of the halves of the product of
        pair p with every pair q, gamma_p gamma_q and delta_q delta_p,
        read off the two tables: -1 where a half is outside its set."""
        return self.u_gamma.table[self.g[p], self.g], self.u_delta.table[self.d, self.d[p]]


def pair_arrays(S: ReesSemigroup) -> PairArrays:
    """The linked pairs (`pair_cones`), U-Gamma and U-Delta (`u_cones`) of S's
    connection, with the arrays and tables every scan of them reads.  The
    product of two pairs is componentwise, so row p of the pair table is
    gathered from the U-Gamma and U-Delta tables, `pair_at` at
    `product_halves(p)`: no product of two pairs is formed and no pair key
    is searched."""
    P = S.matrix
    gamma, delta = pair_cones(P)
    ug = _tabulate(u_cones(P), S.group.array)
    ud = _tabulate(u_cones(P.transpose), S.group.opposite.array)
    g, d = ug.classes.find(gamma), ud.classes.find(delta)
    pair_at = np.full((len(ug.classes) + 1, len(ud.classes) + 1), -1, dtype=np.int32)
    inside = (g >= 0) & (d >= 0)
    pair_at[g[inside], d[inside]] = np.flatnonzero(inside)
    table = np.empty((len(g),) * 2, dtype=np.int32)
    linked = PairArrays(gamma, delta, ug, ud, g, d, pair_at, table)
    for p in range(len(g)):
        linked.table[p] = pair_at[linked.product_halves(p)]
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


class _Images(NamedTuple):
    """The images of every morphism of a category under a functor into a
    normal dual, as (n, n, |G|) arrays indexed [dom, cod, g]."""

    h: np.ndarray
    dom: np.ndarray  # coset ids, numbered by first appearance of (kind, handle)
    cod: np.ndarray
    canonical: np.ndarray  # (ids, k): the canonical tuple of each coset id
    M: np.ndarray  # Cayley array of the group the images' kind computes in


def _images(conn: CrossConnection, cat, apply_) -> _Images:
    """One scalar call of the functor per morphism, recorded as arrays.

    A coset id stands for a kind together with a handle, so two images agree
    as DualMorphisms exactly when their (h, dom, cod) rows agree.  A functor
    whose images mix kinds fails the functor law on the ids.
    """
    images = [apply_(conn, m) for m in cat.morphisms()]
    ids: dict = {}
    rows = [
        (m.h, ids.setdefault((m.kind, m.dom), len(ids)), ids.setdefault((m.kind, m.cod), len(ids)))
        for m in images
    ]
    n = cat.n_objects
    table = np.array(rows, dtype=np.intp).reshape(n, n, cat.group.order, 3)
    h, dom, cod = np.moveaxis(table, -1, 0)
    canonical = np.array([handle.canonical for _, handle in ids], dtype=np.intp)
    return _Images(h, dom, cod, canonical, _kind_group(conn.group, images[0].kind).array)


def _functor_witness(cat, im: _Images) -> str | None:
    """The first failure of the functor laws, identities first, then the
    composites of m1 = (o1, o2, g1) and m2 = (o2, o3, g2) in (o1, o2, o3, g1, g2) order."""
    e = cat.group.identity
    for obj in cat.objects():
        if im.h[obj, obj, e] != e or im.dom[obj, obj, e] != im.cod[obj, obj, e]:
            return f"identity at object {obj} is not sent to an identity"
    n, order = cat.n_objects, cat.group.order
    C = cat.group.array

    def bad_row(a: int) -> np.ndarray:
        # axes [o3, g1, g2]: the image of m1 * m2 against the composite of the images
        o1, o2 = divmod(a, n)
        h1, dom1, cod1 = (x[o1, o2][:, None] for x in (im.h, im.dom, im.cod))
        h2, dom2, cod2 = (x[o2][:, None, :] for x in (im.h, im.dom, im.cod))
        h, dom, cod = (x[o1][:, C] for x in (im.h, im.dom, im.cod))
        return ((cod1 != dom2) | (h != im.M[h2, h1]) | (dom != dom1) | (cod != cod2)).ravel()

    bad = kernel.first_failure(n * n, bad_row)
    if bad is None:
        return None
    (o1, o2), (o3, rest) = divmod(bad[0], n), divmod(bad[1], order * order)
    g1, g2 = divmod(rest, order)
    return f"composite of {Morphism(o1, o2, g1)} and {Morphism(o2, o3, g2)} is not preserved"


def verify_crossconnection(conn: CrossConnection) -> list[Check]:
    """Functor, faithfulness, ideal-restriction and coverage checks for the connection.

    Failures land in the returned checks rather than raising.  The functor
    is applied once per morphism and the laws are checked on the image
    arrays, one pair of objects (o1, o2) at a time.
    """
    G = conn.group
    n_i, n_l = conn.n_i, conn.n_lambda
    checks: list[Check] = []
    rcat = right_category(G, n_i)
    lcat = left_category(G, n_l)

    # Covariant functor laws, identities included, for the connection and its dual.
    gamma = _images(conn, rcat, gamma_apply)
    delta = _images(conn, lcat, delta_apply)
    for name, cat, im in (("gamma", rcat, gamma), ("delta", lcat, delta)):
        witness = _functor_witness(cat, im)
        checks.append(Check(f"crossconn.functor_{name}", witness is None, witness))

    # Fully faithful: on each hom-set the induced coset maps are pairwise
    # distinct and there are exactly |G| of them.  An image whose domain is
    # not the object's coset induces no map on it.
    witness = None
    for i1, i2 in product(range(n_i), repeat=2):
        members = G.array[np.array(gamma_apply(conn, i1).canonical)].T  # row g: dom * g
        members = members[np.lexsort(members.T[::-1])]
        first = members[:, 0]
        base = gamma.canonical[gamma.dom[i1, i2]]
        inside = (gamma.M[base[:, None, :], first[None, :, None]] == members).all(axis=(1, 2))
        scale = gamma.M[gamma.h[i1, i2][:, None], first]
        outputs = gamma.M[gamma.canonical[gamma.cod[i1, i2]][:, None, :], scale[:, :, None]]
        actions = set(kernel.row_keys(outputs.reshape(G.order, -1)[inside]).tolist())
        if len(actions) != G.order:
            witness = f"hom({i1},{i2}) induces {len(actions)} maps, expected {G.order}"
            break
    checks.append(Check("crossconn.fully_faithful", witness is None, witness))

    # With no nontrivial inclusions every principal ideal is a single
    # object, so the restriction being an isomorphism reduces to the
    # endomorphism hom-sets matching up bijectively.
    witness = None
    for i in range(n_i):
        images = set(kernel.row_keys(gamma.h[i, i], gamma.dom[i, i], gamma.cod[i, i]).tolist())
        if len(images) != G.order:
            witness = f"restriction to object {i} is not a bijection on endomorphisms"
            break
    checks.append(Check("crossconn.ideal_restriction", witness is None, witness))

    # Coverage: every left-ideal object carries an isomorphism component
    # of some (here: every) image cone, scanned rather than assumed.
    witness = None
    covered: set[int] = set()
    for i in range(n_i):
        col = conn.matrix.column(i)
        for lam in range(n_l):
            components_iso = all(
                G.mul(v, G.inv(v)) == G.identity and G.mul(G.inv(v), v) == G.identity
                for v in col
            )
            if components_iso:
                covered.add(lam)
    if covered != set(range(n_l)):
        witness = f"objects {sorted(set(range(n_l)) - covered)} are not covered"
    checks.append(Check("crossconn.coverage", witness is None, witness))

    return checks
