"""Cross-connections determined by a sandwich matrix.

A sandwich matrix links the two ideal categories: each column spans a
left coset of the diagonal group inside G^Lambda (the object map of the
connection), each row a right coset inside G^I (its dual).  The linked
cone pairs form a semigroup isomorphic to the Rees matrix semigroup
itself, which is what the verification suite checks exhaustively.

The dual side is never written out: a row of P is a column of P^T, a
right coset over G is a left coset over G^op, so every dual map is its
connection-side twin applied to `CrossConnection.opposite`, the
connection of the transposed matrix over the opposite group.

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
from .cones import CosetHandle, coset_normalize, mul_L, principal_pair
from .errors import (
    ElementNotInCell,
    NotComposable,
    NotInDomainCoset,
    ParseError,
    SizeGuardExceeded,
)
from .groups import FiniteGroup
from .oracle import GenericSemigroup, MapCheck, verify_map
from .rees import DEFAULT_SIZE_GUARD, ReesElement, ReesSemigroup, SandwichMatrix, identity_matrix


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


def gamma_cell(conn: CrossConnection, lam: int, i: int) -> list[Cone]:
    """The cell of the connection bifunctor: all right scalings of column i, vertex lam."""
    G = conn.group
    col = conn.matrix.column(i)
    return [Cone(tuple(G.mul(p, g) for p in col), lam) for g in G.elements()]


def delta_cell(conn: CrossConnection, lam: int, i: int) -> list[Cone]:
    """The dual cell: all left scalings of row lam, vertex i."""
    return gamma_cell(conn.opposite, i, lam)


def bifunctor_gamma(
    conn: CrossConnection, rho: Morphism, kappa: Morphism, cone: Cone
) -> Cone:
    """Cell map of the bifunctor: (col_{i1} * g, lam1) -> (col_{i2} * (g1*g*g2), lam2)

    for rho = g2 : lam1 -> lam2 and kappa = g1 : i1 -> i2.
    """
    G = conn.group
    if cone.vertex != rho.dom:
        raise ElementNotInCell(
            f"cone vertex {cone.vertex} is not the domain {rho.dom} of the first morphism"
        )
    g = _right_factor(G, conn.matrix.column(kappa.dom), cone.values)
    if g is None:
        raise ElementNotInCell(f"cone tuple is not a right scaling of column {kappa.dom}")
    scale = G.mul(G.mul(kappa.g, g), rho.g)
    return Cone(tuple(G.mul(p, scale) for p in conn.matrix.column(kappa.cod)), rho.cod)


def u_gamma(conn: CrossConnection, bound: int = DEFAULT_SIZE_GUARD) -> list[Cone]:
    """All cones whose tuple is a scaled matrix column, deduplicated in (g, i, lam) order."""
    G = conn.group
    total = G.order * conn.n_i * conn.n_lambda
    if total > bound:
        raise SizeGuardExceeded(f"would enumerate {total} cones, above the bound {bound}")
    out: list[Cone] = []
    seen: set[Cone] = set()
    for g in G.elements():
        for i in range(conn.n_i):
            values = tuple(G.mul(p, g) for p in conn.matrix.column(i))
            for lam in range(conn.n_lambda):
                c = Cone(values, lam)
                if c not in seen:
                    seen.add(c)
                    out.append(c)
    return out


def u_delta(conn: CrossConnection, bound: int = DEFAULT_SIZE_GUARD) -> list[Cone]:
    """All cones whose tuple is a left-scaled matrix row, deduplicated in (g, lam, i) order."""
    return u_gamma(conn.opposite, bound)


def chi(conn: CrossConnection, gamma: Cone, i: int) -> Cone:
    """The duality on the cell (gamma.vertex, i): (col_i * g, lam) -> (g * row_lam, i)."""
    G = conn.group
    g = _right_factor(G, conn.matrix.column(i), gamma.values)
    if g is None:
        raise ElementNotInCell(f"cone tuple is not a right scaling of column {i}")
    return Cone(tuple(G.mul(g, p) for p in conn.matrix.row(gamma.vertex)), i)


def is_linked(conn: CrossConnection, gamma: Cone, delta: Cone) -> bool:
    """Linkage test: both cones factor through the cell (gamma.vertex, delta.vertex)
    and the two extracted scalars coincide (the first-coordinate criterion)."""
    g1 = _right_factor(conn.group, conn.matrix.column(delta.vertex), gamma.values)
    if g1 is None:
        return False
    g2 = _right_factor(conn.group.opposite, conn.matrix.row(gamma.vertex), delta.values)
    return g2 is not None and g1 == g2


@dataclass(frozen=True)
class LinkedPair:
    gamma: Cone
    delta: Cone


def linked_pairs(conn: CrossConnection, size_guard: int = DEFAULT_SIZE_GUARD) -> list[LinkedPair]:
    """The linked cone pairs ((col_i * g, lam), (g * row_lam, i)) in (g, i, lam) order."""
    G = conn.group
    total = G.order * conn.n_i * conn.n_lambda
    if total > size_guard:
        raise SizeGuardExceeded(f"would enumerate {total} pairs, above the guard {size_guard}")
    out = []
    for g in G.elements():
        for i in range(conn.n_i):
            gamma_values = tuple(G.mul(p, g) for p in conn.matrix.column(i))
            for lam in range(conn.n_lambda):
                delta_values = tuple(G.mul(g, p) for p in conn.matrix.row(lam))
                out.append(LinkedPair(Cone(gamma_values, lam), Cone(delta_values, i)))
    return out


def s_tilde_mul(conn: CrossConnection, p1: LinkedPair, p2: LinkedPair) -> LinkedPair:
    """(gamma, delta) o (gamma', delta') = (gamma * gamma', delta' * delta)."""
    G = conn.group
    return LinkedPair(mul_L(G, p1.gamma, p2.gamma), mul_L(G.opposite, p2.delta, p1.delta))


def phi(S: ReesSemigroup, a: ReesElement) -> LinkedPair:
    """The representation of an element as its pair of principal cones."""
    rho, lam = principal_pair(S, a)
    return LinkedPair(rho, lam)


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


def _pair_cones(pairs: Sequence[LinkedPair]):
    """The gamma and the delta halves of the pairs as cone arrays."""
    return (
        kernel.cone_arrays([p.gamma for p in pairs]),
        kernel.cone_arrays([p.delta for p in pairs]),
    )


class UCones(NamedTuple):
    """U-Gamma (or U-Delta) as cones, as cone arrays, with a `KeyIndex` over
    them and their `kernel.cone_product_table`, padded with a last row and
    column of -1 so that the position -1 of an absent cone reads -1."""

    cones: list[Cone]
    arrays: tuple[np.ndarray, np.ndarray]
    index: kernel.KeyIndex
    table: np.ndarray

    def find(self, cones: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The position of each cone of the batch here, or -1 where it is absent."""
        return self.index.find(kernel.row_keys(*cones))


def _u_cones(cones: list[Cone], M: np.ndarray) -> UCones:
    """`UCones` of the cones, tabulated under mul_L over the group with Cayley array M."""
    arrays = kernel.cone_arrays(cones)
    table = np.pad(kernel.cone_product_table(M, arrays), (0, 1), constant_values=-1)
    return UCones(cones, arrays, kernel.KeyIndex(kernel.row_keys(*arrays)), table)


class PairArrays(NamedTuple):
    """The linked pairs of a connection and the tables every scan of them reads.

    `gamma` and `delta` are the pairs' halves as cone arrays, and `g` and `d`
    their positions in U-Gamma and U-Delta (-1 where a half is absent).
    `pair_at[x, y]` is the pair with halves U-Gamma[x] and U-Delta[y], or
    -1; its last row and column, all -1, absorb the -1 of an absent cone.
    `table` is the pairs' product table, -1 where a product is no pair.
    `phi_at` is (r, l): for each element a of S, in index order, the
    positions in U-Gamma and U-Delta of the halves of `phi(S, a)`, its
    principal cones, or -1 where a half is absent.
    """

    pairs: list[LinkedPair]
    gamma: tuple[np.ndarray, np.ndarray]
    delta: tuple[np.ndarray, np.ndarray]
    u_gamma: UCones
    u_delta: UCones
    g: np.ndarray
    d: np.ndarray
    pair_at: np.ndarray
    table: np.ndarray
    phi_at: tuple[np.ndarray, np.ndarray]

    def product_halves(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions in U-Gamma and U-Delta of the halves of `s_tilde_mul`
        of pair p with every pair q, gamma_p gamma_q and delta_q delta_p,
        read off the two tables: -1 where a half is outside its set."""
        return self.u_gamma.table[self.g[p], self.g], self.u_delta.table[self.d, self.d[p]]


def pair_arrays(S: ReesSemigroup) -> PairArrays:
    """`linked_pairs`, `u_gamma` and `u_delta` of S's connection, with the
    arrays and tables every scan of them reads, and the positions of phi's
    images.  The product of two pairs is componentwise, so row p of the
    pair table is gathered from the U-Gamma and U-Delta tables, `pair_at`
    at `product_halves(p)`: no product of two pairs is formed and no pair
    key is searched.  Building S has already enforced the size guard."""
    conn = CrossConnection(S.matrix)
    pairs = linked_pairs(conn, size_guard=S.size)
    gamma, delta = _pair_cones(pairs)
    M = kernel.group_array(conn.group)
    ug = _u_cones(u_gamma(conn, bound=S.size), M)
    ud = _u_cones(u_delta(conn, bound=S.size), M.T)
    g, d = ug.find(gamma), ud.find(delta)
    pair_at = np.full((len(ug.cones) + 1, len(ud.cones) + 1), -1, dtype=np.int32)
    inside = (g >= 0) & (d >= 0)
    pair_at[g[inside], d[inside]] = np.flatnonzero(inside)
    rho, lam = _pair_cones([phi(S, a) for a in S.elements()])
    phi_at = ug.find(rho), ud.find(lam)
    table = np.empty((len(pairs),) * 2, dtype=np.int32)
    linked = PairArrays(pairs, gamma, delta, ug, ud, g, d, pair_at, table, phi_at)
    for p in range(len(pairs)):
        linked.table[p] = pair_at[linked.product_halves(p)]
    return linked


def verify_phi(S: ReesSemigroup, linked: PairArrays | None = None) -> PhiReport:
    """Check closure of the linked-pair product and that phi is a bijective homomorphism.

    `linked` is `pair_arrays(S)`, built here when not given.  The pairs are
    closed when each pair's halves lie in U-Gamma and U-Delta and the
    gathered table has no -1.  The map check goes through the independent
    table oracle rather than any closed form; an image of phi that is no
    linked pair fails it.  The pair table is not scanned for
    associativity: a bijective homomorphism from S carries S's
    associativity onto it.
    """
    if linked is None:
        linked = pair_arrays(S)
    outside = (linked.g < 0) | (linked.d < 0)
    if outside.any():
        p = int(outside.argmax())
        half, where = ("gamma", "U-Gamma") if linked.g[p] < 0 else ("delta", "U-Delta")
        return PhiReport(False, f"the {half} half of {linked.pairs[p]} is not in {where}", None)
    bad = kernel.first_hole(linked.table)
    if bad is not None:
        p, q = (linked.pairs[k] for k in bad)
        return PhiReport(False, f"product of {p} and {q} is not a linked pair", None)
    f = linked.pair_at[linked.phi_at]
    if (f < 0).any():
        stray = f"phi({S.element(int(np.argmax(f < 0)))}) is not a linked pair"
        return PhiReport(True, None, MapCheck(False, False, False, stray))
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


def rbg(group: FiniteGroup, n_i: int, n_lambda: int) -> CrossConnection:
    """The rectangular band of groups: the connection of the constant-identity matrix."""
    return CrossConnection(identity_matrix(group, n_lambda, n_i))


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
    M = kernel.group_array(_kind_group(conn.group, images[0].kind))
    return _Images(h, dom, cod, canonical, M)


def _functor_witness(cat, im: _Images) -> str | None:
    """The first failure of the functor laws, identities first, then the
    composites of m1 = (o1, o2, g1) and m2 = (o2, o3, g2) in (o1, o2, o3, g1, g2) order."""
    e = cat.group.identity
    for obj in cat.objects():
        if im.h[obj, obj, e] != e or im.dom[obj, obj, e] != im.cod[obj, obj, e]:
            return f"identity at object {obj} is not sent to an identity"
    n, order = cat.n_objects, cat.group.order
    C = kernel.group_array(cat.group)

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
    M = kernel.group_array(G)
    witness = None
    for i1, i2 in product(range(n_i), repeat=2):
        members = M[np.array(gamma_apply(conn, i1).canonical)].T  # row g: dom * g
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
