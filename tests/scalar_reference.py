"""Scalar loop versions of the O(|S|^2) scans that the suites run on arrays.

These are the loop bodies the array kernel replaced, kept as the
reference that tests compare it against; the table oracle's scans
(`left_ideal`, `right_ideal`, `is_regular`, `verify_map`, ...) read the
table through the scalar `GenericSemigroup.mul`.  `cone_product_table` and
`is_linked_row` are the row-at-a-time kernel scans that the tables by
tuple class replaced.

The scalar definitions of the cone product and of what the T_L checks
hold it against live here too: `mul_L`, the action `act`, the coset key
`coset_normalize`, `is_idempotent_cone` and the list `enumerate_TL`, with
the loops of those checks (`tl_checks`) and of the groupoid checks
(`groupoid_witness`).  So do the scalar definitions of the connection's
cone sets and functors, each a loop over `FiniteGroup.mul`: the
`right_factor` of a tuple, the principal cones
(`principal_pair`, `phi`), the linked pairs and their product
(`linked_pairs`, `s_tilde_mul`), U-Gamma and U-Delta, the cells of the
bifunctor, its cell map, the duality `chi`, linkage (`is_linked`), the
connection functor and its dual (`gamma_apply`, `delta_apply`), the
Green relations of cones and the category's cone product
(`compose_cones`).  The package reads every one of those sets off
`SandwichMatrix.scaled`, and the functors' images off
`SandwichMatrix.array`, and tests compare the two.

The scalar normal dual N*L lives only here: coset handles
(`CosetHandle`, from `coset_normalize`), its morphisms (`DualMorphism`)
with their application and composition (`sigma_apply`, `compose_duals`),
and `matrix_of`, the matrix read off an object assignment.  The package
states N*L once, as the image arrays of `connections.gamma_images`, whose
object tuples `crossconn.matrix_roundtrip` reads.  The loops call the
scalar functions through this module's globals (`mul_L`,
`coset_normalize`, ...) or the package's modules, so a fault patched
into one of those reaches them too.

The faults at the end are the ones the negative controls patch into the
action of the objects on tuples (`cones.act` and `act`), into the
functors (`gamma_apply` and `delta_apply` here, `connections.gamma_images`
and `delta_images` in the package), into both linkage tests (the scalar
`is_linked` and the array comparison `kernel.same_factor`), into
`ArrowCategory.compose`, into `SandwichMatrix.transpose`, into the cells
(`connections.gamma_cells`), into both linked-pair products and into
the pairs themselves (`connections.pair_cones`); each patches the array
builder and its scalar reference here alike.  `left_scaled_mul_L` and
`constant_mul_L` are faulty forms of `kernel.mul_L` itself.
`CorruptedTable` replaces entries of the index table, which the suites
and the scalar references read alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product
from typing import NamedTuple, Sequence
from unittest import mock

import numpy as np

from crossconn import cones, connections, kernel, oracle
from crossconn.categories import ArrowCategory, Cone, Morphism, left_category, right_category
from crossconn.checks import Check
from crossconn.connections import Images, LinkedPair
from crossconn.errors import (
    CrossconnError,
    IndexOutOfRange,
    NotAssociative,
    NotComposable,
    ParseError,
)
from crossconn.groups import FiniteGroup
from crossconn.oracle import (
    GenericSemigroup,
    canonical_partition,
    partition_by_key,
)
from crossconn.rees import ReesElement, ReesSemigroup, SandwichMatrix


class ElementNotInCell(CrossconnError):
    """A cone fed to a scalar cell map is not a scaled matrix column or row.
    The array scans never raise it: such a cone fails its check."""


class NotInDomainCoset(CrossconnError):
    """A tuple fed to a normal-dual morphism lies outside its domain coset.
    The array scans never raise it: such an image induces no map."""


class CosetHandle(NamedTuple):
    """Canonical representative of a coset of the diagonal copy of G.

    side 'left' stands for tuple*G, side 'right' for G*tuple (the left
    coset over the opposite group); in both cases the representative has
    the identity in coordinate 0, so two cosets are equal exactly when
    their handles are equal.  The package's twin is a row of
    `kernel.canonical`.
    """

    side: str
    canonical: tuple[int, ...]


class DualMorphism(NamedTuple):
    """A morphism of a normal dual: 'sigma' between left cosets, 'tau' between
    right cosets.  The package's twin is a row (h, dom id, cod id) of
    `connections.Images`."""

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


def cone_arrays(cones_) -> tuple[np.ndarray, np.ndarray]:
    """Cones over one object set, a list of `Cone`s, as one batch (values (m, k),
    vertices (m,)): the inverse of `connections.as_cones`."""
    values = np.array([c.values for c in cones_], dtype=np.intp).reshape(len(cones_), -1)
    return values, np.array([c.vertex for c in cones_], dtype=np.intp)


def column(P: SandwichMatrix, i: int) -> tuple[int, ...]:
    """Column i of the matrix, as a tuple of ints."""
    return tuple(P.array[:, i].tolist())


def row(P: SandwichMatrix, lam: int) -> tuple[int, ...]:
    """Row lam of the matrix, as a tuple of ints."""
    return tuple(P.array[lam].tolist())


def act(group: FiniteGroup, k: int, values) -> tuple[int, ...]:
    """Left action of object k on a tuple: broadcast the k-th coordinate."""
    if not 0 <= k < len(values):
        raise IndexOutOfRange(f"object {k} out of range for a tuple of length {len(values)}")
    return (values[k],) * len(values)


def mul_L(group: FiniteGroup, c1: Cone, c2: Cone) -> Cone:
    """Semidirect product on the left-ideal side: scale c1's tuple on the right
    by c2's value at c1's vertex."""
    g_k = c2.values[c1.vertex]
    return Cone(tuple(group.mul(v, g_k) for v in c1.values), c2.vertex)


def coset_normalize(group: FiniteGroup, side: str, values) -> CosetHandle:
    """The handle of the coset tuple*G (side 'left') or G*tuple ('right'):
    its member with the identity in coordinate 0."""
    values = tuple(int(v) for v in values)
    if not values:
        raise IndexOutOfRange("cannot normalize an empty tuple")
    if side == "right":
        group = group.opposite
    elif side != "left":
        raise ParseError(f"side must be 'left' or 'right', got {side!r}")
    a = group.inv(values[0])
    return CosetHandle(side, tuple(group.mul(v, a) for v in values))


def is_idempotent_cone(group: FiniteGroup, c: Cone) -> bool:
    """Closed form: the coordinate at the vertex is the identity."""
    return c.values[c.vertex] == group.identity


def enumerate_TL(group: FiniteGroup, n_lambda: int) -> list[Cone]:
    """All of G^Lambda x Lambda in lexicographic (tuple, vertex) order."""
    return [
        Cone(values, vertex)
        for values in product(group.elements(), repeat=n_lambda)
        for vertex in range(n_lambda)
    ]


def right_factor(group: FiniteGroup, base, values) -> int | None:
    """g with values == base * g pointwise, or None."""
    if len(base) != len(values):
        return None
    g = group.mul(group.inv(base[0]), values[0])
    if all(group.mul(b, g) == v for b, v in zip(base, values)):
        return g
    return None


def tl_checks(G: FiniteGroup, n_lambda: int) -> list[Check]:
    """The T_L checks of `verify.cone_suite` but `cones.tl_associative`, one
    scalar call per tuple, cone or pair of cones."""
    checks = []
    witness = next(
        (
            f"k={k}, l={l}, tuple={values}"
            for k in range(n_lambda)
            for l in range(n_lambda)
            for values in product(G.elements(), repeat=n_lambda)
            if act(G, k, act(G, l, values)) != act(G, l, values)
        ),
        None,
    )
    checks.append(Check("cones.action_law", witness is None, witness))

    tl = enumerate_TL(G, n_lambda)
    witness = next(
        (
            f"{c1} * {c2}"
            for c1 in tl
            for c2 in tl
            if mul_L(G, c1, c2)
            != Cone(
                tuple(G.mul(v, w) for v, w in zip(c1.values, act(G, c1.vertex, c2.values))),
                c2.vertex,
            )
        ),
        None,
    )
    checks.append(Check("cones.semidirect_law", witness is None, witness))

    T = from_table(cone_table(G, tl))
    by_vertex = partition_by_key([c.vertex for c in tl])
    by_coset = partition_by_key([coset_normalize(G, "left", c.values) for c in tl])
    green = green_via_ideals(T)
    checks.append(Check("cones.tl_green_agreement", (by_vertex, by_coset) == (green["L"], green["R"])))

    witness = next(
        (str(c) for c in tl if is_idempotent_cone(G, c) != (mul_L(G, c, c) == c)), None
    )
    checks.append(Check("cones.idempotent_closed_form", witness is None, witness))
    return checks


def groupoid_witness(cat: ArrowCategory) -> str | None:
    """The witness of `category.left_groupoid` (or right) for the category:
    the first morphism in (dom, cod, g) order without a two-sided inverse or
    whose normal factorization does not recompose, one scalar morphism at a
    time."""
    for dom, cod, g in product(range(cat.n_objects), range(cat.n_objects), cat.group.elements()):
        m = Morphism(dom, cod, g)
        inv = cat.invert(m)
        if not (cat.is_identity(cat.compose(m, inv)) and cat.is_identity(cat.compose(inv, m))):
            return f"{m} has no two-sided inverse"
        e, u, j = cat.normal_factorization(m)
        if cat.compose(cat.compose(e, u), j) != m:
            return f"normal factorization of {m} does not recompose"
    return None


def _transposed(x: ReesElement) -> ReesElement:
    """(g, i, lam) of S as (g, lam, i) of S^op, and back."""
    return ReesElement(x.g, x.lam, x.i)


class _Opposite(ReesSemigroup):
    """S^op = M[G^op; Lambda, I; P^T], whose element (g, lam, i) is (g, i, lam)
    of S: x*y here is y*x by `S.mul`, so a fault in S's product shows in it."""

    def __init__(self, S: ReesSemigroup):
        super().__init__(S.matrix.transpose, size_guard=S.size)
        self.base = S

    def mul(self, x: ReesElement, y: ReesElement) -> ReesElement:
        return _transposed(self.base.mul(_transposed(y), _transposed(x)))


def _left_cone(S: ReesSemigroup, a: ReesElement) -> Cone:
    return Cone(tuple(S.group.mul(p, a.g) for p in column(S.matrix, a.i)), a.lam)


def principal_pair(S: ReesSemigroup, a: ReesElement) -> tuple[Cone, Cone]:
    """The cone pair induced by translations by a.

    The left cone is column a.i of the sandwich matrix scaled on the
    right by a.g, with vertex a.lam.  The right cone is the left cone of
    (a.g, a.lam, a.i) in S^op: row a.lam scaled on the left by a.g, with
    vertex a.i.
    """
    S._validate(a)
    return _left_cone(S, a), _left_cone(_Opposite(S), _transposed(a))


def phi(S: ReesSemigroup, a: ReesElement) -> LinkedPair:
    """The representation of an element as its pair of principal cones."""
    rho, lam = principal_pair(S, a)
    return LinkedPair(rho, lam)


def gamma_apply(P: SandwichMatrix, x):
    """The connection functor on the right-ideal category.

    An object index i goes to the left coset of column i; a morphism
    kappa(g) goes to sigma_g between the corresponding cosets.
    """
    if isinstance(x, Morphism):
        return DualMorphism("sigma", x.g, gamma_apply(P, x.dom), gamma_apply(P, x.cod))
    return coset_normalize(P.group, "left", column(P, x))


def delta_apply(P: SandwichMatrix, x):
    """The dual functor on the left-ideal category: lam -> right coset of row lam, rho(g) -> tau_g."""
    if isinstance(x, Morphism):
        return DualMorphism("tau", x.g, delta_apply(P, x.dom), delta_apply(P, x.cod))
    return coset_normalize(P.group, "right", row(P, x))


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


def cone_component(cat: ArrowCategory, cone: Cone, obj: int) -> Morphism:
    """The component of a cone at an object: obj -> vertex with the stored element."""
    if not 0 <= obj < cat.n_objects:
        raise IndexOutOfRange(f"object {obj} out of range for {cat.n_objects} objects")
    return Morphism(obj, cone.vertex, cone.values[obj])


def compose_cones(cat: ArrowCategory, gamma: Cone, sigma: Cone) -> Cone:
    """Cone product from first principles, componentwise.

    The new component at each object is gamma's component followed by
    sigma's component at gamma's vertex (which is its own epimorphic
    part); the result has sigma's vertex.
    """
    link = cone_component(cat, sigma, gamma.vertex)
    values = tuple(cat.compose(cone_component(cat, gamma, a), link).g for a in range(cat.n_objects))
    return Cone(values, sigma.vertex)


def gamma_cell(P: SandwichMatrix, lam: int, i: int) -> list[Cone]:
    """The cell of the connection bifunctor: all right scalings of column i, vertex lam."""
    G = P.group
    col = column(P, i)
    return [Cone(tuple(G.mul(p, g) for p in col), lam) for g in G.elements()]


def delta_cell(P: SandwichMatrix, lam: int, i: int) -> list[Cone]:
    """The dual cell: all left scalings of row lam, vertex i."""
    return gamma_cell(P.transpose, i, lam)


def bifunctor_gamma(P: SandwichMatrix, rho: Morphism, kappa: Morphism, cone: Cone) -> Cone:
    """Cell map of the bifunctor: (col_{i1} * g, lam1) -> (col_{i2} * (g1*g*g2), lam2)

    for rho = g2 : lam1 -> lam2 and kappa = g1 : i1 -> i2.
    """
    G = P.group
    if cone.vertex != rho.dom:
        raise ElementNotInCell(
            f"cone vertex {cone.vertex} is not the domain {rho.dom} of the first morphism"
        )
    g = right_factor(G, column(P, kappa.dom), cone.values)
    if g is None:
        raise ElementNotInCell(f"cone tuple is not a right scaling of column {kappa.dom}")
    scale = G.mul(G.mul(kappa.g, g), rho.g)
    return Cone(tuple(G.mul(p, scale) for p in column(P, kappa.cod)), rho.cod)


def u_gamma(P: SandwichMatrix) -> list[Cone]:
    """All cones whose tuple is a scaled matrix column, deduplicated in (g, i, lam) order."""
    G = P.group
    out: list[Cone] = []
    seen: set[Cone] = set()
    for g in G.elements():
        for i in range(P.cols):
            values = tuple(G.mul(p, g) for p in column(P, i))
            for lam in range(P.rows):
                c = Cone(values, lam)
                if c not in seen:
                    seen.add(c)
                    out.append(c)
    return out


def u_delta(P: SandwichMatrix) -> list[Cone]:
    """All cones whose tuple is a left-scaled matrix row, deduplicated in (g, lam, i) order."""
    return u_gamma(P.transpose)


def chi(P: SandwichMatrix, gamma: Cone, i: int) -> Cone:
    """The duality on the cell (gamma.vertex, i): (col_i * g, lam) -> (g * row_lam, i)."""
    G = P.group
    g = right_factor(G, column(P, i), gamma.values)
    if g is None:
        raise ElementNotInCell(f"cone tuple is not a right scaling of column {i}")
    return Cone(tuple(G.mul(g, p) for p in row(P, gamma.vertex)), i)


def is_linked(P: SandwichMatrix, gamma: Cone, delta: Cone) -> bool:
    """Linkage test: both cones factor through the cell (gamma.vertex, delta.vertex)
    and the two extracted scalars coincide (the first-coordinate criterion)."""
    g1 = right_factor(P.group, column(P, delta.vertex), gamma.values)
    if g1 is None:
        return False
    g2 = right_factor(P.group.opposite, row(P, gamma.vertex), delta.values)
    return g2 is not None and g1 == g2


def linked_pairs(P: SandwichMatrix) -> list[LinkedPair]:
    """The linked cone pairs ((col_i * g, lam), (g * row_lam, i)) in (g, i, lam) order."""
    G = P.group
    out = []
    for g in G.elements():
        for i in range(P.cols):
            gamma_values = tuple(G.mul(p, g) for p in column(P, i))
            for lam in range(P.rows):
                delta_values = tuple(G.mul(g, p) for p in row(P, lam))
                out.append(LinkedPair(Cone(gamma_values, lam), Cone(delta_values, i)))
    return out


def s_tilde_mul(P: SandwichMatrix, p1: LinkedPair, p2: LinkedPair) -> LinkedPair:
    """(gamma, delta) o (gamma', delta') = (gamma * gamma', delta' * delta)."""
    G = P.group
    return LinkedPair(
        mul_L(G, p1.gamma, p2.gamma), mul_L(G.opposite, p2.delta, p1.delta)
    )


def _pair_cones(pairs: list[LinkedPair]):
    """The gamma and the delta halves of the pairs as cone arrays."""
    return (
        cone_arrays([p.gamma for p in pairs]),
        cone_arrays([p.delta for p in pairs]),
    )


def left_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    """Row x of the left `oracle.ideal_rows`: S^1 x by a set comprehension."""
    return frozenset({x} | {T.mul(s, x) for s in range(T.size)})


def right_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    """Row x of the right `oracle.ideal_rows`: x S^1."""
    return frozenset({x} | {T.mul(x, s) for s in range(T.size)})


def green_via_ideals(T: GenericSemigroup) -> dict[str, tuple[tuple[int, ...], ...]]:
    """`oracle.green_via_ideals` on the ideals above; D as the connected
    components of the graph that joins L-related and R-related elements."""
    lefts = [left_ideal(T, x) for x in range(T.size)]
    rights = [right_ideal(T, x) for x in range(T.size)]
    seen: set[int] = set()
    classes = []
    for start in range(T.size):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for y in range(T.size):
                related = lefts[x] == lefts[y] or rights[x] == rights[y]
                if related and y not in component:
                    component.add(y)
                    frontier.append(y)
        seen |= component
        classes.append(component)
    return {
        "L": partition_by_key(lefts),
        "R": partition_by_key(rights),
        "H": partition_by_key(list(zip(lefts, rights))),
        "D": canonical_partition(classes),
    }


def from_table(table) -> GenericSemigroup:
    """Validate a raw table (closure, then associativity by
    `oracle.associativity_witness`) into a GenericSemigroup, the tests'
    entry point that rejects a non-associative table with NotAssociative."""
    T = GenericSemigroup(table)
    bad = oracle.associativity_witness(T.table)
    if bad is not None:
        a, b, c = bad
        t = T.table
        raise NotAssociative(
            f"({a}*{b})*{c} = {t[t[a, b], c]} but {a}*({b}*{c}) = {t[a, t[b, c]]}"
        )
    return T


def associativity_witness(T: GenericSemigroup) -> tuple[int, int, int] | None:
    """`oracle.associativity_witness`: the first (a, b, c), in that order,
    with (a*b)*c != a*(b*c), by a triple loop."""
    for a, b, c in product(range(T.size), repeat=3):
        if T.mul(T.mul(a, b), c) != T.mul(a, T.mul(b, c)):
            return a, b, c
    return None


def magma_closure(T: GenericSemigroup, gens) -> set[int]:
    """The closure of gens under the product: add all products of two
    members until a round adds none."""
    closure = set(gens)
    while True:
        products = {T.mul(x, y) for x in closure for y in closure}
        if products <= closure:
            return closure
        closure |= products


def right_closure(T: GenericSemigroup, gens) -> set[int]:
    """The left-normed products ((g1 g2) ...) gk of gens, which
    `oracle.generators` closes over: add every member times every generator
    until a round adds none."""
    closure = set(gens)
    while True:
        products = {T.mul(x, g) for x in closure for g in gens}
        if products <= closure:
            return closure
        closure |= products


def greedy_generators(table, lefts, rights) -> list[int]:
    """`oracle.generators` with each element's L-class key in lefts and its
    R-class key in rights: each generator is the least element outside the
    left-normed products of those before it whose two keys no such product
    has, or else the least element outside, and each new member of the
    closure is multiplied by each generator once, by scalar lookups."""
    t = table.tolist()
    inside: set[int] = set()
    met: tuple[set, set] = (set(), set())
    out = []
    while len(inside) < len(t):
        outside = [y for y in range(len(t)) if y not in inside]
        fresh = [y for y in outside if lefts[y] not in met[0] and rights[y] not in met[1]]
        x = (fresh or outside)[0]
        out.append(x)
        frontier = ({t[y][x] for y in inside} | {x}) - inside
        while frontier:
            inside |= frontier
            met[0].update(lefts[y] for y in frontier)
            met[1].update(rights[y] for y in frontier)
            frontier = {t[y][g] for y in frontier for g in out} - inside
    return out


def idempotents(T: GenericSemigroup) -> list[int]:
    return [x for x in range(T.size) if T.mul(x, x) == x]


def is_regular(T: GenericSemigroup) -> bool:
    """`oracle.is_regular`: every x has a witness y with x*y*x = x."""
    for x in range(T.size):
        if not any(T.mul(T.mul(x, y), x) == x for y in range(T.size)):
            return False
    return True


def verify_map_loops(f, T1: GenericSemigroup, T2) -> str | None:
    """`oracle.verify_map` with the homomorphism test one pair (a, b) at a
    time, f a sequence of elements of T2 (read through its `size` and
    `mul`): None for a bijective homomorphism onto T2, else the witness."""
    f = list(f)
    if len(f) != T1.size:
        raise IndexOutOfRange(f"map has {len(f)} entries, expected {T1.size}")
    for x, v in enumerate(f):
        if not 0 <= v < T2.size:
            raise IndexOutOfRange(f"f({x}) = {v} is not an element of the target")

    problems = []
    hom = True
    for a in range(T1.size):
        for b in range(T1.size):
            if f[T1.mul(a, b)] != T2.mul(f[a], f[b]):
                hom = False
                problems.append(
                    f"f({a}*{b}) = {f[T1.mul(a, b)]} but f({a})*f({b}) = {T2.mul(f[a], f[b])}"
                )
                break
        if not hom:
            break

    seen: dict[int, int] = {}
    for x, v in enumerate(f):
        if v in seen:
            problems.append(f"f({seen[v]}) = f({x}) = {v}")
            break
        seen[v] = x

    if len(set(f)) != T2.size:
        missing = min(set(range(T2.size)) - set(f))
        problems.append(f"element {missing} of the target is never hit")

    return "; ".join(problems) if problems else None


def homomorphism_witness_loops(m, T1: GenericSemigroup, t) -> tuple[int, int] | None:
    """`oracle.homomorphism_witness` one pair (a, b) at a time, m a sequence
    of indices of the table t (a list of rows): the first (a, b) where
    m[a], m[b] or m[a*b] is -1, no element of t, or t's entry at
    (m[a], m[b]) is not m[a*b]."""
    for a in range(T1.size):
        for b in range(T1.size):
            x, y, xy = m[a], m[b], m[T1.mul(a, b)]
            if min(x, y, xy) < 0 or t[x][y] != xy:
                return a, b
    return None


def verify_map_into(f, T1: GenericSemigroup, table) -> str | None:
    """The witness of `oracle.verify_map` of f, a sequence of indices of the
    table, as the map (f, 0) into the table times the trivial table: None
    when f is an injective homomorphism, its image being the pairs it lists."""
    trivial = oracle.ProductTables(np.asarray(table), np.zeros((1, 1), dtype=np.int16))
    return oracle.verify_map((f, np.zeros(len(f), dtype=np.intp)), T1, trivial)[-1]


def cone_table(group, cones_: list[Cone]) -> list[list[int]]:
    """`cones.cone_table` by a dict lookup of each scalar `mul_L` product."""
    index = {c: k for k, c in enumerate(cones_)}
    return [[index[mul_L(group, c1, c2)] for c2 in cones_] for c1 in cones_]


def cone_product_table(M, members) -> np.ndarray:
    """`kernel.cone_product_table` one row at a time: member a times every
    member under `kernel.mul_L`, each product's key looked up in a dict of
    the members' keys, -1 where a product is not a member.  Among equal
    members the last position wins."""
    index = {key: k for k, key in enumerate(kernel.row_keys(*members).tolist())}
    table = np.empty((len(members[1]),) * 2, dtype=np.int32)
    for a in range(len(table)):
        products = kernel.row_keys(*kernel.mul_L(M, kernel.pick(members, a), members))
        table[a] = [index.get(key, -1) for key in products.tolist()]
    return table


def is_linked_row(M, inverse, P, gamma, deltas) -> np.ndarray:
    """`is_linked` of one gamma cone against a batch of delta
    cones, for P as an (|Lambda|, |I|) array: both cones factor through the
    cell (gamma's vertex, delta's vertex) by the same scalar."""
    (gamma_values, gamma_vertex), (delta_values, delta_vertices) = gamma, deltas
    g1, ok1 = kernel.right_factor(M, inverse, P[:, delta_vertices].T, gamma_values)
    g2, ok2 = kernel.right_factor(M.T, inverse, P[gamma_vertex], delta_values)
    return ok1 & ok2 & (g1 == g2)


def table_matches_product_witness(S: ReesSemigroup) -> str | None:
    """The witness of `rees.table_matches_product`: the first (x, y) whose
    entry in `S.index_table()`, looked up through `S.index`, is not the
    index of `S.mul(x, y)`."""
    table = S.index_table()
    elements = list(S.elements())
    bad = next(
        (
            (x, y)
            for x in elements
            for y in elements
            if table[S.index(x)][S.index(y)] != S.index(S.mul(x, y))
        ),
        None,
    )
    return str(bad) if bad else None


def principal_left_ideal(S: ReesSemigroup, x: ReesElement) -> frozenset[int]:
    """S^1 x = G x I x {x.lam}, as element indices: every index with x's lam
    coordinate, lam being the index modulo |Lambda|."""
    S.index(x)  # validates x
    return frozenset(range(x.lam, S.size, S.n_lambda))


def principal_left_ideal_witness(S: ReesSemigroup) -> str | None:
    """The witness of `rees.principal_left_ideal`: the first x whose closed
    form, the members of the row of x's L-class in `S.left_ideal_rows()`,
    is not the indices of x and of every s*x by `S.mul`."""
    elements = list(S.elements())
    closed = [
        frozenset(np.flatnonzero(np.unpackbits(row, count=S.size)).tolist())
        for row in S.left_ideal_rows()
    ]
    bad_ideal = next(
        (
            x
            for x in elements
            if closed[x.lam]
            != frozenset({S.index(x)} | {S.index(S.mul(s, x)) for s in elements})
        ),
        None,
    )
    return str(bad_ideal) if bad_ideal else None


def realize_category(S: ReesSemigroup, side: str = "left") -> list[str]:
    """`categories.realize_category` with every translation map made by S.mul;
    the right side is the left side of S^op, whose products are S.mul's."""
    if side == "right":
        return realize_category(_Opposite(S), "left")
    G = S.group
    elements = list(S.elements())

    def carrier(lam: int) -> list[ReesElement]:
        return [x for x in elements if x.lam == lam]

    def base_idempotent(lam: int) -> ReesElement:
        return ReesElement(G.inv(S.matrix.entry(lam, 0)), 0, lam)

    mismatches: list[str] = []
    for dom, cod in product(range(S.n_lambda), repeat=2):
        e, f = base_idempotent(dom), base_idempotent(cod)
        dom_carrier = carrier(dom)
        cod_set = set(carrier(cod))

        concrete: dict[tuple, list[ReesElement]] = {}
        middle = {S.mul(S.mul(e, s), f) for s in elements}
        for s in sorted(middle, key=S.index):
            images = {x: S.mul(x, s) for x in dom_carrier}
            if not set(images.values()) <= cod_set:
                mismatches.append(f"hom({dom},{cod}): translation by {s} leaves the ideal")
                continue
            key = tuple(sorted((S.index(x), S.index(y)) for x, y in images.items()))
            concrete.setdefault(key, []).append(s)

        abstract: dict[tuple, int] = {}
        for g in G.elements():
            images = {x: ReesElement(G.mul(x.g, g), x.i, cod) for x in dom_carrier}
            key = tuple(sorted((S.index(x), S.index(y)) for x, y in images.items()))
            abstract[key] = g

        if len(concrete) != G.order:
            mismatches.append(
                f"hom({dom},{cod}) realizes {len(concrete)} maps, expected {G.order}"
            )
        if set(concrete) != set(abstract):
            mismatches.append(
                f"hom({dom},{cod}): translation maps and abstract morphisms disagree"
            )

    return mismatches


def principal_witnesses(S: ReesSemigroup) -> tuple[str | None, str | None]:
    """The witnesses of `cones.principal_homomorphism` and `cones.dual_antihomomorphism`."""
    G = S.group
    elements = list(S.elements())
    rho = {a: principal_pair(S, a)[0] for a in elements}
    lam = {a: principal_pair(S, a)[1] for a in elements}
    hom = next(
        (
            f"{a}, {b}"
            for a in elements
            for b in elements
            if mul_L(G, rho[a], rho[b]) != rho[S.mul(a, b)]
        ),
        None,
    )
    G_op = G.opposite
    dual = next(
        (
            f"{a}, {b}"
            for a in elements
            for b in elements
            if mul_L(G_op, lam[b], lam[a]) != lam[S.mul(a, b)]
        ),
        None,
    )
    return hom, dual


def regular_subsemigroup(group, members: list[Cone]) -> bool:
    """Whether the cones are closed under mul_L over the group and each is
    regular within them."""
    member_set = set(members)
    closed = all(mul_L(group, a, b) in member_set for a in members for b in members)
    return closed and all(
        any(mul_L(group, mul_L(group, a, b), a) == a for b in members)
        for a in members
    )


def pair_table(S: ReesSemigroup) -> tuple[list[list[int]] | None, str | None]:
    """The linked-pair product table of `verify_phi`, or None and the closure witness."""
    P = S.matrix
    pairs = linked_pairs(P)
    index = {p: k for k, p in enumerate(pairs)}
    table = []
    for p in pairs:
        row = []
        for q in pairs:
            prod = s_tilde_mul(P, p, q)
            k = index.get(prod)
            if k is None:
                return None, f"product of {p} and {q} is not a linked pair"
            row.append(k)
        table.append(row)
    return table, None


def verify_phi(S: ReesSemigroup) -> tuple[str | None, str | None]:
    """`connections.verify_phi` built on `pair_table`, a dict lookup of phi
    and the loops of `verify_map_loops`."""
    table, witness = pair_table(S)
    if table is None:
        return witness, witness
    pairs = linked_pairs(S.matrix)
    index = {p: k for k, p in enumerate(pairs)}
    f = [index.get(phi(S, a)) for a in S.elements()]
    if None in f:
        return None, f"phi({S.element(f.index(None))}) is not a linked pair"
    # like verify_phi, no associativity scan of the pair table
    return None, verify_map_loops(f, from_table(S.index_table()), GenericSemigroup(table))


def pair_table_from_halves(linked: connections.PairArrays) -> np.ndarray:
    """The pairs' whole product table, read off the U tables at the pairs'
    positions, every row at once (-1 where a half is outside its set):
    entry (p, q) is the last pair whose positions in U-Gamma and U-Delta
    are those of the halves of p*q, by a dict lookup, or -1 where there is
    none.  `verify_phi` never holds this table."""
    g, d, holes = linked.g, linked.d, not linked.complete
    number = {pair: k for k, pair in enumerate(zip(g.tolist(), d.tolist())) if min(pair) >= 0}
    gamma, delta = (
        kernel.gather(u.table, m, m, holes).tolist()
        for u, m in ((linked.u_gamma, g), (linked.u_delta, d))
    )
    rows = [[number.get(pair, -1) for pair in zip(*row)] for row in zip(gamma, delta)]
    return np.array(rows, dtype=kernel.index_dtype(len(rows)))


def verify_phi_on_the_table(S: ReesSemigroup, linked: connections.PairArrays):
    """`connections.verify_phi` with the pairs' whole product table built
    first (`pair_table_from_halves`): its first hole by `kernel.first_hole`,
    then the map check against it by the loops of `verify_map_loops`, phi
    sending k to the last pair with pair k's halves.  `verify_phi` reads
    the U tables a block of rows at a time and never holds this table."""
    outside = (linked.g < 0) | (linked.d < 0)
    if outside.any():
        p = int(outside.argmax())
        half, where = ("gamma", "U-Gamma") if linked.g[p] < 0 else ("delta", "U-Delta")
        witness = f"the {half} half of {linked.pair(p)} is not in {where}"
        return witness, witness
    table = pair_table_from_halves(linked)
    bad = kernel.first_hole(table)
    if bad is not None:
        p, q = (linked.pair(k) for k in bad)
        witness = f"product of {p} and {q} is not a linked pair"
        return witness, witness
    pairs = list(zip(linked.g.tolist(), linked.d.tolist()))
    number = {pair: k for k, pair in enumerate(pairs)}
    f = [number[pair] for pair in pairs]
    return None, verify_map_loops(f, from_table(S.index_table()), GenericSemigroup(table))


def crossconnection_checks(P: SandwichMatrix) -> list[Check]:
    """The functor-law, `fully_faithful` and `ideal_restriction` checks of
    `connections.verify_crossconnection`, one scalar call per use.  A
    composite of images that do not compose fails the law, and an image
    whose domain is not the object's coset induces no map."""
    G = P.group
    n_i = P.cols
    checks = []
    for name, cat, apply_ in (
        ("gamma", right_category(G, n_i), gamma_apply),
        ("delta", left_category(G, P.rows), delta_apply),
    ):
        witness = None
        for obj in range(cat.n_objects):
            got = apply_(P, cat.identity(obj))
            if got.h != G.identity or got.dom != got.cod:
                witness = f"identity at object {obj} is not sent to an identity"
                break
        if witness is None:
            for o1, o2, o3 in product(range(cat.n_objects), repeat=3):
                for g1, g2 in product(G.elements(), repeat=2):
                    m1, m2 = Morphism(o1, o2, g1), Morphism(o2, o3, g2)
                    lhs = apply_(P, cat.compose(m1, m2))
                    try:
                        rhs = compose_duals(G, apply_(P, m1), apply_(P, m2))
                    except NotComposable:
                        rhs = None
                    if lhs != rhs:
                        witness = f"composite of {m1} and {m2} is not preserved"
                        break
                if witness:
                    break
        checks.append(Check(f"crossconn.functor_{name}", witness is None, witness))

    witness = None
    for i1, i2 in product(range(n_i), repeat=2):
        dom = gamma_apply(P, i1)
        members = sorted(tuple(G.mul(c, g) for c in dom.canonical) for g in G.elements())
        actions = set()
        for g in G.elements():
            sg = gamma_apply(P, Morphism(i1, i2, g))
            try:
                actions.add(tuple(sigma_apply(G, sg, x) for x in members))
            except NotInDomainCoset:
                pass
        if len(actions) != G.order:
            witness = f"hom({i1},{i2}) induces {len(actions)} maps, expected {G.order}"
            break
    checks.append(Check("crossconn.fully_faithful", witness is None, witness))

    witness = None
    for i in range(n_i):
        images = {gamma_apply(P, Morphism(i, i, g)) for g in G.elements()}
        if len(images) != G.order:
            witness = f"restriction to object {i} is not a bijection on endomorphisms"
            break
    checks.append(Check("crossconn.ideal_restriction", witness is None, witness))
    return checks


def linked_criterion_witness(S: ReesSemigroup) -> str | None:
    """The witness of `crossconn.linked_criterion_agreement`: the first
    (gamma, delta) of U-Gamma x U-Delta where `is_linked` and pair
    membership disagree."""
    P = S.matrix
    pair_set = {
        (p.gamma, p.delta) for p in linked_pairs(P)
    }
    return next(
        (
            f"{g}, {d}"
            for g in u_gamma(P)
            for d in u_delta(P)
            if is_linked(P, g, d) != ((g, d) in pair_set)
        ),
        None,
    )


def duality_witness(P: SandwichMatrix) -> str | None:
    """The witness of `crossconn.duality_bijection`: the first cell (lam, i)
    on which chi is not a bijection onto the dual cell inverted by chi over
    `P.transpose`.  A cone that either chi cannot factor
    (`ElementNotInCell`) fails the cell."""
    G = P.group
    for lam, i in product(range(P.rows), range(P.cols)):
        cell = gamma_cell(P, lam, i)
        dual = delta_cell(P, lam, i)
        if len(set(cell)) != G.order or len(set(dual)) != G.order:
            return f"cell ({lam},{i}) does not have {G.order} members"
        try:
            images = [chi(P, c, i) for c in cell]
        except ElementNotInCell:
            return f"duality is not a bijection on cell ({lam},{i})"
        if set(images) != set(dual):
            return f"duality is not a bijection on cell ({lam},{i})"
        try:
            inverts = all(
                chi(P.transpose, d, lam) == c for c, d in zip(cell, images)
            )
        except ElementNotInCell:
            inverts = False
        if not inverts:
            return f"duality does not invert on cell ({lam},{i})"
    return None


def rbg_checks(S: ReesSemigroup) -> list[Check]:
    """The checks of `verify.rbg_suite`, one scalar `s_tilde_mul` or
    `is_linked` call per pair of linked pairs, and `verify_phi` above.  The
    product's gamma half is held against the product of the gamma halves'
    first values, and its delta half against that of the delta halves'."""
    group, n_i, n_lambda = S.group, S.n_i, S.n_lambda
    P = S.matrix
    ok = all(v == group.identity for r in P.array.tolist() for v in r)
    checks = [Check("rbg.identity_matrix", ok)]

    pairs = linked_pairs(P)
    witness = None
    for p1 in pairs:
        for p2 in pairs:
            got = s_tilde_mul(P, p1, p2)
            g = group.mul(p1.gamma.values[0], p2.gamma.values[0])
            h = group.mul(p1.delta.values[0], p2.delta.values[0])
            expected = LinkedPair(
                Cone((g,) * n_lambda, p2.gamma.vertex),
                Cone((h,) * n_i, p1.delta.vertex),
            )
            if got != expected:
                witness = f"{p1} o {p2}"
                break
        if witness:
            break
    checks.append(Check("rbg.product_formula", witness is None, witness))

    witness = None
    for p in pairs:
        g1 = p.gamma.values[0]
        for q in pairs:
            g2 = q.delta.values[0]
            linked = is_linked(P, p.gamma, q.delta)
            if linked != (g1 == g2):
                witness = f"{p.gamma} vs {q.delta}"
                break
        if witness:
            break
    checks.append(Check("rbg.linked_iff_equal_scalars", witness is None, witness))

    _, witness = verify_phi(S)
    checks.append(Check("rbg.phi_isomorphism", witness is None, witness))
    return checks


def cone_product_witness(G, n_lambda: int) -> str | None:
    """The witness of `category.cone_product_agreement`: the first pair of
    T_L whose `compose_cones` product is not its `mul_L` product."""
    lcat = left_category(G, n_lambda)
    tl = enumerate_TL(G, n_lambda)
    return next(
        (
            f"{c1} * {c2}"
            for c1 in tl
            for c2 in tl
            if compose_cones(lcat, c1, c2) != mul_L(G, c1, c2)
        ),
        None,
    )


def naturality_witness(P: SandwichMatrix) -> str | None:
    """The witness of `crossconn.naturality`: the first (l1, l2, i1, i2, g1, g2)
    with a cone of the cell (l1, i1) on which chi after Gamma's cell map
    and Delta's cell map after chi differ.  A cone that does not factor
    through its cell on either route (`ElementNotInCell`) fails its square."""
    G, n_l, n_i = P.group, P.rows, P.cols
    for l1, l2, i1, i2 in product(range(n_l), range(n_l), range(n_i), range(n_i)):
        for g1, g2 in product(G.elements(), repeat=2):
            rho = Morphism(l1, l2, g2)
            kappa = Morphism(i1, i2, g1)
            for cone in gamma_cell(P, l1, i1):
                try:
                    left = chi(
                        P, bifunctor_gamma(P, rho, kappa, cone), i2
                    )
                    right = bifunctor_gamma(
                        P.transpose, kappa, rho, chi(P, cone, i1)
                    )
                    commutes = left == right
                except ElementNotInCell:
                    commutes = False
                if not commutes:
                    return f"square at ({l1},{l2},{i1},{i2}) with g1={g1}, g2={g2}"
    return None


def misscaled(P, m, image):
    """h -> h*h: identities stay identities, composites do not in a non-abelian group."""
    return image._replace(h=P.group.mul(image.h, image.h))


def collapsed(P, m, image):
    """The first non-identity scalar is sent where the identity goes."""
    G = P.group
    other = next(g for g in G.elements() if g != G.identity)
    return image._replace(h=G.identity) if image.h == other else image


def endomorphic(P, m, image):
    """Every image ends where it starts, so images of m1 and m2 need not compose."""
    return image._replace(cod=image.dom)


def relabelled(P, m, image):
    """Objects 0 and 1 trade coset handles: still a functor, but an image's
    domain is no longer the coset of its object."""
    sigma = image.kind == "sigma"
    apply_ = gamma_apply if sigma else delta_apply
    swap = {0: 1, 1: 0} if (P.cols if sigma else P.rows) > 1 else {}
    dom, cod = (apply_(P, swap.get(k, k)) for k in (m.dom, m.cod))
    return image._replace(dom=dom, cod=cod)


def _encoded(images: list[DualMorphism], n: int, M, objects) -> Images:
    """`connections.Images` of the images of every morphism in (dom, cod, g)
    order.  A coset id stands for a kind together with a handle, numbered by
    first appearance over (dom, cod) of each image in turn, so a functor
    whose images mix kinds fails the functor law on the ids."""
    ids: dict = {}
    rows = [
        (m.h, ids.setdefault((m.kind, m.dom), len(ids)), ids.setdefault((m.kind, m.cod), len(ids)))
        for m in images
    ]
    table = np.array(rows, dtype=np.intp).reshape(n, n, -1, 3)
    h, dom, cod = np.moveaxis(table, -1, 0)
    canonical = np.array([handle.canonical for _, handle in ids], dtype=np.intp)
    return Images(h, dom, cod, canonical, M, objects)


@contextmanager
def faulty_images(name: str, fault):
    """The functor `name` (`gamma_apply` or `delta_apply`) with every morphism
    image passed through fault, scalar (`name` here) and array
    (`connections.gamma_images` or `delta_images`) alike.  The arrays are
    decoded into one `DualMorphism` per morphism, each passed through fault
    with its morphism, and encoded again; the object images stay as they
    are.  The other functor stays sound."""
    side = name.split("_")[0]
    arrays, scalar = connections.gamma_images, globals()[name]
    kind, coset = {"gamma": ("sigma", "left"), "delta": ("tau", "right")}[side]

    def images(P):
        im = arrays(P if side == "gamma" else P.transpose)
        n, order = len(im.objects), len(im.M)
        handles = [CosetHandle(coset, tuple(c)) for c in im.canonical.tolist()]
        decoded = [
            fault(
                P,
                Morphism(dom, cod, g),
                DualMorphism(
                    kind,
                    int(im.h[dom, cod, g]),
                    handles[im.dom[dom, cod, g]],
                    handles[im.cod[dom, cod, g]],
                ),
            )
            for dom, cod, g in product(range(n), range(n), range(order))
        ]
        return _encoded(decoded, n, im.M, im.objects)

    def apply_(P, x):
        image = scalar(P, x)
        return fault(P, x, image) if isinstance(x, Morphism) else image

    # delta_images is gamma_images over the opposite connection: pin both
    patched = {"gamma_images": arrays, "delta_images": lambda P: arrays(P.transpose)}
    patched[f"{side}_images"] = images
    with mock.patch.multiple(connections, **patched), mock.patch(f"{__name__}.{name}", apply_):
        yield


@contextmanager
def inverted_action(group: FiniteGroup):
    """The action of the objects on tuples broadcasting the inverse of the
    k-th coordinate, on batches (`cones.act`) and scalar (`act`) alike: then
    k*(l*v) is v_l where l*v is v_l^-1, which differ wherever v_l has order
    greater than 2."""
    batch, inverse = cones.act, group.inverse

    def scalar(group, k, values):
        return (group.inv(values[k]),) * len(values)

    with mock.patch.object(cones, "act", lambda k, values: inverse[batch(k, values)]), mock.patch(
        f"{__name__}.act", scalar
    ):
        yield


@contextmanager
def unscaled_linkage():
    """`is_linked` without its g1 == g2 test, scalar and on arrays alike (the
    array linkage compares the factors in `kernel.same_factor`): cones of
    one cell that factor through different scalars count as linked."""

    def scalar(P, gamma, delta):
        G = P.group
        g1 = right_factor(G, column(P, delta.vertex), gamma.values)
        g2 = right_factor(G.opposite, row(P, gamma.vertex), delta.values)
        return g1 is not None and g2 is not None

    def same_factor(f1, f2):
        return (f1 >= 0) & (f2 >= 0)

    with mock.patch(f"{__name__}.is_linked", scalar), mock.patch.object(
        kernel, "same_factor", same_factor
    ):
        yield


@contextmanager
def reversed_compose():
    """`ArrowCategory.compose` carrying g2*g1 instead of g1*g2, on morphisms
    and on batches of them alike (the real compose with the two group
    elements swapped): the groupoid laws still hold, but in a non-abelian
    group the cone product changes."""
    original = ArrowCategory.compose

    def compose(self, m1, m2):
        return original(self, m1._replace(g=m2.g), m2._replace(g=m1.g))

    with mock.patch.object(ArrowCategory, "compose", compose):
        yield


@contextmanager
def rescaled_opposite(row: int, h: int):
    """`SandwichMatrix.transpose` with row `row` of P^T (column `row` of P)
    multiplied on the left by h in G, so the dual side of every connection
    read through it is faulty.  With |I| > 1 the duals of a cell no longer
    factor through the faulty P^T; with |I| = 1 the Delta route ends at
    another cone wherever h does not commute with g2."""
    original = SandwichMatrix.transpose

    def transpose(P):
        entries = original.fget(P).array.tolist()
        entries[row] = [P.group.mul(h, x) for x in entries[row]]
        return SandwichMatrix(P.group.opposite, entries)

    with mock.patch.object(SandwichMatrix, "transpose", property(transpose)):
        yield


@contextmanager
def stray_cone(h: int, shift: int = 0):
    """The cells of the bifunctor, array (`connections.gamma_cells`) and scalar
    (`gamma_cell`) alike, with the last coordinate of the last cone of each
    multiplied by h and its vertex moved on by shift (mod |Lambda|): with
    |Lambda| > 1, that cone is off its cell unless h is the identity and
    shift is 0.  The dual cells (`delta_cells`, `delta_cell`) stay sound, so
    only the naturality squares and the duality of that cell fail."""
    arrays, scalar = connections.gamma_cells, gamma_cell

    def array_cells(P):
        values, vertices = (np.array(x) for x in arrays(P))
        values[:, :, -1, -1] = P.group.array[values[:, :, -1, -1], h]
        vertices[:, :, -1] = (np.arange(P.rows)[:, None] + shift) % P.rows
        return values, vertices

    def scalar_cell(P, lam, i):
        cell = scalar(P, lam, i)
        *values, last = cell[-1].values
        vertex = (lam + shift) % P.rows
        return cell[:-1] + [Cone((*values, P.group.mul(last, h)), vertex)]

    def sound_duals(P):
        values, vertices = arrays(P.transpose)
        return values.swapaxes(0, 1), vertices.swapaxes(0, 1)

    with mock.patch.object(connections, "gamma_cells", array_cells), mock.patch.object(
        connections, "delta_cells", sound_duals
    ), mock.patch(f"{__name__}.gamma_cell", scalar_cell), mock.patch(
        f"{__name__}.delta_cell", lambda P, lam, i: scalar(P.transpose, i, lam)
    ):
        yield


@contextmanager
def reversed_delta_product():
    """`s_tilde_mul`, scalar and array alike, with the delta factors in the
    wrong order, p.delta * q.delta: in a non-abelian group, or with |I| > 1,
    products of pairs change.  The array pairs hold U-Delta's table
    untransposed, so that every product of two pairs, `verify_phi`'s and
    `verify.rbg_suite`'s alike, reads its delta half reversed."""

    def scalar(P, p1, p2):
        G = P.group
        return LinkedPair(
            mul_L(G, p1.gamma, p2.gamma), mul_L(G.opposite, p1.delta, p2.delta)
        )

    def pair_arrays(S, _original=connections.pair_arrays):
        linked = _original(S)
        u_delta = connections.UCones(linked.u_delta.classes, linked.u_delta.table.T)
        return connections.PairArrays(S, linked.gamma, linked.delta, linked.u_gamma, u_delta)

    with mock.patch(f"{__name__}.s_tilde_mul", scalar), mock.patch.object(
        connections, "pair_arrays", pair_arrays
    ):
        yield


@contextmanager
def edited_pairs(edit):
    """The linked pairs with edit applied to their list, array
    (`connections.pair_cones`) and scalar (`linked_pairs`) alike, and the
    scalar `phi` with them: pair k stays phi of element k, as in the
    package, where the pairs are phi's images."""
    arrays, scalar = connections.pair_cones, linked_pairs

    def pair_cones(P):
        gamma, delta = (connections.as_cones(half) for half in arrays(P))
        return _pair_cones(edit([LinkedPair(g, d) for g, d in zip(gamma, delta)]))

    def pairs(P):
        return edit(scalar(P))

    def phi_(S, a):
        return pairs(S.matrix)[S.index(a)]

    with mock.patch.object(connections, "pair_cones", pair_cones), mock.patch(
        f"{__name__}.linked_pairs", pairs
    ), mock.patch(f"{__name__}.phi", phi_):
        yield


def missing_pair():
    """The pairs with the last one replaced by a copy of the first (and phi
    with them): the set of pairs misses the last pair, so some products of
    pairs are no pair and the pair table is not closed."""
    return edited_pairs(lambda pairs: pairs[:-1] + pairs[:1])


def swapped_pair_table():
    """The linked pairs with the first two traded, array
    (`connections.pair_cones`) and scalar (`linked_pairs`, and `phi` with
    them) alike: phi trades the images of elements 0 and 1.  The set of
    pairs, and so its closure, is unchanged, but phi is no longer a
    homomorphism, and the pair table is S's with two elements swapped."""
    return edited_pairs(lambda pairs: [pairs[1], pairs[0], *pairs[2:]])


def left_scaled_mul_L(M, c1, c2):
    """`kernel.mul_L` with the scalar on the wrong side: c1's values scaled on
    the left by c2's value at c1's vertex, broadcast as `kernel.mul_L`
    broadcasts, so that it is `kernel.mul_L` over M.T.  Over a non-abelian
    group the product leaves the left coset of c1's tuple."""
    (v1, x1), (v2, x2) = c1, c2
    v2, at = np.broadcast_arrays(v2, np.expand_dims(x1, -1))
    values = M[np.take_along_axis(v2, at[..., :1], axis=-1), v1]
    return values, np.broadcast_to(x2, values.shape[:-1])


def constant_mul_L(original):
    """`kernel.mul_L` with every product the first member of the batch it
    multiplies.  A small cone table multiplies one batch, each of its
    tuple classes against each group element, whose first member has the
    first class's tuple: every product x*y then has that tuple and y's
    vertex, as `kernel.cone_product_table` reads the vertex off y.  So a set with
    that tuple at every vertex, as U-Gamma has, is closed, and no member
    with another tuple is regular."""

    def mul_L(M, c1, c2):
        batch = c2 if np.ndim(c2[1]) else c1
        values, vertices = original(M, c1, c2)
        first = kernel.pick(batch, 0)
        return np.broadcast_to(first[0], values.shape), np.broadcast_to(first[1], vertices.shape)

    return mul_L


class CorruptedTable(ReesSemigroup):
    """The index table with the entries at ENTRIES, (row, column): value,
    replaced, and the closed forms left true."""

    ENTRIES: dict = {}

    def index_table(self):
        table = super().index_table()
        for (a, b), value in self.ENTRIES.items():
            table[a, b] = value
        return table
