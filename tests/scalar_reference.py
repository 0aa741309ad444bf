"""Scalar loop versions of the O(|S|^2) scans that the suites run on arrays.

These are the loop bodies the array kernel replaced, kept as the
reference that tests compare it against; the table oracle's scans
(`left_ideal`, `right_ideal`, `is_regular`, `verify_map`, ...) read the
table through the scalar `GenericSemigroup.mul`.  `cone_product_table` and
`is_linked_row` are the row-at-a-time kernel scans that the tables by
tuple class replaced.  They call the scalar
functions through their modules (`cones.mul_L`, `connections.phi`, ...),
so a fault patched into one of those reaches them too.  The faults at
the end are the ones the negative controls patch into the functors
`connections.gamma_apply` and `connections.delta_apply`, into both
linkage tests (the scalar `is_linked` and the array comparison
`kernel.same_factor`), into `ArrowCategory.compose`, into
`CrossConnection.opposite`, into `connections.gamma_cell`, into both
linked-pair products, into the linked-pair table and into
`connections.linked_pairs`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np

from crossconn import cones, connections, kernel
from crossconn.categories import (
    ArrowCategory,
    Cone,
    Morphism,
    RealizationReport,
    left_category,
    right_category,
)
from crossconn.checks import Check
from crossconn.errors import ElementNotInCell, IndexOutOfRange, NotComposable, NotInDomainCoset
from crossconn.oracle import (
    GenericSemigroup,
    MapCheck,
    canonical_partition,
    from_table,
    partition_by_key,
    verify_map,
)
from crossconn.rees import ReesElement, ReesSemigroup, SandwichMatrix


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


def idempotents(T: GenericSemigroup) -> list[int]:
    return [x for x in range(T.size) if T.mul(x, x) == x]


def is_regular(T: GenericSemigroup) -> bool:
    """`oracle.is_regular`: every x has a witness y with x*y*x = x."""
    for x in range(T.size):
        if not any(T.mul(T.mul(x, y), x) == x for y in range(T.size)):
            return False
    return True


def verify_map_loops(f, T1: GenericSemigroup, T2: GenericSemigroup) -> MapCheck:
    """`oracle.verify_map` with the homomorphism test one pair (a, b) at a time."""
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

    inj = True
    seen: dict[int, int] = {}
    for x, v in enumerate(f):
        if v in seen:
            inj = False
            problems.append(f"f({seen[v]}) = f({x}) = {v}")
            break
        seen[v] = x

    surj = len(set(f)) == T2.size
    if not surj:
        missing = min(set(range(T2.size)) - set(f))
        problems.append(f"element {missing} of the target is never hit")

    return MapCheck(hom, inj, surj, "; ".join(problems) if problems else None)


def cone_table(group, cones_: list[Cone]) -> list[list[int]]:
    """`cones.cone_table` by a dict lookup of each scalar `cones.mul_L` product."""
    index = {c: k for k, c in enumerate(cones_)}
    return [[index[cones.mul_L(group, c1, c2)] for c2 in cones_] for c1 in cones_]


def cone_product_table(M, members) -> np.ndarray:
    """`kernel.cone_product_table` one row at a time: member a times every
    member under `kernel.mul_L`, each product's key looked up in the
    members' own `KeyIndex`, -1 where a product is not a member."""
    index = kernel.KeyIndex(kernel.row_keys(*members))
    table = np.empty((len(members[1]),) * 2, dtype=np.int32)
    for a in range(len(table)):
        table[a] = index.find(kernel.row_keys(*kernel.mul_L(M, kernel.pick(members, a), members)))
    return table


def is_linked_row(M, inverse, P, gamma, deltas) -> np.ndarray:
    """`connections.is_linked` of one gamma cone against a batch of delta
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


def principal_left_ideal_witness(S: ReesSemigroup) -> str | None:
    """The witness of `rees.principal_left_ideal`: the first x whose closed
    form is not the indices of x and of every s*x by `S.mul`."""
    elements = list(S.elements())
    bad_ideal = next(
        (
            x
            for x in elements
            if S.principal_left_ideal(x)
            != frozenset({S.index(x)} | {S.index(S.mul(s, x)) for s in elements})
        ),
        None,
    )
    return str(bad_ideal) if bad_ideal else None


def realize_category(S: ReesSemigroup, side: str = "left") -> RealizationReport:
    """`categories.realize_category` with every translation map made by S.mul."""
    if side == "right":
        return replace(realize_category(S.opposite, "left"), side="right")
    G = S.group
    elements = list(S.elements())

    def carrier(lam: int) -> list[ReesElement]:
        return [x for x in elements if x.lam == lam]

    def base_idempotent(lam: int) -> ReesElement:
        return ReesElement(G.inv(S.matrix.entry(lam, 0)), 0, lam)

    hom_sizes: dict[tuple[int, int], int] = {}
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

        hom_sizes[(dom, cod)] = len(concrete)
        if len(concrete) != G.order:
            mismatches.append(
                f"hom({dom},{cod}) realizes {len(concrete)} maps, expected {G.order}"
            )
        if set(concrete) != set(abstract):
            mismatches.append(
                f"hom({dom},{cod}): translation maps and abstract morphisms disagree"
            )

    return RealizationReport(side, hom_sizes, not mismatches, mismatches)


def principal_witnesses(S: ReesSemigroup) -> tuple[str | None, str | None]:
    """The witnesses of `cones.principal_homomorphism` and `cones.dual_antihomomorphism`."""
    G = S.group
    elements = list(S.elements())
    rho = {a: cones.principal_pair(S, a)[0] for a in elements}
    lam = {a: cones.principal_pair(S, a)[1] for a in elements}
    hom = next(
        (
            f"{a}, {b}"
            for a in elements
            for b in elements
            if cones.mul_L(G, rho[a], rho[b]) != rho[S.mul(a, b)]
        ),
        None,
    )
    G_op = G.opposite
    dual = next(
        (
            f"{a}, {b}"
            for a in elements
            for b in elements
            if cones.mul_L(G_op, lam[b], lam[a]) != lam[S.mul(a, b)]
        ),
        None,
    )
    return hom, dual


def regular_subsemigroup(group, members: list[cones.Cone]) -> bool:
    """Whether the cones are closed under mul_L over the group and each is
    regular within them."""
    member_set = set(members)
    closed = all(cones.mul_L(group, a, b) in member_set for a in members for b in members)
    return closed and all(
        any(cones.mul_L(group, cones.mul_L(group, a, b), a) == a for b in members)
        for a in members
    )


def pair_table(S: ReesSemigroup) -> tuple[list[list[int]] | None, str | None]:
    """The linked-pair product table of `verify_phi`, or None and the closure witness."""
    conn = connections.CrossConnection(S.matrix)
    pairs = connections.linked_pairs(conn, size_guard=S.size)
    index = {p: k for k, p in enumerate(pairs)}
    table = []
    for p in pairs:
        row = []
        for q in pairs:
            prod = connections.s_tilde_mul(conn, p, q)
            k = index.get(prod)
            if k is None:
                return None, f"product of {p} and {q} is not a linked pair"
            row.append(k)
        table.append(row)
    return table, None


def verify_phi(S: ReesSemigroup) -> connections.PhiReport:
    """`connections.verify_phi` built on `pair_table` and a dict lookup of phi."""
    table, witness = pair_table(S)
    if table is None:
        return connections.PhiReport(False, witness, None)
    pairs = connections.linked_pairs(connections.CrossConnection(S.matrix), size_guard=S.size)
    index = {p: k for k, p in enumerate(pairs)}
    f = [index.get(connections.phi(S, a)) for a in S.elements()]
    if None in f:
        stray = f"phi({S.element(f.index(None))}) is not a linked pair"
        return connections.PhiReport(True, None, MapCheck(False, False, False, stray))
    # like verify_phi, no associativity scan of the pair table
    check = verify_map(f, from_table(S.index_table()), GenericSemigroup(table))
    return connections.PhiReport(True, None, check)


def crossconnection_checks(conn: connections.CrossConnection) -> list[Check]:
    """The functor-law, `fully_faithful` and `ideal_restriction` checks of
    `connections.verify_crossconnection`, one scalar call per use.  A
    composite of images that do not compose fails the law, and an image
    whose domain is not the object's coset induces no map."""
    G = conn.group
    n_i = conn.n_i
    checks = []
    for name, cat, apply_ in (
        ("gamma", right_category(G, n_i), connections.gamma_apply),
        ("delta", left_category(G, conn.n_lambda), connections.delta_apply),
    ):
        witness = None
        for obj in cat.objects():
            got = apply_(conn, cat.identity(obj))
            if got.h != G.identity or got.dom != got.cod:
                witness = f"identity at object {obj} is not sent to an identity"
                break
        if witness is None:
            for o1, o2, o3 in product(cat.objects(), repeat=3):
                for g1, g2 in product(G.elements(), repeat=2):
                    m1, m2 = Morphism(o1, o2, g1), Morphism(o2, o3, g2)
                    lhs = apply_(conn, cat.compose(m1, m2))
                    try:
                        rhs = connections.compose_duals(G, apply_(conn, m1), apply_(conn, m2))
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
        dom = connections.gamma_apply(conn, i1)
        members = sorted(tuple(G.mul(c, g) for c in dom.canonical) for g in G.elements())
        actions = set()
        for g in G.elements():
            sg = connections.gamma_apply(conn, Morphism(i1, i2, g))
            try:
                actions.add(tuple(connections.sigma_apply(G, sg, x) for x in members))
            except NotInDomainCoset:
                pass
        if len(actions) != G.order:
            witness = f"hom({i1},{i2}) induces {len(actions)} maps, expected {G.order}"
            break
    checks.append(Check("crossconn.fully_faithful", witness is None, witness))

    witness = None
    for i in range(n_i):
        images = {connections.gamma_apply(conn, Morphism(i, i, g)) for g in G.elements()}
        if len(images) != G.order:
            witness = f"restriction to object {i} is not a bijection on endomorphisms"
            break
    checks.append(Check("crossconn.ideal_restriction", witness is None, witness))
    return checks


def linked_criterion_witness(S: ReesSemigroup) -> str | None:
    """The witness of `crossconn.linked_criterion_agreement`: the first
    (gamma, delta) of U-Gamma x U-Delta where `is_linked` and pair
    membership disagree."""
    conn = connections.CrossConnection(S.matrix)
    pair_set = {
        (p.gamma, p.delta) for p in connections.linked_pairs(conn, size_guard=S.size)
    }
    return next(
        (
            f"{g}, {d}"
            for g in connections.u_gamma(conn, bound=S.size)
            for d in connections.u_delta(conn, bound=S.size)
            if connections.is_linked(conn, g, d) != ((g, d) in pair_set)
        ),
        None,
    )


def duality_witness(conn: connections.CrossConnection) -> str | None:
    """The witness of `crossconn.duality_bijection`: the first cell (lam, i)
    on which chi is not a bijection onto the dual cell inverted by chi over
    `conn.opposite`.  A cone that either chi cannot factor
    (`ElementNotInCell`) fails the cell."""
    G = conn.group
    for lam, i in product(range(conn.n_lambda), range(conn.n_i)):
        cell = connections.gamma_cell(conn, lam, i)
        dual = connections.delta_cell(conn, lam, i)
        if len(set(cell)) != G.order or len(set(dual)) != G.order:
            return f"cell ({lam},{i}) does not have {G.order} members"
        try:
            images = [connections.chi(conn, c, i) for c in cell]
        except ElementNotInCell:
            return f"duality is not a bijection on cell ({lam},{i})"
        if set(images) != set(dual):
            return f"duality is not a bijection on cell ({lam},{i})"
        try:
            inverts = all(
                connections.chi(conn.opposite, d, lam) == c for c, d in zip(cell, images)
            )
        except ElementNotInCell:
            inverts = False
        if not inverts:
            return f"duality does not invert on cell ({lam},{i})"
    return None


def rbg_checks(S: ReesSemigroup) -> list[Check]:
    """The checks of `verify.rbg_suite`, one scalar `s_tilde_mul` or
    `is_linked` call per pair of linked pairs, and `verify_phi` above."""
    group, n_i, n_lambda = S.group, S.n_i, S.n_lambda
    conn = connections.CrossConnection(S.matrix)
    ok = all(v == group.identity for row in conn.matrix.entries for v in row)
    checks = [Check("rbg.identity_matrix", ok)]

    pairs = connections.linked_pairs(conn, size_guard=S.size)
    witness = None
    for p1 in pairs:
        for p2 in pairs:
            got = connections.s_tilde_mul(conn, p1, p2)
            g = group.mul(p1.gamma.values[0], p2.gamma.values[0])
            expected = connections.LinkedPair(
                cones.Cone((g,) * n_lambda, p2.gamma.vertex),
                cones.Cone((g,) * n_i, p1.delta.vertex),
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
            linked = connections.is_linked(conn, p.gamma, q.delta)
            if linked != (g1 == g2):
                witness = f"{p.gamma} vs {q.delta}"
                break
        if witness:
            break
    checks.append(Check("rbg.linked_iff_equal_scalars", witness is None, witness))

    report = verify_phi(S)
    checks.append(
        Check(
            "rbg.phi_isomorphism",
            report.is_isomorphism,
            report.map_check.witness if report.map_check else report.closure_witness,
        )
    )
    return checks


def cone_product_witness(G, n_lambda: int) -> str | None:
    """The witness of `category.cone_product_agreement`: the first pair of
    T_L whose `compose_cones` product is not its `cones.mul_L` product."""
    lcat = left_category(G, n_lambda)
    tl = cones.enumerate_TL(G, n_lambda)
    return next(
        (
            f"{c1} * {c2}"
            for c1 in tl
            for c2 in tl
            if lcat.compose_cones(c1, c2) != cones.mul_L(G, c1, c2)
        ),
        None,
    )


def naturality_witness(conn: connections.CrossConnection) -> str | None:
    """The witness of `crossconn.naturality`: the first (l1, l2, i1, i2, g1, g2)
    with a cone of the cell (l1, i1) on which chi after Gamma's cell map
    and Delta's cell map after chi differ.  A cone that does not factor
    through its cell on either route (`ElementNotInCell`) fails its square."""
    G, n_l, n_i = conn.group, conn.n_lambda, conn.n_i
    for l1, l2, i1, i2 in product(range(n_l), range(n_l), range(n_i), range(n_i)):
        for g1, g2 in product(G.elements(), repeat=2):
            rho = Morphism(l1, l2, g2)
            kappa = Morphism(i1, i2, g1)
            for cone in connections.gamma_cell(conn, l1, i1):
                try:
                    left = connections.chi(
                        conn, connections.bifunctor_gamma(conn, rho, kappa, cone), i2
                    )
                    right = connections.bifunctor_gamma(
                        conn.opposite, kappa, rho, connections.chi(conn, cone, i1)
                    )
                    commutes = left == right
                except ElementNotInCell:
                    commutes = False
                if not commutes:
                    return f"square at ({l1},{l2},{i1},{i2}) with g1={g1}, g2={g2}"
    return None


def misscaled(conn, m, image):
    """h -> h*h: identities stay identities, composites do not in a non-abelian group."""
    return replace(image, h=conn.group.mul(image.h, image.h))


def collapsed(conn, m, image):
    """The first non-identity scalar is sent where the identity goes."""
    G = conn.group
    other = next(g for g in G.elements() if g != G.identity)
    return replace(image, h=G.identity) if image.h == other else image


def endomorphic(conn, m, image):
    """Every image ends where it starts, so images of m1 and m2 need not compose."""
    return replace(image, cod=image.dom)


def relabelled(conn, m, image):
    """Objects 0 and 1 trade coset handles: still a functor, but an image's
    domain is no longer the coset of its object."""
    sigma = image.kind == "sigma"
    apply_ = connections.gamma_apply if sigma else connections.delta_apply
    swap = {0: 1, 1: 0} if (conn.n_i if sigma else conn.n_lambda) > 1 else {}
    dom, cod = (apply_(conn, swap.get(k, k)) for k in (m.dom, m.cod))
    return replace(image, dom=dom, cod=cod)


@contextmanager
def faulty_images(name: str, fault):
    """`connections.<name>` with every morphism image passed through fault."""
    original = getattr(connections, name)

    def apply_(conn, x):
        image = original(conn, x)
        return fault(conn, x, image) if isinstance(x, Morphism) else image

    with mock.patch.object(connections, name, apply_):
        yield


@contextmanager
def unscaled_linkage():
    """`is_linked` without its g1 == g2 test, scalar and on arrays alike (the
    array linkage compares the factors in `kernel.same_factor`): cones of
    one cell that factor through different scalars count as linked."""

    def scalar(conn, gamma, delta):
        G, P = conn.group, conn.matrix
        g1 = connections._right_factor(G, P.column(delta.vertex), gamma.values)
        g2 = connections._right_factor(G.opposite, P.row(gamma.vertex), delta.values)
        return g1 is not None and g2 is not None

    def same_factor(f1, f2):
        return (f1 >= 0) & (f2 >= 0)

    with mock.patch.object(connections, "is_linked", scalar), mock.patch.object(
        kernel, "same_factor", same_factor
    ):
        yield


@contextmanager
def reversed_compose():
    """`ArrowCategory.compose` carrying g2*g1 instead of g1*g2: the groupoid
    laws still hold, but in a non-abelian group the cone product changes."""

    def compose(self, m1, m2):
        if m1.cod != m2.dom:
            raise NotComposable("codomain of the first is not the domain of the second")
        return Morphism(m1.dom, m2.cod, self.group.mul(m2.g, m1.g))

    with mock.patch.object(ArrowCategory, "compose", compose):
        yield


@contextmanager
def rescaled_opposite(row: int, h: int):
    """`CrossConnection.opposite` whose P^T has row `row` (column `row` of P)
    multiplied on the left by h in G.  With |I| > 1 the duals of a cell no
    longer factor through the faulty P^T; with |I| = 1 the Delta route
    ends at another cone wherever h does not commute with g2."""
    original = connections.CrossConnection.opposite

    def opposite(conn):
        op = original.fget(conn)
        entries = [list(r) for r in op.matrix.entries]
        entries[row] = [conn.group.mul(h, x) for x in entries[row]]
        return connections.CrossConnection(SandwichMatrix(op.group, entries))

    with mock.patch.object(connections.CrossConnection, "opposite", property(opposite)):
        yield


@contextmanager
def stray_cone(h: int, shift: int = 0):
    """`connections.gamma_cell` with the last coordinate of its last cone
    multiplied by h and its vertex moved on by shift (mod |Lambda|): with
    |Lambda| > 1, that cone is off its cell unless h is the identity and
    shift is 0.  The dual cells (`delta_cell`) stay sound, so only the
    naturality squares and the duality of that cell fail."""
    original = connections.gamma_cell

    def gamma_cell(conn, lam, i):
        cell = original(conn, lam, i)
        *values, last = cell[-1].values
        vertex = (lam + shift) % conn.n_lambda
        return cell[:-1] + [Cone((*values, conn.group.mul(last, h)), vertex)]

    def delta_cell(conn, lam, i):
        return original(conn.opposite, i, lam)

    with mock.patch.object(connections, "gamma_cell", gamma_cell), mock.patch.object(
        connections, "delta_cell", delta_cell
    ):
        yield


@contextmanager
def reversed_delta_product():
    """`s_tilde_mul`, scalar and array alike, with the delta factors in the
    wrong order, p.delta * q.delta: in a non-abelian group, or with |I| > 1,
    products of pairs change."""

    def scalar(conn, p1, p2):
        G = conn.group
        return connections.LinkedPair(
            cones.mul_L(G, p1.gamma, p2.gamma), cones.mul_L(G.opposite, p1.delta, p2.delta)
        )

    def product_halves(self, p):
        return self.u_gamma.table[self.g[p], self.g], self.u_delta.table[self.d[p], self.d]

    with mock.patch.object(connections, "s_tilde_mul", scalar), mock.patch.object(
        connections.PairArrays, "product_halves", product_halves
    ):
        yield


def _swapped(table):
    """The table with its entries at (0, 0) and (0, 1) swapped, in place:
    still closed, but no longer a homomorphic image of S."""
    if table is not None:
        table[0][0], table[0][1] = table[0][1], table[0][0]
    return table


@contextmanager
def swapped_pair_table():
    """The linked-pair table of `verify_phi`, array and scalar alike, with two
    entries swapped.  The array table is swapped where it is built, in
    `connections.pair_arrays`, and no other table is touched."""
    arrays, scalar_table = connections.pair_arrays, pair_table

    def pair_arrays(*args, **kwargs):
        linked = arrays(*args, **kwargs)
        _swapped(linked.table)
        return linked

    def scalar(S):
        table, witness = scalar_table(S)
        return _swapped(table), witness

    with mock.patch.object(connections, "pair_arrays", pair_arrays), mock.patch(
        f"{__name__}.pair_table", scalar
    ):
        yield


@contextmanager
def missing_pair():
    """`connections.linked_pairs` without its last pair: some products of
    pairs are no pair, so the pair table is not closed."""
    original = connections.linked_pairs
    with mock.patch.object(
        connections, "linked_pairs", lambda *args, **kwargs: original(*args, **kwargs)[:-1]
    ):
        yield
