"""Scalar loop versions of the O(|S|^2) scans that the suites run on arrays.

These are the loop bodies the array kernel replaced, kept as the
reference that tests compare it against.  They call the scalar
functions through their modules (`cones.mul_L`, `connections.phi`, ...),
so a fault patched into one of those reaches them too.  The faults at
the end are the ones the negative controls patch into the functors
`connections.gamma_apply` and `connections.delta_apply`, and into both
linkage tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from unittest import mock

from crossconn import cones, connections, kernel
from crossconn.categories import Morphism, RealizationReport, left_category, right_category
from crossconn.checks import Check
from crossconn.errors import NotComposable, NotInDomainCoset
from crossconn.oracle import from_table, verify_map
from crossconn.rees import ReesElement, ReesSemigroup


def principal_left_ideal_witness(S: ReesSemigroup) -> str | None:
    """The witness of `rees.principal_left_ideal`."""
    elements = list(S.elements())
    bad_ideal = next(
        (
            x
            for x in elements
            if S.principal_left_ideal(x) != frozenset({x} | {S.mul(s, x) for s in elements})
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
    f = [index[connections.phi(S, a)] for a in S.elements()]
    check = verify_map(f, from_table(S.index_table()), from_table(table))
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
    """`is_linked`, scalar and array alike, without its g1 == g2 test: cones of
    one cell that factor through different scalars count as linked."""

    def scalar(conn, gamma, delta):
        G, P = conn.group, conn.matrix
        g1 = connections._right_factor(G, P.column(delta.vertex), gamma.values)
        g2 = connections._right_factor(G.opposite, P.row(gamma.vertex), delta.values)
        return g1 is not None and g2 is not None

    def array(M, inverse, P, gamma, deltas):
        (values, vertex), (delta_values, delta_vertices) = gamma, deltas
        _, ok1 = kernel.right_factor(M, inverse, P[:, delta_vertices].T, values)
        _, ok2 = kernel.right_factor(M.T, inverse, P[vertex], delta_values)
        return ok1 & ok2

    with mock.patch.object(connections, "is_linked", scalar), mock.patch.object(
        kernel, "is_linked", array
    ):
        yield
