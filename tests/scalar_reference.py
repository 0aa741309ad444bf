"""Scalar loop versions of the O(|S|^2) scans that the suites run on arrays.

These are the loop bodies the array kernel replaced, kept as the
reference that tests compare it against.  They call the scalar
functions through their modules (`cones.mul_L`, `connections.phi`, ...),
so a fault patched into one of those reaches them too.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from crossconn import cones, connections
from crossconn.categories import RealizationReport
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
