"""Exhaustive property suites over one fixture, reported as named checks.

These back the CLI's verify / crossconn / rbg commands.  Scans whose cost
grows with the cone semigroup are skipped (passed=None) once they exceed
the triple guard, never silently truncated.  The O(|S|^2) scans run one
row at a time on the arrays of `kernel`, reading products of S from
`S.table()`; right-hand products run as `kernel.mul_L` over the opposite
group (the transposed Cayley array), so one kernel serves both sides.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import connections, cones, kernel, oracle
from .categories import Morphism, left_category, realize_category, right_category
from .checks import Check
from .connections import CrossConnection
from .rees import ReesSemigroup

TRIPLE_GUARD = 10**6

_SKIP = "skipped by the triple guard"


def rees_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    T = S.to_generic()
    table = T.table

    witness = oracle.associativity_witness(table)
    checks.append(
        Check("rees.associative", witness is None, str(witness) if witness else None)
    )

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
    checks.append(Check("rees.table_matches_product", bad is None, str(bad) if bad else None))

    checks.append(Check("rees.regular", oracle.is_regular(T)))

    formula = set(S.idempotents())
    brute = {x for x in elements if S.mul(x, x) == x}
    ok = formula == brute and len(formula) == S.n_i * S.n_lambda
    checks.append(
        Check(
            "rees.idempotent_formula",
            ok,
            None if ok else f"formula gives {len(formula)}, scan gives {len(brute)}",
        )
    )

    for kind in ("L", "R", "H", "D"):
        agree = S.green(kind) == oracle.green_via_ideals(T, kind)
        checks.append(Check(f"rees.green_{kind}_oracle_agreement", agree))

    # S^1 x is x with column x of the table: every s*x
    columns = S.table().T
    bad_ideal = next(
        (
            x
            for k, x in enumerate(elements)
            if S.principal_left_ideal(x)
            != frozenset(map(S.element, {k, *columns[k].tolist()}))
        ),
        None,
    )
    checks.append(
        Check(
            "rees.principal_left_ideal",
            bad_ideal is None,
            str(bad_ideal) if bad_ideal else None,
        )
    )
    return checks


def category_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    G = S.group
    for side in ("left", "right"):
        rep = realize_category(S, side, size_guard=S.size)
        checks.append(
            Check(
                f"category.{side}_realization",
                rep.matched,
                "; ".join(rep.mismatches) if rep.mismatches else None,
            )
        )

    for name, cat in (("left", left_category(G, S.n_lambda)), ("right", right_category(G, S.n_i))):
        witness = None
        for m in cat.morphisms():
            inv = cat.invert(m)
            if not (
                cat.is_identity(cat.compose(m, inv)) and cat.is_identity(cat.compose(inv, m))
            ):
                witness = f"{m} has no two-sided inverse"
                break
            e, u, j = cat.normal_factorization(m)
            if cat.compose(cat.compose(e, u), j) != m:
                witness = f"normal factorization of {m} does not recompose"
                break
        checks.append(Check(f"category.{name}_groupoid", witness is None, witness))

    n_cones = (G.order ** S.n_lambda) * S.n_lambda
    if n_cones**2 > TRIPLE_GUARD:
        checks.append(Check("category.cone_product_agreement", None, _SKIP))
    else:
        lcat = left_category(G, S.n_lambda)
        tl = cones.enumerate_TL(G, S.n_lambda)
        witness = next(
            (
                f"{c1} * {c2}"
                for c1 in tl
                for c2 in tl
                if lcat.compose_cones(c1, c2) != cones.mul_L(G, c1, c2)
            ),
            None,
        )
        checks.append(Check("category.cone_product_agreement", witness is None, witness))
    return checks


def cone_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    G = S.group
    n_l = S.n_lambda
    elements = list(S.elements())

    n_cones = (G.order**n_l) * n_l
    small = n_cones**3 <= TRIPLE_GUARD

    if not small:
        checks.append(Check("cones.action_law", None, _SKIP))
        checks.append(Check("cones.semidirect_law", None, _SKIP))
        checks.append(Check("cones.tl_associative", None, _SKIP))
        checks.append(Check("cones.tl_green_agreement", None, _SKIP))
        checks.append(Check("cones.idempotent_closed_form", None, _SKIP))
    else:
        # k*(l*v) must equal (kl)*v = l*v, the object set being right zero
        tuples = list(product(G.elements(), repeat=n_l))
        witness = next(
            (
                f"k={k}, l={l}, tuple={values}"
                for k in range(n_l)
                for l in range(n_l)
                for values in tuples
                if cones.act(G, k, cones.act(G, l, values)) != cones.act(G, l, values)
            ),
            None,
        )
        checks.append(Check("cones.action_law", witness is None, witness))

        tl = cones.enumerate_TL(G, n_l)
        witness = None
        for c1 in tl:
            for c2 in tl:
                expected = cones.Cone(
                    tuple(
                        G.mul(v, w)
                        for v, w in zip(c1.values, cones.act(G, c1.vertex, c2.values))
                    ),
                    c2.vertex,
                )
                if cones.mul_L(G, c1, c2) != expected:
                    witness = f"{c1} * {c2}"
                    break
            if witness:
                break
        checks.append(Check("cones.semidirect_law", witness is None, witness))

        table = cones.cone_table(G, tl, "L")
        assoc = oracle.associativity_witness(table)
        checks.append(Check("cones.tl_associative", assoc is None, str(assoc) if assoc else None))

        T = oracle.from_table(table)
        by_vertex = oracle.canonical_partition(
            _group_indices(tl, key=lambda c: c.vertex).values()
        )
        by_coset = oracle.canonical_partition(
            _group_indices(tl, key=lambda c: cones.coset_normalize(G, "left", c.values)).values()
        )
        ok = by_vertex == oracle.green_via_ideals(T, "L") and by_coset == oracle.green_via_ideals(
            T, "R"
        )
        checks.append(Check("cones.tl_green_agreement", ok))

        witness = next(
            (
                str(c)
                for c in tl
                if cones.is_idempotent_cone(G, c) != (cones.mul_L(G, c, c) == c)
            ),
            None,
        )
        checks.append(Check("cones.idempotent_closed_form", witness is None, witness))

    pairs = [cones.principal_pair(S, a) for a in elements]
    rho = kernel.cone_arrays([r for r, _ in pairs])
    lam = kernel.cone_arrays([l for _, l in pairs])
    M, table = kernel.group_array(G), S.table()
    for name, bad_row in (
        # rho(a) rho(b) against rho(ab), for every b at once
        (
            "cones.principal_homomorphism",
            lambda a: kernel.differ(
                kernel.mul_L(M, kernel.pick(rho, a), rho), kernel.pick(rho, table[a])
            ),
        ),
        # lam(b) lam(a) over the opposite group against lam(ab)
        (
            "cones.dual_antihomomorphism",
            lambda a: kernel.differ(
                kernel.mul_L(M.T, lam, kernel.pick(lam, a)), kernel.pick(lam, table[a])
            ),
        ),
    ):
        bad = kernel.first_failure(S.size, bad_row)
        witness = None if bad is None else ", ".join(str(elements[k]) for k in bad)
        checks.append(Check(name, witness is None, witness))

    # one row per distinct principal cone (np.unique would import numpy.ma)
    distinct = list({key: k for k, key in enumerate(kernel.row_keys(*rho).tolist())}.values())
    image = kernel.pick(rho, distinct)
    checks.append(
        Check("cones.principal_image_subsemigroup", kernel.regular_subsemigroup(M, image))
    )

    crit = cones.injectivity_criterion(S.matrix)
    injective = len(distinct) == S.size
    agree = crit.holds == injective
    checks.append(
        Check(
            "cones.injectivity_equivalence",
            agree,
            None if agree else f"criterion {crit.holds}, map injective {injective}",
        )
    )
    return checks


def _group_indices(items, key):
    groups: dict = {}
    for k, item in enumerate(items):
        groups.setdefault(key(item), []).append(k)
    return groups


def crossconn_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    G = S.group
    conn = CrossConnection(S.matrix)
    n_i, n_l = conn.n_i, conn.n_lambda

    checks.extend(connections.verify_crossconnection(conn))

    witness = None
    for lam in range(n_l):
        for i in range(n_i):
            cell = connections.gamma_cell(conn, lam, i)
            dual = connections.delta_cell(conn, lam, i)
            if len(set(cell)) != G.order or len(set(dual)) != G.order:
                witness = f"cell ({lam},{i}) does not have {G.order} members"
                break
            images = [connections.chi(conn, c, i) for c in cell]
            if sorted(set(images), key=lambda c: (c.values, c.vertex)) != sorted(
                set(dual), key=lambda c: (c.values, c.vertex)
            ) or len(set(images)) != G.order:
                witness = f"duality is not a bijection on cell ({lam},{i})"
                break
            if any(
                connections.chi_inv(conn, connections.chi(conn, c, i), lam) != c for c in cell
            ):
                witness = f"duality does not invert on cell ({lam},{i})"
                break
        if witness:
            break
    checks.append(Check("crossconn.duality_bijection", witness is None, witness))

    cost = (n_l * n_i * G.order) ** 2 * G.order * (n_l + n_i)
    if cost > TRIPLE_GUARD:
        checks.append(Check("crossconn.naturality", None, _SKIP))
    else:
        witness = None
        for l1, l2, i1, i2 in product(range(n_l), range(n_l), range(n_i), range(n_i)):
            for g1, g2 in product(G.elements(), repeat=2):
                rho = Morphism(l1, l2, g2)
                kappa = Morphism(i1, i2, g1)
                for cone in connections.gamma_cell(conn, l1, i1):
                    left = connections.chi(conn, connections.bifunctor_gamma(conn, rho, kappa, cone), i2)
                    right = connections.bifunctor_delta(
                        conn, rho, kappa, connections.chi(conn, cone, i1)
                    )
                    if left != right:
                        witness = f"square at ({l1},{l2},{i1},{i2}) with g1={g1}, g2={g2}"
                        break
                if witness:
                    break
            if witness:
                break
        checks.append(Check("crossconn.naturality", witness is None, witness))

    ug = connections.u_gamma(conn, bound=S.size)
    ud = connections.u_delta(conn, bound=S.size)
    M = kernel.group_array(G)
    ok = kernel.regular_subsemigroup(M, kernel.cone_arrays(ug)) and kernel.regular_subsemigroup(
        M.T, kernel.cone_arrays(ud)
    )
    checks.append(Check("crossconn.u_subsemigroups", ok))

    if len(ug) * len(ud) * (n_l + n_i) > TRIPLE_GUARD:
        checks.append(Check("crossconn.linked_criterion_agreement", None, _SKIP))
    else:
        # each U-Gamma cone against all of U-Delta: linked exactly when a linked pair
        pairs = connections._pair_cones(connections.linked_pairs(conn, size_guard=S.size))
        index = kernel.KeyIndex(kernel.row_keys(*pairs[0], *pairs[1]))
        gammas, deltas = kernel.cone_arrays(ug), kernel.cone_arrays(ud)
        P, inverse = np.asarray(S.matrix.entries), np.asarray(G.inverse)
        m = len(ud)

        def bad_row(a: int) -> np.ndarray:
            values, vertex = kernel.pick(gammas, a)
            keys = kernel.row_keys(
                np.broadcast_to(values, (m, n_l)), np.full(m, vertex), *deltas
            )
            paired = index.find(keys) >= 0
            return kernel.is_linked(M, inverse, P, (values, vertex), deltas) != paired

        bad = kernel.first_failure(len(ug), bad_row)
        witness = None if bad is None else f"{ug[bad[0]]}, {ud[bad[1]]}"
        checks.append(Check("crossconn.linked_criterion_agreement", witness is None, witness))

    report = connections.verify_phi(S)
    checks.append(Check("crossconn.s_tilde_closed", report.closed, report.closure_witness))
    mc = report.map_check
    checks.append(
        Check(
            "crossconn.phi_isomorphism",
            report.is_isomorphism,
            mc.witness if mc is not None else report.closure_witness,
        )
    )

    handles = [connections.gamma_apply(conn, i) for i in range(n_i)]
    extracted = connections.matrix_of(G, handles)
    witness = None
    for i in range(n_i):
        if connections._right_factor(G, S.matrix.column(i), extracted.column(i)) is None:
            witness = f"extracted column {i} is not a right scaling of the original"
            break
    checks.append(Check("crossconn.matrix_roundtrip", witness is None, witness))

    return checks


def full_suite(S: ReesSemigroup) -> list[Check]:
    return rees_suite(S) + category_suite(S) + cone_suite(S) + crossconn_suite(S)


def rbg_suite(S: ReesSemigroup) -> list[Check]:
    """The constant-identity connection of S: product formula and isomorphism checks."""
    checks = []
    group, n_i, n_lambda = S.group, S.n_i, S.n_lambda
    conn = CrossConnection(S.matrix)
    ok = all(
        v == group.identity for row in conn.matrix.entries for v in row
    )
    checks.append(Check("rbg.identity_matrix", ok))

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

    report = connections.verify_phi(S)
    checks.append(
        Check(
            "rbg.phi_isomorphism",
            report.is_isomorphism,
            report.map_check.witness if report.map_check else report.closure_witness,
        )
    )
    return checks
