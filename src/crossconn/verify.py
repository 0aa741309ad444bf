"""Exhaustive property suites over one fixture, reported as named checks.

These back the CLI's verify / crossconn / rbg commands.  Scans whose cost
grows with the cone semigroup are skipped (passed=None) once they exceed
the triple guard, never silently truncated.

`rees_suite` checks the closed forms of S on plain integers, with no
`ReesSemigroup.mul` call and no `ReesElement` per pair:
`rees.table_matches_product` evaluates `rees.product` on the coordinates
of every pair, one row of `S.table()` at a time.  The left and right
`oracle.ideal_rows` of S's table are built once and serve Light's test,
`oracle.green_via_ideals` and `rees.principal_left_ideal`, which compares
each closed form, in order, with the members of that element's bit row.
The other O(|S|^2) scans run one row at a time on the arrays of
`kernel`, reading products of S from `S.table()` and of G and P from
`G.array` and `P.array`, which G and P build once; right-hand products
run as `kernel.mul_L` over the opposite group, whose array is the view
`G.array.T`, so one kernel serves both sides.
The cone scans run the same way: `category.cone_product_agreement` takes
one cone of T_L against all of T_L per row, with the category's
composition tabulated once from `ArrowCategory.compose`, and
`crossconn.naturality` takes one triple of objects (l1, l2, i1) per row,
all (i2, g1, g2) and all cones of the cell at once, through
`kernel.bifunctor` and `kernel.chi`; `crossconn.duality_bijection` takes
one cell per row.  Each cell is one slice of `SandwichMatrix.scaled`
(`connections.gamma_cell`).  `connections.pair_arrays(S)` is built once
per command: the linked pairs, U-Gamma, U-Delta, their tables, the pair
table gathered from those, and the positions of the pairs' halves in
U-Gamma and U-Delta, all read off `SandwichMatrix.scaled`.  `cone_suite`,
`crossconn_suite`, `rbg_suite` and `connections.verify_phi` take it as a
required argument and never build it: `full_suite` builds it after
`rees_suite` and `category_suite`, and the CLI's `crossconn` and `rbg`
build it for their suite.
The linked pair k is phi of element k: the principal cones
rho(a) = (col_i g, lam) and lam(a) = (g row_lam, i) of a = (g, i, lam),
cones of U-Gamma and U-Delta, so the principal checks read the U tables
at the pairs' positions `linked.g` and `linked.d`; `crossconn.u_subsemigroups`,
`verify_phi`, the linked criterion and the `rbg` scans read the rest:
the criterion and `rbg.linked_iff_equal_scalars` read one linkage table
of U-Gamma x U-Delta (`_linkage`, `kernel.linkage_table`), gathered
from the factors of each tuple class through the columns and rows of P,
and `rbg.product_formula` reads each product's halves off the U tables
and compares them as integers, each U cone's constant value and vertex.

Every set of cones a suite checks becomes its table once, through
`kernel.cone_product_table` on the tuple classes of the set (T_L,
U-Gamma and U-Delta), whose one `KeyIndex` holds the set's distinct
tuples: scalings of the tuples, their lookup and one gather, with -1 for each
product outside the set; the set is closed when no entry is -1, and
`kernel.first_hole` names the first in row order.  The linked pairs are
the exception: their table is gathered from the U-Gamma and U-Delta
tables, and they are closed when every pair's halves lie in U-Gamma and
U-Delta and no entry is -1.
Every check on a set reads its table.  With r[a] and l[a] the positions
of rho(a) and lam(a) in U-Gamma and U-Delta, `cones.principal_homomorphism`
compares GT[r[a], r] with r[ab] and `cones.dual_antihomomorphism`
compares DT[l, l[a]] with l[ab], a cone of a, b or ab outside its U set
failing; `cones.principal_image_subsemigroup` reads GT restricted to the
positions r hits.
Closed tables reach the oracle as `GenericSemigroup`s and the oracle
judges the rest:
`oracle.is_regular` decides the principal image and U-Gamma/U-Delta,
`oracle.verify_map` the isomorphism, and
`oracle.green_via_ideals` gives all four Green partitions of S and of
T_L at once, keyed by the bytes of the ideal rows by which Light's test
of the same table chose its generators.  Each table is scanned for
associativity once, by the check that reports it (`rees.associative`,
`cones.tl_associative`), so a
non-associative table is a failed check; the linked-pair table needs
none, since a passing `crossconn.phi_isomorphism` carries S's
associativity onto it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import connections, cones, kernel, oracle, rees
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
    ideals = oracle.ideal_rows(table)

    witness = oracle.associativity_witness(table, ideals)
    checks.append(
        Check("rees.associative", witness is None, str(witness) if witness else None)
    )

    # elements() runs in index order, so row k of the table belongs to element k
    elements = list(S.elements())
    bad = _product_witness(S, elements, table)
    checks.append(Check("rees.table_matches_product", bad is None, str(bad) if bad else None))

    checks.append(Check("rees.regular", oracle.is_regular(T)))

    formula = set(S.idempotents())
    brute = set(map(S.element, oracle.idempotents(T)))
    ok = formula == brute and len(formula) == S.n_i * S.n_lambda
    checks.append(
        Check(
            "rees.idempotent_formula",
            ok,
            None if ok else f"formula gives {len(formula)}, scan gives {len(brute)}",
        )
    )

    formula, brute = S.green(), oracle.green_via_ideals(T, ideals)
    for kind in ("L", "R", "H", "D"):
        checks.append(Check(f"rees.green_{kind}_oracle_agreement", formula[kind] == brute[kind]))

    # row k of the left ideal rows, unpacked: the members of S^1 x in order
    bad_ideal = next(
        (
            x
            for x, row in zip(elements, ideals[0])
            if sorted(S.principal_left_ideal(x))
            != np.flatnonzero(np.unpackbits(row, count=S.size)).tolist()
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


def _product_witness(S: ReesSemigroup, elements: list, table: np.ndarray) -> tuple | None:
    """The first (x, y) in row order whose entry in the table is not the index
    of x*y by `rees.product`.  Each row is evaluated in plain Python over
    the Cayley table and the matrix entries, never through `index_table`,
    and compared with the row of the table as one list; a product's index
    is `S.index` of its coordinates, read once per element."""
    coords = [(x.g, x.i, x.lam) for x in elements]
    position = {c: S.index(x) for c, x in zip(coords, elements)}
    cayley, entries = S.group.cayley, S.matrix.entries
    for x, (a, i, lam), row in zip(elements, coords, table):
        expected = [
            position[rees.product(cayley, entries, a, i, lam, b, j, mu)] for b, j, mu in coords
        ]
        got = row.tolist()
        if got != expected:
            b = next(b for b, (entry, want) in enumerate(zip(got, expected)) if entry != want)
            return x, elements[b]
    return None


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
        witness = _cone_product_witness(G, S.n_lambda)
        checks.append(Check("category.cone_product_agreement", witness is None, witness))
    return checks


def _cone_product_witness(G, n_lambda: int) -> str | None:
    """The first pair of T_L whose product in the left category differs from
    the semigroup product `mul_L`, one row of T_L at a time: a's component
    at each object, followed by b's component at a's vertex, with b's vertex.

    Composition is tabulated once from `ArrowCategory.compose`, so a fault
    in it or in the group's multiplication reaches the check.
    """
    lcat = left_category(G, n_lambda)
    C = np.array(
        [
            [lcat.compose(Morphism(0, 0, g1), Morphism(0, 0, g2)).g for g2 in G.elements()]
            for g1 in G.elements()
        ],
        dtype=np.intp,
    )
    tl = cones.enumerate_TL(G, n_lambda)
    tl_arrays = kernel.cone_arrays(tl)
    values_b, vertices_b = tl_arrays

    def bad_row(a: int) -> np.ndarray:
        values, vertex = kernel.pick(tl_arrays, a)
        # a's component at each object, followed by b's component at a's vertex
        composite = C[values, values_b[:, vertex, None]], vertices_b
        return kernel.differ(composite, kernel.mul_L(G.array, (values, vertex), tl_arrays))

    bad = kernel.first_failure(len(tl), bad_row)
    return None if bad is None else f"{tl[bad[0]]} * {tl[bad[1]]}"


def cone_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """`linked` is `connections.pair_arrays(S)`: pair a is phi(a), so the
    principal cones of a are the cones of U-Gamma and U-Delta at `linked.g[a]`
    and `linked.d[a]`, and every principal check reads their tables."""
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

        table = cones.cone_table(G, tl)
        ideals = oracle.ideal_rows(table)
        assoc = oracle.associativity_witness(table, ideals)
        checks.append(Check("cones.tl_associative", assoc is None, str(assoc) if assoc else None))

        T = oracle.GenericSemigroup(table)
        by_vertex = oracle.partition_by_key([c.vertex for c in tl])
        by_coset = oracle.partition_by_key(
            [cones.coset_normalize(G, "left", c.values) for c in tl]
        )
        green = oracle.green_via_ideals(T, ideals)
        ok = by_vertex == green["L"] and by_coset == green["R"]
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

    # r[a] and l[a]: the positions of rho(a) and lam(a) in U-Gamma and U-Delta
    r, l = linked.g, linked.d
    GT, DT, table = linked.u_gamma.table, linked.u_delta.table, S.table()
    for name, bad_row in (
        # rho(a) rho(b) against rho(ab), for every b at once
        ("cones.principal_homomorphism", lambda a: _misplaced(GT[r[a], r], r[table[a]])),
        # lam(b) lam(a) over the opposite group against lam(ab)
        ("cones.dual_antihomomorphism", lambda a: _misplaced(DT[l, l[a]], l[table[a]])),
    ):
        bad = kernel.first_failure(S.size, bad_row)
        witness = None if bad is None else ", ".join(str(elements[k]) for k in bad)
        checks.append(Check(name, witness is None, witness))

    # the image's positions in U-Gamma, -1 first where a cone is outside it;
    # its table is GT restricted to them and renumbered, -1 off the image
    hit = sorted(set(r.tolist()))
    renumber = np.full(len(GT), -1, dtype=np.int32)
    renumber[hit] = np.arange(len(hit))
    image_ok = hit[0] >= 0 and _regular(renumber[GT[np.ix_(hit, hit)]])
    checks.append(Check("cones.principal_image_subsemigroup", image_ok))

    crit = cones.injectivity_criterion(S.matrix)
    injective = len(hit) == S.size
    agree = crit.holds == injective
    checks.append(
        Check(
            "cones.injectivity_equivalence",
            agree,
            None if agree else f"criterion {crit.holds}, map injective {injective}",
        )
    )
    return checks


def _misplaced(got: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Where the positions in a U set differ, or the expected one is -1: a
    cone outside the set fails rather than compare -1 with -1."""
    return (got != expected) | (expected < 0)


def _regular(table: np.ndarray) -> bool:
    """Whether a set with this `kernel.cone_product_table` is closed (no -1) and,
    judged by the oracle, regular."""
    return bool((table >= 0).all()) and oracle.is_regular(oracle.GenericSemigroup(table))


def crossconn_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """`linked` is `connections.pair_arrays(S)`."""
    checks = []
    G = S.group
    conn = CrossConnection(S.matrix)
    n_i, n_l = conn.n_i, conn.n_lambda

    checks.extend(connections.verify_crossconnection(conn))

    witness = _duality_witness(conn)
    checks.append(Check("crossconn.duality_bijection", witness is None, witness))

    cost = (n_l * n_i * G.order) ** 2 * G.order * (n_l + n_i)
    if cost > TRIPLE_GUARD:
        checks.append(Check("crossconn.naturality", None, _SKIP))
    else:
        witness = _naturality_witness(conn)
        checks.append(Check("crossconn.naturality", witness is None, witness))

    ug, ud = linked.u_gamma, linked.u_delta
    ok = _regular(ug.table[:-1, :-1]) and _regular(ud.table[:-1, :-1])
    checks.append(Check("crossconn.u_subsemigroups", ok))

    if len(ug.classes) * len(ud.classes) * (n_l + n_i) > TRIPLE_GUARD:
        checks.append(Check("crossconn.linked_criterion_agreement", None, _SKIP))
    else:
        # linked exactly when a linked pair
        mismatch = _linkage(S, linked) != (linked.pair_at[:-1, :-1] >= 0)
        bad = kernel.first_failure(len(ug.classes), lambda x: mismatch[x])
        witness = None
        if bad is not None:
            x, y = bad
            gamma, delta = ug.classes.members, ud.classes.members
            witness = f"{connections.as_cone(gamma, x)}, {connections.as_cone(delta, y)}"
        checks.append(Check("crossconn.linked_criterion_agreement", witness is None, witness))

    report = connections.verify_phi(S, linked)
    checks.append(Check("crossconn.s_tilde_closed", report.closed, report.closure_witness))
    checks.append(Check("crossconn.phi_isomorphism", report.is_isomorphism, report.witness))

    handles = [connections.gamma_apply(conn, i) for i in range(n_i)]
    extracted = connections.matrix_of(G, handles)
    witness = None
    for i in range(n_i):
        if connections._right_factor(G, S.matrix.column(i), extracted.column(i)) is None:
            witness = f"extracted column {i} is not a right scaling of the original"
            break
    checks.append(Check("crossconn.matrix_roundtrip", witness is None, witness))

    return checks


def _duality_witness(conn: CrossConnection) -> str | None:
    """The first cell (lam, i) on which chi is not a bijection onto the dual
    cell inverted by chi over `conn.opposite`.  Each cell is one row: chi of
    all its cones through `kernel.chi`.  A cone that does not factor
    through its cell has no image, and the duality fails there."""
    G, op = conn.group, conn.opposite
    M, inverse = G.array, np.asarray(G.inverse)
    P, P_op = conn.matrix.array, op.matrix.array

    def distinct(cones) -> set:
        return set(kernel.row_keys(*cones).tolist())

    for lam, i in product(range(conn.n_lambda), range(conn.n_i)):
        cell = connections.gamma_cell(conn, lam, i)
        dual = connections.delta_cell(conn, lam, i)
        if len(distinct(cell)) != G.order or len(distinct(dual)) != G.order:
            return f"cell ({lam},{i}) does not have {G.order} members"
        values, ok = kernel.chi(M, inverse, P[:, i], P[cell[1]], cell[0])
        if not ok.all() or distinct((values, np.full(len(values), i))) != distinct(dual):
            return f"duality is not a bijection on cell ({lam},{i})"
        # each image is now in the dual cell, made over conn.opposite: it factors
        back, _ = kernel.chi(M.T, inverse, P_op[:, lam], P_op[i], values)
        if kernel.differ((back, lam), cell).any():
            return f"duality does not invert on cell ({lam},{i})"
    return None


def _naturality_witness(conn: CrossConnection) -> str | None:
    """The first square of the duality chi between the cell maps of the two
    bifunctors that does not commute, in (l1, l2, i1, i2, g1, g2) order.

    For rho = g2 : l1 -> l2 and kappa = g1 : i1 -> i2, each cone of the cell
    (l1, i1) goes through Gamma's cell map and then chi, and through chi and
    then Delta's cell map, which is Gamma's over `conn.opposite` with rho and
    kappa swapped.  One triple (l1, l2, i1) is one row: all (i2, g1, g2) and
    all |G| cones of the cell at once.  A cone that is not on its cell fails
    its squares.
    """
    G, op = conn.group, conn.opposite
    M, P, M_op, P_op = G.array, conn.matrix.array, op.group.array, op.matrix.array
    inverse, order = np.asarray(G.inverse), G.order
    # axes [i2, g1, g2, cone]
    targets = P.T[:, None, None, None, :]  # column i2 of P
    g1 = np.arange(order).reshape(-1, 1, 1)
    g2 = np.arange(order).reshape(1, -1, 1)
    triples = list(product(range(conn.n_lambda), range(conn.n_lambda), range(conn.n_i)))

    def bad_row(a: int) -> np.ndarray:
        l1, l2, i1 = triples[a]
        values, vertices = connections.gamma_cell(conn, l1, i1)
        # Gamma's cell map, then chi on the cell (l2, i2)
        image, ok1 = kernel.bifunctor(M, inverse, P[:, i1], targets, g1, g2, values)
        left, ok2 = kernel.chi(M, inverse, targets, P[l2], image)
        # chi on the cell (l1, i1), then Delta's cell map
        dual, ok3 = kernel.chi(M, inverse, P[:, i1], P[l1], values)
        right, ok4 = kernel.bifunctor(M_op, inverse, P_op[:, l1], P_op[:, l2], g2, g1, dual)
        on_cell = ok1 & ok2 & ok3 & ok4 & (vertices == l1)
        return ((left != right).any(axis=-1) | ~on_cell).any(axis=-1).ravel()

    bad = kernel.first_failure(len(triples), bad_row)
    if bad is None:
        return None
    (l1, l2, i1), (i2, rest) = triples[bad[0]], divmod(bad[1], order * order)
    return f"square at ({l1},{l2},{i1},{i2}) with g1={rest // order}, g2={rest % order}"


def _linkage(S: ReesSemigroup, linked: connections.PairArrays) -> np.ndarray:
    """Whether each cone of U-Gamma is linked with each cone of U-Delta, as a
    (|U-Gamma|, |U-Delta|) table by tuple class (`kernel.linkage_table`)."""
    G = S.group
    M, P, inverse = G.array, S.matrix.array, np.asarray(G.inverse)
    return kernel.linkage_table(M, inverse, P, linked.u_gamma.classes, linked.u_delta.classes)


def full_suite(S: ReesSemigroup) -> list[Check]:
    checks = rees_suite(S) + category_suite(S)
    # built after the two suites above, so that their peak memory and its own do not add up
    linked = connections.pair_arrays(S)
    return checks + cone_suite(S, linked) + crossconn_suite(S, linked)


def _constant_values(cones) -> tuple[np.ndarray, np.ndarray]:
    """Each cone's constant value, -1 where its tuple is not constant, and its vertex."""
    values, vertices = cones
    return np.where((values == values[:, :1]).all(axis=1), values[:, 0], -1), vertices


def rbg_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """The constant-identity connection of S: product formula and isomorphism checks.
    `linked` is `connections.pair_arrays(S)`.

    A row is one pair p against all pairs q, with g1, g2 the first values of
    p.gamma and q.gamma (or q.delta): the U-Gamma and U-Delta cones at
    `PairArrays.product_halves(p)` against ((g1 g2,)*|Lambda|, q.gamma.vertex),
    ((g1 g2,)*|I|, p.delta.vertex), a product outside U-Gamma or U-Delta
    failing.  Each U cone is compared as two integers, its constant value
    (-1 if its tuple is not constant) and its vertex.  The other scan is
    the linkage table of U-Gamma x U-Delta at the pairs' halves
    against g1 == g2, a half outside U-Gamma or U-Delta failing.  The halves
    are read from the U sets, not from the pair table, so that a product
    which is no listed pair still has its formula checked.
    """
    checks = []
    G = S.group
    checks.append(Check("rbg.identity_matrix", bool((S.matrix.array == G.identity).all())))

    gamma, delta = linked.gamma, linked.delta
    M, linkage = G.array, _linkage(S, linked)
    (gamma_scalar, gamma_vertex), (delta_scalar, delta_vertex) = (
        _constant_values(u.classes.members) for u in (linked.u_gamma, linked.u_delta)
    )

    def formula_row(p: int) -> np.ndarray:
        at_gamma, at_delta = linked.product_halves(p)
        g = M[gamma[0][p, 0], gamma[0][:, 0]]
        bad = (gamma_scalar[at_gamma] != g) | (gamma_vertex[at_gamma] != gamma[1])
        bad |= (delta_scalar[at_delta] != g) | (delta_vertex[at_delta] != delta[1][p])
        return bad | (at_gamma < 0) | (at_delta < 0)

    def linked_row(p: int) -> np.ndarray:
        # a half outside its U set, position -1, fails rather than wrap to the last row
        got = linkage[linked.g[p], linked.d] != (gamma[0][p, 0] == delta[0][:, 0])
        return got | (linked.g[p] < 0) | (linked.d < 0)

    bad = kernel.first_failure(len(linked.g), formula_row)
    witness = None if bad is None else f"{linked.pair(bad[0])} o {linked.pair(bad[1])}"
    checks.append(Check("rbg.product_formula", witness is None, witness))
    bad = kernel.first_failure(len(linked.g), linked_row)
    witness = None if bad is None else f"{linked.pair(bad[0]).gamma} vs {linked.pair(bad[1]).delta}"
    checks.append(Check("rbg.linked_iff_equal_scalars", witness is None, witness))

    report = connections.verify_phi(S, linked)
    checks.append(Check("rbg.phi_isomorphism", report.is_isomorphism, report.witness))
    return checks
