"""Exhaustive property suites over one fixture, reported as named checks.

These back the CLI's verify / crossconn / rbg commands.  A check that can
name a witness passes exactly when its scan finds none (`checks.verdict`);
the few with no witness to name pass on a boolean.  Each scan whose cost
grows with the cone semigroup (the six T_L checks, naturality and the
linked criterion) goes through `_guarded`, which skips its checks
(passed=None) once its cost passes `BUDGET`, with the cost against the
budget as the witness, never silently truncated, and builds nothing of a
skipped scan.  A cost is counted in entries from sizes alone: those its
masks cover, `n_rows * row_size` of its `kernel.first_block_failure`
calls, plus T_L's batch or table where it builds one.  So each T_L check
is charged its own cost, even the two product checks that one pass
decides, but `cones.tl_associative` and `cones.tl_green_agreement`, which
share T_L's table, are one scan.

`rees_suite` checks the closed forms of S on plain integers, with no
`ReesSemigroup.mul` call and no `ReesElement` per pair:
`rees.table_matches_product` evaluates `rees.product` on the coordinate
arrays of a block of rows against every element per step, encodes it in
S's index layout and compares it once with the block of `S.table()`.
Light's test reads the table alone.  The left and right
`oracle.ideal_rows` of S's table are built once and serve
`oracle.green_via_ideals` and `rees.principal_left_ideal`, which compares
the left rows with `ReesSemigroup.left_ideal_rows` in one step.  Once
Light's test has passed, `rees.regular` reads the oracle's R-classes and
the diagonal (`oracle.regular_via_r_classes`); a table that fails it goes
to `oracle.is_regular`.
The other O(|S|^2) scans run a block of rows at a time on the arrays of
`kernel` (`kernel.first_block_failure`), reading products of S from
`S.table()` and of G and P from `G.array` and `P.array`, which G and P
build once; right-hand products run as `kernel.mul_L` over the opposite
group, whose array is the view `G.array.T`, so one kernel serves both
sides.
`category_suite` realizes both ideal categories
(`categories.realize_category`) and `crossconn_suite` checks the
connection functors (`connections.verify_crossconnection`) as one array
pass over all hom-sets, in blocks where the arrays grow.  The groupoid
checks run `ArrowCategory`'s own methods once on all the morphisms of
each category, a `Morphism` of arrays.
The cone scans run the same way, over T_L as one batch
(`cones.enumerate_TL`), which `cone_suite` checks in one place
(`tl_suite`): `category.cone_product_agreement` and
`cones.semidirect_law` share one pass of a block of cones of T_L against
all of T_L per step, one `kernel.mul_L` per block held against both
`ArrowCategory.compose` on arrays and the action `cones.act`;
`cones.action_law` a block of object pairs (k, l) against every tuple;
`cones.idempotent_closed_form` a block of cones, each squared; and
`cones.tl_green_agreement` keys the cosets by `kernel.canonical`.
`crossconn.naturality` takes a block of triples of objects (l1, l2, i1)
per step, all (i2, g1, g2) and
all cones of each cell at once, through `kernel.bifunctor` and
`kernel.chi`, and `crossconn.duality_bijection` a block of cells per
step, all their cones through one broadcasting `kernel.chi` and back,
with the first failing cell and condition as the witness.  `crossconn.matrix_roundtrip`
factors every column of P through its extracted column, the canonical
tuple of its object's coset (`connections.gamma_images`), in one
`kernel.right_factor`.  Each cell is one slice of `SandwichMatrix.scaled`
(`connections.gamma_cells`), and the dual side of every connection check
reads `SandwichMatrix.transpose`: the connection is its matrix, which
each of those functions takes.  `cones.injectivity_criterion` is one
array pass too, so no suite makes a scalar group product.
`connections.pair_arrays(S)` is built once per command: the linked
pairs, U-Gamma, U-Delta, their tables (U-Delta's transposed) and the
positions of the pairs' halves in U-Gamma and U-Delta, all read off
`SandwichMatrix.scaled`.  It holds no table of the pairs: the product
of two pairs is the pair of positions that the U tables give, read
there by phi's pass alone.  `cone_suite`,
`crossconn_suite`, `rbg_suite` and `connections.verify_phi` take it as a
required argument and never build it: `full_suite` builds it after
`rees_suite` and `category_suite`, and the CLI's `crossconn` and `rbg`
build it for their suite.
The linked pair k is phi of element k: the principal cones
rho(a) = (col_i g, lam) and lam(a) = (g row_lam, i) of a = (g, i, lam),
cones of U-Gamma and U-Delta at `linked.g` and `linked.d`: phi's two
components, judged once, one oracle pass per U table, for the principal
checks and phi alike (`PairArrays.witnesses`) in whichever suite asks
first; `crossconn.u_subsemigroups`, the linked criterion and the `rbg`
scans read the rest:
the criterion and `rbg.linked_iff_equal_scalars` read one linkage table
of U-Gamma x U-Delta (`_linkage`, `kernel.linkage_table`), gathered
from the factors of each tuple class through the columns and rows of P,
and the `rbg` scans judge each claim on bool tables of the U cones
(`_formula_failures`), gathered at the pairs' positions.

Every set of cones a suite checks becomes its table once, through
`kernel.cone_product_table` on the tuple classes of the set (T_L,
U-Gamma and U-Delta), whose one `ConeClasses` holds the set's distinct
tuples: scalings of the tuples, each read by its coset and first entry
and confirmed (a key search only for a product the read misses), and
two flat takes, with -1 for each product outside the set; the set is
closed when no entry is -1, and `kernel.first_hole` names the first in
row order.  The linked pairs are
the exception: their table is never built, and they are closed when
every pair's halves lie in U-Gamma and U-Delta and the key of every
product of two pairs, read off the U tables a block of rows at a time,
is a pair's key; `verify_map` runs that scan only when phi is no homomorphism.
Every check on a set reads its table.  With r[a] and l[a] the positions
of rho(a) and lam(a) in U-Gamma and U-Delta, `cones.principal_homomorphism`
compares GT[r[a], r] with r[ab] and `cones.dual_antihomomorphism`
compares DT[l[a], l] with l[ab], DT held transposed, so that
lam(b) lam(a) over the opposite group is at [l[a], l[b]], in blocks of
rows a (`oracle.homomorphism_witness`), a cone of a, b or ab outside its
U set failing, and phi fails first at the earlier of the two witnesses;
`cones.principal_image_subsemigroup`
reads GT restricted to the positions r hits.
Closed tables reach the oracle as `GenericSemigroup`s, the U tables as
`oracle.ProductTables` too, and the oracle judges the rest:
`oracle.is_regular` decides the principal image and U-Gamma/U-Delta, one
verdict per U table (`connections.UCones.regular`), which the principal
image shares when it is all of U-Gamma, as it is unless phi is at fault;
`oracle.verify_map` the isomorphism and the pairs' closure, and
`oracle.green_via_ideals` gives all four Green partitions of S and of
T_L at once, keyed by the bytes of the ideal rows.  Each table is scanned for
associativity once, by the check that reports it (`rees.associative`,
`cones.tl_associative`), so a
non-associative table is a failed check; the linked-pair table needs
none, since a passing `crossconn.phi_isomorphism` carries S's
associativity onto it.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

from . import connections, cones, kernel, oracle, rees
from .categories import Morphism, left_category, realize_category, right_category
from .checks import Check, verdict
from .rees import ReesSemigroup, SandwichMatrix

# Entries one guarded scan may read and hold: its masks (`n_rows * row_size`
# of its `kernel.first_block_failure` calls) plus T_L's batch or table where
# it builds one.  The row-block cone scans read 3.6-5.4e7 entries/s on a
# 2-core host, so a scan at the budget takes about 0.1 s.
BUDGET = 5 * 10**6


def _guarded(cost: int, names: tuple[str, ...], run: Callable[[], Iterable]) -> list[Check]:
    """The checks of one scan, each skipped, with its cost against `BUDGET`
    as the witness, when the scan's cost is past the budget.  Only otherwise
    is `run` called, and it gives one outcome per name in order: a bool for
    a check with no witness, else the witness."""
    if cost > BUDGET:
        reason = f"cost {_figure(cost)} > budget {_figure(BUDGET)}"
        return [Check(name, None, reason) for name in names]
    return [
        Check(name, out) if isinstance(out, bool) else verdict(name, out)
        for name, out in zip(names, run(), strict=True)
    ]


def _figure(x: int) -> str:
    """x to two significant figures, as 1.7e9."""
    mantissa, _, exponent = f"{x:.2g}".partition("e")
    return f"{mantissa}e{int(exponent)}" if exponent else mantissa


def rees_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    T = S.to_generic()
    table = T.table
    triple = oracle.associativity_witness(table)
    checks.append(verdict("rees.associative", triple))
    checks.append(verdict("rees.table_matches_product", _product_witness(S, table)))

    ideals = oracle.ideal_rows(table)
    green = oracle.green_via_ideals(T, ideals)
    if triple is None:
        regular = oracle.regular_via_r_classes(T, green["R"])
    else:
        regular = oracle.is_regular(T)
    checks.append(Check("rees.regular", regular))

    formula = set(S.idempotents())
    brute = set(map(S.element, oracle.idempotents(T)))
    witness = None
    if formula != brute or len(formula) != S.n_i * S.n_lambda:
        witness = f"formula gives {len(formula)}, scan gives {len(brute)}"
    checks.append(verdict("rees.idempotent_formula", witness))

    formula = S.green()
    for kind in ("L", "R", "H", "D"):
        checks.append(Check(f"rees.green_{kind}_oracle_agreement", formula[kind] == green[kind]))

    # row k against the closed form of k's L-class, k mod |Lambda|
    lefts = ideals[0].reshape(-1, S.n_lambda, ideals[0].shape[1])
    bad = (lefts != S.left_ideal_rows()).any(axis=2).ravel()
    witness = S.element(int(bad.argmax())) if bad.any() else None
    checks.append(verdict("rees.principal_left_ideal", witness))
    return checks


def _product_witness(S: ReesSemigroup, table: np.ndarray) -> tuple | None:
    """The first (x, y) in row order whose entry in the table is not the index
    of x*y by `rees.product`, as `ReesElement`s.  Each step evaluates the
    product of a block of rows x against every y on the coordinates of
    `kernel.element_arrays`, encodes it in S's index layout,
    (g*|I| + i)*|Lambda| + lam, and compares that with the block's entries
    once: the layout is a bijection, so an entry differs exactly when its
    coordinates do.  `index_table` builds its entries by its own gathers,
    so the two routes stay independent."""
    n_i, n_l = S.n_i, S.n_lambda
    g, i, lam = kernel.element_arrays(S.group.order, n_i, n_l)
    M, P = S.group.array, S.matrix.array

    def bad_rows(rows: slice) -> np.ndarray:
        want_g, want_i, want_lam = rees.product(
            M, P, g[rows, None], i[rows, None], lam[rows, None], g, i, lam
        )
        return table[rows] != (want_g * n_i + want_i) * n_l + want_lam

    bad = kernel.first_block_failure(S.size, S.size, bad_rows)
    return None if bad is None else (S.element(bad[0]), S.element(bad[1]))


def category_suite(S: ReesSemigroup) -> list[Check]:
    checks = []
    G = S.group
    for side in ("left", "right"):
        witness = "; ".join(realize_category(S, side)) or None
        checks.append(verdict(f"category.{side}_realization", witness))

    for name, cat in (("left", left_category(G, S.n_lambda)), ("right", right_category(G, S.n_i))):
        # every morphism at once, through the category's own methods
        m = cat.morphisms()
        inv = cat.invert(m)
        no_inverse = ~(cat.is_identity(cat.compose(m, inv)) & cat.is_identity(cat.compose(inv, m)))
        e, u, j = cat.normal_factorization(m)
        f = cat.compose(cat.compose(e, u), j)
        bad = np.flatnonzero(no_inverse | (f.dom != m.dom) | (f.cod != m.cod) | (f.g != m.g))
        witness = None
        if len(bad):
            first = Morphism(*(int(x[bad[0]]) for x in (m.dom, m.cod, m.g)))
            witness = (
                f"{first} has no two-sided inverse"
                if no_inverse[bad[0]]
                else f"normal factorization of {first} does not recompose"
            )
        checks.append(verdict(f"category.{name}_groupoid", witness))

    return checks


def cone_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """`linked` is `connections.pair_arrays(S)`: pair a is phi(a), so the
    principal cones of a are the cones of U-Gamma and U-Delta at `linked.g[a]`
    and `linked.d[a]`, and every principal check reads their tables."""
    checks = tl_suite(S.group, S.n_lambda)

    # rho(a) rho(b) against rho(ab), lam(b) lam(a) against lam(ab): phi's components
    for name, bad in zip(
        ("cones.principal_homomorphism", "cones.dual_antihomomorphism"), linked.witnesses[:2]
    ):
        witness = None if bad is None else ", ".join(str(S.element(k)) for k in bad)
        checks.append(verdict(name, witness))

    # the image's positions in U-Gamma, -1 first where a cone is outside it;
    # its table is GT restricted to them and renumbered, -1 off the image.
    # An image that is all of U-Gamma has GT itself as its table, whose
    # verdict `crossconn.u_subsemigroups` reads too.
    GT = linked.u_gamma.table
    hit = sorted(set(linked.g.tolist()))
    if hit[0] < 0:
        image_ok = False
    elif len(hit) == len(GT):
        image_ok = linked.u_gamma.regular
    else:
        renumber = np.full(len(GT), -1, dtype=kernel.index_dtype(len(hit)))
        renumber[hit] = np.arange(len(hit))
        image_ok = connections.is_regular_set(renumber[GT[np.ix_(hit, hit)]])
    checks.append(Check("cones.principal_image_subsemigroup", image_ok))

    # distinct principal cones, in or out of U-Gamma (return_index keeps numpy.ma out)
    holds = cones.injectivity_criterion(S.matrix) is None
    _, first = np.unique(kernel.row_keys(*linked.gamma), return_index=True)
    injective = len(first) == S.size
    witness = None if holds == injective else f"criterion {holds}, map injective {injective}"
    checks.append(verdict("cones.injectivity_equivalence", witness))
    return checks


def tl_suite(G, n_l: int) -> list[Check]:
    """The six checks of T_L over G with n_l objects, `cone_suite`'s first,
    which depend on G and n_l alone: T_R(S), the right cone semigroup, is
    tl_suite(G.opposite, |I|).  Each runs under `_guarded` on its
    own cost, read off T_L as one batch (`cones.enumerate_TL`) of
    n_c = |G|^|Lambda| |Lambda| cones and n_c |Lambda| entries.  Each scan
    is charged its mask and the batch.  One pass decides
    `category.cone_product_agreement` and `cones.semidirect_law`, each
    charged all of it, so both run or both skip; `cones.tl_associative` and
    `cones.tl_green_agreement` share T_L's table, so they are one scan,
    charged the n_c^2 table and its scan for holes.  The batch is built
    once, by the first check that runs, and nothing at all when every
    check is skipped."""
    n_c = G.order**n_l * n_l
    batch = n_c * n_l
    M = G.array
    built = functools.cache(lambda: cones.enumerate_TL(G, n_l))

    def action_law():
        # k*(l*v) must equal (kl)*v = l*v, the object set being right zero;
        # one row per (k, l), all tuples at once
        tuples = built()[0][::n_l]  # each tuple once, in lexicographic order

        def unlawful_actions(rows: slice) -> np.ndarray:
            k, l = (x[:, None] for x in np.divmod(np.arange(rows.start, rows.stop), n_l))
            once = cones.act(l, tuples)
            return (cones.act(k, once) != once).any(axis=-1)

        bad = kernel.first_block_failure(n_l * n_l, tuples.size, unlawful_actions)
        if bad is None:
            return [None]
        k, l = divmod(bad[0], n_l)
        return [f"k={k}, l={l}, tuple={tuple(tuples[bad[1]].tolist())}"]

    @functools.cache
    def products():
        # c1 * c2 by mul_L against the category's composite and the action
        # formula, a block of c1 against every c2 per step: one pass over the
        # OR of the two masks decides both checks, and only a failing pass
        # rescans each mask for its own first witness
        tl = values, vertices = built()
        compose, objects = left_category(G, n_l).compose, np.arange(n_l)

        def masks(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            # axes [c1, c2, object]
            c1 = values[rows, None], vertices[rows, None]
            product = kernel.mul_L(M, c1, tl)
            # c1's component at each object, then c2's at c1's vertex, by
            # `ArrowCategory.compose` on arrays, so a fault in it reaches every pair
            component = Morphism(objects, c1[1][..., None], c1[0])
            link = Morphism(c1[1][..., None], vertices[:, None], values.T[vertices[rows], :, None])
            composite = compose(component, link).g, vertices
            acted = M[c1[0], cones.act(c1[1], values)], vertices
            return kernel.differ(composite, product), kernel.differ(acted, product)

        def witness(pick: Callable[..., np.ndarray]) -> str | None:
            bad = kernel.first_block_failure(n_c, batch, lambda rows: pick(*masks(rows)))
            return None if bad is None else " * ".join(str(connections.as_cone(tl, k)) for k in bad)

        if witness(np.logical_or) is None:
            return [None, None]
        return [witness(lambda composed, _: composed), witness(lambda _, acted: acted)]

    def table_checks():
        tl = values, vertices = built()
        table = cones.cone_table(G, tl)
        yield oracle.associativity_witness(table)

        T = oracle.GenericSemigroup(table)
        by_vertex = oracle.partition_by_key(vertices.tolist())
        coset = kernel.row_keys(kernel.canonical(M, G.inverse, values))
        by_coset = oracle.partition_by_key(np.unique(coset, return_inverse=True)[1].tolist())
        green = oracle.green_via_ideals(T)
        yield by_vertex == green["L"] and by_coset == green["R"]

    def idempotent_closed_form():
        # the closed form against c*c == c, a block of cones at a time
        tl = built()

        def wrong(rows: slice) -> np.ndarray:
            c = kernel.pick(tl, rows)
            squares = ~kernel.differ(kernel.mul_L(M, c, c), c)
            return (cones.is_idempotent_cone(G, c) != squares)[:, None]

        bad = kernel.first_block_failure(n_c, n_l, wrong)
        return [None if bad is None else connections.as_cone(tl, bad[0])]

    # every cone of T_L against the batch's n_c |Lambda| entries, and the batch
    product_cost = n_c * batch + batch
    return (
        _guarded(product_cost, ("category.cone_product_agreement",), lambda: products()[:1])
        + _guarded(n_l * n_l * n_c + batch, ("cones.action_law",), action_law)
        + _guarded(product_cost, ("cones.semidirect_law",), lambda: products()[1:])
        + _guarded(2 * n_c * n_c, ("cones.tl_associative", "cones.tl_green_agreement"), table_checks)
        + _guarded(2 * batch, ("cones.idempotent_closed_form",), idempotent_closed_form)
    )


def crossconn_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """`linked` is `connections.pair_arrays(S)`."""
    G, P = S.group, S.matrix
    n_i, n_l = S.n_i, S.n_lambda
    checks = connections.verify_crossconnection(P)
    checks.append(verdict("crossconn.duality_bijection", _duality_witness(P)))
    # its rows, one per (l1, l2, i1), hold n_i |G|^3 max(n_l, n_i) entries
    checks += _guarded(
        n_l * n_l * n_i * n_i * G.order**3 * max(n_l, n_i),
        ("crossconn.naturality",),
        lambda: [_naturality_witness(P)],
    )

    ug, ud = linked.u_gamma, linked.u_delta
    checks.append(Check("crossconn.u_subsemigroups", ug.regular and ud.regular))
    checks += _guarded(
        len(ug.classes) * len(ud.classes),
        ("crossconn.linked_criterion_agreement",),
        lambda: [_linked_criterion_witness(S, linked)],
    )

    closure, phi = connections.verify_phi(linked)
    checks.append(verdict("crossconn.s_tilde_closed", closure))
    checks.append(verdict("crossconn.phi_isomorphism", phi))

    # every column of P against its extracted column, its object's coset tuple, at once
    objects = connections.gamma_images(P).objects
    _, scaled = kernel.right_factor(G.array, G.inverse, P.array.T, objects)
    bad = np.flatnonzero(~scaled)
    witness = None
    if len(bad):
        witness = f"extracted column {bad[0]} is not a right scaling of the original"
    checks.append(verdict("crossconn.matrix_roundtrip", witness))

    return checks


def _linked_criterion_witness(S: ReesSemigroup, linked: connections.PairArrays) -> str | None:
    """The first cones of U-Gamma x U-Delta, in row order, that the linkage
    table calls linked exactly when they are not a linked pair: the table
    negated at the pairs' positions (g, d) in the U sets, each once; a pair
    with a half outside its set, position -1, has no cell."""
    mismatch, g, d = _linkage(S, linked), linked.g, linked.d
    if not linked.complete:
        inside = (g >= 0) & (d >= 0)
        g, d = g[inside], d[inside]
    mismatch[g, d] ^= True
    bad = kernel.first_block_failure(*mismatch.shape, lambda rows: mismatch[rows])
    if bad is None:
        return None
    gamma, delta = linked.u_gamma.classes.members, linked.u_delta.classes.members
    return f"{connections.as_cone(gamma, bad[0])}, {connections.as_cone(delta, bad[1])}"


def _duality_witness(matrix: SandwichMatrix) -> str | None:
    """The first cell (lam, i) on which chi is not a bijection onto the dual
    cell inverted by chi over `matrix.transpose`, with the first of the three
    conditions it fails: |G| members in the cell and in its dual, chi onto
    the dual, chi over `matrix.transpose` back.  Cells run in blocks, all the
    cones of a block through one broadcasting `kernel.chi` and one back.  A
    cone that does not factor through its cell has no image, and the
    duality fails there.  chi's images and the dual cell are equal sets
    when their union has no more members than either."""
    G, n_l, n_i = matrix.group, matrix.rows, matrix.cols
    M, inverse, order = G.array, G.inverse, G.order
    P, P_op = matrix.array, matrix.transpose.array
    n_cells = n_l * n_i
    cells, duals = (
        (values.reshape(n_cells, order, -1), vertices.reshape(n_cells, order))
        for values, vertices in (connections.gamma_cells(matrix), connections.delta_cells(matrix))
    )

    def bad_rows(rows: slice) -> np.ndarray:
        # axes [cell, cone, coordinate]
        lam, i = (x[:, None] for x in np.divmod(np.arange(rows.start, rows.stop), n_i))
        cell, dual = kernel.pick(cells, rows), kernel.pick(duals, rows)
        images, ok = kernel.chi(M, inverse, P.T[i], P[cell[1]], cell[0])
        image = images, np.broadcast_to(i, ok.shape)
        # an image that is in the dual cell, made over matrix.transpose, factors back
        back, _ = kernel.chi(M.T, inverse, P_op.T[lam], P_op[i], images)
        union = _members(*(np.concatenate(x, axis=1) for x in zip(image, dual)))
        in_dual = _members(*dual)
        return np.stack(
            [
                (_members(*cell) != order) | (in_dual != order),
                ~ok.all(axis=1) | (union != _members(*image)) | (union != in_dual),
                kernel.differ((back, lam), cell).any(axis=1),
            ],
            axis=1,
        )

    bad = kernel.first_block_failure(n_cells, order * (n_l + n_i), bad_rows)
    if bad is None:
        return None
    lam, i = divmod(bad[0], n_i)
    return (
        f"cell ({lam},{i}) does not have {order} members",
        f"duality is not a bijection on cell ({lam},{i})",
        f"duality does not invert on cell ({lam},{i})",
    )[bad[1]]


def _members(values: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The number of distinct cones in each row of a batch of cells, values
    (cells, cones, k) and vertices (cells, cones)."""
    m, size = vertices.shape
    labels = np.repeat(np.arange(m), size)
    return kernel.distinct_counts(labels, m, values.reshape(m * size, -1), vertices.ravel())


def _naturality_witness(matrix: SandwichMatrix) -> str | None:
    """The first square of the duality chi between the cell maps of the two
    bifunctors that does not commute, in (l1, l2, i1, i2, g1, g2) order.

    For rho = g2 : l1 -> l2 and kappa = g1 : i1 -> i2, each cone of the cell
    (l1, i1) goes through Gamma's cell map and then chi, and through chi and
    then Delta's cell map, which is Gamma's over `matrix.transpose` with rho and
    kappa swapped.  One triple (l1, l2, i1) is one row: all (i2, g1, g2) and
    all |G| cones of the cell at once, in blocks of rows.  A cone that is
    not on its cell fails its squares.
    """
    G, op = matrix.group, matrix.transpose
    M, P, M_op, P_op = G.array, matrix.array, op.group.array, op.array
    inverse, order = G.inverse, G.order
    n_l, n_i = matrix.rows, matrix.cols
    # axes [triple, i2, g1, g2, cone]; columns and rows gain a coordinate axis
    targets = P.T[None, :, None, None, None, :]  # column i2 of P
    g1 = np.arange(order).reshape(-1, 1, 1)
    g2 = np.arange(order).reshape(1, -1, 1)
    triples = np.indices((n_l, n_l, n_i)).reshape(3, -1)
    cells = connections.gamma_cells(matrix)

    def bad_rows(rows: slice) -> np.ndarray:
        l1, l2, i1 = (x[rows].reshape(-1, 1, 1, 1) for x in triples)
        values, vertices = (x[l1, i1] for x in cells)
        column, row1, row2 = P.T[i1][..., None, :], P[l1][..., None, :], P[l2][..., None, :]
        # Gamma's cell map, then chi on the cell (l2, i2)
        image, ok1 = kernel.bifunctor(M, inverse, column, targets, g1, g2, values)
        left, ok2 = kernel.chi(M, inverse, targets, row2, image)
        # chi on the cell (l1, i1), then Delta's cell map
        dual, ok3 = kernel.chi(M, inverse, column, row1, values)
        dom, cod = P_op.T[l1][..., None, :], P_op.T[l2][..., None, :]
        right, ok4 = kernel.bifunctor(M_op, inverse, dom, cod, g2, g1, dual)
        on_cell = ok1 & ok2 & ok3 & ok4 & (vertices == l1[..., None])
        bad = (left != right).any(axis=-1) | ~on_cell
        return bad.any(axis=-1).reshape(len(l1), -1)

    bad = kernel.first_block_failure(triples.shape[1], n_i * order**3 * max(n_l, n_i), bad_rows)
    if bad is None:
        return None
    (l1, l2, i1), (i2, rest) = triples[:, bad[0]].tolist(), divmod(bad[1], order * order)
    return f"square at ({l1},{l2},{i1},{i2}) with g1={rest // order}, g2={rest % order}"


def _linkage(S: ReesSemigroup, linked: connections.PairArrays) -> np.ndarray:
    """Whether each cone of U-Gamma is linked with each cone of U-Delta, as a
    (|U-Gamma|, |U-Delta|) table by tuple class (`kernel.linkage_table`)."""
    G = S.group
    return kernel.linkage_table(
        G.array, G.inverse, S.matrix.array, linked.u_gamma.classes, linked.u_delta.classes
    )


def full_suite(S: ReesSemigroup) -> list[Check]:
    checks = rees_suite(S) + category_suite(S)
    # built after the two suites above, so that their peak memory and its own do not add up
    linked = connections.pair_arrays(S)
    return checks + cone_suite(S, linked) + crossconn_suite(S, linked)


def _formula_failures(M: np.ndarray, u: connections.UCones, row_vertex: bool) -> np.ndarray:
    """Where U's table sends members x and y to no constant cone of the scalar
    M[first[x], first[y]], first being each member's first value, at y's
    vertex (x's with row_vertex): a product outside U, or one whose tuple is
    not that constant or whose vertex is another.  An (|U|, |U|) bool table,
    built in blocks of rows with no |U|^2 integer array beside it."""
    values, vertices = u.classes.members
    first = values[:, 0]
    scalar = np.where((values == values[:, :1]).all(axis=1), first, -1)
    bad = np.empty(u.table.shape, dtype=bool)
    for rows in kernel.blocks(*u.table.shape):
        at = u.table[rows]
        vertex = vertices[rows, None] if row_vertex else vertices
        bad[rows] = (at < 0) | (vertices[at] != vertex)
        bad[rows] |= scalar[at] != M[first[rows, None], first]
    return bad


def rbg_suite(S: ReesSemigroup, linked: connections.PairArrays) -> list[Check]:
    """The constant-identity connection of S: product formula and isomorphism checks.
    `linked` is `connections.pair_arrays(S)`.

    Each claim is judged once per pair of U cones, on bool tables of U-Gamma
    and U-Delta alone, which one `kernel.gather` maps to each pair p against
    all pairs q at the positions `g` and `d`, in blocks of rows: the member
    at g[p] is p's own gamma half, as `kernel.ConeClasses.find` confirms
    each match.  The halves of p q are held against constant cones of the
    products of p's and q's first values (`_formula_failures`), the linkage
    table against equal first values.  A half outside its U set, position
    -1, reads True in the gather and fails.
    """
    G = S.group
    checks = [Check("rbg.identity_matrix", bool((S.matrix.array == G.identity).all()))]

    ug, ud = linked.u_gamma, linked.u_delta
    fg = _formula_failures(G.array, ug, row_vertex=False)
    fd = _formula_failures(G.array, ud, row_vertex=True)  # DT is held transposed
    first_gamma, first_delta = (u.classes.members[0][:, 0] for u in (ug, ud))
    unlinked = _linkage(S, linked) != (first_gamma[:, None] == first_delta)
    g, d, holes, n = linked.g, linked.d, not linked.complete, len(linked.g)

    def formula_rows(rows: slice) -> np.ndarray:
        return kernel.gather(fg, g[rows], g, holes) | kernel.gather(fd, d[rows], d, holes)

    bad = kernel.first_block_failure(n, n, formula_rows)
    witness = None if bad is None else f"{linked.pair(bad[0])} o {linked.pair(bad[1])}"
    checks.append(verdict("rbg.product_formula", witness))
    bad = kernel.first_block_failure(n, n, lambda rows: kernel.gather(unlinked, g[rows], d, holes))
    witness = None if bad is None else f"{linked.pair(bad[0]).gamma} vs {linked.pair(bad[1]).delta}"
    checks.append(verdict("rbg.linked_iff_equal_scalars", witness))

    _, phi = connections.verify_phi(linked)
    checks.append(verdict("rbg.phi_isomorphism", phi))
    return checks
