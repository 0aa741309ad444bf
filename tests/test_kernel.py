"""The array kernel against the scalar loops it replaced (tests/scalar_reference.py)."""

import contextlib
import random
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings, strategies as st

from crossconn import (
    Cone,
    FiniteGroup,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cones,
    connections,
    identity_matrix,
    kernel,
    load_cayley,
    realize_category,
    verify,
    verify_phi,
)
from crossconn.verify import cone_suite, crossconn_suite, rees_suite


def _relabelled_s3() -> FiniteGroup:
    """S3 with its elements renumbered so that the identity is at index 3."""
    s3 = builtin("symmetric", 3)
    perm = [3, 0, 5, 1, 4, 2]  # old index -> new index
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[perm[a]][perm[b]] = perm[s3.cayley[a][b]]
    return FiniteGroup(table)


GROUPS = [builtin("cyclic", 2), builtin("cyclic", 3), builtin("symmetric", 3), _relabelled_s3()]


def _relabelled_s3_fixture() -> FiniteGroup:
    """fixtures/s3_cayley.csv with its elements indexed in another order:
    the identity, first in the file, comes last."""
    path = Path(__file__).resolve().parent.parent / "fixtures" / "s3_cayley.csv"
    labels, *rows = [line.split(",") for line in path.read_text().split()]
    product_of = {(a, b): c for a, row in zip(labels, rows) for b, c in zip(labels, row)}
    order = labels[1:] + labels[:1]
    return load_cayley([[product_of[a, b] for b in order] for a in order], labels=order)


SCALED_GROUPS = [
    *(builtin("cyclic", n) for n in range(1, 5)),
    builtin("klein"),
    _relabelled_s3_fixture(),
]


def _cones_of(S, side):
    return [scalar_reference.principal_pair(S, a)[side] for a in S.elements()]


def _principal_products_agree(S: ReesSemigroup) -> None:
    """Every row of the kernel's principal products equals the scalar mul_L."""
    G = S.group
    M = G.array
    rho, lam = _cones_of(S, 0), _cones_of(S, 1)
    rho_arrays, lam_arrays = kernel.cone_arrays(rho), kernel.cone_arrays(lam)
    for a in range(S.size):
        got = kernel.mul_L(M, kernel.pick(rho_arrays, a), rho_arrays)
        assert got[0].tolist() == [list(cones.mul_L(G, rho[a], b).values) for b in rho]
        assert got[1].tolist() == [b.vertex for b in rho]
        got = kernel.mul_L(M.T, lam_arrays, kernel.pick(lam_arrays, a))
        assert got[0].tolist() == [list(cones.mul_L(G.opposite, b, lam[a]).values) for b in lam]
        assert got[1].tolist() == [lam[a].vertex] * S.size


def _cone_product_table(M, members):
    """`kernel.cone_product_table` of a list of cones, by their tuple classes."""
    return kernel.cone_product_table(M, kernel.ConeClasses(kernel.cone_arrays(members)))


def _pair_table(S: ReesSemigroup):
    """The linked-pair table that `verify_phi` reads, gathered by `connections.pair_arrays`."""
    linked = connections.pair_arrays(S)
    return linked.table.tolist(), kernel.first_hole(linked.table)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_kernel_matches_the_loops(G, n_lambda, n_i, data):
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))

    table, bad = _pair_table(S)
    assert bad is None
    assert table == scalar_reference.pair_table(S)[0]
    assert verify_phi(S, connections.pair_arrays(S)) == scalar_reference.verify_phi(S)

    _principal_products_agree(S)
    by_name = {c.name: c.witness for c in cone_suite(S, connections.pair_arrays(S))}
    assert (
        by_name["cones.principal_homomorphism"],
        by_name["cones.dual_antihomomorphism"],
    ) == scalar_reference.principal_witnesses(S)

    for side in ("left", "right"):
        assert realize_category(S, side) == scalar_reference.realize_category(S, side)

    by_name = {c.name: c.witness for c in rees_suite(S)}
    assert by_name["rees.table_matches_product"] == scalar_reference.table_matches_product_witness(S)
    assert by_name["rees.principal_left_ideal"] == scalar_reference.principal_left_ideal_witness(S)

    # Subsemigroup verdicts, on sets that are and sets that are not ones.
    M = G.array
    conn = connections.CrossConnection(S.matrix)
    image = sorted(set(_cones_of(S, 0)), key=lambda c: (c.values, c.vertex))
    subset = data.draw(st.lists(st.sampled_from(image), min_size=1, unique=True))
    for group, array, members in (
        (G, M, image),
        (G, M, subset),
        (G, M, scalar_reference.u_gamma(conn)),
        (G.opposite, M.T, scalar_reference.u_delta(conn)),
    ):
        table = _cone_product_table(array, members)
        assert verify._regular(table) == scalar_reference.regular_subsemigroup(group, members)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SCALED_GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.data(),
)
def test_scaled_array_gives_every_cone_set_of_the_loops(G, n_lambda, n_i, identity, data):
    # Every cone set the package reads off SandwichMatrix.scaled against its
    # scalar loop: U-Gamma and U-Delta in order, the linked pairs, which are
    # phi's images and so the principal cones, and the cells.  Objects made
    # from the arrays print as the loops' objects do, so no numpy integer
    # reaches a witness or a report.
    if identity:
        matrix = identity_matrix(G, n_lambda, n_i)
    else:
        entries = [
            [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
        ]
        matrix = SandwichMatrix(G, entries)
    S = ReesSemigroup(matrix)
    conn = connections.CrossConnection(matrix)
    assert matrix.scaled.shape == (n_i, G.order, n_lambda)
    linked = connections.pair_arrays(S)

    for u, expected in (
        (linked.u_gamma, scalar_reference.u_gamma(conn)),
        (linked.u_delta, scalar_reference.u_delta(conn)),
    ):
        members = u.classes.members
        assert len(u.classes) == len(expected)
        assert [repr(connections.as_cone(members, x)) for x in range(len(expected))] == [
            repr(c) for c in expected
        ]
        assert connections.as_cones(members) == expected

    pairs = scalar_reference.linked_pairs(conn)
    assert len(linked.table) == len(pairs) == S.size
    for k, a in enumerate(S.elements()):
        pair = linked.pair(k)
        assert repr(pair) == repr(pairs[k]) == repr(scalar_reference.phi(S, a))
        assert (pair.gamma, pair.delta) == scalar_reference.principal_pair(S, a)

    for lam, i in product(range(n_lambda), range(n_i)):
        for array_cell, scalar_cell in (
            (connections.gamma_cell, scalar_reference.gamma_cell),
            (connections.delta_cell, scalar_reference.delta_cell),
        ):
            cell = connections.as_cones(array_cell(conn, lam, i))
            assert [repr(c) for c in cell] == [repr(c) for c in scalar_cell(conn, lam, i)]


def _cones(G: FiniteGroup, width: int, known: list) -> st.SearchStrategy:
    """Lists of distinct cones of the given width: known ones and drawn ones."""
    drawn = st.builds(
        Cone,
        st.tuples(*[st.integers(0, G.order - 1)] * width),
        st.integers(0, width - 1),
    )
    return st.lists(st.sampled_from(known) | drawn, min_size=1, max_size=16, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_class_tables_match_the_row_tables(G, n_lambda, n_i, data):
    # The tables by tuple class against their row-by-row references: the
    # cone table of U-Gamma (U-Delta) over G (G^op), closed, and of drawn
    # sets over both, mostly not closed, whose -1 holes must match; and the
    # linkage table of drawn gamma and delta cones against the kernel's
    # row test and the scalar is_linked.  Small blocks make the
    # scalings and the gathers run in several blocks, the last one short.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    conn = connections.CrossConnection(SandwichMatrix(G, entries))
    ug, ud = scalar_reference.u_gamma(conn), scalar_reference.u_delta(conn)
    gammas = data.draw(_cones(G, n_lambda, ug))
    deltas = data.draw(_cones(G, n_i, ud))
    block = data.draw(st.sampled_from([1, 7, kernel.BLOCK]))
    M, inverse, P = G.array, np.asarray(G.inverse), conn.matrix.array
    with mock.patch.object(kernel, "BLOCK", block):
        for array, members in ((M, ug), (M.T, ud), (M, gammas), (M.T, gammas), (M.T, deltas)):
            cone_arrays = kernel.cone_arrays(members)
            table = kernel.cone_product_table(array, kernel.ConeClasses(cone_arrays))
            assert table.dtype == np.int32
            assert np.array_equal(table, scalar_reference.cone_product_table(array, cone_arrays))

        gamma_arrays, delta_arrays = kernel.cone_arrays(gammas), kernel.cone_arrays(deltas)
        linkage = kernel.linkage_table(
            M, inverse, P, kernel.ConeClasses(gamma_arrays), kernel.ConeClasses(delta_arrays)
        )
    rows = [
        scalar_reference.is_linked_row(M, inverse, P, gamma, delta_arrays)
        for gamma in zip(*gamma_arrays)
    ]
    assert np.array_equal(linkage, np.array(rows))
    assert linkage.tolist() == [
        [scalar_reference.is_linked(conn, g, d) for d in deltas] for g in gammas
    ]


IMAGE_FAULTS = [
    None,
    scalar_reference.misscaled,
    scalar_reference.collapsed,
    scalar_reference.endomorphic,
    scalar_reference.relabelled,
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["gamma_apply", "delta_apply"]),
    st.sampled_from(IMAGE_FAULTS),
    st.booleans(),
    st.data(),
)
def test_crossconnection_arrays_match_the_loops(G, n_lambda, n_i, functor, fault, unscaled, data):
    # The functor laws, fully_faithful, ideal_restriction and the linked
    # criterion report the same verdicts and first witnesses as the loops,
    # on sound functors and linkage tests and on faulty ones.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    conn = connections.CrossConnection(S.matrix)
    with scalar_reference.faulty_images(functor, fault) if fault else contextlib.nullcontext():
        got = connections.verify_crossconnection(conn)
        expected = scalar_reference.crossconnection_checks(conn)
    assert got[: len(expected)] == expected

    with scalar_reference.unscaled_linkage() if unscaled else contextlib.nullcontext():
        checks = crossconn_suite(S, connections.pair_arrays(S))
        linked = {c.name: c for c in checks}["crossconn.linked_criterion_agreement"]
        witness = scalar_reference.linked_criterion_witness(S)
    assert (linked.passed, linked.witness) == (witness is None, witness)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([None, "compose", "opposite", "stray"]),
    st.data(),
)
def test_cone_product_and_naturality_match_the_loops(G, n_lambda, n_i, fault, data):
    # The scans of category.cone_product_agreement, crossconn.naturality and
    # crossconn.duality_bijection give the same first witnesses as the
    # loops, on sound input, under a reversed composition, a rescaled row of
    # P^T and a cone off its cell.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    conn = connections.CrossConnection(SandwichMatrix(G, entries))
    h = data.draw(st.integers(0, G.order - 1))
    context = {
        None: contextlib.nullcontext,
        "compose": scalar_reference.reversed_compose,
        "opposite": lambda: scalar_reference.rescaled_opposite(
            data.draw(st.integers(0, n_i - 1)), h
        ),
        "stray": lambda: scalar_reference.stray_cone(h, data.draw(st.integers(0, 1))),
    }[fault]
    with context():
        assert verify._naturality_witness(conn) == scalar_reference.naturality_witness(conn)
        assert verify._duality_witness(conn) == scalar_reference.duality_witness(conn)
        # S3 with three rows has 648 cones: 419,904 scalar products, about 7 s
        if G.order**n_lambda * n_lambda <= 100:
            assert verify._cone_product_witness(
                G, n_lambda
            ) == scalar_reference.cone_product_witness(G, n_lambda)


RBG_FAULTS = {
    None: contextlib.nullcontext,
    "delta order": scalar_reference.reversed_delta_product,
    "unscaled": scalar_reference.unscaled_linkage,
    "swapped table": scalar_reference.swapped_pair_table,
    "missing pair": scalar_reference.missing_pair,
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.sampled_from(list(RBG_FAULTS)),
    st.data(),
)
def test_rbg_arrays_match_the_loops(G, n_lambda, n_i, identity, fault, data):
    # The rbg checks give the same names, verdicts and first witnesses as
    # their loops, on identity and random matrices, sound and with one
    # fault in the pair product, the linkage test, the pair table or the
    # pairs themselves (a table that is not closed).
    if identity:
        matrix = identity_matrix(G, n_lambda, n_i)
    else:
        entries = [
            [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
        ]
        matrix = SandwichMatrix(G, entries)
    S = ReesSemigroup(matrix)
    with RBG_FAULTS[fault]():
        checks = verify.rbg_suite(S, connections.pair_arrays(S))
        assert checks == scalar_reference.rbg_checks(S)


@pytest.mark.parametrize("G", GROUPS, ids=["Z2", "Z3", "S3", "S3-relabelled"])
@pytest.mark.parametrize("side", ["L", "R"])
def test_cone_table_matches_the_dict_lookup(G, side):
    # T_L up to about 100 cones, on both sides (the right side is the left
    # side over the opposite group): one kernel row per cone against one
    # scalar mul_L and one dict lookup per entry.
    group = G if side == "L" else G.opposite
    for n_lambda in (1, 2, 3):
        tl = cones.enumerate_TL(group, n_lambda)
        if len(tl) > 100:
            break
        table = cones.cone_table(group, tl)
        assert table.dtype == np.int32
        assert table.tolist() == scalar_reference.cone_table(group, tl)


def test_wide_cones_z2_lambda_64():
    # Cones of width 64 over Z2: a mixed-radix int64 code |G|^|Lambda| * |Lambda|
    # would not fit, the row keys compare every coordinate.
    assert 2**64 * 64 > np.iinfo(np.int64).max
    G = builtin("cyclic", 2)
    rng = random.Random(64)
    S = ReesSemigroup(SandwichMatrix(G, [[rng.randrange(2)] for _ in range(64)]))
    assert S.n_lambda == 64 and S.n_i == 1

    table, bad = _pair_table(S)
    assert bad is None
    assert table == scalar_reference.pair_table(S)[0]
    _principal_products_agree(S)
    rho = sorted(set(_cones_of(S, 0)), key=lambda c: (c.values, c.vertex))
    table = _cone_product_table(G.array, rho)
    verdict = verify._regular(table)
    assert verdict is scalar_reference.regular_subsemigroup(G, rho) is True


def test_cone_product_table_marks_each_absent_product():
    # The one-object cones (a,) for a in {0, 1, 2}, whose product under
    # mul_L is (a + b mod m,): over Z4 the product (3,) is outside the set
    # and reads -1, and the first -1 in row order is the closure witness.
    classes = kernel.ConeClasses((np.arange(3).reshape(3, 1), np.zeros(3, dtype=np.intp)))
    table = kernel.cone_product_table(builtin("cyclic", 4).array, classes)
    assert table.dtype == np.int32
    assert table.tolist() == [[0, 1, 2], [1, 2, -1], [2, -1, 0]]
    assert kernel.first_hole(table) == (1, 2)
    closed = kernel.cone_product_table(builtin("cyclic", 3).array, classes)
    assert closed.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert kernel.first_hole(closed) is None


def test_key_index_is_exact():
    values = np.zeros((4, 64), dtype=np.intp)
    values[1, 63] = 1  # differs from row 0 in the last coordinate only
    values[3, 63] = 1  # a repeat of row 1
    vertices = np.array([5, 5, 7, 5])
    index = kernel.KeyIndex(kernel.row_keys(values, vertices))
    queries = np.zeros((3, 64), dtype=np.intp)
    queries[1, 63] = 1
    queries[2, 0] = 1
    found = index.find(kernel.row_keys(queries, np.array([5, 5, 5])))
    assert found.tolist() == [0, 3, -1]  # among equal keys the last position wins


@pytest.mark.parametrize("n_lambda, n_i", [(1, 1), (3, 1), (1, 3)])
def test_principal_cones_degenerate_shapes(n_lambda, n_i):
    G = builtin("cyclic", 3)
    S = ReesSemigroup(SandwichMatrix(G, [[1] * n_i for _ in range(n_lambda)]))
    _principal_products_agree(S)
    assert S.table().shape == (S.size, S.size)
    assert S.element(int(S.table()[0, -1])) == S.mul(ReesElement(0, 0, 0), S.element(S.size - 1))
