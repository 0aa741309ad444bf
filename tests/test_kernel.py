"""The array kernel against the scalar loops it replaced (tests/scalar_reference.py)."""

import contextlib
import random

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings, strategies as st

from crossconn import (
    FiniteGroup,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cones,
    connections,
    identity_matrix,
    kernel,
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


def _cones_of(S, side):
    return [cones.principal_pair(S, a)[side] for a in S.elements()]


def _principal_products_agree(S: ReesSemigroup) -> None:
    """Every row of the kernel's principal products equals the scalar mul_L."""
    G = S.group
    M = kernel.group_array(G)
    rho, lam = _cones_of(S, 0), _cones_of(S, 1)
    rho_arrays, lam_arrays = kernel.cone_arrays(rho), kernel.cone_arrays(lam)
    for a in range(S.size):
        got = kernel.mul_L(M, kernel.pick(rho_arrays, a), rho_arrays)
        assert got[0].tolist() == [list(cones.mul_L(G, rho[a], b).values) for b in rho]
        assert got[1].tolist() == [b.vertex for b in rho]
        got = kernel.mul_L(M.T, lam_arrays, kernel.pick(lam_arrays, a))
        assert got[0].tolist() == [list(cones.mul_L(G.opposite, b, lam[a]).values) for b in lam]
        assert got[1].tolist() == [lam[a].vertex] * S.size


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
    assert verify_phi(S) == scalar_reference.verify_phi(S)

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
    M = kernel.group_array(G)
    conn = connections.CrossConnection(S.matrix)
    image = sorted(set(_cones_of(S, 0)), key=lambda c: (c.values, c.vertex))
    subset = data.draw(st.lists(st.sampled_from(image), min_size=1, unique=True))
    for group, array, members in (
        (G, M, image),
        (G, M, subset),
        (G, M, connections.u_gamma(conn)),
        (G.opposite, M.T, connections.u_delta(conn)),
    ):
        table = kernel.cone_product_table(array, kernel.cone_arrays(members))
        assert verify._regular(table) == scalar_reference.regular_subsemigroup(group, members)


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
        linked = {c.name: c for c in crossconn_suite(S)}["crossconn.linked_criterion_agreement"]
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
        assert verify.rbg_suite(S) == scalar_reference.rbg_checks(S)


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
    table = kernel.cone_product_table(kernel.group_array(G), kernel.cone_arrays(rho))
    verdict = verify._regular(table)
    assert verdict is scalar_reference.regular_subsemigroup(G, rho) is True


def test_product_table_marks_each_absent_product():
    # a + b mod m on {0, 1, 2}: mod 4 the product 3 is outside the set and
    # reads -1, and the first -1 in row order is the closure witness.
    members = np.arange(3)
    index = kernel.KeyIndex(kernel.row_keys(members))
    table = kernel.product_table(index, 3, lambda a: kernel.row_keys((a + members) % 4))
    assert table.dtype == np.int32
    assert table.tolist() == [[0, 1, 2], [1, 2, -1], [2, -1, 0]]
    assert kernel.first_hole(table) == (1, 2)
    closed = kernel.product_table(index, 3, lambda a: kernel.row_keys((a + members) % 3))
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
