"""The array kernel against the scalar loops it replaced (tests/scalar_reference.py)."""

import contextlib
import random
import re
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
    left_category,
    load_cayley,
    realize_category,
    right_category,
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
            table[perm[a]][perm[b]] = perm[s3.mul(a, b)]
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
    rho_arrays, lam_arrays = scalar_reference.cone_arrays(rho), scalar_reference.cone_arrays(lam)
    for a in range(S.size):
        got = kernel.mul_L(M, kernel.pick(rho_arrays, a), rho_arrays)
        assert got[0].tolist() == [list(scalar_reference.mul_L(G, rho[a], b).values) for b in rho]
        assert got[1].tolist() == [b.vertex for b in rho]
        got = kernel.mul_L(M.T, lam_arrays, kernel.pick(lam_arrays, a))
        assert got[0].tolist() == [list(scalar_reference.mul_L(G.opposite, b, lam[a]).values) for b in lam]
        assert got[1].tolist() == [lam[a].vertex] * S.size


def _cone_product_table(group, members):
    """`kernel.cone_product_table` of a list of cones over the group, by their
    tuple classes."""
    classes = kernel.ConeClasses(scalar_reference.cone_arrays(members))
    return kernel.cone_product_table(group.array, group.inverse, classes)


def _pair_table(S: ReesSemigroup):
    """The linked pairs' product table, built test-side from the U tables
    (`scalar_reference.pair_table_from_halves`), and its first hole."""
    table = scalar_reference.pair_table_from_halves(connections.pair_arrays(S))
    return table.tolist(), kernel.first_hole(table)


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
    assert verify_phi(connections.pair_arrays(S)) == scalar_reference.verify_phi(S)

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
    matrix = S.matrix
    image = sorted(set(_cones_of(S, 0)), key=lambda c: (c.values, c.vertex))
    subset = data.draw(st.lists(st.sampled_from(image), min_size=1, unique=True))
    for group, members in (
        (G, image),
        (G, subset),
        (G, scalar_reference.u_gamma(matrix)),
        (G.opposite, scalar_reference.u_delta(matrix)),
    ):
        table = _cone_product_table(group, members)
        verdict = connections.is_regular_set(table)
        assert verdict == scalar_reference.regular_subsemigroup(group, members)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_table_matches_product_finds_one_corrupt_entry(G, n_lambda, n_i, block, data):
    # One entry of the index table changed to any other element: whatever
    # the blocks of rows, the block pass names that pair, as the loop does.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = scalar_reference.CorruptedTable(SandwichMatrix(G, entries))
    a, b = (data.draw(st.integers(0, S.size - 1)) for _ in range(2))
    value = (int(S.index_table()[a, b]) + data.draw(st.integers(1, S.size - 1))) % S.size
    S.ENTRIES = {(a, b): value}
    with mock.patch.object(kernel, "BLOCK", block):
        witness = {c.name: c.witness for c in rees_suite(S)}["rees.table_matches_product"]
    assert witness == scalar_reference.table_matches_product_witness(S)
    assert witness == str((S.element(a), S.element(b)))


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
    assert matrix.scaled.shape == (n_i, G.order, n_lambda)
    linked = connections.pair_arrays(S)

    for u, expected in (
        (linked.u_gamma, scalar_reference.u_gamma(matrix)),
        (linked.u_delta, scalar_reference.u_delta(matrix)),
    ):
        members = u.classes.members
        assert len(u.classes) == len(expected)
        assert [repr(connections.as_cone(members, x)) for x in range(len(expected))] == [
            repr(c) for c in expected
        ]
        assert connections.as_cones(members) == expected

    pairs = scalar_reference.linked_pairs(matrix)
    assert len(linked.g) == len(pairs) == S.size
    for k, a in enumerate(S.elements()):
        pair = linked.pair(k)
        assert repr(pair) == repr(pairs[k]) == repr(scalar_reference.phi(S, a))
        assert (pair.gamma, pair.delta) == scalar_reference.principal_pair(S, a)

    for array_cells, scalar_cell in (
        (connections.gamma_cells, scalar_reference.gamma_cell),
        (connections.delta_cells, scalar_reference.delta_cell),
    ):
        values, vertices = array_cells(matrix)
        assert values.shape == (n_lambda, n_i, G.order, values.shape[-1])
        for lam, i in product(range(n_lambda), range(n_i)):
            cell = connections.as_cones((values[lam, i], vertices[lam, i]))
            assert [repr(c) for c in cell] == [repr(c) for c in scalar_cell(matrix, lam, i)]


class _CorruptedProduct(ReesSemigroup):
    """A faulty product: corrupt(S, x, y, z) in place of the true product z of
    x and y; its index table is made from it."""

    def __init__(self, matrix, corrupt):
        super().__init__(matrix)
        self.corrupt = corrupt

    def mul(self, x, y):
        return self.corrupt(self, x, y, super().mul(x, y))

    def index_table(self):
        elements = list(self.elements())
        rows = [[self.index(self.mul(x, y)) for y in elements] for x in elements]
        return np.array(rows, dtype=np.int32)


def _keeps_vertex(k):
    """x's vertex kept when x.i != k: translations leave their ideals."""
    return lambda S, x, y, z: ReesElement(z.g, z.i, x.lam) if x.i != k else z


def _moves_vertex(k):
    """The vertex moved on by one when x.g == k: some translations leave their
    ideals, others stay in them as maps that no abstract morphism induces."""
    return lambda S, x, y, z: (
        ReesElement(z.g, z.i, (z.lam + 1) % S.n_lambda) if x.g == k % S.group.order else z
    )


def _rescaled(k):
    """The product's scalar multiplied by element k when x.i == 0: the maps
    stay in their ideals, but one that scales only part of its domain is
    no abstract one."""
    return lambda S, x, y, z: (
        ReesElement(S.group.mul(z.g, k % S.group.order), z.i, z.lam) if x.i == 0 else z
    )


def _collapsed(k):
    """The product's scalar sent to the identity when y.g == k: hom-sets
    realize fewer maps."""
    return lambda S, x, y, z: (
        ReesElement(S.group.identity, z.i, z.lam) if y.g == k % S.group.order else z
    )


def _mirrored(corrupt):
    """corrupt made in S^op = M[G^op; Lambda, I; P^T], whose x*y is y*x of S
    and whose (g, lam, i) is (g, i, lam) of S: the faults that the left side
    sees in S, the right side sees in the mirrored product."""

    def transposed(x):
        return ReesElement(x.g, x.lam, x.i)

    def mirrored(S, x, y, z):
        op = ReesSemigroup(S.matrix.transpose, size_guard=S.size)
        return transposed(corrupt(op, transposed(y), transposed(x), transposed(z)))

    return mirrored


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([_keeps_vertex, _moves_vertex, _rescaled, _collapsed]),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
    st.sampled_from(["left", "right"]),
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_realize_category_matches_the_loops_on_faulty_products(
    G, n_lambda, n_i, corruption, k, mirror, side, block, data
):
    # The array realization against the loop over S.mul, mismatch list in
    # order and hom-set sizes included, on faulty products, whatever the
    # blocks of rows.  S carries the faulty product on both sides, made in
    # S or mirrored from S^op: the right side reads S^op's products through
    # S's table, and the loop makes them by S.mul.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    corrupt = _mirrored(corruption(k)) if mirror else corruption(k)
    S = _CorruptedProduct(SandwichMatrix(G, entries), corrupt)
    with mock.patch.object(kernel, "BLOCK", block):
        report = realize_category(S, side)
    assert report == scalar_reference.realize_category(S, side)


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
    matrix = SandwichMatrix(G, entries)
    ug, ud = scalar_reference.u_gamma(matrix), scalar_reference.u_delta(matrix)
    gammas = data.draw(_cones(G, n_lambda, ug))
    deltas = data.draw(_cones(G, n_i, ud))
    block = data.draw(st.sampled_from([1, 7, kernel.BLOCK]))
    M, inverse, P = G.array, G.inverse, matrix.array
    with mock.patch.object(kernel, "BLOCK", block):
        for array, members in ((M, ug), (M.T, ud), (M, gammas), (M.T, gammas), (M.T, deltas)):
            cone_arrays = scalar_reference.cone_arrays(members)
            classes = kernel.ConeClasses(cone_arrays)
            table = kernel.cone_product_table(array, inverse, classes)
            assert table.dtype == kernel.index_dtype(len(table))
            assert np.array_equal(table, scalar_reference.cone_product_table(array, cone_arrays))
            # U-Delta's table is held transposed, built so row by row
            transposed = kernel.cone_product_table(array, inverse, classes, transposed=True)
            assert transposed.flags.c_contiguous and np.array_equal(transposed, table.T)

        gamma_arrays, delta_arrays = scalar_reference.cone_arrays(gammas), scalar_reference.cone_arrays(deltas)
        linkage = kernel.linkage_table(
            M, inverse, P, kernel.ConeClasses(gamma_arrays), kernel.ConeClasses(delta_arrays)
        )
    rows = [
        scalar_reference.is_linked_row(M, inverse, P, gamma, delta_arrays)
        for gamma in zip(*gamma_arrays)
    ]
    assert np.array_equal(linkage, np.array(rows))
    assert linkage.tolist() == [
        [scalar_reference.is_linked(matrix, g, d) for d in deltas] for g in gammas
    ]


def _operands(c1, c2) -> tuple[list, list]:
    """The first factors' tuples and the second factors' values at their
    vertices, row by row, on which each `kernel.mul_L` product depends."""
    (v1, x1), (v2, _) = c1, c2
    v2, at = np.broadcast_arrays(v2, np.expand_dims(x1, -1))
    s = np.take_along_axis(v2, at[..., :1], axis=-1)[..., 0]
    v1 = np.broadcast_to(v1, s.shape + np.shape(v1)[-1:])
    return [tuple(t) for t in v1.reshape(-1, v1.shape[-1]).tolist()], s.ravel().tolist()


def _recorded(product, record: dict):
    """`product` as `kernel.mul_L`, each product's tuple recorded by its operands."""

    def mul_L(M, c1, c2):
        values, vertices = product(M, c1, c2)
        tuples, scalars = _operands(c1, c2)
        products = values.reshape(-1, values.shape[-1]).tolist()
        record.update(zip(zip(tuples, scalars), map(tuple, products)))
        return values, vertices

    return mul_L


def _replayed(record: dict):
    """`kernel.mul_L` that answers each product from a record of `_recorded`,
    with the second factor's vertex."""

    def mul_L(M, c1, c2):
        tuples, scalars = _operands(c1, c2)
        shape = np.broadcast_shapes(np.shape(c1[1]), np.shape(c2[1]))
        values = np.array([record[key] for key in zip(tuples, scalars)]).reshape(*shape, -1)
        return values, np.broadcast_to(c2[1], shape)

    return mul_L


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["left_scaled", "constant"]),
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_cone_tables_are_exact_under_a_faulty_product(G, n_lambda, n_i, fault, block, data):
    # A faulty mul_L sends products off their cosets, where the coset
    # index reads no class or the wrong one, so the key search must find
    # them: each table, in both orientations and over G and G^op, equals
    # the row-by-row reference under the same products, the ones the
    # kernel's mul_L returned, replayed.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    matrix = SandwichMatrix(G, entries)
    ug, ud = scalar_reference.u_gamma(matrix), scalar_reference.u_delta(matrix)
    gammas = data.draw(_cones(G, n_lambda, ug))
    product = {
        "left_scaled": scalar_reference.left_scaled_mul_L,
        "constant": scalar_reference.constant_mul_L(kernel.mul_L),
    }[fault]
    M = G.array
    for array, members in ((M, ug), (M.T, ud), (M, gammas), (M.T, gammas)):
        cone_arrays = scalar_reference.cone_arrays(members)
        for transposed in (False, True):
            record = {}
            with mock.patch.object(kernel, "BLOCK", block), mock.patch.object(
                kernel, "mul_L", _recorded(product, record)
            ):
                table = kernel.cone_product_table(
                    array, G.inverse, kernel.ConeClasses(cone_arrays), transposed
                )
            with mock.patch.object(kernel, "mul_L", _replayed(record)):
                expected = scalar_reference.cone_product_table(array, cone_arrays)
            assert np.array_equal(table, expected.T if transposed else expected)


def test_left_scaled_mul_L_is_mul_L_over_the_opposite_group():
    # The faulty product broadcasts as kernel.mul_L does: on T_L of S3 with
    # two objects (72 cones) it is mul_L over M.T for a block of cones
    # against the batch, the batch against itself row by row, one cone
    # against the batch and the batch against one cone.
    G = builtin("symmetric", 3)
    tl = values, vertices = cones.enumerate_TL(G, 2)
    block = values[3:8, None], vertices[3:8, None]
    one = values[5], vertices[5]
    for c1, c2 in ((block, tl), (tl, tl), (one, tl), (tl, one)):
        got = scalar_reference.left_scaled_mul_L(G.array, c1, c2)
        expected = kernel.mul_L(G.array.T, c1, c2)
        for x, y in zip(got, expected):
            assert x.shape == y.shape and np.array_equal(x, y)


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
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_crossconnection_arrays_match_the_loops(
    G, n_lambda, n_i, functor, fault, unscaled, block, data
):
    # The functor laws, fully_faithful, ideal_restriction and the linked
    # criterion report the same verdicts and first witnesses as the loops,
    # on sound functors and linkage tests and on faulty ones, whatever the
    # blocks of hom-sets.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    P = S.matrix
    with scalar_reference.faulty_images(functor, fault) if fault else contextlib.nullcontext():
        with mock.patch.object(kernel, "BLOCK", block):
            got = connections.verify_crossconnection(P)
        expected = scalar_reference.crossconnection_checks(P)
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
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_cone_product_and_naturality_match_the_loops(G, n_lambda, n_i, fault, block, data):
    # The scans of category.cone_product_agreement, crossconn.naturality and
    # crossconn.duality_bijection give the same first witnesses as the
    # loops, on sound input, under a reversed composition, a rescaled row of
    # P^T and a cone off its cell, whatever the blocks of cells.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    P = SandwichMatrix(G, entries)
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
        assert verify._naturality_witness(P) == scalar_reference.naturality_witness(P)
        with mock.patch.object(kernel, "BLOCK", block):
            duality = verify._duality_witness(P)
        assert duality == scalar_reference.duality_witness(P)
        # S3 with three rows has 648 cones: 419,904 scalar products, about 7 s
        if G.order**n_lambda * n_lambda <= 100:
            tl = {c.name: c.witness for c in verify.tl_suite(G, n_lambda)}
            assert tl["category.cone_product_agreement"] == scalar_reference.cone_product_witness(
                G, n_lambda
            )


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
    # fault in the pair product, the linkage test, the order of the pairs
    # (phi no homomorphism) or the pairs themselves (a table that is not
    # closed).
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
def test_each_pair_of_an_identity_matrix_carries_one_scalar(G):
    # rbg.product_formula holds the delta half of p*q against the product of
    # the delta halves' first values, the gamma half against the gamma
    # halves'.  On a constant-identity matrix these are one claim: the
    # first value of each pair's gamma half is that of its delta half.
    for n_lambda, n_i in product(range(1, 4), repeat=2):
        linked = connections.pair_arrays(ReesSemigroup(identity_matrix(G, n_lambda, n_i)))
        gamma, delta = (u.classes.members[0][:, 0] for u in (linked.u_gamma, linked.u_delta))
        assert linked.complete
        assert (gamma[linked.g] == delta[linked.d]).all()


def test_rbg_product_formula_states_the_delta_half_by_its_own_scalars():
    # M[S3; 1, 1; [[c]]] with c != e is a group, (g1, c, g2) -> g1 c g2: not
    # the identity matrix, but every product of pairs is constant, and its
    # delta half is (g1 c)(g2 c), the product of the delta halves' scalars.
    # Stated by the gamma halves' scalars, (c g1)(c g2), it failed.
    G = builtin("symmetric", 3)
    for c in range(G.order):
        if c == G.identity:
            continue
        S = ReesSemigroup(SandwichMatrix(G, [[c]]))
        checks = verify.rbg_suite(S, connections.pair_arrays(S))
        named = {check.name: check for check in checks}
        assert named["rbg.identity_matrix"].passed is False
        assert named["rbg.product_formula"].passed is True
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
        if len(tl[1]) > 100:
            break
        table = cones.cone_table(group, tl)
        assert table.dtype == kernel.index_dtype(len(table))
        assert table.tolist() == scalar_reference.cone_table(group, connections.as_cones(tl))


@pytest.mark.parametrize("G", GROUPS, ids=["Z2", "Z3", "S3", "S3-relabelled"])
def test_mul_L_broadcasts_a_block_against_a_batch(G):
    # a block of cones with an axis of length one against all of T_L gives
    # every product, each the scalar mul_L's, on both sides
    tl = values, vertices = cones.enumerate_TL(G, 2)
    listed = connections.as_cones(tl)
    for group in (G, G.opposite):
        got = kernel.mul_L(group.array, (values[:, None], vertices[:, None]), tl)
        products = [[scalar_reference.mul_L(group, a, b) for b in listed] for a in listed]
        assert got[0].tolist() == [[list(c.values) for c in row] for row in products]
        assert got[1].tolist() == [[c.vertex for c in row] for row in products]


@pytest.mark.parametrize("G", GROUPS, ids=["Z2", "Z3", "S3", "S3-relabelled"])
def test_tl_and_category_checks_match_the_loops(G):
    # cone_suite's T_L checks, the cone product among them, and the
    # groupoid checks against their scalar loops, up to 100 cones, where the
    # loops stay quick.  There the costliest scan, 100 cones against a
    # 300-entry batch, is far within verify.BUDGET, so no check is skipped:
    # a skipped one would differ from its loop's.  The T_L checks are also
    # run in small blocks, the last one short.
    for n_lambda in (1, 2, 3):
        if (G.order**n_lambda) * n_lambda > 100:
            break
        S = ReesSemigroup(identity_matrix(G, n_lambda, 2))
        checks = cone_suite(S, connections.pair_arrays(S))
        names = ("cones.action_law", "cones.semidirect_law", "cones.tl_green_agreement")
        names += ("cones.idempotent_closed_form",)
        expected = scalar_reference.tl_checks(G, n_lambda)
        assert [c for c in checks if c.name in names] == expected
        for block in (1, 7):
            with mock.patch.object(kernel, "BLOCK", block):
                in_blocks = verify.tl_suite(G, n_lambda)
            assert [c for c in in_blocks if c.name in names] == expected
        by_name = {c.name: c.witness for c in checks + verify.category_suite(S)}
        assert by_name["category.cone_product_agreement"] == scalar_reference.cone_product_witness(
            G, n_lambda
        )
        for name, cat in (("left", left_category(G, n_lambda)), ("right", right_category(G, 2))):
            assert by_name[f"category.{name}_groupoid"] == scalar_reference.groupoid_witness(cat)


INT32 = np.iinfo(np.int32)
ENTRIES = [INT32.min, INT32.min + 1, -1, 0, 1, INT32.max - 1, INT32.max]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["one", "all", "any"]),
    st.booleans(),
    st.data(),
)
def test_distinct_and_split_counts_match_python_sets(n_labels, width, split_at, equal, data):
    # The one-sort counting kernels against a Python set per label: labels
    # with no rows count 0, and rows are drawn from few entries, the int32
    # extremes among them, so that equal rows are common; with equal, all
    # rows are one row.  split_counts splits at 1, at m (nothing after) or
    # anywhere between.
    m = data.draw(st.integers(min_value=1, max_value=12))
    labels = data.draw(st.lists(st.integers(0, n_labels - 1), min_size=m, max_size=m))
    row = st.lists(st.sampled_from(ENTRIES), min_size=width, max_size=width)
    body = data.draw(st.lists(row, min_size=m, max_size=m))
    if equal:
        labels, body = [labels[0]] * m, [body[0]] * m
    split = {"one": 1, "all": m, "any": data.draw(st.integers(1, m))}[split_at]

    def counts(rows) -> list[int]:
        return [len({tuple(r) for label, r in rows if label == x}) for x in range(n_labels)]

    pairs = list(zip(labels, body))
    columns = np.array(body, dtype=np.int64)
    got = kernel.distinct_counts(np.array(labels), n_labels, columns[:, :-1], columns[:, -1])
    assert got.tolist() == counts(pairs)
    rows = np.ascontiguousarray(np.column_stack([labels, body]), dtype=kernel.KEY_DTYPE)
    got = kernel.split_counts(rows, split, n_labels)
    expected = [counts(pairs[:split]), counts(pairs[split:]), counts(pairs)]
    assert [c.tolist() for c in got] == expected


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
    table = _cone_product_table(G, rho)
    verdict = connections.is_regular_set(table)
    assert verdict is scalar_reference.regular_subsemigroup(G, rho) is True


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_verify_phi_by_rows_matches_the_whole_table(G, n_lambda, n_i, block, data):
    # verify_phi reads the U tables a block of rows at a time, for the
    # oracle's map check and for its closure check, and never holds the
    # pairs' table.  Against the whole table built at once and checked by
    # the loops, with up to two entries of the U-Gamma or U-Delta table
    # corrupted (mostly holes: a product outside U, or halves that are no
    # pair) and perhaps the images (g, d) of two elements traded (closed,
    # but phi no homomorphism): the same report, closure or map witness
    # included, whatever the blocks.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    linked = connections.pair_arrays(S)
    for _ in range(data.draw(st.integers(0, 2))):
        table = data.draw(st.sampled_from([linked.u_gamma.table, linked.u_delta.table]))
        at = data.draw(st.integers(0, table.size - 1))
        table.flat[at] = data.draw(st.integers(-1, len(table) - 1))
    if data.draw(st.booleans()):
        pairs = [data.draw(st.integers(0, S.size - 1)) for _ in range(2)]
        for image in (linked.g, linked.d, linked.gamma[0], linked.gamma[1], *linked.delta):
            image[pairs] = image[pairs[::-1]]
    with mock.patch.object(kernel, "BLOCK", block):
        report = verify_phi(linked)
    assert report == scalar_reference.verify_phi_on_the_table(S, linked)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_phi_fails_its_law_exactly_where_a_principal_check_fails(G, n_lambda, n_i, data):
    # phi is a homomorphism exactly when its two components, the principal
    # maps, are.  With entries of the U tables corrupted and perhaps the
    # images of two elements traded, each principal check fails exactly
    # where its component's loop does, and, unless the pairs are not
    # closed, phi's report holds an f(a*b) clause exactly when one of them
    # fails, naming the earlier of their (a, b); a failed closure is phi's
    # report too, and only a failed homomorphism reaches it.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    linked = connections.pair_arrays(S)
    for _ in range(data.draw(st.integers(0, 2))):
        table = data.draw(st.sampled_from([linked.u_gamma.table, linked.u_delta.table]))
        table.flat[data.draw(st.integers(0, table.size - 1))] = data.draw(
            st.integers(-1, len(table) - 1)
        )
    if data.draw(st.booleans()):
        pairs = [data.draw(st.integers(0, S.size - 1)) for _ in range(2)]
        for image in (linked.g, linked.d, linked.gamma[0], linked.gamma[1], *linked.delta):
            image[pairs] = image[pairs[::-1]]
    T = S.to_generic()
    firsts = [
        scalar_reference.homomorphism_witness_loops(m.tolist(), T, u.table.tolist())
        for m, u in ((linked.g, linked.u_gamma), (linked.d, linked.u_delta))
    ]
    checks = {c.name: c for c in cone_suite(S, linked)}
    for name, first in zip(("cones.principal_homomorphism", "cones.dual_antihomomorphism"), firsts):
        expected = None if first is None else ", ".join(str(S.element(k)) for k in first)
        assert checks[name].witness == expected
    closure, phi = verify_phi(linked)
    failed = [first for first in firsts if first is not None]
    if closure is not None:
        assert phi == closure and failed
        return
    clause = re.match(r"f\((\d+)\*(\d+)\) = ", phi or "")
    assert (clause is not None) == bool(failed)
    assert clause is None or (int(clause[1]), int(clause[2])) == min(failed)


@pytest.mark.parametrize("block", [1, 7, kernel.BLOCK])
@pytest.mark.parametrize(
    "group, entries",
    [
        (builtin("symmetric", 3), [[0, 3, 1], [2, 5, 4]]),
        (builtin("cyclic", 3), [[0, 1], [2, 0]]),
        (builtin("cyclic", 2), [[0, 1, 1]]),
        (builtin("symmetric", 3), [[0, 0], [0, 0]]),
    ],
    ids=["S3 2x3", "Z3 2x2", "Z2 1x3", "S3 identity 2x2"],
)
def test_pairs_not_closed_give_the_loops_closure_witness(group, entries, block):
    # With the last pair a copy of the first, some product of two pairs is
    # no pair.  The map check fails, and the closure scan that runs after
    # it searches the key of each product among the pairs' sorted keys, a
    # block of rows at a time: its first "product of ... is not a linked
    # pair" is the scalar reference's, which looks each product up in a
    # dict of the pairs.
    S = ReesSemigroup(SandwichMatrix(group, entries))
    with scalar_reference.missing_pair():
        with mock.patch.object(kernel, "BLOCK", block):
            report = verify_phi(connections.pair_arrays(S))
        reference = scalar_reference.verify_phi(S)
    closure, phi = report
    assert phi == closure and closure.startswith("product of ")
    assert report == reference


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
    st.sampled_from([1, 7, kernel.BLOCK]),
)
def test_blocks_are_exact_consecutive_slices(n_rows, row_size, block):
    # The slices follow one another from row 0 and cover range(n_rows)
    # exactly: none is empty or runs past the last row, so a scan decodes
    # its rows as np.arange(rows.start, rows.stop).
    with mock.patch.object(kernel, "BLOCK", block):
        slices = list(kernel.blocks(n_rows, row_size))
    assert [x for rows in slices for x in range(rows.start, rows.stop)] == list(range(n_rows))
    assert all(rows.start < rows.stop <= n_rows and rows.step is None for rows in slices)


def test_index_dtype_boundary():
    # int16 holds every index below 2^15 and -1; the rule is read from n
    # alone, so no table of that size is built
    assert kernel.index_dtype(1) == kernel.index_dtype(2**15 - 1) == np.int16
    assert kernel.index_dtype(2**15) == kernel.index_dtype(2**20) == np.int32
    assert np.iinfo(np.int16).max == 2**15 - 1


def test_cone_product_table_marks_each_absent_product():
    # The one-object cones (a,) for a in {0, 1, 2}, whose product under
    # mul_L is (a + b mod m,): over Z4 the product (3,) is outside the set
    # and reads -1, and the first -1 in row order is the closure witness.
    classes = kernel.ConeClasses((np.arange(3).reshape(3, 1), np.zeros(3, dtype=np.intp)))
    z4, z3 = builtin("cyclic", 4), builtin("cyclic", 3)
    table = kernel.cone_product_table(z4.array, z4.inverse, classes)
    assert table.dtype == kernel.index_dtype(3) == np.int16
    assert table.tolist() == [[0, 1, 2], [1, 2, -1], [2, -1, 0]]
    assert kernel.first_hole(table) == (1, 2)
    closed = kernel.cone_product_table(z3.array, z3.inverse, classes)
    assert closed.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert kernel.first_hole(closed) is None


def test_key_index_is_exact():
    # ConeClasses.find_tuples searches the sorted keys of the distinct
    # tuples: 64-wide keys are exact, and an absent key gives -1
    values = np.zeros((4, 64), dtype=np.intp)
    values[1, 63] = 1  # differs from row 0 in the last coordinate only
    values[3, 63] = 1  # a repeat of row 1
    classes = kernel.ConeClasses((values, np.array([5, 5, 7, 5])))
    assert len(classes.tuples) == 2 and classes.tid.tolist() == [0, 1, 0, 1]
    queries = np.zeros((4, 64), dtype=np.intp)
    queries[1, 63] = 1
    queries[2, 0] = 1  # absent, between the keys
    queries[3] = 9  # absent, above every key
    assert classes.find_tuples(queries).tolist() == [0, 1, -1, -1]
    found = classes.find((queries, np.array([5, 5, 5, 5])))
    assert found.tolist() == [0, 3, -1, -1]  # among equal cones the last position wins


@pytest.mark.parametrize("n_lambda, n_i", [(1, 1), (3, 1), (1, 3)])
def test_principal_cones_degenerate_shapes(n_lambda, n_i):
    G = builtin("cyclic", 3)
    S = ReesSemigroup(SandwichMatrix(G, [[1] * n_i for _ in range(n_lambda)]))
    _principal_products_agree(S)
    assert S.table().shape == (S.size, S.size)
    assert S.element(int(S.table()[0, -1])) == S.mul(ReesElement(0, 0, 0), S.element(S.size - 1))
