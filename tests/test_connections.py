import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scalar_reference import (
    CosetHandle,
    DualMorphism,
    ElementNotInCell,
    NotInDomainCoset,
    bifunctor_gamma,
    chi,
    column,
    compose_duals,
    delta_apply,
    gamma_apply,
    is_linked,
    linked_pairs,
    matrix_of,
    mul_L,
    phi,
    principal_pair,
    right_factor,
    row,
    s_tilde_mul,
    sigma_apply,
    u_delta,
    u_gamma,
)

from crossconn import (
    Cone,
    LinkedPair,
    Morphism,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    connections,
    identity_matrix,
    kernel,
    left_category,
    pair_arrays,
    right_category,
    verify_crossconnection,
    verify_phi,
)
from crossconn.checks import all_passed
from crossconn.errors import NotComposable


@pytest.fixture(scope="session")
def conn1(p1):
    return p1


@pytest.fixture(scope="session")
def conn_z3(z3):
    return SandwichMatrix(z3, [[0, 1], [2, 0]])


@pytest.fixture(scope="session")
def conn_s3(s3):
    return SandwichMatrix(s3, [[0, 3], [1, 0]])


def test_gamma_objects(conn1):
    assert gamma_apply(conn1, 1) == CosetHandle("left", (0, 1))
    assert gamma_apply(conn1, 0) == CosetHandle("left", (0, 0))


def test_delta_objects(conn1):
    assert delta_apply(conn1, 1) == CosetHandle("right", (0, 1))
    assert delta_apply(conn1, 0) == CosetHandle("right", (0, 0))


def test_gamma_morphism(conn1):
    sg = gamma_apply(conn1, Morphism(0, 1, 1))
    assert sg == DualMorphism("sigma", 1, gamma_apply(conn1, 0), gamma_apply(conn1, 1))


def test_gamma_functoriality(conn1, conn_z3, conn_s3):
    for conn in (conn1, conn_z3, conn_s3):
        G = conn.group
        rcat = right_category(G, conn.cols)
        for i1, i2, i3 in product(range(conn.cols), repeat=3):
            for g1, g2 in product(G.elements(), repeat=2):
                m1, m2 = Morphism(i1, i2, g1), Morphism(i2, i3, g2)
                lhs = gamma_apply(conn, rcat.compose(m1, m2))
                rhs = compose_duals(G, gamma_apply(conn, m1), gamma_apply(conn, m2))
                assert lhs == rhs
                # the image composite reverses group order: sigma_{g2*g1}
                assert lhs.h == G.mul(g2, g1)


def test_delta_functoriality(conn_z3, conn_s3):
    for conn in (conn_z3, conn_s3):
        G = conn.group
        lcat = left_category(G, conn.rows)
        for l1, l2, l3 in product(range(conn.rows), repeat=3):
            for g1, g2 in product(G.elements(), repeat=2):
                m1, m2 = Morphism(l1, l2, g1), Morphism(l2, l3, g2)
                lhs = delta_apply(conn, lcat.compose(m1, m2))
                rhs = compose_duals(G, delta_apply(conn, m1), delta_apply(conn, m2))
                assert lhs == rhs
                assert lhs.h == G.mul(g1, g2)


def test_sigma_apply_fixture(z2):
    m = DualMorphism("sigma", 1, CosetHandle("left", (0, 0)), CosetHandle("left", (0, 1)))
    assert sigma_apply(z2, m, (0, 0)) == (1, 0)


def test_sigma_apply_identity(z2):
    dom = CosetHandle("left", (0, 1))
    m = DualMorphism("sigma", 0, dom, dom)
    for g in z2.elements():
        member = tuple(z2.mul(c, g) for c in dom.canonical)
        assert sigma_apply(z2, m, member) == member


def test_sigma_apply_outside_domain(z2):
    m = DualMorphism("sigma", 1, CosetHandle("left", (0, 0)), CosetHandle("left", (0, 1)))
    with pytest.raises(NotInDomainCoset):
        sigma_apply(z2, m, (0, 1))


def test_sigma_composition_reversed(z3, s3):
    # sigma_h then sigma_k acts as sigma_{k*h}; the reversal only shows
    # in a noncommutative group
    for G in (z3, s3):
        c1 = CosetHandle("left", (0, 1))
        c2 = CosetHandle("left", (0, 2))
        c3 = CosetHandle("left", (0, 0))
        for h, k in product(G.elements(), repeat=2):
            m1 = DualMorphism("sigma", h, c1, c2)
            m2 = DualMorphism("sigma", k, c2, c3)
            combined = compose_duals(G, m1, m2)
            assert combined.h == G.mul(k, h)
            for g in G.elements():
                member = tuple(G.mul(c, g) for c in c1.canonical)
                assert sigma_apply(G, combined, member) == sigma_apply(
                    G, m2, sigma_apply(G, m1, member)
                )


def test_tau_composition_straight(z3, s3):
    for G in (z3, s3):
        c1 = CosetHandle("right", (0, 1))
        c2 = CosetHandle("right", (0, 2))
        c3 = CosetHandle("right", (0, 0))
        for h, k in product(G.elements(), repeat=2):
            m1 = DualMorphism("tau", h, c1, c2)
            m2 = DualMorphism("tau", k, c2, c3)
            combined = compose_duals(G, m1, m2)
            assert combined.h == G.mul(h, k)
            for g in G.elements():
                member = tuple(G.mul(g, c) for c in c1.canonical)
                assert sigma_apply(G, combined, member) == sigma_apply(
                    G, m2, sigma_apply(G, m1, member)
                )


def test_compose_duals_mismatch(z2):
    s = DualMorphism("sigma", 0, CosetHandle("left", (0, 0)), CosetHandle("left", (0, 0)))
    t = DualMorphism("tau", 0, CosetHandle("right", (0, 0)), CosetHandle("right", (0, 0)))
    with pytest.raises(NotComposable):
        compose_duals(z2, s, t)
    other = DualMorphism("sigma", 0, CosetHandle("left", (0, 1)), CosetHandle("left", (0, 1)))
    with pytest.raises(NotComposable):
        compose_duals(z2, s, other)


def test_bifunctor_gamma_fixture(conn1):
    got = bifunctor_gamma(conn1, Morphism(0, 1, 1), Morphism(1, 1, 0), Cone((1, 0), 0))
    assert got == Cone((0, 1), 1)


def test_bifunctor_identity_morphisms(conn1):
    G = conn1.group
    for lam in range(conn1.rows):
        for i in range(conn1.cols):
            rho = Morphism(lam, lam, G.identity)
            kappa = Morphism(i, i, G.identity)
            for g in G.elements():
                cone = Cone(tuple(G.mul(p, g) for p in column(conn1, i)), lam)
                assert bifunctor_gamma(conn1, rho, kappa, cone) == cone
                dual = Cone(tuple(G.mul(g, p) for p in row(conn1, lam)), i)
                assert bifunctor_gamma(conn1.transpose, kappa, rho, dual) == dual


def test_bifunctor_evaluation_orders_agree(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for l1, l2, i1, i2 in product(
            range(conn.rows), range(conn.rows), range(conn.cols), range(conn.cols)
        ):
            for g1, g2 in product(G.elements(), repeat=2):
                rho = Morphism(l1, l2, g2)
                kappa = Morphism(i1, i2, g1)
                id_rho_1 = Morphism(l1, l1, G.identity)
                id_rho_2 = Morphism(l2, l2, G.identity)
                id_kappa_1 = Morphism(i1, i1, G.identity)
                id_kappa_2 = Morphism(i2, i2, G.identity)
                for g in G.elements():
                    cone = Cone(tuple(G.mul(p, g) for p in column(conn, i1)), l1)
                    combined = bifunctor_gamma(conn, rho, kappa, cone)
                    order_a = bifunctor_gamma(
                        conn, id_rho_2, kappa, bifunctor_gamma(conn, rho, id_kappa_1, cone)
                    )
                    order_b = bifunctor_gamma(
                        conn, rho, id_kappa_2, bifunctor_gamma(conn, id_rho_1, kappa, cone)
                    )
                    assert combined == order_a == order_b


def test_bifunctor_rejects_foreign_cones(conn1):
    with pytest.raises(ElementNotInCell):
        bifunctor_gamma(conn1, Morphism(0, 1, 0), Morphism(0, 0, 0), Cone((0, 1), 0))
    with pytest.raises(ElementNotInCell):
        bifunctor_gamma(conn1, Morphism(1, 0, 0), Morphism(0, 0, 0), Cone((0, 0), 0))


def test_u_gamma_sizes(conn1, z2):
    assert len(u_gamma(conn1)) == 8  # every cone of TL(S) here
    assert len(u_delta(conn1)) == 8
    identity_conn = identity_matrix(z2, 2, 2)
    assert len(u_gamma(identity_conn)) == 4  # constant tuples only
    assert len(u_delta(identity_conn)) == 4


def test_u_closed_under_products(conn_z3):
    G = conn_z3.group
    ug = u_gamma(conn_z3)
    ug_set = set(ug)
    for a in ug:
        for b in ug:
            assert mul_L(G, a, b) in ug_set
    ud = u_delta(conn_z3)
    ud_set = set(ud)
    for a in ud:
        for b in ud:
            assert mul_L(G.opposite, a, b) in ud_set


def test_chi_fixture(conn1):
    assert chi(conn1, Cone((1, 0), 0), 1) == Cone((1, 1), 1)


def test_chi_identity_scalar(conn1):
    # g = e on the identity column: image is the unscaled row
    assert chi(conn1, Cone((0, 0), 0), 0) == Cone((0, 0), 0)


def test_chi_roundtrip(conn_z3):
    G = conn_z3.group
    for lam in range(conn_z3.rows):
        for i in range(conn_z3.cols):
            for g in G.elements():
                gamma = Cone(tuple(G.mul(p, g) for p in column(conn_z3, i)), lam)
                delta = chi(conn_z3, gamma, i)
                assert delta == Cone(
                    tuple(G.mul(g, p) for p in row(conn_z3, lam)), i
                )
                assert chi(conn_z3.transpose, delta, lam) == gamma


def test_chi_cell_bijection_cardinality(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for lam in range(conn.rows):
            for i in range(conn.cols):
                cell = {
                    Cone(tuple(G.mul(p, g) for p in column(conn, i)), lam)
                    for g in G.elements()
                }
                assert len(cell) == G.order
                images = {chi(conn, c, i) for c in cell}
                assert len(images) == G.order


def test_chi_rejects_foreign_cone(conn1):
    with pytest.raises(ElementNotInCell):
        chi(conn1, Cone((0, 1), 0), 0)
    with pytest.raises(ElementNotInCell):
        chi(conn1, Cone((0, 0, 0), 0), 0)  # wrong tuple length
    with pytest.raises(ElementNotInCell):
        chi(conn1.transpose, Cone((1, 1), 0), 1)  # (1,1) is not g*(0,1) for any g


def test_is_linked_wrong_shape(conn1):
    assert not is_linked(conn1, Cone((1, 0, 0), 0), Cone((1, 1), 1))


def test_naturality_squares(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for l1, l2, i1, i2 in product(
            range(conn.rows), range(conn.rows), range(conn.cols), range(conn.cols)
        ):
            for g1, g2 in product(G.elements(), repeat=2):
                rho = Morphism(l1, l2, g2)
                kappa = Morphism(i1, i2, g1)
                for g in G.elements():
                    cone = Cone(tuple(G.mul(p, g) for p in column(conn, i1)), l1)
                    via_gamma = chi(conn, bifunctor_gamma(conn, rho, kappa, cone), i2)
                    via_delta = bifunctor_gamma(conn.transpose, kappa, rho, chi(conn, cone, i1))
                    assert via_gamma == via_delta


def test_is_linked_fixture(conn1):
    assert is_linked(conn1, Cone((1, 0), 0), Cone((1, 1), 1))
    assert not is_linked(conn1, Cone((1, 0), 0), Cone((0, 0), 1))


def test_linked_iff_scalars_match_identity_matrix(z2):
    conn = identity_matrix(z2, 2, 2)
    for g1, g2 in product(z2.elements(), repeat=2):
        for lam, i in product(range(2), repeat=2):
            gamma = Cone((g1, g1), lam)
            delta = Cone((g2, g2), i)
            assert is_linked(conn, gamma, delta) == (g1 == g2)


def test_linked_shortcut_agreement(conn1, conn_z3, conn_s3):
    for conn in (conn1, conn_z3, conn_s3):
        pair_set = {(p.gamma, p.delta) for p in linked_pairs(conn)}
        for gamma in u_gamma(conn):
            for delta in u_delta(conn):
                assert is_linked(conn, gamma, delta) == ((gamma, delta) in pair_set)


def test_linked_pairs_count(conn1):
    pairs = linked_pairs(conn1)
    assert len(pairs) == 8
    assert len(set(pairs)) == 8


def test_s_tilde_closure(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        pairs = linked_pairs(conn)
        pair_set = set(pairs)
        for p in pairs:
            for q in pairs:
                assert s_tilde_mul(conn, p, q) in pair_set


def test_s_tilde_product_closed_form(conn1, conn_z3, conn_s3):
    # ((p_i1 g1, l1), (g1 p_l1, i1)) o ((p_i2 g2, l2), (g2 p_l2, i2))
    # = ((p_i1 h, l2), (h p_l2, i1)) with h = g1 * p[l1][i2] * g2
    for P in (conn1, conn_z3, conn_s3):
        G = P.group
        for g1, i1, l1 in product(G.elements(), range(P.cols), range(P.rows)):
            p = LinkedPair(
                Cone(tuple(G.mul(v, g1) for v in column(P, i1)), l1),
                Cone(tuple(G.mul(g1, v) for v in row(P, l1)), i1),
            )
            for g2, i2, l2 in product(G.elements(), range(P.cols), range(P.rows)):
                q = LinkedPair(
                    Cone(tuple(G.mul(v, g2) for v in column(P, i2)), l2),
                    Cone(tuple(G.mul(g2, v) for v in row(P, l2)), i2),
                )
                h = G.mul(G.mul(g1, P.entry(l1, i2)), g2)
                expected = LinkedPair(
                    Cone(tuple(G.mul(v, h) for v in column(P, i1)), l2),
                    Cone(tuple(G.mul(h, v) for v in row(P, l2)), i1),
                )
                assert s_tilde_mul(P, p, q) == expected


def test_phi_fixture(s1):
    pair = phi(s1, ReesElement(1, 1, 0))
    assert pair == LinkedPair(Cone((1, 0), 0), Cone((1, 1), 1))


def test_phi_identity_matrix(z2):
    S = ReesSemigroup(identity_matrix(z2, 2, 2))
    pair = phi(S, ReesElement(0, 1, 0))
    assert pair == LinkedPair(Cone((0, 0), 0), Cone((0, 0), 1))


def test_phi_equals_principal_pair(s1):
    for a in s1.elements():
        rho, lam = principal_pair(s1, a)
        assert phi(s1, a) == LinkedPair(rho, lam)


def test_verify_phi_fixtures(s1, z3, s3):
    fixtures = [
        s1,
        ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]])),
        ReesSemigroup(SandwichMatrix(s3, [[0, 3], [1, 0]])),
    ]
    for S in fixtures:
        assert verify_phi(pair_arrays(S)) == (None, None)


def test_verify_crossconnection_passes(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        checks = verify_crossconnection(conn)
        assert all_passed(checks), [c for c in checks if c.passed is False]


def test_sigma_faithful(conn_z3):
    # distinct scalars induce distinct coset maps on every hom-set
    G = conn_z3.group
    dom = gamma_apply(conn_z3, 0)
    cod = gamma_apply(conn_z3, 1)
    members = [tuple(G.mul(c, g) for c in dom.canonical) for g in G.elements()]
    actions = {}
    for h in G.elements():
        m = DualMorphism("sigma", h, dom, cod)
        actions[h] = tuple(sigma_apply(G, m, x) for x in members)
    assert len(set(actions.values())) == G.order


def test_matrix_of_roundtrip(conn1):
    handles = [gamma_apply(conn1, i) for i in range(conn1.cols)]
    extracted = matrix_of(conn1.group, handles)
    assert extracted.array.tolist() == [[0, 0], [0, 1]]


def test_matrix_of_random_roundtrip(z3, make_random_matrix):
    rng = random.Random(987)
    for _ in range(20):
        P = make_random_matrix(z3, rng.randint(1, 3), rng.randint(1, 3), rng)
        extracted = matrix_of(z3, [gamma_apply(P, i) for i in range(P.cols)])
        for i in range(P.cols):
            assert right_factor(z3, column(P, i), column(extracted, i)) is not None


def test_rbg_fixture(z2):
    conn = identity_matrix(z2, 2, 2)
    pairs = linked_pairs(conn)
    assert len(pairs) == 8
    for p in pairs:
        for q in pairs:
            g = z2.mul(p.gamma.values[0], q.gamma.values[0])
            got = s_tilde_mul(conn, p, q)
            assert got == LinkedPair(
                Cone((g, g), q.gamma.vertex), Cone((g, g), p.delta.vertex)
            )


def test_rbg_single_cell_is_group(s3):
    # |I| = |Lambda| = 1 collapses the pair semigroup onto the group itself
    conn = identity_matrix(s3, 1, 1)
    pairs = linked_pairs(conn)
    assert len(pairs) == s3.order
    for p in pairs:
        for q in pairs:
            got = s_tilde_mul(conn, p, q)
            assert got.gamma.values[0] == s3.mul(p.gamma.values[0], q.gamma.values[0])
    S = ReesSemigroup(identity_matrix(s3, 1, 1))
    assert verify_phi(pair_arrays(S)) == (None, None)


def test_pair_arrays_hold_no_pair_table(s3):
    # The pairs' product table is never stored: of every array that
    # PairArrays holds, its U cones included, exactly two have n^2 entries,
    # the U tables, held as the pairs read them, and every other one O(n)
    # entries, at most one tuple or one position per pair and vertex.
    S = ReesSemigroup(SandwichMatrix(s3, [[0, 3, 1], [2, 5, 4]]))
    linked = pair_arrays(S)
    n, width = S.size, max(S.n_i, S.n_lambda)

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, tuple):
            for item in x:
                yield from arrays(item)
        elif isinstance(x, (connections.UCones, kernel.ConeClasses)):
            yield from arrays(tuple(vars(x).values()))

    held = list(arrays(tuple(vars(linked).values())))
    big = [a for a in held if a.size >= n * n]
    assert len(big) == 2
    assert big[0] is linked.u_gamma.table and big[1] is linked.u_delta.table
    assert linked.u_gamma.table.shape == linked.u_delta.table.shape == (n, n)
    assert all(a.size <= (n + 1) * width for a in held if a.size < n * n)
    assert len(held) > 2


def _induced_maps_by_member(im):
    """`connections._induced_maps` member by member: with o the tuple of
    object i1, an image (h, dom, cod) induces a map when dom * (o[0] * x)
    is o * x for every x, and the map is its row of outputs
    cod * (h * (o[0] * x))."""
    M, canonical = im.M.tolist(), im.canonical.tolist()
    n, counts = len(im.objects), []
    for i1, i2 in product(range(n), repeat=2):
        members = [[M[c][x] for c in im.objects[i1].tolist()] for x in range(len(M))]
        maps = set()
        for h, dom, cod in zip(*(x[i1, i2].tolist() for x in (im.h, im.dom, im.cod))):
            if all([M[b][m[0]] for b in canonical[dom]] == m for m in members):
                maps.add(tuple(tuple(M[c][M[h][m[0]]] for c in canonical[cod]) for m in members))
        counts.append(len(maps))
    return counts


def _images(G, h, dom, cod, canonical, objects):
    return connections.Images(*map(np.array, (h, dom, cod, canonical)), G.array, np.array(objects))


@pytest.mark.parametrize(
    "h, dom, cod, canonical, objects, maps",
    [
        # ids 0 and 1 share a tuple: images 0 and 1 induce one map
        ([0, 0, 1], [0, 0, 0], [0, 1, 0], [[0, 1], [0, 1]], [[0, 1]], 2),
        # equal h, different codomain tuples: two maps
        ([0, 0, 0], [0, 0, 0], [0, 1, 0], [[0, 1], [0, 2]], [[0, 1]], 2),
        # coordinate 0 of the object is not the identity: (0, 1) * 1 is the object
        ([0, 1, 2], [0, 0, 0], [0, 0, 0], [[0, 1]], [[1, 2]], 3),
        # ... and (0, 1) * 1 is not (1, 1): no image is defined on the coset
        ([0, 1, 2], [0, 0, 0], [0, 0, 0], [[0, 1]], [[1, 1]], 0),
    ],
)
def test_induced_maps_are_counted_by_key(z3, h, dom, cod, canonical, objects, maps):
    # one object, so one hom-set (0, 0) over Z3
    im = _images(z3, [[h]], [[dom]], [[cod]], canonical, objects)
    assert connections._induced_maps(im).tolist() == _induced_maps_by_member(im) == [maps]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("cyclic", 2), ("cyclic", 3), ("symmetric", 3)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 7, kernel.BLOCK]),
    st.data(),
)
def test_induced_maps_match_a_per_member_loop(family, n, k, block, data):
    # Arbitrary images over n objects of k coordinates.  The canonical
    # tuples hold each object's o * o[0]^-1, which an image needs as its
    # domain to be defined on o's coset, beside arbitrary tuples, and ids
    # may share a tuple; the objects' coordinate 0 is arbitrary.  Small
    # blocks split the hom-sets into several blocks, the last one short.
    G = builtin(*family)
    tuples = st.lists(st.integers(0, G.order - 1), min_size=k, max_size=k)
    objects = np.array(data.draw(st.lists(tuples, min_size=n, max_size=n)))
    needed = G.array[objects, G.inverse[objects[:, :1]]].tolist()
    canonical = data.draw(st.permutations(needed + data.draw(st.lists(tuples, max_size=3))))
    size = n * n * G.order

    def images(top):
        values = data.draw(st.lists(st.integers(0, top - 1), min_size=size, max_size=size))
        return np.reshape(values, (n, n, G.order))

    h, dom, cod = images(G.order), images(len(canonical)), images(len(canonical))
    im = _images(G, h, dom, cod, canonical, objects)
    with mock.patch.object(kernel, "BLOCK", block):
        maps = connections._induced_maps(im).tolist()
    assert maps == _induced_maps_by_member(im)
