import random
from itertools import product

import pytest
from scalar_reference import (
    ElementNotInCell,
    bifunctor_gamma,
    chi,
    is_linked,
    linked_pairs,
    phi,
    principal_pair,
    rbg,
    s_tilde_mul,
    u_delta,
    u_gamma,
)

from crossconn import (
    Cone,
    CosetHandle,
    CrossConnection,
    DualMorphism,
    LinkedPair,
    Morphism,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    compose_duals,
    delta_apply,
    gamma_apply,
    identity_matrix,
    left_category,
    matrix_of,
    mul_L,
    pair_arrays,
    right_category,
    sigma_apply,
    verify_crossconnection,
    verify_phi,
)
from crossconn.checks import all_passed
from crossconn.errors import NotComposable, NotInDomainCoset


@pytest.fixture(scope="session")
def conn1(p1):
    return CrossConnection(p1)


@pytest.fixture(scope="session")
def conn_z3(z3):
    return CrossConnection(SandwichMatrix(z3, [[0, 1], [2, 0]]))


@pytest.fixture(scope="session")
def conn_s3(s3):
    return CrossConnection(SandwichMatrix(s3, [[0, 3], [1, 0]]))


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
        rcat = right_category(G, conn.n_i)
        for i1, i2, i3 in product(range(conn.n_i), repeat=3):
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
        lcat = left_category(G, conn.n_lambda)
        for l1, l2, l3 in product(range(conn.n_lambda), repeat=3):
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
    for lam in range(conn1.n_lambda):
        for i in range(conn1.n_i):
            rho = Morphism(lam, lam, G.identity)
            kappa = Morphism(i, i, G.identity)
            for g in G.elements():
                cone = Cone(tuple(G.mul(p, g) for p in conn1.matrix.column(i)), lam)
                assert bifunctor_gamma(conn1, rho, kappa, cone) == cone
                dual = Cone(tuple(G.mul(g, p) for p in conn1.matrix.row(lam)), i)
                assert bifunctor_gamma(conn1.opposite, kappa, rho, dual) == dual


def test_bifunctor_evaluation_orders_agree(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for l1, l2, i1, i2 in product(
            range(conn.n_lambda), range(conn.n_lambda), range(conn.n_i), range(conn.n_i)
        ):
            for g1, g2 in product(G.elements(), repeat=2):
                rho = Morphism(l1, l2, g2)
                kappa = Morphism(i1, i2, g1)
                id_rho_1 = Morphism(l1, l1, G.identity)
                id_rho_2 = Morphism(l2, l2, G.identity)
                id_kappa_1 = Morphism(i1, i1, G.identity)
                id_kappa_2 = Morphism(i2, i2, G.identity)
                for g in G.elements():
                    cone = Cone(tuple(G.mul(p, g) for p in conn.matrix.column(i1)), l1)
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
    identity_conn = CrossConnection(identity_matrix(z2, 2, 2))
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
    for lam in range(conn_z3.n_lambda):
        for i in range(conn_z3.n_i):
            for g in G.elements():
                gamma = Cone(tuple(G.mul(p, g) for p in conn_z3.matrix.column(i)), lam)
                delta = chi(conn_z3, gamma, i)
                assert delta == Cone(
                    tuple(G.mul(g, p) for p in conn_z3.matrix.row(lam)), i
                )
                assert chi(conn_z3.opposite, delta, lam) == gamma


def test_chi_cell_bijection_cardinality(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for lam in range(conn.n_lambda):
            for i in range(conn.n_i):
                cell = {
                    Cone(tuple(G.mul(p, g) for p in conn.matrix.column(i)), lam)
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
        chi(conn1.opposite, Cone((1, 1), 0), 1)  # (1,1) is not g*(0,1) for any g


def test_is_linked_wrong_shape(conn1):
    assert not is_linked(conn1, Cone((1, 0, 0), 0), Cone((1, 1), 1))


def test_naturality_squares(conn1, conn_z3):
    for conn in (conn1, conn_z3):
        G = conn.group
        for l1, l2, i1, i2 in product(
            range(conn.n_lambda), range(conn.n_lambda), range(conn.n_i), range(conn.n_i)
        ):
            for g1, g2 in product(G.elements(), repeat=2):
                rho = Morphism(l1, l2, g2)
                kappa = Morphism(i1, i2, g1)
                for g in G.elements():
                    cone = Cone(tuple(G.mul(p, g) for p in conn.matrix.column(i1)), l1)
                    via_gamma = chi(conn, bifunctor_gamma(conn, rho, kappa, cone), i2)
                    via_delta = bifunctor_gamma(conn.opposite, kappa, rho, chi(conn, cone, i1))
                    assert via_gamma == via_delta


def test_is_linked_fixture(conn1):
    assert is_linked(conn1, Cone((1, 0), 0), Cone((1, 1), 1))
    assert not is_linked(conn1, Cone((1, 0), 0), Cone((0, 0), 1))


def test_linked_iff_scalars_match_identity_matrix(z2):
    conn = CrossConnection(identity_matrix(z2, 2, 2))
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
    for conn in (conn1, conn_z3, conn_s3):
        G = conn.group
        P = conn.matrix
        for g1, i1, l1 in product(G.elements(), range(conn.n_i), range(conn.n_lambda)):
            p = LinkedPair(
                Cone(tuple(G.mul(v, g1) for v in P.column(i1)), l1),
                Cone(tuple(G.mul(g1, v) for v in P.row(l1)), i1),
            )
            for g2, i2, l2 in product(G.elements(), range(conn.n_i), range(conn.n_lambda)):
                q = LinkedPair(
                    Cone(tuple(G.mul(v, g2) for v in P.column(i2)), l2),
                    Cone(tuple(G.mul(g2, v) for v in P.row(l2)), i2),
                )
                h = G.mul(G.mul(g1, P.entry(l1, i2)), g2)
                expected = LinkedPair(
                    Cone(tuple(G.mul(v, h) for v in P.column(i1)), l2),
                    Cone(tuple(G.mul(h, v) for v in P.row(l2)), i1),
                )
                assert s_tilde_mul(conn, p, q) == expected


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
        report = verify_phi(S, pair_arrays(S))
        assert report.closed
        assert report.is_isomorphism, report.map_check


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
    handles = [gamma_apply(conn1, i) for i in range(conn1.n_i)]
    extracted = matrix_of(conn1.group, handles)
    assert extracted.entries == ((0, 0), (0, 1))


def test_matrix_of_random_roundtrip(z3, make_random_matrix):
    from crossconn.connections import _right_factor

    rng = random.Random(987)
    for _ in range(20):
        P = make_random_matrix(z3, rng.randint(1, 3), rng.randint(1, 3), rng)
        conn = CrossConnection(P)
        extracted = matrix_of(z3, [gamma_apply(conn, i) for i in range(conn.n_i)])
        for i in range(conn.n_i):
            assert _right_factor(z3, P.column(i), extracted.column(i)) is not None


def test_rbg_fixture(z2):
    conn = rbg(z2, 2, 2)
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
    conn = rbg(s3, 1, 1)
    pairs = linked_pairs(conn)
    assert len(pairs) == s3.order
    for p in pairs:
        for q in pairs:
            got = s_tilde_mul(conn, p, q)
            assert got.gamma.values[0] == s3.mul(p.gamma.values[0], q.gamma.values[0])
    S = ReesSemigroup(identity_matrix(s3, 1, 1))
    assert verify_phi(S, pair_arrays(S)).is_isomorphism
