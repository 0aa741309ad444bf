from itertools import product

import pytest

from crossconn import (
    Cone,
    Morphism,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    enumerate_TL,
    identity_matrix,
    left_category,
    mul_L,
    mul_R,
    realize_category,
    right_category,
)
from crossconn.errors import NotComposable, SizeGuardExceeded


def test_compose_left_additive(z3):
    cat = left_category(z3, 2)
    m = cat.compose(Morphism(0, 1, 1), Morphism(1, 0, 2))
    assert m == Morphism(0, 0, 0)
    assert cat.is_identity(m)


def test_compose_left_identity_neutral(z3):
    cat = left_category(z3, 2)
    for g in z3.elements():
        m = Morphism(0, 1, g)
        assert cat.compose(cat.identity(0), m) == m
        assert cat.compose(m, cat.identity(1)) == m


def test_compose_left_z2(z2):
    cat = left_category(z2, 2)
    assert cat.compose(Morphism(0, 1, 1), Morphism(1, 0, 1)).g == 0


def test_not_composable(z2):
    cat = left_category(z2, 3)
    with pytest.raises(NotComposable):
        cat.compose(Morphism(0, 1, 0), Morphism(2, 0, 0))


def test_compose_left_matches_translations(s1):
    # composing right translations pointwise must match the composed morphism
    G = s1.group
    cat = left_category(G, s1.n_lambda)
    for lam1, lam2, lam3 in product(range(s1.n_lambda), repeat=3):
        for g1, g2 in product(G.elements(), repeat=2):
            m = cat.compose(Morphism(lam1, lam2, g1), Morphism(lam2, lam3, g2))
            for x in s1.elements():
                if x.lam != lam1:
                    continue
                step = ReesElement(G.mul(x.g, g1), x.i, lam2)
                step = ReesElement(G.mul(step.g, g2), step.i, lam3)
                assert step == ReesElement(G.mul(x.g, m.g), x.i, m.cod)


def test_compose_right_reverses_group_order(s3):
    cat = right_category(s3, 2)
    a, b = 1, 2
    m = cat.compose(Morphism(0, 1, a), Morphism(1, 0, b))
    assert m == Morphism(0, 0, s3.mul(b, a))


def test_compose_right_matches_left_translations(s3):
    # left translations compose as functions with the group order reversed
    S = ReesSemigroup(SandwichMatrix(s3, [[0, 3], [1, 0]]))
    cat = right_category(s3, S.n_i)
    for i1, i2, i3 in product(range(S.n_i), repeat=3):
        for g1, g2 in product(s3.elements(), repeat=2):
            m = cat.compose(Morphism(i1, i2, g1), Morphism(i2, i3, g2))
            for x in S.elements():
                if x.i != i1:
                    continue
                step = ReesElement(s3.mul(g1, x.g), i2, x.lam)
                step = ReesElement(s3.mul(g2, step.g), i3, step.lam)
                assert step == ReesElement(s3.mul(m.g, x.g), m.cod, x.lam)


def test_compose_right_abelian_order_irrelevant(z2):
    cat = right_category(z2, 2)
    assert cat.compose(Morphism(0, 1, 1), Morphism(1, 0, 1)).g == 0


def test_invert(z3):
    cat = left_category(z3, 2)
    assert cat.invert(Morphism(0, 1, 1)) == Morphism(1, 0, 2)
    e = cat.identity(0)
    assert cat.invert(e) == e


def test_groupoid_laws_exhaustive(z3, s3):
    for G, n in ((z3, 2), (s3, 2)):
        for cat in (left_category(G, n), right_category(G, n)):
            for m in cat.morphisms():
                inv = cat.invert(m)
                assert cat.is_identity(cat.compose(m, inv))
                assert cat.is_identity(cat.compose(inv, m))


def test_normal_factorization(z3):
    cat = left_category(z3, 2)
    for m in cat.morphisms():
        e, u, j = cat.normal_factorization(m)
        assert cat.is_identity(e) and cat.is_identity(j)
        assert u == m
        assert cat.compose(cat.compose(e, u), j) == m


def test_hom_sets(z3):
    for cat in (left_category(z3, 2), right_category(z3, 2)):
        for dom in cat.objects():
            for cod in cat.objects():
                assert len(cat.hom(dom, cod)) == z3.order
        assert len(list(cat.morphisms())) == 2 * 2 * 3


def test_cone_component(z2):
    cat = left_category(z2, 2)
    c = Cone((0, 1), 0)
    assert cat.cone_component(c, 1) == Morphism(1, 0, 1)
    assert cat.is_identity(cat.cone_component(c, 0))


def test_all_cone_components_invertible(z2):
    cat = left_category(z2, 2)
    for c in enumerate_TL(z2, 2):
        for obj in cat.objects():
            m = cat.cone_component(c, obj)
            assert cat.is_identity(cat.compose(m, cat.invert(m)))


def test_compose_cones_fixture(z2):
    cat = left_category(z2, 2)
    got = cat.compose_cones(Cone((0, 1), 0), Cone((1, 1), 1))
    assert got == Cone((1, 0), 1)


def test_compose_cones_identity_tuple(z2):
    cat = left_category(z2, 2)
    gamma = Cone((1, 0), 1)
    sigma = Cone((0, 0), 1)  # identity tuple, same vertex
    assert cat.compose_cones(gamma, sigma) == gamma


def test_compose_cones_matches_mul_L(z2, z3):
    for G in (z2, z3):
        cat = left_category(G, 2)
        cones = enumerate_TL(G, 2)
        for c1 in cones:
            for c2 in cones:
                assert cat.compose_cones(c1, c2) == mul_L(G, c1, c2)


def test_compose_cones_matches_mul_R(z3):
    cat = right_category(z3, 2)
    cones = enumerate_TL(z3, 2)
    for c1 in cones:
        for c2 in cones:
            assert cat.compose_cones(c1, c2) == mul_R(z3, c1, c2)


def test_compose_cones_associative(z2):
    cat = left_category(z2, 2)
    cones = enumerate_TL(z2, 2)
    for a, b, c in product(cones, repeat=3):
        assert cat.compose_cones(cat.compose_cones(a, b), c) == cat.compose_cones(
            a, cat.compose_cones(b, c)
        )


def test_realize_left_fixture(s1):
    rep = realize_category(s1, "left")
    assert rep.matched, rep.mismatches
    assert set(rep.hom_sizes.values()) == {2}
    assert len(rep.hom_sizes) == 4


def test_realize_right_fixture(s1):
    rep = realize_category(s1, "right")
    assert rep.matched, rep.mismatches
    assert set(rep.hom_sizes.values()) == {2}


def test_realize_single_object(z2):
    S = ReesSemigroup(SandwichMatrix(z2, [[0, 1]]))  # one lam, two i
    rep = realize_category(S, "left")
    assert rep.matched
    assert rep.hom_sizes == {(0, 0): 2}


def test_realize_trivial_group():
    triv = builtin("cyclic", 1)
    S = ReesSemigroup(identity_matrix(triv, 2, 2))
    for side in ("left", "right"):
        rep = realize_category(S, side)
        assert rep.matched
        assert set(rep.hom_sizes.values()) == {1}


def test_realize_size_guard(s1):
    with pytest.raises(SizeGuardExceeded):
        realize_category(s1, "left", size_guard=4)


def test_realize_larger_fixtures(z3, s3):
    for matrix in (SandwichMatrix(z3, [[0, 1], [2, 0]]), SandwichMatrix(s3, [[0, 3], [1, 0]])):
        S = ReesSemigroup(matrix)
        for side in ("left", "right"):
            rep = realize_category(S, side)
            assert rep.matched, rep.mismatches
            assert set(rep.hom_sizes.values()) == {S.group.order}
