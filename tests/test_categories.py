from itertools import product

import numpy as np
import pytest
from scalar_reference import compose_cones, cone_component, enumerate_TL, mul_L

from crossconn import (
    Cone,
    Morphism,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    identity_matrix,
    left_category,
    realize_category,
    right_category,
)
from crossconn.errors import IndexOutOfRange, NotComposable, SizeGuardExceeded


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
    # all morphisms at once, and one at a time
    for G, n in ((z3, 2), (s3, 2)):
        for cat in (left_category(G, n), right_category(G, n)):
            m = cat.morphisms()
            inv = cat.invert(m)
            assert cat.is_identity(cat.compose(m, inv)).all()
            assert cat.is_identity(cat.compose(inv, m)).all()
            for one in _each(m):
                inv = cat.invert(one)
                assert cat.is_identity(cat.compose(one, inv))
                assert cat.is_identity(cat.compose(inv, one))


def _each(m: Morphism) -> list[Morphism]:
    """The morphisms of a batch one by one, as Python ints."""
    return [Morphism(*x) for x in zip(m.dom.tolist(), m.cod.tolist(), m.g.tolist())]


def test_batch_methods_agree_with_scalar_ones(s3):
    # compose, invert and is_identity on a batch give, morphism by morphism,
    # what they give on each morphism alone, with Python ints
    for cat in (left_category(s3, 2), right_category(s3, 2)):
        m = cat.morphisms()
        first = Morphism(m.cod, m.cod, np.roll(m.g, 1))
        batch = cat.compose(m, first)
        assert _each(batch) == [cat.compose(a, b) for a, b in zip(_each(m), _each(first))]
        assert _each(cat.invert(m)) == [cat.invert(a) for a in _each(m)]
        assert cat.is_identity(m).tolist() == [cat.is_identity(a) for a in _each(m)]
        assert all(type(x) is int for x in cat.compose(*_each(m)[:2])._asdict().values())
        with pytest.raises(NotComposable):
            cat.compose(m, m)
        # an element outside the group raises, on a batch as on one morphism
        for g in (-1, s3.order, np.array([0, -1])):
            with pytest.raises(IndexOutOfRange):
                cat.compose(Morphism(0, 0, g), Morphism(0, 0, 0))
            with pytest.raises(IndexOutOfRange):
                cat.invert(Morphism(0, 0, g))


def test_normal_factorization(z3):
    cat = left_category(z3, 2)
    for m in _each(cat.morphisms()):
        e, u, j = cat.normal_factorization(m)
        assert cat.is_identity(e) and cat.is_identity(j)
        assert u == m
        assert cat.compose(cat.compose(e, u), j) == m


def test_hom_sets(z3):
    # every hom-set a copy of the group, in (dom, cod, g) order
    for cat in (left_category(z3, 2), right_category(z3, 2)):
        morphisms = _each(cat.morphisms())
        assert len(morphisms) == 2 * 2 * 3
        assert morphisms == [
            Morphism(dom, cod, g)
            for dom, cod in product(cat.objects(), repeat=2)
            for g in z3.elements()
        ]


def test_cone_component(z2):
    cat = left_category(z2, 2)
    c = Cone((0, 1), 0)
    assert cone_component(cat, c, 1) == Morphism(1, 0, 1)
    assert cat.is_identity(cone_component(cat, c, 0))


def test_all_cone_components_invertible(z2):
    cat = left_category(z2, 2)
    for c in enumerate_TL(z2, 2):
        for obj in cat.objects():
            m = cone_component(cat, c, obj)
            assert cat.is_identity(cat.compose(m, cat.invert(m)))


def test_compose_cones_fixture(z2):
    cat = left_category(z2, 2)
    got = compose_cones(cat, Cone((0, 1), 0), Cone((1, 1), 1))
    assert got == Cone((1, 0), 1)


def test_compose_cones_identity_tuple(z2):
    cat = left_category(z2, 2)
    gamma = Cone((1, 0), 1)
    sigma = Cone((0, 0), 1)  # identity tuple, same vertex
    assert compose_cones(cat, gamma, sigma) == gamma


def test_compose_cones_matches_mul_L(z2, z3):
    for G in (z2, z3):
        cat = left_category(G, 2)
        cones = enumerate_TL(G, 2)
        for c1 in cones:
            for c2 in cones:
                assert compose_cones(cat, c1, c2) == mul_L(G, c1, c2)


def test_compose_cones_matches_mul_R(z3):
    cat = right_category(z3, 2)
    cones = enumerate_TL(z3, 2)
    for c1 in cones:
        for c2 in cones:
            assert compose_cones(cat, c1, c2) == mul_L(z3.opposite, c1, c2)


def test_compose_cones_associative(z2):
    cat = left_category(z2, 2)
    cones = enumerate_TL(z2, 2)
    for a, b, c in product(cones, repeat=3):
        assert compose_cones(cat, compose_cones(cat, a, b), c) == compose_cones(
            cat, a, compose_cones(cat, b, c)
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
