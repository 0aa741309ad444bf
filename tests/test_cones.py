from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scalar_reference import (
    act,
    coset_normalize,
    enumerate_TL,
    from_table,
    green_cones,
    is_idempotent_cone,
    mul_L,
    principal_pair,
)

from crossconn import (
    Cone,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cone_table,
    cones as batch,
    green_via_ideals,
    identity_matrix,
    injectivity_criterion,
    kernel,
)
from crossconn.connections import as_cones
from crossconn.errors import IndexOutOfRange, ParseError, SizeGuardExceeded
from crossconn.oracle import canonical_partition


def test_act_broadcast(z2):
    assert act(z2, 1, (0, 1)) == (1, 1)
    assert act(z2, 0, (0, 1)) == (0, 0)


def test_act_fixes_constant_tuples(z3):
    for g in z3.elements():
        for k in range(3):
            assert act(z3, k, (g, g, g)) == (g, g, g)


def test_act_out_of_range(z2):
    with pytest.raises(IndexOutOfRange):
        act(z2, 2, (0, 1))


def test_action_law_exhaustive(z3):
    # k*(l*v) == (kl)*v == l*v for the right-zero object semigroup
    for values in product(z3.elements(), repeat=2):
        for k in range(2):
            for l in range(2):
                assert act(z3, k, act(z3, l, values)) == act(z3, l, values)


def test_action_distributes_over_pointwise_product(z3):
    for left in product(z3.elements(), repeat=2):
        for right in product(z3.elements(), repeat=2):
            both = tuple(z3.mul(a, b) for a, b in zip(left, right))
            for k in range(2):
                acted = tuple(
                    z3.mul(a, b) for a, b in zip(act(z3, k, left), act(z3, k, right))
                )
                assert act(z3, k, both) == acted


def test_mul_L_fixture(z2):
    assert mul_L(z2, Cone((0, 1), 0), Cone((1, 1), 1)) == Cone((1, 0), 1)


def test_mul_L_right_identity_like(z2):
    gamma = Cone((1, 0), 1)
    assert mul_L(z2, gamma, Cone((0, 0), 1)) == gamma


def test_mul_L_associative_exhaustive(z2):
    cones = enumerate_TL(z2, 2)
    assert len(cones) == 8
    for a, b, c in product(cones, repeat=3):
        assert mul_L(z2, mul_L(z2, a, b), c) == mul_L(z2, a, mul_L(z2, b, c))


def test_mul_R_fixture(z2):
    assert mul_L(z2.opposite, Cone((1, 0), 0), Cone((0, 1), 1)) == Cone((1, 0), 1)


def test_mul_R_right_identity_like(z2):
    delta = Cone((1, 0), 1)
    assert mul_L(z2.opposite, delta, Cone((0, 0), 1)) == delta


def test_mul_R_associative_exhaustive(z3):
    cones, op = enumerate_TL(z3, 2), z3.opposite
    for a, b, c in product(cones, repeat=3):
        assert mul_L(op, mul_L(op, a, b), c) == mul_L(op, a, mul_L(op, b, c))


def test_broadcast_side_matters_nonabelian(s3):
    # with a noncommutative group the two broadcast sides must differ somewhere
    cones = enumerate_TL(s3, 2)
    witness = any(
        mul_L(s3, c1, c2) != mul_L(s3.opposite, c1, c2) for c1 in cones for c2 in cones
    )
    assert witness


def test_semidirect_product_law(z2):
    cones = enumerate_TL(z2, 2)
    for c1 in cones:
        for c2 in cones:
            expected = Cone(
                tuple(z2.mul(a, b) for a, b in zip(c1.values, act(z2, c1.vertex, c2.values))),
                c2.vertex,
            )
            assert mul_L(z2, c1, c2) == expected


def test_principal_pair_fixture(s1):
    rho, lam = principal_pair(s1, ReesElement(1, 1, 0))
    assert rho == Cone((1, 0), 0)
    assert lam == Cone((1, 1), 1)


def test_principal_pair_identity_matrix(z3):
    S = ReesSemigroup(identity_matrix(z3, 2, 2))
    rho, lam = principal_pair(S, ReesElement(0, 1, 0))
    assert rho == Cone((0, 0), 0)
    assert lam == Cone((0, 0), 1)


def test_principal_homomorphism(s1, z3):
    for S in (s1, ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]]))):
        G = S.group
        for a in S.elements():
            for b in S.elements():
                rho_a, lam_a = principal_pair(S, a)
                rho_b, lam_b = principal_pair(S, b)
                rho_ab, lam_ab = principal_pair(S, S.mul(a, b))
                assert mul_L(G, rho_a, rho_b) == rho_ab
                assert mul_L(G.opposite, lam_b, lam_a) == lam_ab


def test_principal_image_regular_subsemigroup(s1):
    G = s1.group
    image = {principal_pair(s1, a)[0] for a in s1.elements()}
    for c1 in image:
        for c2 in image:
            assert mul_L(G, c1, c2) in image
    for c in image:
        assert any(mul_L(G, mul_L(G, c, d), c) == c for d in image)


def test_injectivity_criterion_fixture(p1):
    assert injectivity_criterion(p1) is None


def test_injectivity_criterion_constant_matrix(z2):
    assert injectivity_criterion(identity_matrix(z2, 2, 2)) == (0, 0, 1)


def test_injectivity_criterion_single_column(z2):
    assert injectivity_criterion(SandwichMatrix(z2, [[0], [1]])) is None


def test_injectivity_equivalence_all_z2_matrices(z2):
    for bits in product(range(2), repeat=4):
        P = SandwichMatrix(z2, [[bits[0], bits[1]], [bits[2], bits[3]]])
        S = ReesSemigroup(P)
        image = {principal_pair(S, a)[0] for a in S.elements()}
        assert (injectivity_criterion(P) is None) == (len(image) == S.size)


def test_green_cones_L(z2):
    assert green_cones(z2, "L", Cone((0, 1), 0), Cone((1, 0), 0))
    assert not green_cones(z2, "L", Cone((0, 1), 0), Cone((0, 1), 1))


def test_green_cones_R_coset(z2):
    # (0,1)*G = {(0,1),(1,0)} meets (1,0)*G, vertices irrelevant
    assert green_cones(z2, "R", Cone((0, 1), 0), Cone((1, 0), 1))
    assert not green_cones(z2, "R", Cone((0, 0), 0), Cone((0, 1), 0))
    with pytest.raises(ParseError):
        green_cones(z2, "H", Cone((0, 1), 0), Cone((1, 0), 1))


def test_same_components_not_necessarily_R_related(z2):
    # every cone has all components invertible, yet these two lie in
    # different tuple cosets
    assert not green_cones(z2, "R", Cone((0, 0), 0), Cone((0, 1), 0))


def test_green_cones_oracle_agreement(z2, z3):
    for G, n in ((z2, 2), (z3, 2)):
        cones = enumerate_TL(G, n)
        T = from_table(cone_table(G, batch.enumerate_TL(G, n)))
        by_vertex = {}
        by_coset = {}
        for k, c in enumerate(cones):
            by_vertex.setdefault(c.vertex, []).append(k)
            by_coset.setdefault(coset_normalize(G, "left", c.values), []).append(k)
        assert canonical_partition(by_vertex.values()) == green_via_ideals(T)["L"]
        assert canonical_partition(by_coset.values()) == green_via_ideals(T)["R"]


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2), st.integers(0, 2))
def test_coset_normalize_orbit_invariance(values, g):
    z3 = builtin("cyclic", 3)
    values = tuple(values)
    scaled = tuple(z3.mul(v, g) for v in values)
    assert coset_normalize(z3, "left", values) == coset_normalize(z3, "left", scaled)
    scaled_left = tuple(z3.mul(g, v) for v in values)
    assert coset_normalize(z3, "right", values) == coset_normalize(z3, "right", scaled_left)


def test_coset_normalize_examples(z2):
    assert coset_normalize(z2, "left", (1, 0)).canonical == (0, 1)
    assert coset_normalize(z2, "left", (1, 1)).canonical == (0, 0)
    assert coset_normalize(z2, "right", (1, 0)).canonical == (0, 1)
    with pytest.raises(ParseError):
        coset_normalize(z2, "middle", (0, 1))


def test_coset_normalize_first_coordinate_identity(z3):
    for values in product(z3.elements(), repeat=2):
        for side in ("left", "right"):
            handle = coset_normalize(z3, side, values)
            assert handle.canonical[0] == z3.identity


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_green_R_ignores_vertex(a, b, vertex):
    z2 = builtin("cyclic", 2)
    c1 = Cone((a, b), 0)
    c2 = Cone((a, b), vertex)
    assert green_cones(z2, "R", c1, c2)


def test_is_idempotent_examples(z2):
    assert is_idempotent_cone(z2, Cone((0, 1), 0))
    assert not is_idempotent_cone(z2, Cone((1, 1), 0))
    for vertex in range(2):
        assert is_idempotent_cone(z2, Cone((0, 0), vertex))


def test_idempotent_count_and_squaring(z2):
    cones = enumerate_TL(z2, 2)
    idem = [c for c in cones if is_idempotent_cone(z2, c)]
    assert len(idem) == 4  # |G|^(|L|-1) * |L|
    for c in cones:
        assert is_idempotent_cone(z2, c) == (mul_L(z2, c, c) == c)


def test_enumerate_counts(z2, z3):
    assert len(batch.enumerate_TL(z2, 2)[1]) == 8
    assert len(batch.enumerate_TL(z3, 2)[1]) == 18
    assert len(batch.enumerate_TL(z3, 3)[1]) == 81


def test_enumerate_lexicographic(z2, z3, s3):
    cones = as_cones(batch.enumerate_TL(z2, 2))
    keys = [(c.values, c.vertex) for c in cones]
    assert keys == sorted(keys)
    assert cones[0] == Cone((0, 0), 0)
    for G, n in ((z2, 1), (z3, 3), (s3, 2)):
        assert as_cones(batch.enumerate_TL(G, n)) == enumerate_TL(G, n)


def test_enumerate_bound(z2, monkeypatch):
    monkeypatch.setattr(batch, "DEFAULT_CONE_BOUND", 7)
    with pytest.raises(SizeGuardExceeded):
        batch.enumerate_TL(z2, 2)
    with pytest.raises(IndexOutOfRange):
        batch.enumerate_TL(z2, 0)


def test_batch_act_matches_the_scalar_action(z3, s3):
    # every object on every tuple, one object per row and all tuples at once
    for G, n in ((z3, 3), (s3, 2)):
        tuples = np.array(list(product(G.elements(), repeat=n)))
        got = batch.act(np.arange(n)[:, None], tuples)
        assert got.tolist() == [[list(act(G, k, tuple(t))) for t in tuples.tolist()] for k in range(n)]


def test_batch_idempotent_closed_form_matches_the_scalar_one(z3, s3):
    for G, n in ((z3, 3), (s3, 2)):
        tl = batch.enumerate_TL(G, n)
        expected = [is_idempotent_cone(G, c) for c in as_cones(tl)]
        assert batch.is_idempotent_cone(G, tl).tolist() == expected


@pytest.mark.parametrize("side", ["left", "right"])
def test_canonical_matches_coset_normalize(s3, side):
    # the right coset's representative is the left one's over the opposite group
    M = s3.array if side == "left" else s3.array.T
    tuples = np.array(list(product(s3.elements(), repeat=3)))
    got = kernel.canonical(M, s3.inverse, tuples)
    assert [tuple(t) for t in got.tolist()] == [
        coset_normalize(s3, side, t).canonical for t in tuples.tolist()
    ]


def test_cone_table_both_sides(z2):
    cones = enumerate_TL(z2, 2)
    index = {c: k for k, c in enumerate(cones)}
    table = cone_table(z2.opposite, batch.enumerate_TL(z2, 2))
    for c1 in cones:
        for c2 in cones:
            assert table[index[c1]][index[c2]] == index[mul_L(z2.opposite, c1, c2)]
    from_table(table)  # the opposite side is associative too
