import json
import re
from pathlib import Path

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings, strategies as st

from crossconn import (
    Cone,
    CrossConnection,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cones,
    connections,
    identity_matrix,
    kernel,
    load_cayley_file,
    load_matrix_file,
    verify_phi,
)
from crossconn.checks import all_passed, failures
from crossconn.cli import main
from crossconn.verify import (
    category_suite,
    cone_suite,
    crossconn_suite,
    full_suite,
    rbg_suite,
    rees_suite,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _assert_clean(checks):
    assert all_passed(checks), [(c.name, c.witness) for c in failures(checks)]


def test_full_suite_edge_shapes(z2, z3):
    fixtures = [
        ReesSemigroup(identity_matrix(z2, 1, 1)),      # S is the group itself
        ReesSemigroup(SandwichMatrix(z2, [[0, 1, 1]])),  # single lam
        ReesSemigroup(SandwichMatrix(z3, [[1], [2], [0]])),  # single i
    ]
    for S in fixtures:
        _assert_clean(full_suite(S))


def test_cone_suite_skips_above_triple_guard(klein):
    # |TL| = 4^4 * 4 = 1024, so the cone-table scans must report skipped
    S = ReesSemigroup(identity_matrix(klein, 4, 4))
    checks = cone_suite(S)
    by_name = {c.name: c for c in checks}
    assert by_name["cones.tl_associative"].passed is None
    assert by_name["cones.action_law"].passed is None
    # skipped checks do not fail the suite, and the rest still ran
    assert all_passed(checks)
    assert by_name["cones.principal_homomorphism"].passed is True


def test_crossconn_suite_on_nonsquare(z3):
    S = ReesSemigroup(SandwichMatrix(z3, [[0, 1, 2], [2, 2, 0]]))
    _assert_clean(crossconn_suite(S))


def test_rbg_suite_degenerate(s3):
    _assert_clean(rbg_suite(ReesSemigroup(identity_matrix(s3, 1, 1))))
    _assert_clean(rbg_suite(ReesSemigroup(identity_matrix(s3, 2, 1))))


def _s3_fixture():
    G = load_cayley_file(FIXTURES / "s3_cayley.csv")
    return ReesSemigroup(load_matrix_file(FIXTURES / "s3_P.csv", G))


def test_wrong_side_mul_L_fails_both_principal_checks(monkeypatch):
    # Negative control: both principal checks run the kernel's mul_L, the
    # dual one over the opposite group, so a scalar on the wrong side of
    # the product must break both, with the witnesses the loops give.
    def wrong_side(M, c1, c2):
        (v1, x1), (v2, x2) = c1, c2
        scale = np.take_along_axis(np.atleast_2d(v2), np.reshape(x1, (-1, 1)), axis=1)
        values = M[scale, v1]
        return values, np.broadcast_to(x2, values.shape[:-1])

    def scalar_wrong_side(group, c1, c2):
        g_k = c2.values[c1.vertex]
        return Cone(tuple(group.mul(g_k, v) for v in c1.values), c2.vertex)

    S = _s3_fixture()
    monkeypatch.setattr(kernel, "mul_L", wrong_side)
    by_name = {c.name: c for c in cone_suite(S)}
    monkeypatch.setattr(cones, "mul_L", scalar_wrong_side)
    expected = scalar_reference.principal_witnesses(S)
    for name, witness in zip(
        ("cones.principal_homomorphism", "cones.dual_antihomomorphism"), expected
    ):
        check = by_name[name]
        assert check.passed is False, name
        assert check.witness == witness
        named = re.findall(r"ReesElement\(g=(\d+), i=(\d+), lam=(\d+)\)", check.witness)
        assert len(named) == 2, check.witness
        for g, i, lam in named:
            S._validate(ReesElement(int(g), int(i), int(lam)))


def test_missing_linked_pair_fails_closure(monkeypatch):
    # Negative control: with one linked pair dropped, some product of two
    # pairs is no pair, and both scans name the same first one.
    original = connections.linked_pairs
    monkeypatch.setattr(
        connections, "linked_pairs", lambda conn, size_guard=512: original(conn, size_guard)[:-1]
    )
    S = _s3_fixture()
    check = {c.name: c for c in crossconn_suite(S)}["crossconn.s_tilde_closed"]
    _, witness = scalar_reference.pair_table(S)
    assert check.passed is False
    assert witness is not None and check.witness == witness


def test_swapped_phi_fails_isomorphism(monkeypatch):
    # Negative control: phi with the images of two elements swapped is a
    # bijection onto the pairs but not a homomorphism.
    original = connections.phi
    swap = {ReesElement(0, 0, 0): ReesElement(1, 0, 0), ReesElement(1, 0, 0): ReesElement(0, 0, 0)}
    monkeypatch.setattr(connections, "phi", lambda S, a: original(S, swap.get(a, a)))
    S = _s3_fixture()
    check = {c.name: c for c in crossconn_suite(S)}["crossconn.phi_isomorphism"]
    reference = scalar_reference.verify_phi(S)
    assert reference.closed and not reference.map_check.is_homomorphism
    assert check.passed is False
    assert check.witness == reference.map_check.witness


class _KeepsVertexOffRowZero(ReesSemigroup):
    """A faulty product: (a, i, lam)(b, j, mu) = (a p[lam][j] b, i, lam) when
    i != 0, the true product otherwise; its index table is made from it."""

    def mul(self, x, y):
        z = super().mul(x, y)
        return ReesElement(z.g, z.i, x.lam) if x.i != 0 else z

    def index_table(self):
        elements = list(self.elements())
        return [[self.index(self.mul(x, y)) for y in elements] for x in elements]


def test_faulty_translations_fail_left_realization():
    # Negative control: translations by the faulty product send part of
    # the domain ideal outside the codomain ideal and realize the wrong
    # hom-sets.
    S = _KeepsVertexOffRowZero(_s3_fixture().matrix)
    check = {c.name: c for c in category_suite(S)}["category.left_realization"]
    reference = scalar_reference.realize_category(S, "left")
    assert check.passed is False
    assert any("leaves the ideal" in m for m in reference.mismatches)
    assert check.witness == "; ".join(reference.mismatches)


def test_faulty_closed_form_fails_principal_left_ideal(monkeypatch):
    # Negative control: a closed form that drops one member of S^1 x for
    # every x in the last L-class.
    original = ReesSemigroup.principal_left_ideal

    def short(self, x):
        ideal = original(self, x)
        return ideal - {ReesElement(1, 0, x.lam)} if x.lam == self.n_lambda - 1 else ideal

    monkeypatch.setattr(ReesSemigroup, "principal_left_ideal", short)
    S = _s3_fixture()
    check = {c.name: c for c in rees_suite(S)}["rees.principal_left_ideal"]
    witness = scalar_reference.principal_left_ideal_witness(S)
    assert check.passed is False
    assert witness == str(ReesElement(0, 0, S.n_lambda - 1))
    assert check.witness == witness


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_phi_isomorphism_on_random_matrices(order, n_lambda, n_i, data):
    G = builtin("cyclic", order)
    entries = [
        [data.draw(st.integers(0, order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    assert verify_phi(S).is_isomorphism


def _crossconn_checks(S):
    return {c.name: c for c in crossconn_suite(S)}


def _reference_checks(S):
    return {c.name: c for c in scalar_reference.crossconnection_checks(CrossConnection(S.matrix))}


@pytest.mark.parametrize(
    "functor, name",
    [("gamma_apply", "crossconn.functor_gamma"), ("delta_apply", "crossconn.functor_delta")],
)
def test_misscaled_image_fails_its_functor_law(functor, name):
    # Negative control: h -> h*h keeps identities but not composites in S3.
    S = _s3_fixture()
    with scalar_reference.faulty_images(functor, scalar_reference.misscaled):
        check, reference = _crossconn_checks(S)[name], _reference_checks(S)[name]
    assert check.passed is False
    assert check.witness.startswith("composite of Morphism(")
    assert check.witness == reference.witness


def test_collapsed_scalars_fail_faithfulness_and_restriction():
    # Negative control: two scalars of each hom-set share one image.
    S = _s3_fixture()
    with scalar_reference.faulty_images("gamma_apply", scalar_reference.collapsed):
        checks, reference = _crossconn_checks(S), _reference_checks(S)
    for name, witness in (
        ("crossconn.fully_faithful", "hom(0,0) induces 5 maps, expected 6"),
        (
            "crossconn.ideal_restriction",
            "restriction to object 0 is not a bijection on endomorphisms",
        ),
    ):
        assert checks[name].passed is False, name
        assert checks[name].witness == reference[name].witness == witness


@pytest.mark.parametrize("functor", ["gamma_apply", "delta_apply"])
def test_images_that_do_not_compose_fail_the_law_without_raising(functor, capsys):
    # An image of m1 that ends where the image of m2 does not start is a
    # failed functor law (exit 2), not a NotComposable raised out of verify.
    S = _s3_fixture()
    name = "crossconn.functor_" + functor.split("_")[0]
    with scalar_reference.faulty_images(functor, scalar_reference.endomorphic):
        check, reference = _crossconn_checks(S)[name], _reference_checks(S)[name]
        code = main(
            [
                "--group", str(FIXTURES / "s3_cayley.csv"),
                "--matrix", str(FIXTURES / "s3_P.csv"),
                "crossconn",
            ]
        )
    assert check.passed is False
    assert check.witness == reference.witness
    assert check.witness.startswith("composite of Morphism(dom=0, cod=1,")
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in report["checks"]}[name] is False


def test_image_outside_the_domain_coset_fails_faithfulness_without_raising():
    # Objects 0 and 1 trading cosets is still a functor, but no image on
    # hom(0,0) is defined on the coset of object 0: a failed check, not a
    # NotInDomainCoset raised out of verify.
    S = _s3_fixture()
    with scalar_reference.faulty_images("gamma_apply", scalar_reference.relabelled):
        checks, reference = _crossconn_checks(S), _reference_checks(S)
    assert checks["crossconn.functor_gamma"].passed is True
    check = checks["crossconn.fully_faithful"]
    assert check.passed is False
    assert check.witness == reference["crossconn.fully_faithful"].witness
    assert check.witness == "hom(0,0) induces 0 maps, expected 6"


def test_linkage_without_equal_scalars_fails_the_criterion():
    # Negative control: is_linked without its g1 == g2 test also links
    # cones of one cell that factor through different scalars.
    S = _s3_fixture()
    with scalar_reference.unscaled_linkage():
        check = _crossconn_checks(S)["crossconn.linked_criterion_agreement"]
        witness = scalar_reference.linked_criterion_witness(S)
    assert check.passed is False
    assert witness is not None and check.witness == witness
