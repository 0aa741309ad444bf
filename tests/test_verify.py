import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from crossconn import (
    Cone,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cones,
    identity_matrix,
    load_cayley_file,
    load_matrix_file,
    verify_phi,
)
from crossconn.checks import all_passed, failures
from crossconn.verify import cone_suite, crossconn_suite, full_suite, rbg_suite

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


def test_wrong_side_mul_L_fails_both_principal_checks(monkeypatch):
    # Negative control: the dual check runs mul_L over the opposite group,
    # so a scalar on the wrong side of mul_L must break both checks.
    def wrong_side(group, c1, c2):
        g_k = c2.values[c1.vertex]
        return Cone(tuple(group.mul(g_k, v) for v in c1.values), c2.vertex)

    monkeypatch.setattr(cones, "mul_L", wrong_side)
    G = load_cayley_file(FIXTURES / "s3_cayley.csv")
    S = ReesSemigroup(load_matrix_file(FIXTURES / "s3_P.csv", G))
    by_name = {c.name: c for c in cone_suite(S)}
    for name in ("cones.principal_homomorphism", "cones.dual_antihomomorphism"):
        check = by_name[name]
        assert check.passed is False, name
        named = re.findall(r"ReesElement\(g=(\d+), i=(\d+), lam=(\d+)\)", check.witness)
        assert len(named) == 2, check.witness
        for g, i, lam in named:
            S._validate(ReesElement(int(g), int(i), int(lam)))


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
