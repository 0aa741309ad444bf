import contextlib
import gc
import json
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings, strategies as st

from crossconn import (
    ArrowCategory,
    Cone,
    FiniteGroup,
    LinkedPair,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cones,
    connections,
    identity_matrix,
    kernel,
    left_category,
    load_cayley_file,
    load_matrix_file,
    oracle,
    rees,
    right_category,
    verify,
    verify_phi,
)
from crossconn.categories import Morphism
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


def _cone_suite(S):
    return cone_suite(S, connections.pair_arrays(S))


def _crossconn_suite(S):
    return crossconn_suite(S, connections.pair_arrays(S))


def _rbg_suite(S):
    return rbg_suite(S, connections.pair_arrays(S))


def _cone_product_table(group, members):
    """`kernel.cone_product_table` of a list of cones over the group, by their
    tuple classes."""
    classes = kernel.ConeClasses(scalar_reference.cone_arrays(members))
    return kernel.cone_product_table(group.array, group.inverse, classes)


def test_full_suite_edge_shapes(z2, z3):
    fixtures = [
        ReesSemigroup(identity_matrix(z2, 1, 1)),      # S is the group itself
        ReesSemigroup(SandwichMatrix(z2, [[0, 1, 1]])),  # single lam
        ReesSemigroup(SandwichMatrix(z3, [[1], [2], [0]])),  # single i
    ]
    for S in fixtures:
        _assert_clean(full_suite(S))


def test_cone_suite_charges_each_tl_scan_its_own_cost(klein):
    # Each T_L scan is charged its own cost against verify.BUDGET.  Klein 4x4
    # has |T_L| = 4^4 * 4 = 1024 cones, and every scan of it is within the
    # budget, so all six run.  With |Lambda| = 5 (5,120 cones) the action
    # law and the idempotent closed form still run, while the cone product,
    # the semidirect law and the two checks of T_L's table are skipped with
    # their cost.
    checks = _cone_suite(ReesSemigroup(identity_matrix(klein, 4, 4)))
    _assert_clean(checks)
    assert [c.name for c in checks if c.passed is None] == []

    checks = _cone_suite(ReesSemigroup(identity_matrix(klein, 5, 2)))
    by_name = {c.name: c for c in checks}
    # 25 (k, l) rows of the 5,120 tuples' 25,600 entries, and the batch
    assert by_name["cones.action_law"] == ("cones.action_law", True, None)
    # one row per cone, of its 5 entries, and the batch
    assert by_name["cones.idempotent_closed_form"].passed is True
    skipped = {c.name: c.witness for c in checks if c.passed is None}
    assert skipped == {
        # 5,120 cones against the 25,600-entry batch, and the batch, each
        "category.cone_product_agreement": "cost 1.3e8 > budget 5e6",
        "cones.semidirect_law": "cost 1.3e8 > budget 5e6",
        # the 5,120^2 table and its scan for holes
        "cones.tl_associative": "cost 5.2e7 > budget 5e6",
        "cones.tl_green_agreement": "cost 5.2e7 > budget 5e6",
    }
    # skipped checks do not fail the suite, and the rest still ran
    assert all_passed(checks)
    assert by_name["cones.principal_homomorphism"].passed is True


GUARDED = [
    "category.cone_product_agreement",
    "cones.action_law",
    "cones.semidirect_law",
    "cones.tl_associative",
    "cones.tl_green_agreement",
    "cones.idempotent_closed_form",
    "crossconn.naturality",
    "crossconn.linked_criterion_agreement",
]


def test_the_guard_skips_its_eight_checks_before_any_scan_runs(s1, monkeypatch):
    # Under the default budget nothing on s1 is skipped.  With the budget at
    # 0 every guarded check is skipped with its cost, and T_L, the
    # naturality scan and the linkage table, which raise here, are never
    # reached.  s1 = M[Z2; 2, 2]: T_L has 8 cones of 2 entries, a 16-entry
    # batch.
    assert [c.name for c in full_suite(s1) if c.passed is None] == []

    def unreachable(*args):
        raise AssertionError("a guarded scan ran past the guard")

    monkeypatch.setattr(verify, "BUDGET", 0)
    monkeypatch.setattr(cones, "enumerate_TL", unreachable)
    monkeypatch.setattr(verify, "_naturality_witness", unreachable)
    monkeypatch.setattr(verify, "_linkage", unreachable)
    skipped = [c for c in full_suite(s1) if c.passed is None]
    costs = {
        # 8 cones against the batch, and the batch: 8 * 16 + 16
        "category.cone_product_agreement": "1.4e2",
        # 4 (k, l) rows of 16 entries, and the batch
        "cones.action_law": "48",
        "cones.semidirect_law": "1.4e2",
        # the 8 x 8 table and its scan for holes
        "cones.tl_associative": "1.3e2",
        "cones.tl_green_agreement": "1.3e2",
        # a row of 2 entries per cone, and the batch
        "cones.idempotent_closed_form": "32",
        # 8 rows (l1, l2, i1) of 2 * 2^3 * 2 entries
        "crossconn.naturality": "2.6e2",
        # U-Gamma x U-Delta, 8 cones each
        "crossconn.linked_criterion_agreement": "64",
    }
    assert skipped == [(name, None, f"cost {costs[name]} > budget 0") for name in GUARDED]


def test_trivial_group_with_65_objects_runs_every_check():
    # M[Z1; 65, 1]: T_L has 65 cones of 65 entries, within the budget, and
    # is built although a grid of one numpy axis per object could not be
    checks = full_suite(ReesSemigroup(identity_matrix(builtin("cyclic", 1), 65, 1)))
    _assert_clean(checks)
    assert [c.name for c in checks if c.passed is None] == []


def test_big_group_skips_exactly_its_five_scans_past_the_budget():
    # M[S5; 2, 2]: T_L has 120^2 * 2 = 28,800 cones.  The action law and the
    # idempotent closed form run; the cone product and the semidirect law
    # (28,800 cones against the 57,600-entry batch), the two checks of the
    # 28,800^2 table and naturality (8 rows of 2 * 120^3 * 2 entries) are
    # skipped with their cost.  Every other check passes.
    S = ReesSemigroup(_s5_2x2_generic())
    checks = full_suite(S)
    skipped = {c.name: c.witness for c in checks if c.passed is None}
    assert skipped == {
        "category.cone_product_agreement": "cost 1.7e9 > budget 5e6",
        "cones.semidirect_law": "cost 1.7e9 > budget 5e6",
        "cones.tl_associative": "cost 1.7e9 > budget 5e6",
        "cones.tl_green_agreement": "cost 1.7e9 > budget 5e6",
        "crossconn.naturality": "cost 5.5e7 > budget 5e6",
    }
    _assert_clean(checks)
    assert sum(c.passed is True for c in checks) == 30


def _s5_2x2_generic() -> SandwichMatrix:
    """M[S5; 2, 2]'s matrix [[e, e], [e, x]], x the first element other than
    e: no two rows or columns differ by a constant factor."""
    s5 = builtin("symmetric", 5)
    e = s5.identity
    x = next(g for g in s5.elements() if g != e)
    return SandwichMatrix(s5, [[e, e], [e, x]])


# The checks with no witness to name: their verdict is a boolean alone.
BOOLEAN_ONLY = {
    "rees.regular",
    *(f"rees.green_{kind}_oracle_agreement" for kind in "LRHD"),
    "cones.tl_green_agreement",
    "cones.principal_image_subsemigroup",
    "crossconn.u_subsemigroups",
    "rbg.identity_matrix",
}


def _assert_verdict_rule(checks):
    """Every check that ran and can name a witness failed exactly when it
    names one (`checks.verdict`)."""
    judged = [c for c in checks if c.passed is not None and c.name not in BOOLEAN_ONLY]
    assert judged
    for c in judged:
        assert (c.passed is False) == (c.witness is not None), c


@pytest.mark.parametrize("suite", [full_suite, _rbg_suite])
@pytest.mark.parametrize("fixture", ["s1", "identity Z2 1x2"])
def test_every_check_with_a_witness_fails_exactly_when_it_names_one(suite, fixture, s1, z2):
    S = s1 if fixture == "s1" else ReesSemigroup(identity_matrix(z2, 1, 2))
    checks = suite(S)
    _assert_verdict_rule(checks)
    if suite is full_suite:
        assert {c.name for c in checks} >= BOOLEAN_ONLY - {"rbg.identity_matrix"}


@pytest.mark.parametrize("fault", [scalar_reference.missing_pair, scalar_reference.swapped_pair_table])
def test_every_failed_crossconn_check_names_its_witness(fault):
    # Under a fault in the linked pairs some checks fail, and each of them
    # names its witness, while each check that passes names none.
    S = _s3_fixture()
    with fault():
        checks = _crossconn_suite(S)
    assert failures(checks)
    _assert_verdict_rule(checks)


def test_crossconn_suite_on_nonsquare(z3):
    S = ReesSemigroup(SandwichMatrix(z3, [[0, 1, 2], [2, 2, 0]]))
    _assert_clean(_crossconn_suite(S))


def test_rbg_suite_degenerate(s3):
    _assert_clean(_rbg_suite(ReesSemigroup(identity_matrix(s3, 1, 1))))
    _assert_clean(_rbg_suite(ReesSemigroup(identity_matrix(s3, 2, 1))))


def _s3_fixture():
    G = load_cayley_file(FIXTURES / "s3_cayley.csv")
    return ReesSemigroup(load_matrix_file(FIXTURES / "s3_P.csv", G))


def test_wrong_side_mul_L_fails_both_principal_checks(monkeypatch):
    # Negative control: both principal checks run the kernel's mul_L, the
    # dual one over the opposite group, so a scalar on the wrong side of
    # the product must break both, with the witnesses the loops give.
    def scalar_wrong_side(group, c1, c2):
        g_k = c2.values[c1.vertex]
        return Cone(tuple(group.mul(g_k, v) for v in c1.values), c2.vertex)

    S = _s3_fixture()
    monkeypatch.setattr(kernel, "mul_L", scalar_reference.left_scaled_mul_L)
    by_name = {c.name: c for c in _cone_suite(S)}
    monkeypatch.setattr(scalar_reference, "mul_L", scalar_wrong_side)
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


def test_missing_linked_pair_fails_closure():
    # Negative control: with the last linked pair replaced by a copy of the
    # first, the set of pairs misses one, some product of two pairs is no
    # pair, and both scans name the same first one.
    S = _s3_fixture()
    with scalar_reference.missing_pair():
        check = {c.name: c for c in _crossconn_suite(S)}["crossconn.s_tilde_closed"]
        _, witness = scalar_reference.pair_table(S)
    assert check.passed is False
    assert witness is not None and check.witness == witness


def test_phi_image_off_the_pairs_fails_isomorphism_without_raising(z2):
    # On M[Z2; 1, 1] the pairs with the last one a copy of the first are
    # still closed, but phi, whose images the pairs are, sends both
    # elements to one pair: a failed check, not an exception raised by the
    # map check.
    S = ReesSemigroup(identity_matrix(z2, 1, 1))
    with scalar_reference.missing_pair():
        checks = {c.name: c for c in _crossconn_suite(S) + _rbg_suite(S)}
        reference = scalar_reference.verify_phi(S)
    witness = "f(0) = f(1) = 1; element 0 of the target is never hit"
    assert checks["crossconn.s_tilde_closed"].passed is True
    assert reference == (None, witness)
    for name in ("crossconn.phi_isomorphism", "rbg.phi_isomorphism"):
        assert checks[name].passed is False, name
        assert checks[name].witness == witness


def test_swapped_phi_fails_isomorphism():
    # Negative control: phi with the images of two elements swapped is a
    # bijection onto the pairs but not a homomorphism.  The pairs are phi's
    # images, so the pairs of (0, 0, 0) and (1, 0, 0) trade places.
    S = _s3_fixture()
    k = S.index(ReesElement(1, 0, 0))

    def swap(pairs):
        pairs = list(pairs)
        pairs[0], pairs[k] = pairs[k], pairs[0]
        return pairs

    with scalar_reference.edited_pairs(swap):
        check = {c.name: c for c in _crossconn_suite(S)}["crossconn.phi_isomorphism"]
        reference = scalar_reference.verify_phi(S)
    closure, phi = reference
    assert closure is None and re.match(r"f\(\d+\*\d+\) = \d+ but ", phi)  # no homomorphism
    assert check.passed is False
    assert check.witness == phi


class _KeepsVertexOffRowZero(ReesSemigroup):
    """A faulty product: (a, i, lam)(b, j, mu) = (a p[lam][j] b, i, lam) when
    i != 0, the true product otherwise; its index table is made from it."""

    def mul(self, x, y):
        z = super().mul(x, y)
        return ReesElement(z.g, z.i, x.lam) if x.i != 0 else z

    def index_table(self):
        elements = list(self.elements())
        rows = [[self.index(self.mul(x, y)) for y in elements] for x in elements]
        return np.array(rows, dtype=np.int32)


def test_faulty_translations_fail_left_realization():
    # Negative control: translations by the faulty product send part of
    # the domain ideal outside the codomain ideal and realize the wrong
    # hom-sets.
    S = _KeepsVertexOffRowZero(_s3_fixture().matrix)
    check = {c.name: c for c in category_suite(S)}["category.left_realization"]
    reference = scalar_reference.realize_category(S, "left")
    assert check.passed is False
    assert any("leaves the ideal" in m for m in reference)
    assert check.witness == "; ".join(reference)


def test_full_suite_leaves_no_reference_cycle_through_s(s1):
    # S sits in no reference cycle, so with the cyclic collector off it and
    # its table are freed as soon as the last reference to S goes.
    S = ReesSemigroup(s1.matrix)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _assert_clean(full_suite(S))
        ref = weakref.ref(S)
        del S
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_swapped_opposite_table_fails_right_realization(s1):
    # Negative control: S's one table with the entries of row (0, 1, 0) at
    # columns (0, 1, 0) and (0, 1, 1) swapped.  The right side reads S^op's
    # products through that table and realizes a map of hom(1,1) that no
    # abstract morphism induces; the left side reads neither entry and
    # still passes.
    row, col = s1.index(ReesElement(0, 1, 0)), s1.index(ReesElement(0, 1, 1))
    table = s1.index_table()

    class Swapped(scalar_reference.CorruptedTable):
        ENTRIES = {(row, row): int(table[row, col]), (row, col): int(table[row, row])}

    checks = {c.name: c for c in category_suite(Swapped(s1.matrix))}
    assert checks["category.left_realization"].passed is True
    check = checks["category.right_realization"]
    assert check.passed is False
    assert check.witness == "hom(1,1): translation maps and abstract morphisms disagree"


def test_inverse_that_keeps_g_fails_both_groupoid_checks(z3, monkeypatch):
    # Negative control: invert keeps g, so g followed by its "inverse"
    # carries g*g, which on Z3 is no identity for g = 1.
    monkeypatch.setattr(ArrowCategory, "invert", lambda self, m: Morphism(m.cod, m.dom, m.g))
    checks = {c.name: c for c in category_suite(ReesSemigroup(identity_matrix(z3, 2, 2)))}
    for side in ("left", "right"):
        check = checks[f"category.{side}_groupoid"]
        assert check.passed is False, side
        assert check.witness == "Morphism(dom=0, cod=0, g=1) has no two-sided inverse"


@pytest.mark.parametrize(
    "method, fault",
    [
        ("invert", lambda self, m: Morphism(m.cod, m.dom, m.g)),
        (
            "normal_factorization",
            lambda self, m: (self.identity(m.dom), m, Morphism(m.cod, m.cod, m.g)),
        ),
    ],
    ids=["invert keeps g", "inclusion carries g"],
)
def test_faulty_groupoid_methods_fail_at_the_loops_first_morphism(s3, method, fault, monkeypatch):
    # Negative controls on both halves of the groupoid checks: the pass over
    # every morphism at once names the morphism the scalar loop meets first,
    # an element of order 3 for the inverse and the first non-identity for
    # an inclusion that carries g and so recomposes to g*g.
    monkeypatch.setattr(ArrowCategory, method, fault)
    checks = {c.name: c for c in category_suite(ReesSemigroup(identity_matrix(s3, 2, 3)))}
    for name, cat in (("left", left_category(s3, 2)), ("right", right_category(s3, 3))):
        check, witness = checks[f"category.{name}_groupoid"], scalar_reference.groupoid_witness(cat)
        assert check.passed is False, name
        assert witness is not None and check.witness == witness


def test_non_associative_table_fails_rees_associative():
    # Negative control: the faulty product's table is not associative. The
    # check's own scan is the only one, so the suite reports it instead of
    # raising NotAssociative while exporting the table to the oracle.
    S = _KeepsVertexOffRowZero(_s3_fixture().matrix)
    check = {c.name: c for c in rees_suite(S)}["rees.associative"]
    witness = oracle.associativity_witness(S.index_table())
    assert witness is not None
    assert check.passed is False
    assert check.witness == str(witness)


class _IrregularFirstElement(ReesSemigroup):
    """The index table with row 0 made constant at the first z != 0 with
    z*0 != 0: still closed, but 0*y*0 = z*0 is never 0."""

    def index_table(self):
        table = super().index_table()
        table[0] = next(z for z in range(1, self.size) if table[z, 0] != 0)
        return table


def test_element_without_an_inverse_fails_regular():
    S = _IrregularFirstElement(_s3_fixture().matrix)
    T = S.to_generic()
    assert not scalar_reference.is_regular(T)
    check = {c.name: c for c in rees_suite(S)}["rees.regular"]
    assert check.passed is False


class _MissingIdempotent(ReesSemigroup):
    """The idempotent formula without its last idempotent."""

    def idempotents(self):
        return super().idempotents()[:-1]


def test_missing_idempotent_fails_idempotent_formula():
    S = _MissingIdempotent(_s3_fixture().matrix)
    check = {c.name: c for c in rees_suite(S)}["rees.idempotent_formula"]
    n = S.n_i * S.n_lambda
    assert check.passed is False
    assert check.witness == f"formula gives {n - 1}, scan gives {n}"


class _MergedGreen(ReesSemigroup):
    """Green's closed forms with the first two classes of one partition
    merged; D, which has one class, with its last element split off instead."""

    KIND = "L"

    def green(self):
        green = super().green()
        partition = green[self.KIND]
        if len(partition) == 1:
            (members,) = partition
            green[self.KIND] = members[:-1], members[-1:]
        else:
            first, second, *rest = partition
            green[self.KIND] = tuple(sorted((tuple(sorted(first + second)), *rest)))
        return green


@pytest.mark.parametrize("kind", "LRHD")
def test_wrong_green_partition_fails_oracle_agreement(kind):
    S = _MergedGreen(_s3_fixture().matrix)
    S.KIND = kind
    brute = scalar_reference.green_via_ideals(S.to_generic())
    assert {k: S.green()[k] == brute[k] for k in "LRHD"} == {k: k != kind for k in "LRHD"}
    checks = {c.name: c.passed for c in rees_suite(S)}
    assert {k: checks[f"rees.green_{k}_oracle_agreement"] for k in "LRHD"} == {
        k: k != kind for k in "LRHD"
    }


@pytest.mark.parametrize(
    "matrix, entries, L",
    [
        # One entry: column 0 gains element 1, of another L-class, so S^1 0
        # is no other element's ideal.  Every member of a principal left
        # ideal stands |Lambda| times in its column, so one entry can add a
        # member but never remove one: a single entry splits an L-class.
        (lambda: _s3_fixture().matrix, {(1, 0): 1}, None),
        # M[Z1; 1, 2] is the right zero semigroup, L-classes {0} and {1};
        # with both products of distinct elements swapped it is the left
        # zero semigroup, whose two L-classes merge.
        (lambda: SandwichMatrix(builtin("cyclic", 1), [[0], [0]]), {(0, 1): 0, (1, 0): 1}, ((0, 1),)),
    ],
)
def test_corrupted_table_fails_green_L_agreement(matrix, entries, L):
    # Negative control: a table whose L-classes differ from the closed form.
    S = scalar_reference.CorruptedTable(matrix())
    S.ENTRIES = entries
    brute = scalar_reference.green_via_ideals(S.to_generic())["L"]
    assert brute != S.green()["L"]
    assert L is None or brute == L
    check = {c.name: c for c in rees_suite(S)}["rees.green_L_oracle_agreement"]
    assert check.passed is False


def _one_wrong_product(pair, original=rees.product):
    """`rees.product` with the product of one pair of elements moved to the
    next group element, on ints and on broadcast arrays alike: the pair is
    matched on all six coordinates.  `index_table`, which does not use it,
    stays true."""
    x, y = pair

    def product(cayley, entries, a, i, lam, b, j, mu):
        g, i_out, mu_out = original(cayley, entries, a, i, lam, b, j, mu)
        wrong = (a == x.g) & (i == x.i) & (lam == x.lam) & (b == y.g) & (j == y.i) & (mu == y.lam)
        return np.where(wrong, (g + 1) % len(cayley), g), i_out, mu_out

    return product


def test_product_off_the_table_fails_table_matches_product(monkeypatch):
    # Negative control: one pair's product changed in the one product
    # formula, which S.mul, and so the scalar reference, calls too; the
    # pair inside the table, and its first and last entries.
    S = _s3_fixture()
    first, last = S.element(0), S.element(S.size - 1)
    for pair in ((ReesElement(1, 0, 1), ReesElement(0, 1, 0)), (first, first), (last, last)):
        monkeypatch.setattr(rees, "product", _one_wrong_product(pair))
        check = {c.name: c for c in rees_suite(S)}["rees.table_matches_product"]
        x, y = pair
        assert S.table()[S.index(x), S.index(y)] != S.index(S.mul(x, y))
        assert check.passed is False
        assert check.witness == scalar_reference.table_matches_product_witness(S) == str(pair)


@pytest.mark.parametrize("coordinate", ["g", "i", "lam"])
def test_entry_off_its_coordinate_fails_table_matches_product(coordinate):
    # Negative control for each coordinate the check decodes: one entry of
    # the index table moved to another g, i or mu, the other two kept.
    true = _s3_fixture()
    x, y = true.element(7), true.element(13)
    xy = true.mul(x, y)
    size = {"g": true.group.order, "i": true.n_i, "lam": true.n_lambda}[coordinate]
    moved = xy._replace(**{coordinate: (getattr(xy, coordinate) + 1) % size})
    S = scalar_reference.CorruptedTable(true.matrix)
    S.ENTRIES = {(true.index(x), true.index(y)): true.index(moved)}
    check = {c.name: c for c in rees_suite(S)}["rees.table_matches_product"]
    assert check.passed is False
    assert check.witness == scalar_reference.table_matches_product_witness(S) == str((x, y))


def test_rees_suite_evaluates_the_product_once_per_block(s1, monkeypatch):
    # Regression guard: table_matches_product evaluates rees.product on a
    # block of rows at a time, never once per pair, and S.mul still returns
    # Python ints.
    calls = []

    def counted(*args, original=rees.product):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rees, "product", counted)
    # one block of all 8 rows, then 4 blocks of 2 rows
    for block, n_blocks in ((kernel.BLOCK, 1), (2 * s1.size, 4)):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(kernel, "BLOCK", block)
            assert len(list(kernel.blocks(s1.size, s1.size))) == n_blocks
            _assert_clean(rees_suite(ReesSemigroup(s1.matrix)))
        assert 1 <= len(calls) <= n_blocks < s1.size**2

    x, y = s1.element(3), s1.element(6)
    xy = s1.mul(x, y)
    assert (type(xy.g), type(xy.i), type(xy.lam)) == (int, int, int)


def test_rees_suite_never_calls_the_scalar_product(s1, monkeypatch):
    # Regression guard: every check of rees_suite reads the table or the
    # formula on plain coordinates, never S.mul pair by pair.
    def refuse(self, x, y):
        raise AssertionError(f"ReesSemigroup.mul({x}, {y})")

    monkeypatch.setattr(ReesSemigroup, "mul", refuse)
    _assert_clean(rees_suite(ReesSemigroup(s1.matrix)))


def _swap_first_two(table):
    """The table with its entries at (0, 0) and (0, 1) swapped, in place:
    still closed, but on the fixtures below no longer associative."""
    table[0][0], table[0][1] = table[0][1], table[0][0]
    return table


class _SwappedTable(ReesSemigroup):
    """S.table() with its entries at (0, 0) and (0, 1) swapped."""

    def index_table(self):
        return _swap_first_two(super().index_table())


def test_wrong_table_entry_fails_principal_homomorphism_inside_the_image(s1):
    # Negative control: every product of principal cones lies in the image,
    # so the image's table has no -1, and only the comparison of positions
    # with rho(ab), read from S.table(), can fail the check.
    checks = {c.name: c for c in _cone_suite(_SwappedTable(s1.matrix))}
    assert checks["cones.principal_image_subsemigroup"].passed is True
    check = checks["cones.principal_homomorphism"]
    assert check.passed is False
    assert check.witness == "ReesElement(g=0, i=0, lam=0), ReesElement(g=0, i=0, lam=0)"


def test_non_associative_cone_table_fails_tl_associative(s1, monkeypatch):
    # Negative control on M[Z2; 2, 2], whose |T_L| = 8 is small enough for
    # the cone-table checks to run.
    original = cones.cone_table
    monkeypatch.setattr(cones, "cone_table", lambda *args: _swap_first_two(original(*args)))
    check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}["cones.tl_associative"]
    witness = oracle.associativity_witness(
        cones.cone_table(s1.group, cones.enumerate_TL(s1.group, s1.n_lambda))
    )
    assert witness is not None
    assert check.passed is False
    assert check.witness == str(witness)


def test_act_on_the_next_coordinate_fails_semidirect_law(s1, monkeypatch):
    # Negative control: the action broadcasts the coordinate after k, so the
    # expected product scales c1 by the wrong coordinate of c2.
    original = cones.act
    monkeypatch.setattr(cones, "act", lambda k, values: original((k + 1) % values.shape[-1], values))
    check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}["cones.semidirect_law"]
    assert check.passed is False
    assert check.witness == "Cone(values=(0, 0), vertex=0) * Cone(values=(0, 1), vertex=0)"


def test_inverted_action_fails_action_law(s1):
    # Negative control: the action broadcasts the inverse of the k-th
    # coordinate, so k*(l*v) is v_l where l*v is v_l^-1.  On S3 a 3-cycle
    # at coordinate l shows it, at the witness of the scalar loop; on Z2,
    # where every element is its own inverse, the fault is invisible.
    S = _s3_fixture()
    with scalar_reference.inverted_action(S.group):
        check = {c.name: c for c in _cone_suite(S)}["cones.action_law"]
        (reference,) = (
            c for c in scalar_reference.tl_checks(S.group, S.n_lambda) if c.name == check.name
        )
    assert check.passed is False
    assert reference.passed is False and check.witness == reference.witness
    with scalar_reference.inverted_action(s1.group):
        check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}["cones.action_law"]
    assert check.passed is True


def test_merged_cosets_fail_tl_green_agreement(s1, monkeypatch):
    # Negative control: the canonical representative of the second coset of
    # T_L is the first's, so the coset partition is coarser than the
    # oracle's R.
    G, original = s1.group, kernel.canonical
    values, _ = cones.enumerate_TL(G, s1.n_lambda)
    canonical = original(G.array, G.inverse, values)
    first, second = np.unique(canonical, axis=0)[:2]

    def merged(M, inverse, values):
        out = original(M, inverse, values)
        return np.where((out == second).all(axis=-1, keepdims=True), first, out)

    monkeypatch.setattr(kernel, "canonical", merged)
    check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}["cones.tl_green_agreement"]
    assert check.passed is False


def test_wrong_idempotent_closed_form_fails(s1, monkeypatch):
    # Negative control: is_idempotent_cone answers wrongly on one cone of T_L,
    # which the check names.
    G, original = s1.group, cones.is_idempotent_cone
    tl = cones.enumerate_TL(G, s1.n_lambda)
    wrong = connections.as_cone(tl, 3)
    monkeypatch.setattr(
        cones,
        "is_idempotent_cone",
        lambda group, c: original(group, c) != ~kernel.differ(c, kernel.pick(tl, 3)),
    )
    check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}[
        "cones.idempotent_closed_form"
    ]
    assert check.passed is False
    assert check.witness == str(wrong)


def test_idempotents_against_a_non_identity_fail_on_s5_2x2(monkeypatch):
    # Negative control at the size big_group checks: the closed form compares
    # the coordinate at the vertex with x, not the identity, and the check
    # names the first cone of T_L, in batch order, where it is wrong, as the
    # scalar loop over T_L finds it.
    S = ReesSemigroup(_s5_2x2_generic())
    G = S.group
    x = next(g for g in G.elements() if g != G.identity)

    def wrong(group, c):
        values, vertices = c
        return np.take_along_axis(values, vertices[..., None], axis=-1)[..., 0] == x

    monkeypatch.setattr(cones, "is_idempotent_cone", wrong)
    check = {c.name: c for c in _cone_suite(S)}["cones.idempotent_closed_form"]
    first = next(
        c
        for c in connections.as_cones(cones.enumerate_TL(G, S.n_lambda))
        if (c.values[c.vertex] == x) != (scalar_reference.mul_L(G, c, c) == c)
    )
    assert check.passed is False
    assert check.witness == str(first)


def _stray_cone(G, members: list[Cone]) -> Cone:
    """The first cone of T_L over G that is not a member."""
    tl = cones.enumerate_TL(G, len(members[0].values))
    return next(c for c in connections.as_cones(tl) if c not in members)


@contextlib.contextmanager
def _edited_u_cones(S, side: str, edit):
    """`connections.u_cones` with edit applied to the list of cones of U-Gamma
    ("gamma") or of U-Delta ("delta") of S's connection alone; U-Delta is
    u_cones of the transposed matrix, which is not S's."""
    original = connections.u_cones

    def u_cones(P):
        members = original(P)
        if (P is S.matrix) != (side == "gamma"):
            return members
        return scalar_reference.cone_arrays(edit(connections.as_cones(members)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connections, "u_cones", u_cones)
        yield


def _edited_pair(k: int, **halves):
    """`scalar_reference.edited_pairs` with the given halves of pair k, which is
    phi of element k, replaced."""
    return scalar_reference.edited_pairs(
        lambda pairs: [p._replace(**halves) if j == k else p for j, p in enumerate(pairs)]
    )


def test_stray_member_fails_u_subsemigroups():
    # Negative control: U-Gamma with its last cone replaced by one whose
    # tuple is no scaled column, so that cone's products leave the set.
    S = _s3_fixture()
    ug = scalar_reference.u_gamma(S.matrix)
    stray = [*ug[:-1], _stray_cone(S.group, ug)]
    with _edited_u_cones(S, "gamma", lambda members: stray):
        check = {c.name: c for c in _crossconn_suite(S)}["crossconn.u_subsemigroups"]
    assert check.passed is False
    assert kernel.first_hole(_cone_product_table(S.group, stray)) is not None


def _searched(monkeypatch) -> list:
    """The tuples that `ConeClasses.find_tuples` is asked for from now on, each
    call's rows as a list of tuples."""
    searched, original = [], kernel.ConeClasses.find_tuples

    def find_tuples(self, values):
        searched.append([tuple(t) for t in values.tolist()])
        return original(self, values)

    monkeypatch.setattr(kernel.ConeClasses, "find_tuples", find_tuples)
    return searched


def test_closed_cone_tables_search_no_key(monkeypatch):
    # Every product of a closed set lies in its factor's coset, where the
    # coset index finds it: the U tables of a generic M[S3; 2, 3] and T_L
    # of M[S3; 2, 2] are built without a key search.
    G = builtin("symmetric", 3)
    P = SandwichMatrix(G, [[0, 0, 0], [0, 1, 4]])  # 0 is the identity
    gammas, deltas = (kernel.ConeClasses(connections.u_cones(Q)) for Q in (P, P.transpose))
    searched = _searched(monkeypatch)
    tables = [
        kernel.cone_product_table(G.array, G.inverse, gammas),
        kernel.cone_product_table(G.opposite.array, G.inverse, deltas, transposed=True),
        cones.cone_table(G, cones.enumerate_TL(G, 2)),
    ]
    assert searched == []
    assert [kernel.first_hole(t) for t in tables] == [None] * 3
    assert [len(t) for t in tables] == [len(gammas), len(deltas), 72]


def test_stray_member_searches_exactly_the_products_outside_the_set(monkeypatch):
    # The stray set of test_stray_member_fails_u_subsemigroups: the key
    # search runs for exactly the products T[t]*s, over its distinct
    # tuples T and every s, that are no member's tuple, by the scalar product.
    S = _s3_fixture()
    G, ug = S.group, scalar_reference.u_gamma(S.matrix)
    stray = [*ug[:-1], _stray_cone(G, ug)]
    tuples = {c.values for c in stray}
    products = (tuple(G.mul(v, s) for v in t) for t in tuples for s in G.elements())
    outside = sorted(p for p in products if p not in tuples)
    classes = kernel.ConeClasses(scalar_reference.cone_arrays(stray))
    searched = _searched(monkeypatch)
    table = kernel.cone_product_table(G.array, G.inverse, classes)
    assert outside and sorted(t for call in searched for t in call) == outside
    assert np.array_equal(table, scalar_reference.cone_product_table(G.array, classes.members))


@pytest.mark.parametrize("side, where", [("gamma", "U-Gamma"), ("delta", "U-Delta")])
def test_pair_half_outside_its_u_set_fails_closure(side, where):
    # Negative control: U-Gamma (or U-Delta) without the half of a middle
    # pair.  The pairs are not closed, and the witness names the first pair
    # with that half, not a product that is no linked pair.
    S = _s3_fixture()
    pairs = scalar_reference.linked_pairs(S.matrix)
    half = getattr(pairs[len(pairs) // 2], side)
    first = next(p for p in pairs if getattr(p, side) == half)
    with _edited_u_cones(S, side, lambda members: [c for c in members if c != half]):
        checks = {c.name: c for c in _crossconn_suite(S)}
        table = scalar_reference.pair_table_from_halves(connections.pair_arrays(S))
    witness = f"the {side} half of {first} is not in {where}"
    for name in ("crossconn.s_tilde_closed", "crossconn.phi_isomorphism"):
        assert checks[name].passed is False, name
        assert checks[name].witness == witness
    # that pair's row and column of the pairs' table read -1 throughout
    k = pairs.index(first)
    assert (table[k] == -1).all() and (table[:, k] == -1).all()


def test_product_outside_u_gamma_fails_rbg_product_formula():
    # Negative control: on the identity 2x2 matrix over S3, U-Gamma without
    # its last cone.  Where a pair's gamma half or a product's is that cone,
    # the product cannot be read off the U-Gamma table, and the formula
    # fails at the first such product.
    S = ReesSemigroup(identity_matrix(_s3_fixture().group, 2, 2))
    P = S.matrix
    pairs = scalar_reference.linked_pairs(P)
    last = scalar_reference.u_gamma(P)[-1]
    p, q = next(
        (p, q)
        for p in pairs
        for q in pairs
        if last in (p.gamma, q.gamma, scalar_reference.s_tilde_mul(P, p, q).gamma)
    )
    with _edited_u_cones(S, "gamma", lambda members: members[:-1]):
        check = {c.name: c for c in _rbg_suite(S)}["rbg.product_formula"]
    assert check.passed is False
    assert check.witness == f"{p} o {q}"


@pytest.mark.parametrize("side", ["gamma", "delta"])
def test_half_outside_its_u_set_fails_rbg_linked_iff_equal_scalars(side):
    # Negative control: on the identity 2x2 matrix over S3, U-Gamma (or
    # U-Delta) without its last cone.  The linkage table has no row (or
    # column) for a pair's half that is that cone, and the check fails at
    # the first such pair rather than read the table's last row (or
    # column), whose cone links exactly as the missing one would.
    S = ReesSemigroup(identity_matrix(_s3_fixture().group, 2, 2))
    P = S.matrix
    pairs = scalar_reference.linked_pairs(P)
    last = getattr(scalar_reference, f"u_{side}")(P)[-1]
    p, q = next(
        (p, q)
        for p in pairs
        for q in pairs
        if last == (p.gamma if side == "gamma" else q.delta)
    )
    with _edited_u_cones(S, side, lambda members: members[:-1]):
        check = {c.name: c for c in _rbg_suite(S)}["rbg.linked_iff_equal_scalars"]
    assert check.passed is False
    assert check.witness == f"{p.gamma} vs {q.delta}"


@pytest.mark.parametrize("side", ["gamma", "delta"])
def test_half_outside_its_u_set_keeps_the_linked_criterion_of_the_loop(side):
    # U-Gamma (or U-Delta) of the S3 fixture without its last cone, so that
    # the pairs with that half sit at position -1 and have no cell of the
    # linkage table.  The check's verdict and witness are those of the
    # scalar loop over the edited sets, which finds every linked cone pair
    # of them a pair: removing a cone removes its row (or column) and
    # nothing else.  A -1 position read as an index would mark a cell of
    # the last row (or column) as a pair's, where the loop finds none.
    S = _s3_fixture()
    pairs = set(scalar_reference.linked_pairs(S.matrix))
    with _edited_u_cones(S, side, lambda members: members[:-1]):
        linked = connections.pair_arrays(S)
        checks = {c.name: c for c in crossconn_suite(S, linked)}
    gammas, deltas = (
        connections.as_cones(u.classes.members) for u in (linked.u_gamma, linked.u_delta)
    )
    witness = next(
        (
            f"{gamma}, {delta}"
            for gamma in gammas
            for delta in deltas
            if scalar_reference.is_linked(S.matrix, gamma, delta)
            != (LinkedPair(gamma, delta) in pairs)
        ),
        None,
    )
    check = checks["crossconn.linked_criterion_agreement"]
    assert not linked.complete and witness is None
    assert check.passed is True and check.witness is None


def test_phi_image_outside_u_gamma_fails_isomorphism():
    # Negative control: phi sends the last element to a pair whose gamma
    # half is a cone of T_L outside U-Gamma.  That pair is phi's image, so
    # the pairs are not closed, and both checks name it, as the dict loop
    # fails to find its products among the pairs.
    S = _s3_fixture()
    k = S.size - 1
    stray = _stray_cone(S.group, scalar_reference.u_gamma(S.matrix))
    pair = scalar_reference.phi(S, S.element(k))._replace(gamma=stray)
    with _edited_pair(k, gamma=stray):
        checks = {c.name: c for c in _crossconn_suite(S)}
        reference = scalar_reference.verify_phi(S)
    witness = f"the gamma half of {pair} is not in U-Gamma"
    assert None not in reference
    for name in ("crossconn.s_tilde_closed", "crossconn.phi_isomorphism"):
        assert checks[name].passed is False, name
        assert checks[name].witness == witness


def test_stray_principal_cone_fails_principal_image_subsemigroup():
    # Negative control: the left principal cone of the last element replaced
    # by a cone whose tuple is no scaled column, so it lies outside U-Gamma.
    S = _s3_fixture()
    stray = _stray_cone(S.group, [scalar_reference.phi(S, a).gamma for a in S.elements()])
    with _edited_pair(S.size - 1, gamma=stray):
        check = {c.name: c for c in _cone_suite(S)}["cones.principal_image_subsemigroup"]
    assert check.passed is False


@pytest.mark.parametrize("at", ["first", "middle"])
@pytest.mark.parametrize(
    "side, u_set, name",
    [
        ("gamma", scalar_reference.u_gamma, "cones.principal_homomorphism"),
        ("delta", scalar_reference.u_delta, "cones.dual_antihomomorphism"),
    ],
)
def test_principal_cone_outside_its_u_set_fails(side, u_set, name, at):
    # Negative control on the identity 2x2 matrix over S3: phi's gamma (or
    # delta) half of one element replaced by a cone outside U-Gamma (or
    # U-Delta).  Its (anti)homomorphism check fails at the first pair where
    # a, b or ab is that element, the other check passes, and a stray rho
    # fails principal_image_subsemigroup.  The first element is idempotent,
    # so a, b and ab all carry the stray cone at the first pair; and rho is
    # not injective here, so the rest of the image is all of U-Gamma.
    S = ReesSemigroup(identity_matrix(builtin("symmetric", 3), 2, 2))
    target = S.element(0 if at == "first" else S.size // 2)
    stray = _stray_cone(S.group, u_set(S.matrix))
    with _edited_pair(S.index(target), **{side: stray}):
        checks = {c.name: c for c in _cone_suite(S)}
    elements = list(S.elements())
    a, b = next((a, b) for a in elements for b in elements if target in (a, b, S.mul(a, b)))
    assert checks[name].passed is False
    assert checks[name].witness == f"{a}, {b}"
    other = {"cones.principal_homomorphism", "cones.dual_antihomomorphism"} - {name}
    assert checks[other.pop()].passed is True
    assert checks["cones.principal_image_subsemigroup"].passed is (side == "delta")


def test_principal_image_short_of_u_gamma_is_judged_alone():
    # Negative control: rho of the last element replaced by rho of the
    # first, so that the principal image misses a cone of U-Gamma.  The
    # check judges the image alone, as the scalar loop does.
    S = _s3_fixture()
    with _edited_pair(S.size - 1, gamma=scalar_reference.phi(S, S.element(0)).gamma):
        image = list(dict.fromkeys(scalar_reference.phi(S, a).gamma for a in S.elements()))
        check = {c.name: c for c in _cone_suite(S)}["cones.principal_image_subsemigroup"]
    assert len(image) < len(scalar_reference.u_gamma(S.matrix))
    assert check.passed is scalar_reference.regular_subsemigroup(S.group, image)


@pytest.mark.parametrize(
    "suite, name",
    [
        (cone_suite, "cones.principal_image_subsemigroup"),
        (crossconn_suite, "crossconn.u_subsemigroups"),
    ],
)
def test_closed_but_irregular_table_fails_its_subsemigroup_check(suite, name, monkeypatch):
    # Negative control: every product is the batch's first member, so the
    # table is closed and only the oracle's regularity test can fail it.
    S = _s3_fixture()
    monkeypatch.setattr(kernel, "mul_L", scalar_reference.constant_mul_L(kernel.mul_L))
    ug = scalar_reference.u_gamma(S.matrix)
    table = _cone_product_table(S.group, ug)
    assert kernel.first_hole(table) is None
    assert not oracle.is_regular(oracle.GenericSemigroup(table))
    check = {c.name: c for c in suite(S, connections.pair_arrays(S))}[name]
    assert check.passed is False


def test_flipped_criterion_fails_injectivity_equivalence(s1, monkeypatch):
    # Negative control: injectivity_criterion gives the wrong verdict on a
    # matrix whose principal map is injective: a witness for none, and none
    # for a witness.
    original = cones.injectivity_criterion
    monkeypatch.setattr(
        cones,
        "injectivity_criterion",
        lambda P: (0, 0, 1) if original(P) is None else None,
    )
    check = {c.name: c for c in _cone_suite(ReesSemigroup(s1.matrix))}[
        "cones.injectivity_equivalence"
    ]
    assert check.passed is False
    assert check.witness == "criterion False, map injective True"


def test_injectivity_equivalence_counts_distinct_principal_cones(s1):
    # Negative control for the count: U-Gamma without the principal cones
    # of elements 0 and 1, so that both sit at position -1.  The principal
    # map of s1 is injective, and its 8 principal cones are still distinct;
    # counting positions took the two -1s for one cone.
    S = ReesSemigroup(s1.matrix)
    linked = connections.pair_arrays(S)
    values, vertices = linked.u_gamma.classes.members
    keep = np.ones(len(vertices), dtype=bool)
    keep[linked.g[:2]] = False
    classes = kernel.ConeClasses((values[keep], vertices[keep]))
    G = S.group
    ug = connections.UCones(classes, kernel.cone_product_table(G.array, G.inverse, classes))
    short = connections.PairArrays(S, linked.gamma, linked.delta, ug, linked.u_delta)
    assert short.g[:2].tolist() == [-1, -1] and (short.g[2:] >= 0).all()
    assert cones.injectivity_criterion(S.matrix) is None
    check = {c.name: c for c in cone_suite(S, short)}["cones.injectivity_equivalence"]
    assert check.passed is True


def test_left_scaled_column_fails_matrix_roundtrip(monkeypatch):
    # Negative control: the connection functor sends object 1 to its coset
    # tuple (e, x), x a 3-cycle, scaled on the left by a transposition h.
    # h * (e, x) = (e, x) * h would need h x = x h, so the extracted column
    # is no right scaling of the original.
    S = _s3_fixture()
    G, original = S.group, connections.gamma_images
    h, x = 1, int(original(S.matrix).objects[1, 1])
    assert G.mul(h, x) != G.mul(x, h)

    def gamma_images(P):
        images = original(P)
        objects = images.objects.copy()
        objects[1] = G.array[h, objects[1]]
        return images._replace(objects=objects)

    monkeypatch.setattr(connections, "gamma_images", gamma_images)
    check = {c.name: c for c in _crossconn_suite(S)}["crossconn.matrix_roundtrip"]
    assert check.passed is False
    assert check.witness == "extracted column 1 is not a right scaling of the original"


def test_swapped_pair_table_fails_isomorphism_and_the_command(s1, capsys):
    # Negative control: with the first two linked pairs traded, the pairs
    # stay closed but phi, which trades the images of elements 0 and 1, is
    # no homomorphism onto them, and the failed check (not an exception)
    # makes the command exit 2.
    S = ReesSemigroup(s1.matrix)
    with scalar_reference.swapped_pair_table():
        checks = _crossconn_checks(S)
        check, closed = checks["crossconn.phi_isomorphism"], checks["crossconn.s_tilde_closed"]
        reference = scalar_reference.verify_phi(S)
        code = main(["--group", "cyclic:2", "--matrix", str(FIXTURES / "P1.csv"), "crossconn"])
    assert closed.passed is True and reference[0] is None
    assert check.passed is False
    assert check.witness == reference[1]
    assert check.witness.startswith("f(")
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in report["checks"]}["crossconn.phi_isomorphism"] is False


def test_full_suite_scans_each_table_for_associativity_once(s1, monkeypatch):
    # One scan of S's table (rees.associative) and one of T_L's
    # (cones.tl_associative): exporting either to the oracle and checking
    # phi against the linked-pair table add none.
    sizes = []
    original = oracle.associativity_witness

    def counting(table, *args):
        sizes.append(len(table))
        return original(table, *args)

    monkeypatch.setattr(oracle, "associativity_witness", counting)
    _assert_clean(full_suite(ReesSemigroup(s1.matrix)))
    assert sizes == [s1.size, len(cones.enumerate_TL(s1.group, s1.n_lambda)[1])]


def test_full_suite_builds_every_closed_table_in_the_kernel(s1, monkeypatch):
    # T_L, U-Gamma and U-Delta each become a table through
    # kernel.cone_product_table, once; a closure loop of its own anywhere
    # else would lower the count.  The linked-pair table is gathered from
    # the U-Gamma and U-Delta tables, and the principal checks read those.
    calls = Counter()
    original = kernel.cone_product_table

    def counting(*args, **kwargs):
        calls["cone_product_table"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "cone_product_table", counting)
    _assert_clean(full_suite(ReesSemigroup(s1.matrix)))
    assert calls == {"cone_product_table": 3}


def test_full_suite_indexes_each_cone_set_once(s1, monkeypatch):
    # T_L, U-Gamma and U-Delta each get one ConeClasses, whose distinct
    # tuples both their table and every later lookup of their members read.
    built = []

    class CountingClasses(kernel.ConeClasses):
        def __init__(self, members):
            super().__init__(members)
            built.append(len(self.tuples))

    monkeypatch.setattr(kernel, "ConeClasses", CountingClasses)
    _assert_clean(full_suite(ReesSemigroup(s1.matrix)))
    P = s1.matrix
    sets = [
        scalar_reference.u_gamma(P),
        scalar_reference.u_delta(P),
        connections.as_cones(cones.enumerate_TL(s1.group, 2)),
    ]
    assert built == [len({c.values for c in members}) for members in sets] == [4, 4, 4]


def _scalar_group_products(S, monkeypatch) -> dict:
    """The checks of one full_suite on S, by name, and the number of scalar
    `FiniteGroup.mul` calls it made."""
    calls = Counter()
    mul = FiniteGroup.mul

    def counting_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counting_mul)
    checks = full_suite(S)
    _assert_clean(checks)
    return {c.name: c for c in checks}, calls["mul"]


def test_wide_index_full_suite_makes_few_scalar_group_products(monkeypatch):
    # One full_suite on M[Z2; 16, 16] with p[lam][i] = lam*i mod 2: both
    # realizations, the groupoid checks, the connection functors, the
    # duality cells, matrix_roundtrip and the injectivity criterion are
    # array passes, so no scalar product is left (4,386 before the groupoid
    # checks ran on arrays, 18 while the criterion looped); no coset is
    # normalized one tuple at a time, since the package has no scalar
    # coset_normalize.
    G = builtin("cyclic", 2)
    S = ReesSemigroup(SandwichMatrix(G, [[lam * i % 2 for i in range(16)] for lam in range(16)]))
    _, calls = _scalar_group_products(S, monkeypatch)
    assert calls == 0
    assert not hasattr(cones, "coset_normalize")


def test_s3_full_suite_makes_few_scalar_group_products(monkeypatch):
    # One full_suite on the S3 2x2 fixture, where the T_L checks and the
    # cone product run: each is a block pass over T_L, and the injectivity
    # criterion one array pass, so no scalar product is left (21,272 when
    # the T_L checks and the groupoid checks looped over scalar cones and
    # morphisms, 14 while the criterion looped).
    checks, calls = _scalar_group_products(_s3_fixture(), monkeypatch)
    assert checks["cones.semidirect_law"].passed is True
    assert checks["category.cone_product_agreement"].passed is True
    assert calls == 0


def test_full_suite_judges_u_gamma_regular_once(monkeypatch):
    # phi's image is all of U-Gamma, so cones.principal_image_subsemigroup
    # and the U-Gamma half of crossconn.u_subsemigroups read one verdict of
    # oracle.is_regular on U-Gamma's table.  With the identity matrix phi is
    # not injective, so U-Gamma's table is not S's.
    S = ReesSemigroup(identity_matrix(builtin("symmetric", 3), 2, 3))
    judged, built = [], []
    is_regular, pair_arrays = oracle.is_regular, connections.pair_arrays

    def counting(T):
        judged.append(T.table)
        return is_regular(T)

    def recording(S):
        built.append(pair_arrays(S))
        return built[-1]

    monkeypatch.setattr(oracle, "is_regular", counting)
    monkeypatch.setattr(connections, "is_regular", counting)
    monkeypatch.setattr(connections, "pair_arrays", recording)
    checks = {c.name: c for c in full_suite(S)}
    (linked,) = built
    ug, ud = linked.u_gamma.table, linked.u_delta.table
    assert checks["cones.principal_image_subsemigroup"].passed is True
    assert checks["crossconn.u_subsemigroups"].passed is True
    assert len(ug) < S.size
    assert sum(np.array_equal(table, ug) for table in judged) == 1


def test_full_suite_forms_phi_once_per_element(s1, monkeypatch):
    # phi's images are the linked pairs, formed once, by one
    # connections.pair_cones call in connections.pair_arrays, and both
    # cone_suite's principal checks and verify_phi read their positions; the
    # package has no scalar principal pair to form one of its own.
    calls = Counter()
    original = connections.pair_cones

    def counting(P):
        calls["pair_cones"] += 1
        gamma, delta = original(P)
        calls["pairs"] += len(gamma[1])
        return gamma, delta

    monkeypatch.setattr(connections, "pair_cones", counting)
    _assert_clean(full_suite(ReesSemigroup(s1.matrix)))
    assert calls == {"pair_cones": 1, "pairs": s1.size}
    assert not hasattr(cones, "principal_pair") and not hasattr(connections, "phi")


def test_suites_gather_the_pair_table_from_the_u_tables(s1, monkeypatch):
    # rbg_suite given its pairs (on the identity matrix of S1's shape) and
    # full_suite each tabulate U-Gamma and U-Delta once, with one kernel
    # mul_L batch of scalings per block of tuple classes (one block for
    # sets this small), and gather the pair table from those
    # tables: no kernel row multiplies two pairs.  In full_suite the U
    # tables come first; then T_L's, and the other mul_L calls are one
    # block each for T_L's table, the one pass that decides the cone
    # product and the semidirect law, and the idempotent closed form.
    # Linkage is one table of U-Gamma x U-Delta per suite, not one test per
    # pair.
    tables, calls = [], Counter()

    def cone_product_table(M, inverse, classes, transposed=False, _original=kernel.cone_product_table):
        tables.append(kernel.row_keys(*classes.members).tolist())
        return _original(M, inverse, classes, transposed)

    def mul_L(*args, _original=kernel.mul_L):
        calls["mul_L"] += 1
        return _original(*args)

    def linkage_table(*args, _original=kernel.linkage_table):
        calls["linkage_table"] += 1
        return _original(*args)

    def u_keys(S):
        P = S.matrix
        u = scalar_reference.u_gamma(P), scalar_reference.u_delta(P)
        return [kernel.row_keys(*scalar_reference.cone_arrays(members)).tolist() for members in u]

    monkeypatch.setattr(kernel, "cone_product_table", cone_product_table)
    monkeypatch.setattr(kernel, "mul_L", mul_L)
    monkeypatch.setattr(kernel, "linkage_table", linkage_table)
    for suite, S, after, rows in (
        (_rbg_suite, ReesSemigroup(identity_matrix(s1.group, 2, 2)), 0, 0),
        (full_suite, ReesSemigroup(s1.matrix), 1, 3),
    ):
        tables.clear()
        calls.clear()
        _assert_clean(suite(S))
        keys = u_keys(S)
        assert len(tables) == 2 + after and tables[:2] == keys
        assert calls == {"mul_L": rows + 2, "linkage_table": 1}


def test_suites_read_each_u_table_once_for_the_principal_checks_and_phi(s1, monkeypatch):
    # The two principal checks are phi's components, each judged by one
    # oracle pass that serves both suites, so full_suite gathers from
    # U-Gamma's and U-Delta's tables once each (one block on S1).  rbg_suite
    # on the identity matrix of S1's shape gathers from each once too, in
    # phi's pass: its product formula reads each U table's |U|^2 entries
    # once, by rows, and gathers only the small tables built from them.
    built, gathered = [], Counter()
    pair_arrays = connections.pair_arrays

    def recording(S):
        built.append(pair_arrays(S))
        return built[-1]

    def gather(table, *args, _original=kernel.gather, **kwargs):
        for name in ("u_gamma", "u_delta"):
            gathered[name] += any(table is getattr(linked, name).table for linked in built)
        return _original(table, *args, **kwargs)

    monkeypatch.setattr(connections, "pair_arrays", recording)
    monkeypatch.setattr(kernel, "gather", gather)
    for suite, S, reads in (
        (full_suite, ReesSemigroup(s1.matrix), 1),
        (_rbg_suite, ReesSemigroup(identity_matrix(s1.group, 2, 2)), 1),
    ):
        built.clear()
        gathered.clear()
        _assert_clean(suite(S))
        assert len(built) == 1
        assert gathered == {"u_gamma": reads, "u_delta": reads}


def test_rees_suite_builds_each_principal_ideal_once_for_green(s1, monkeypatch):
    # The ideal rows of S's table, left and right, are built once: all four
    # Green partitions come from them, and rees.principal_left_ideal reads
    # the left ones.  Light's test reads the table alone.
    sizes = []
    original = oracle.ideal_rows

    def counting(table):
        sizes.append(len(table))
        return original(table)

    monkeypatch.setattr(oracle, "ideal_rows", counting)
    _assert_clean(rees_suite(ReesSemigroup(s1.matrix)))
    assert sizes == [s1.size]


def test_cone_suite_forms_no_principal_product_twice(s1, monkeypatch):
    # One kernel batch of scalings for T_L's table (one block of tuple
    # classes), one block of T_L against T_L for the semidirect law and the
    # squares of T_L for the idempotent closed form, and none for the
    # principal checks, which read the U-Gamma and U-Delta tables of the
    # pairs given.
    calls = Counter()
    original = kernel.mul_L

    def counting(*args):
        calls["mul_L"] += 1
        return original(*args)

    S = ReesSemigroup(s1.matrix)
    linked = connections.pair_arrays(S)
    monkeypatch.setattr(kernel, "mul_L", counting)
    _assert_clean(cone_suite(S, linked))
    assert calls == {"mul_L": 3}


def test_associative_tables_never_reach_the_full_scan(s1, monkeypatch):
    # Light's test passes every associative table on its own: the full row
    # scan runs only to find the witness of a table that fails it.
    def full_scan(table):
        raise AssertionError(f"full scan of a {len(table)}-element table")

    monkeypatch.setattr(oracle, "_full_scan", full_scan)
    _assert_clean(full_suite(ReesSemigroup(s1.matrix)))
    assert builtin("symmetric", 4).order == 24


@settings(max_examples=10, deadline=None)
@given(
    st.permutations(range(6)).filter(lambda perm: perm[0] != 0),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_full_suite_invariant_under_relabelling_s3(perm, n_lambda, n_i, data):
    # The S3 Cayley table with its elements shuffled, so that the identity
    # is off index 0, and the same matrix written in the new indices:
    # every check keeps its name, its place and its outcome.
    G = builtin("symmetric", 3)
    cayley = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            cayley[perm[a]][perm[b]] = perm[G.mul(a, b)]
    H = FiniteGroup(cayley)
    assert H.identity == perm[G.identity] != 0
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    outcomes = [
        [(c.name, c.passed) for c in full_suite(ReesSemigroup(SandwichMatrix(K, rows)))]
        for K, rows in ((G, entries), (H, [[perm[v] for v in row] for row in entries]))
    ]
    assert outcomes[0] == outcomes[1]


def test_faulty_closed_form_fails_principal_left_ideal(monkeypatch):
    # Negative control: a closed form that drops one member of S^1 x for
    # every x in the last L-class, from that class's packed row.
    original = ReesSemigroup.left_ideal_rows

    def short(self):
        rows = np.unpackbits(original(self), count=self.size, axis=1)
        rows[-1, self.index(ReesElement(1, 0, self.n_lambda - 1))] = 0
        return np.packbits(rows, axis=1)

    monkeypatch.setattr(ReesSemigroup, "left_ideal_rows", short)
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
    assert verify_phi(connections.pair_arrays(S)) == (None, None)


def _crossconn_checks(S):
    return {c.name: c for c in _crossconn_suite(S)}


def _reference_checks(S):
    return {c.name: c for c in scalar_reference.crossconnection_checks(S.matrix)}


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


def test_reversed_composition_fails_cone_product_agreement():
    # Negative control: composition carrying g2*g1 still makes both
    # categories groupoids, but in S3 the cone product is no longer mul_L.
    # The semidirect law, decided in the same pass over T_L, still holds.
    S = _s3_fixture()
    with scalar_reference.reversed_compose():
        checks = {c.name: c for c in category_suite(S) + _cone_suite(S)}
        witness = scalar_reference.cone_product_witness(S.group, S.n_lambda)
    assert checks["category.left_groupoid"].passed is True
    check = checks["category.cone_product_agreement"]
    assert check.passed is False
    assert witness is not None and check.witness == witness
    assert re.fullmatch(r"Cone\(values=.*\) \* Cone\(values=.*\)", check.witness)
    assert checks["cones.semidirect_law"] == ("cones.semidirect_law", True, None)


def test_wrong_side_mul_L_fails_both_product_checks(monkeypatch):
    # Negative control: the scalar on the wrong side of the kernel's mul_L,
    # which is mul_L over the opposite group, breaks both statements of
    # T_L's product that one pass checks, the category's composite and the
    # action formula, each with the first witness of its own scalar loop
    # under the same fault.
    def wrong_side(M, c1, c2, _original=kernel.mul_L):
        return _original(M.T, c1, c2)

    def scalar_wrong_side(group, c1, c2, _original=scalar_reference.mul_L):
        return _original(group.opposite, c1, c2)

    S = _s3_fixture()
    monkeypatch.setattr(kernel, "mul_L", wrong_side)
    checks = {c.name: c for c in category_suite(S) + _cone_suite(S)}
    monkeypatch.setattr(scalar_reference, "mul_L", scalar_wrong_side)
    expected = {
        "category.cone_product_agreement": scalar_reference.cone_product_witness(
            S.group, S.n_lambda
        ),
        "cones.semidirect_law": next(
            c.witness
            for c in scalar_reference.tl_checks(S.group, S.n_lambda)
            if c.name == "cones.semidirect_law"
        ),
    }
    for name, witness in expected.items():
        assert checks[name].passed is False, name
        assert witness is not None and checks[name].witness == witness, name


@pytest.mark.parametrize("shape", [None, (3, 2)], ids=["s1", "Z3-3x2"])
def test_one_pass_over_tl_decides_both_product_checks(s1, z3, shape, monkeypatch):
    # full_suite enumerates T_L once, and the cone product agreement and the
    # semidirect law share one pass over it: one kernel.mul_L of a block of
    # T_L against all of T_L per block of rows, not one per check.  On s1
    # T_L has 8 cones against a 16-entry batch, one block; on M[Z3; 3, 2]
    # 81 cones against a 243-entry batch, two blocks.
    S = s1 if shape is None else ReesSemigroup(identity_matrix(z3, *shape))
    built, against_tl = [], []

    def enumerate_TL(*args, _original=cones.enumerate_TL):
        built.append(_original(*args))
        return built[-1]

    def mul_L(M, c1, c2, _original=kernel.mul_L):
        if any(c2 is tl for tl in built):
            against_tl.append(len(c1[1]))
        return _original(M, c1, c2)

    monkeypatch.setattr(cones, "enumerate_TL", enumerate_TL)
    monkeypatch.setattr(kernel, "mul_L", mul_L)
    _assert_clean(full_suite(S))
    assert len(built) == 1
    n_c = len(built[0][1])
    rows = [len(range(n_c)[block]) for block in kernel.blocks(n_c, n_c * S.n_lambda)]
    assert against_tl == rows and len(rows) == (1 if shape is None else 2)


def test_rescaled_dual_matrix_fails_naturality_without_raising(capsys):
    # Negative control: with one row of P^T rescaled in the opposite
    # connection, the duals of a cell do not factor through Delta's cells.
    # Each scalar step of the Delta route raises ElementNotInCell; the check
    # counts that as a failed square (exit 2), not an error.
    S = _s3_fixture()
    assert S.n_i > 1
    P = S.matrix
    with scalar_reference.rescaled_opposite(0, 1):
        check = _crossconn_checks(S)["crossconn.naturality"]
        witness = scalar_reference.naturality_witness(P)
        cone = scalar_reference.gamma_cell(P, 0, 0)[0]
        with pytest.raises(scalar_reference.ElementNotInCell):
            scalar_reference.bifunctor_gamma(
                P.transpose,
                Morphism(0, 0, 0),
                Morphism(0, 0, 0),
                scalar_reference.chi(P, cone, 0),
            )
        code = main(
            [
                "--group", str(FIXTURES / "s3_cayley.csv"),
                "--matrix", str(FIXTURES / "s3_P.csv"),
                "crossconn",
            ]
        )
    assert check.passed is False
    assert check.witness == witness == "square at (0,0,0,0) with g1=0, g2=0"
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in report["checks"]}["crossconn.naturality"] is False


def test_rescaled_dual_matrix_fails_naturality_on_one_column(s3):
    # Negative control with |I| = 1: every dual factors, but the Delta route
    # carries h^-1 g2 h where the Gamma route carries g2, so a square fails
    # at the first g2 that does not commute with h.
    S = ReesSemigroup(SandwichMatrix(s3, [[1], [4]]))
    P = S.matrix
    h = next(g for g in s3.elements() if g != s3.identity)
    with scalar_reference.rescaled_opposite(0, h):
        check = _crossconn_checks(S)["crossconn.naturality"]
        witness = scalar_reference.naturality_witness(P)
    assert check.passed is False
    assert witness is not None and check.witness == witness
    g2 = int(witness.rsplit("g2=", 1)[1])
    assert s3.mul(h, g2) != s3.mul(g2, h)


@pytest.mark.parametrize("h, shift", [(1, 0), (0, 1)])
def test_cone_off_its_cell_fails_only_its_squares(s3, h, shift):
    # Negative control: the last cone of each cell leaves it, by a changed
    # coordinate or, on a matrix with two equal rows, by a changed vertex
    # that only the domain test of the cell map can see.  Only its squares
    # fail; a scan that needed every cone to fail would report none.
    P = SandwichMatrix(s3, [[1, 2], [1, 2]])
    with scalar_reference.stray_cone(h, shift):
        witness = scalar_reference.naturality_witness(P)
        assert verify._naturality_witness(P) == witness
    assert witness == "square at (0,0,0,0) with g1=0, g2=0"


def test_full_suite_makes_no_scalar_cone_products(s3, monkeypatch):
    # Regression guard on S3 3x3: the groupoid, cone-product and naturality
    # scans run on arrays.  Their scalar loops made 419,904 compose_cones
    # calls (1,259,712 compose calls) and 104,976 bifunctor_gamma calls
    # here; both now live in tests/scalar_reference.py alone.
    calls = Counter()
    original = ArrowCategory.compose

    def counting(*args):
        calls["compose"] += 1
        return original(*args)

    monkeypatch.setattr(ArrowCategory, "compose", counting)
    S = ReesSemigroup(identity_matrix(s3, 3, 3))
    checks = {c.name: c for c in full_suite(S)}
    assert checks["category.cone_product_agreement"].passed is True
    assert checks["crossconn.naturality"].passed is True
    assert not hasattr(ArrowCategory, "compose_cones")
    assert not hasattr(connections, "bifunctor_gamma")
    # the groupoid checks compose all the morphisms of a category in four
    # calls (with the inverses both ways, then the normal factorization);
    # the cone product composes the components of one block of rows of T_L
    # per call
    composed = calls["compose"]
    calls.clear()
    monkeypatch.setattr(verify, "BUDGET", 0)
    checks = {c.name: c for c in full_suite(S)}
    assert checks["category.cone_product_agreement"].passed is None
    assert calls["compose"] == 2 * 4
    n_cones = s3.order**3 * 3
    assert composed - calls["compose"] == len(list(kernel.blocks(n_cones, n_cones * 3)))


@pytest.mark.parametrize(
    "rows, h, shift, witness",
    [
        ([[1, 2], [3, 4]], 1, 0, "duality is not a bijection on cell (0,0)"),
        ([[1, 2], [1, 2]], 0, 1, "duality does not invert on cell (0,0)"),
    ],
)
def test_stray_cone_fails_duality_bijection_without_raising(s3, rows, h, shift, witness, capsys):
    # A cell cone off its cell has no image under chi: a failed check with
    # a cell witness (exit 2), not an ElementNotInCell raised out of verify.
    # A cone on the wrong vertex whose row equals its cell's has an image,
    # but chi over the opposite connection does not send it back.
    S = ReesSemigroup(SandwichMatrix(s3, rows))
    with scalar_reference.stray_cone(h, shift):
        check = _crossconn_checks(S)["crossconn.duality_bijection"]
        reference = scalar_reference.duality_witness(S.matrix)
        code = main(
            [
                "--group", str(FIXTURES / "s3_cayley.csv"),
                "--matrix", str(FIXTURES / "s3_P.csv"),
                "crossconn",
            ]
        )
    assert check.passed is False
    assert check.witness == reference == witness
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in report["checks"]}["crossconn.duality_bijection"] is False


@pytest.mark.parametrize(
    "name, fault",
    [
        ("rbg.identity_matrix", None),
        ("rbg.product_formula", scalar_reference.reversed_delta_product),
        ("rbg.linked_iff_equal_scalars", scalar_reference.unscaled_linkage),
        ("rbg.phi_isomorphism", scalar_reference.swapped_pair_table),
    ],
)
def test_rbg_negative_controls(name, fault):
    # Negative controls on S3: the non-identity matrix of the fixture, and
    # on the identity 2x2 matrix the delta factors of the pair product in
    # the wrong order, linkage without its scalar test and the first two
    # pairs traded.  Each check reports the loop's witness.
    S = _s3_fixture()
    if fault is not None:
        S = ReesSemigroup(identity_matrix(S.group, 2, 2))
    with fault() if fault else contextlib.nullcontext():
        checks, reference = _rbg_suite(S), scalar_reference.rbg_checks(S)
    check = {c.name: c for c in checks}[name]
    assert check.passed is False
    assert (check.witness is None) == (name == "rbg.identity_matrix")
    assert name != "rbg.phi_isomorphism" or check.witness.startswith("f(")
    assert checks == reference


def test_suites_build_the_linked_pairs_once_without_scalar_pair_calls(monkeypatch):
    # rbg_suite forms the pair products and linkage on the kernel, and each
    # suite builds the linked pairs once for all the checks that read them;
    # the scalar pair builders, product and linkage test are the tests'
    # references alone.
    calls = Counter()
    original = connections.pair_cones

    def counting(P):
        calls["pair_cones"] += 1
        return original(P)

    monkeypatch.setattr(connections, "pair_cones", counting)
    S = ReesSemigroup(identity_matrix(load_cayley_file(FIXTURES / "s3_cayley.csv"), 2, 2))
    _assert_clean(_rbg_suite(S))
    assert calls == {"pair_cones": 1}
    calls.clear()
    _assert_clean(full_suite(S))
    assert calls == {"pair_cones": 1}
    for name in ("linked_pairs", "s_tilde_mul", "is_linked"):
        assert not hasattr(connections, name), name
