import re

import numpy as np
import pytest
import scalar_reference
from hypothesis import example, given, settings, strategies as st

from crossconn import (
    GenericSemigroup,
    ReesSemigroup,
    SandwichMatrix,
    associativity_witness,
    builtin,
    from_table,
    green_via_ideals,
    idempotents,
    is_regular,
    verify_map,
)
from crossconn.errors import IndexOutOfRange, NotAssociative, NotClosed
from crossconn.oracle import canonical_partition, generators, left_ideal, right_ideal


def test_rees_export_is_valid(s1):
    T = s1.to_generic()
    assert T.size == 8
    assert is_regular(T)


def test_trivial_semigroup():
    T = from_table([[0]])
    assert idempotents(T) == [0]
    assert is_regular(T)
    assert green_via_ideals(T) == {kind: ((0,),) for kind in "LRHD"}


def test_left_zero_semigroup():
    # x*y = x: associative, noncommutative, regular
    T = from_table([[0, 0], [1, 1]])
    assert T.mul(0, 1) != T.mul(1, 0)
    assert is_regular(T)
    # every element generates the whole left ideal, so L is a single class;
    # principal right ideals are singletons, so R is trivial
    green = green_via_ideals(T)
    assert green["L"] == ((0, 1),)
    assert green["R"] == ((0,), (1,))


def test_right_zero_semigroup():
    # x*y = y: principal left ideals are singletons
    T = from_table([[0, 1], [0, 1]])
    assert left_ideal(T, 0) == frozenset({0})
    green = green_via_ideals(T)
    assert green["L"] == ((0,), (1,))
    assert green["R"] == ((0, 1),)


def test_not_associative_witness():
    # only from_table scans for associativity; the class checks closure only
    assert GenericSemigroup([[0, 1], [0, 0]]).table.tolist() == [[0, 1], [0, 0]]
    with pytest.raises(NotAssociative, match=r"^\(1\*0\)\*1 = 1 but 1\*\(0\*1\) = 0$"):
        from_table([[0, 1], [0, 0]])


def test_not_closed():
    for build in (GenericSemigroup, from_table):
        with pytest.raises(NotClosed):
            build([[0, 2], [1, 0]])
        with pytest.raises(NotClosed):
            build([[0, 1], [1]])


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "empty multiplication table"),
        ([[0, 1], [1]], "row 1 has 1 entries, expected 2"),
        ([[0, 1, 2], [0, 1, 2, 0], [0, 1, 2]], "row 1 has 4 entries, expected 3"),
        ([[0, 1], [2, 0]], "entry 2 at row 1, column 0 is not an index below 2"),
        ([[0, 1, 2], [0, 1, -1], [3, 1, 2]], "entry -1 at row 1, column 2 is not an index below 3"),
        # a row-major scan meets the bad entry of row 0 before the short row 1
        ([[0, 5], [1]], "entry 5 at row 0, column 1 is not an index below 2"),
        ([[0], [1, 1]], "row 0 has 1 entries, expected 2"),
    ],
)
def test_not_closed_messages(table, message):
    for build in (GenericSemigroup, from_table):
        with pytest.raises(NotClosed, match=f"^{re.escape(message)}$"):
            build(table)


def test_closed_table_keeps_its_entries():
    T = GenericSemigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert T.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert T.table.dtype == np.int32 and not T.table.flags.writeable
    assert type(T.mul(1, 2)) is int


def test_the_oracle_wraps_the_rees_table_without_a_copy(s1):
    S = ReesSemigroup(s1.matrix)
    assert np.shares_memory(S.to_generic().table, S.table())
    # a writable array stays writable for its owner, and read-only in the oracle
    table = S.index_table()
    T = GenericSemigroup(table)
    assert np.shares_memory(T.table, table)
    assert table.flags.writeable and not T.table.flags.writeable


def test_green_agreement_with_rees(s1):
    assert green_via_ideals(s1.to_generic()) == s1.green()


def test_verify_map_identity(s1):
    T = s1.to_generic()
    check = verify_map(list(range(T.size)), T, T)
    assert check.is_homomorphism and check.is_injective and check.is_surjective
    assert check.is_isomorphism
    assert check.witness is None


def test_verify_map_constant(s1):
    T = s1.to_generic()
    check = verify_map([0] * T.size, T, T)
    assert not (check.is_homomorphism and check.is_injective)
    assert not check.is_surjective
    assert check.witness


def test_verify_map_validates_totality(s1):
    T = s1.to_generic()
    with pytest.raises(IndexOutOfRange):
        verify_map([0] * (T.size - 1), T, T)
    with pytest.raises(IndexOutOfRange):
        verify_map([T.size] * T.size, T, T)


def _conjugate(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


@settings(max_examples=40)
@given(st.permutations(range(8)))
def test_green_permutation_invariance(s1, perm):
    table = s1.index_table()
    T = from_table(table)
    T2 = from_table(_conjugate(table, list(perm)))
    relabeled = {
        kind: canonical_partition([perm[x] for x in cls] for cls in partition)
        for kind, partition in green_via_ideals(T).items()
    }
    assert relabeled == green_via_ideals(T2)


@st.composite
def closed_tables(draw, max_size=12):
    """A closed table with at most max_size elements: arbitrary entries, or a
    null semigroup, a semilattice, or a Rees matrix semigroup over a cyclic
    group with one entry possibly changed, relabelled at random."""
    family = draw(st.sampled_from(["random", "null", "semilattice", "rees"]))
    if family == "rees":
        order = draw(st.integers(1, 3))
        n_lambda = draw(st.integers(1, max(1, max_size // (order * 2))))
        n_i = draw(st.integers(1, max(1, max_size // (order * n_lambda))))
        entries = draw(
            st.lists(
                st.lists(st.integers(0, order - 1), min_size=n_i, max_size=n_i),
                min_size=n_lambda,
                max_size=n_lambda,
            )
        )
        table = ReesSemigroup(SandwichMatrix(builtin("cyclic", order), entries)).index_table()
        n = len(table)
        if draw(st.booleans()):
            a, b, v = (draw(st.integers(0, n - 1)) for _ in range(3))
            table[a, b] = v
        table = table.tolist()
    else:
        n = draw(st.integers(1, max_size))
        if family == "random":
            row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
            table = draw(st.lists(row, min_size=n, max_size=n))
        elif family == "null":
            zero = draw(st.integers(0, n - 1))
            table = [[zero] * n for _ in range(n)]
        else:
            table = [[min(a, b) for b in range(n)] for a in range(n)]
    return _conjugate(table, draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(closed_tables())
def test_array_oracle_matches_the_loops(table):
    # Verdicts, ideals, idempotents and Green partitions of the row-at-a-time
    # oracle equal those of the scalar loops, associative table or not.
    T = GenericSemigroup(table)
    assert is_regular(T) is scalar_reference.is_regular(T)
    assert idempotents(T) == scalar_reference.idempotents(T)
    for x in range(T.size):
        assert left_ideal(T, x) == scalar_reference.left_ideal(T, x)
        assert right_ideal(T, x) == scalar_reference.right_ideal(T, x)
    assert green_via_ideals(T) == scalar_reference.green_via_ideals(T)


@settings(max_examples=150, deadline=None)
@given(closed_tables(), st.data())
def test_verify_map_matches_the_loops(table, data):
    # Random maps into a random table, and relabellings of the table onto its
    # conjugate with at most one image moved: the whole MapCheck, witness
    # included, is the loop's.
    T1 = GenericSemigroup(table)
    if data.draw(st.booleans()):
        T2 = GenericSemigroup(data.draw(closed_tables()))
        f = data.draw(
            st.lists(st.integers(0, T2.size - 1), min_size=T1.size, max_size=T1.size)
        )
    else:
        f = list(data.draw(st.permutations(range(T1.size))))
        T2 = GenericSemigroup(_conjugate(table, f))
        if data.draw(st.booleans()):
            f[data.draw(st.integers(0, T1.size - 1))] = data.draw(st.integers(0, T1.size - 1))
    check = verify_map(f, T1, T2)
    assert check == scalar_reference.verify_map_loops(f, T1, T2)
    assert check.witness is None or "np." not in check.witness


@settings(max_examples=200, deadline=None)
@given(closed_tables())
# Z4 with 2+3 changed to 0: the generators are 0 and 1, and only 1 fails
@example([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]])
def test_associativity_witness_matches_the_triple_loop(table):
    # Light's test, then the full row scan on failure: the verdict and the
    # first witness are those of all n^3 triples in (a, b, c) order.
    T = GenericSemigroup(table)
    assert associativity_witness(T.table) == scalar_reference.associativity_witness(T)


@settings(max_examples=150, deadline=None)
@given(closed_tables())
def test_generators_are_the_greedy_generating_set(table):
    # Each generator is the least element outside the closure of those
    # before it, and all of them close to the whole table.
    T = GenericSemigroup(table)
    gens = generators(T.table)
    everything = set(range(T.size))
    for k, x in enumerate(gens):
        assert x == min(everything - scalar_reference.magma_closure(T, gens[:k]))
    assert scalar_reference.magma_closure(T, gens) == everything
