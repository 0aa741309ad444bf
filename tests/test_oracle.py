import re

import pytest
from hypothesis import given, settings, strategies as st

from crossconn import (
    GenericSemigroup,
    from_table,
    green_via_ideals,
    idempotents,
    is_regular,
    verify_map,
)
from crossconn.errors import IndexOutOfRange, NotAssociative, NotClosed
from crossconn.oracle import canonical_partition, left_ideal


def test_rees_export_is_valid(s1):
    T = s1.to_generic()
    assert T.size == 8
    assert is_regular(T)


def test_trivial_semigroup():
    T = from_table([[0]])
    assert idempotents(T) == [0]
    assert is_regular(T)
    for kind in "LRHD":
        assert green_via_ideals(T, kind) == ((0,),)


def test_left_zero_semigroup():
    # x*y = x: associative, noncommutative, regular
    T = from_table([[0, 0], [1, 1]])
    assert T.mul(0, 1) != T.mul(1, 0)
    assert is_regular(T)
    # every element generates the whole left ideal, so L is a single class;
    # principal right ideals are singletons, so R is trivial
    assert green_via_ideals(T, "L") == ((0, 1),)
    assert green_via_ideals(T, "R") == ((0,), (1,))


def test_right_zero_semigroup():
    # x*y = y: principal left ideals are singletons
    T = from_table([[0, 1], [0, 1]])
    assert left_ideal(T, 0) == frozenset({0})
    assert green_via_ideals(T, "L") == ((0,), (1,))
    assert green_via_ideals(T, "R") == ((0, 1),)


def test_not_associative_witness():
    # only from_table scans for associativity; the class checks closure only
    assert GenericSemigroup([[0, 1], [0, 0]]).table == ((0, 1), (0, 0))
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
    assert T.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert all(type(v) is int for row in T.table for v in row)


def test_green_agreement_with_rees(s1):
    T = s1.to_generic()
    for kind in "LRHD":
        assert green_via_ideals(T, kind) == s1.green(kind)


def test_unknown_relation(s1):
    with pytest.raises(IndexOutOfRange):
        green_via_ideals(s1.to_generic(), "J")


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
    for kind in "LRHD":
        relabeled = canonical_partition(
            [perm[x] for x in cls] for cls in green_via_ideals(T, kind)
        )
        assert relabeled == green_via_ideals(T2, kind)
