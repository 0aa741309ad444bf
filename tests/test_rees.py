import random
from itertools import product

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings, strategies as st

from crossconn import (
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    green_via_ideals,
    identity_matrix,
    kernel,
    load_matrix_file,
    rees,
)
from crossconn.errors import MixedSemigroups, ParseError, SizeGuardExceeded


def test_product_formula_fixture(s1):
    # (1, i=0, lam=1) * (1, i=1, lam=0): 1 + p[1][1] + 1 = 1
    assert s1.mul(ReesElement(1, 0, 1), ReesElement(1, 1, 0)) == ReesElement(1, 0, 0)


def test_product_identity_matrix(z2):
    S = ReesSemigroup(identity_matrix(z2, 2, 2))
    for i, lam, j, mu in product(range(2), repeat=4):
        assert S.mul(ReesElement(0, i, lam), ReesElement(0, j, mu)) == ReesElement(0, i, mu)


def test_product_components(z3):
    S = ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]]))
    for x in S.elements():
        for y in S.elements():
            z = S.mul(x, y)
            assert z.i == x.i and z.lam == y.lam
            assert z.g == z3.mul(z3.mul(x.g, S.matrix.entry(x.lam, y.i)), y.g)


def test_mixed_semigroups(s1):
    with pytest.raises(MixedSemigroups):
        s1.mul(ReesElement(0, 0, 5), ReesElement(0, 0, 0))
    with pytest.raises(MixedSemigroups):
        s1.mul(ReesElement(0, 0, 0), ReesElement(3, 0, 0))


def test_size_guard(z2):
    with pytest.raises(SizeGuardExceeded):
        ReesSemigroup(identity_matrix(z2, 32, 32), size_guard=512)


def test_enumeration_order_and_index(s1):
    elements = list(s1.elements())
    assert len(elements) == s1.size == 8
    assert elements[0] == ReesElement(0, 0, 0)
    assert elements[-1] == ReesElement(1, 1, 1)
    for k, x in enumerate(elements):
        assert s1.index(x) == k
        assert s1.element(k) == x


def test_idempotents_fixture(s1):
    expected = {
        ReesElement(0, 0, 0),
        ReesElement(0, 1, 0),
        ReesElement(0, 0, 1),
        ReesElement(1, 1, 1),
    }
    assert set(s1.idempotents()) == expected
    assert len(s1.idempotents()) == 4


def test_idempotents_identity_matrix(s3):
    S = ReesSemigroup(identity_matrix(s3, 2, 3))
    assert set(S.idempotents()) == {
        ReesElement(s3.identity, i, lam) for i in range(3) for lam in range(2)
    }


def test_idempotents_random_fixtures(make_random_matrix):
    rng = random.Random(1234)
    groups = [builtin("cyclic", 2), builtin("cyclic", 3), builtin("symmetric", 3)]
    for k in range(20):
        G = groups[k % 3]
        S = ReesSemigroup(make_random_matrix(G, rng.randint(1, 3), rng.randint(1, 3), rng))
        brute = {x for x in S.elements() if S.mul(x, x) == x}
        assert set(S.idempotents()) == brute
        assert len(brute) == S.n_i * S.n_lambda


def test_green_fixture(s1):
    green = s1.green()
    assert list(green) == ["L", "R", "H", "D"]
    assert len(green["L"]) == 2 and all(len(cls) == 4 for cls in green["L"])
    assert len(green["H"]) == 4 and all(len(cls) == 2 for cls in green["H"])
    assert green["D"] == (tuple(range(8)),)


def test_green_oracle_agreement(s1, z3, s3):
    fixtures = [
        s1,
        ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]])),
        ReesSemigroup(SandwichMatrix(s3, [[0, 3], [1, 0]])),
    ]
    for S in fixtures:
        assert S.green() == green_via_ideals(S.to_generic())


def test_principal_left_ideal_fixture(s1):
    ideal = scalar_reference.principal_left_ideal(s1, ReesElement(1, 0, 1))
    assert ideal == {s1.index(x) for x in s1.elements() if x.lam == 1}
    assert len(ideal) == 4  # |G| * |I|


def test_principal_left_ideal_brute_force(s1):
    # the scalar closed form is S^1 x by S.mul, and the packed closed form
    # of each L-class holds the members of the scalar one of its elements
    elements = list(s1.elements())
    closed = {x: scalar_reference.principal_left_ideal(s1, x) for x in elements}
    rows = s1.left_ideal_rows()
    assert rows.shape == (s1.n_lambda, (s1.size + 7) // 8)
    for x in elements:
        brute = frozenset({s1.index(x)} | {s1.index(s1.mul(s, x)) for s in elements})
        assert closed[x] == brute
        assert np.flatnonzero(np.unpackbits(rows[x.lam], count=s1.size)).tolist() == sorted(brute)
    for x in elements:
        for y in elements:
            assert (closed[x] == closed[y]) == (x.lam == y.lam)


def test_regularity(s1):
    elements = list(s1.elements())
    for x in elements:
        assert any(s1.mul(s1.mul(x, y), x) == x for y in elements)


def test_associativity_exhaustive(s1, z3):
    fixtures = [s1, ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]]))]
    for S in fixtures:
        elements = list(S.elements())
        for x, y, z in product(elements, repeat=3):
            assert S.mul(S.mul(x, y), z) == S.mul(x, S.mul(y, z))


def test_index_table_matches_scalar_product(s1, z3):
    for S in (s1, ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]]))):
        table = S.index_table()
        for x in S.elements():
            for y in S.elements():
                assert table[S.index(x)][S.index(y)] == S.index(S.mul(x, y))
        scalar_reference.from_table(table)  # validates associativity


def _product_table(S):
    """The table of `rees.product` on the coordinates of every pair, in index order."""
    coords = [(x.g, x.i, x.lam) for x in S.elements()]
    cayley, entries = S.group.array, S.matrix.array
    return [
        [S.index(ReesElement(*map(int, rees.product(cayley, entries, *x, *y)))) for y in coords]
        for x in coords
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("cyclic", 1), ("cyclic", 3), ("klein", 0), ("symmetric", 3)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_blocked_index_table_is_the_product(family, n_lambda, n_i, data):
    # index_table is rees.product on every pair, in kernel.index_dtype(|S|),
    # for S and for M[G^op; Lambda, I; P^T], whose group and matrix arrays
    # are the transposed views of S's.
    G = builtin(*family)
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries), size_guard=10**4)
    opposite = ReesSemigroup(S.matrix.transpose, size_guard=10**4)
    table, opposite_table = S.index_table(), opposite.index_table()
    assert table.dtype == opposite_table.dtype == kernel.index_dtype(S.size) == np.int16
    assert table.tolist() == _product_table(S)
    assert opposite_table.tolist() == _product_table(opposite)


def test_idempotent_iff_inverse_entry(s1):
    for x in s1.elements():
        is_idem = s1.mul(x, x) == x
        assert is_idem == (x.g == s1.group.inv(s1.matrix.entry(x.lam, x.i)))


MATRIX_ERRORS = [
    ([], "sandwich matrix needs at least one row and one column"),
    ([[]], "sandwich matrix needs at least one row and one column"),
    ([[0, 1], [0]], "row 1 has 1 entries, expected 2"),
    ([[0, 2]], "entry at row 0, column 1 is 2, not an element of a group of order 2"),
    ([[0, 1], [-1, 0]], "entry at row 1, column 0 is -1, not an element of a group of order 2"),
    ([[0, 2**70]], f"entry at row 0, column 1 is {2**70}, not an element of a group of order 2"),
    # the first bad entry in row-major order, not in column-major order
    ([[0, 2], [3, 0]], "entry at row 0, column 1 is 2, not an element of a group of order 2"),
    # rows are read in order: a bad entry before a short row is met first
    ([[0, 5], [0]], "entry at row 0, column 1 is 5, not an element of a group of order 2"),
    ([[0, 1], [0], [7, 7]], "row 1 has 1 entries, expected 2"),
]


def test_matrix_validation(z2):
    for entries, message in MATRIX_ERRORS:
        with pytest.raises(ParseError) as error:
            SandwichMatrix(z2, entries)
        assert str(error.value) == message, entries


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1.5]], "entry at row 0, column 0 is 1.5, not an integer"),
        ([["1"]], "entry at row 0, column 0 is '1', not an integer"),
        ([[True]], "entry at row 0, column 0 is True, not an integer"),
        (np.array([[0.0, 1.0]]), "entry at row 0, column 0 is 0.0, not an integer"),
    ],
)
def test_matrix_rejects_entries_that_are_not_integers(z2, entries, message):
    # numpy reads each of these as the integer 1 (or 0 and 1), so the matrix
    # used to be built; the first entry that is not an integer is named
    with pytest.raises(ParseError) as error:
        SandwichMatrix(z2, entries)
    assert str(error.value) == message


def test_matrix_rows_columns(p1):
    assert p1.rows == 2 and p1.cols == 2
    assert p1.array[:, 1].tolist() == [0, 1]
    assert p1.array[1].tolist() == [0, 1]
    assert p1.entry(1, 1) == 1


def test_load_matrix_file(tmp_path, z2, p1):
    path = tmp_path / "P1.csv"
    path.write_text("0,0\n0,1\n")
    assert load_matrix_file(path, z2) == p1


def test_load_matrix_file_bad_label(tmp_path, z2):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n0,x\n")
    with pytest.raises(ParseError, match=r"row 1, column 1"):
        load_matrix_file(path, z2)


def test_transpose_involution(s3):
    P = SandwichMatrix(s3, [[0, 3, 1], [2, 5, 4]])
    T = P.transpose
    assert T.transpose is P
    assert T.group is s3.opposite
    assert (T.rows, T.cols) == (P.cols, P.rows)
    for lam, i in product(range(P.rows), range(P.cols)):
        assert T.entry(i, lam) == P.entry(lam, i)


def test_matrix_array_is_the_read_only_entries(s3):
    # P owns its (|Lambda|, |I|) array; P^T's is the transposed view of it
    entries = [[0, 3, 1], [2, 5, 4]]
    P = SandwichMatrix(s3, entries)
    assert P.array.tolist() == entries
    assert P.transpose.array.tolist() == [list(column) for column in zip(*entries)]
    for matrix in (P, P.transpose):
        assert matrix.array.dtype == np.intp
        assert matrix.array.shape == (matrix.rows, matrix.cols)
        assert matrix.label_rows() == [[s3.names[v] for v in row] for row in matrix.array.tolist()]
        with pytest.raises(ValueError):
            matrix.array[0, 0] = 1
    assert P.transpose.array.base is P.array
    assert (P.transpose.array == P.array.T).all()
    assert not P.transpose.array.flags.writeable


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([("cyclic", 2), ("cyclic", 3), ("klein", 0), ("symmetric", 3)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_opposite_semigroup_is_the_transposed_data(family, n_lambda, n_i, data):
    # S^op = M[G^op; Lambda, I; P^T] under (g, i, lam) -> (g, lam, i),
    # checked on raw tables by the oracle.
    G = builtin(*family)
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = ReesSemigroup(SandwichMatrix(G, entries))
    table = S.index_table()
    transposed = [[table[y][x] for y in range(S.size)] for x in range(S.size)]
    # index of (g, lam, i) in the (g, i', lam') order of M[G^op; Lambda, I; P^T]
    f = [(x.g * n_lambda + x.lam) * n_i + x.i for x in S.elements()]
    opposite = ReesSemigroup(S.matrix.transpose)
    T1, T2 = (scalar_reference.from_table(t) for t in (transposed, opposite.index_table()))
    assert scalar_reference.verify_map_into(f, T1, T2.table) is None


