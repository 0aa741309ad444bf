from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossconn import FiniteGroup, builtin, load_cayley, load_cayley_file
from crossconn.errors import (
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    ParseError,
    SizeGuardExceeded,
)


def test_cyclic2_is_xor(z2):
    assert z2.order == 2
    assert z2.identity == 0
    assert z2.mul(1, 1) == 0
    assert z2.inv(1) == 1


@pytest.mark.parametrize(
    "cayley, message",
    [
        ([[0, 1], [1, 0.7]], "entry at row 1, column 1 is 0.7, not an integer"),
        ([["0", "1"], ["1", "0"]], "entry at row 0, column 0 is '0', not an integer"),
        ([[True, False], [False, True]], "entry at row 0, column 0 is True, not an integer"),
    ],
)
def test_group_rejects_entries_that_are_not_integers(cayley, message):
    # the floats and the bools used to build Z2, and the strings raised
    # numpy's UFuncTypeError, which is not a CrossconnError
    with pytest.raises(ParseError) as error:
        FiniteGroup(cayley)
    assert str(error.value) == message


@pytest.mark.parametrize("names", [["a", "a"], [1, "1"]])
def test_group_rejects_duplicate_element_names(names):
    # with two elements named "a", index_of("a") read both as element 0,
    # so a labelled matrix entry 1 came back as entry 0
    with pytest.raises(ParseError, match="^duplicate element labels$"):
        FiniteGroup([[0, 1], [1, 0]], names=names)


def test_cyclic3_arithmetic(z3):
    assert z3.mul(2, 2) == 1
    assert z3.inv(1) == 2
    assert z3.inv(0) == 0


def test_symmetric3_shape(s3):
    assert s3.order == 6
    assert s3.identity == 0
    assert s3.names[0] == "012"


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_table_is_the_composition_of_sorted_permutations(n):
    # The definition: permutations of 0..n-1 in lexicographic order, a*b
    # being "apply b, then a", its index looked up in a dict.
    perms = sorted(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    G = builtin("symmetric", n)
    assert G.array.tolist() == [
        [index[tuple(a[b[x]] for x in range(n))] for b in perms] for a in perms
    ]
    assert G.names == tuple("".join(map(str, p)) for p in perms)
    assert G.identity == 0


def test_symmetric3_noncommutative_witness(s3):
    witness = [
        (a, b)
        for a in s3.elements()
        for b in s3.elements()
        if s3.mul(a, b) != s3.mul(b, a)
    ]
    assert witness


def test_symmetric3_transpositions_self_inverse(s3):
    # scan the table for two-sided inverses of the order-2 elements
    for a in s3.elements():
        if a != s3.identity and s3.mul(a, a) == s3.identity:
            found = [b for b in s3.elements() if s3.mul(a, b) == s3.identity == s3.mul(b, a)]
            assert found == [a]


def test_klein_all_self_inverse(klein):
    assert klein.order == 4
    for a in klein.elements():
        assert klein.inv(a) == a


def test_symmetric_size_guard():
    with pytest.raises(SizeGuardExceeded):
        builtin("symmetric", 6)


def test_builtin_bad_specs():
    with pytest.raises(ParseError):
        builtin("cyclic", 0)
    with pytest.raises(ParseError):
        builtin("dihedral", 3)


@pytest.mark.parametrize("order", [1, 2, 5, 8])
def test_cyclic_axioms_exhaustive(order):
    G = builtin("cyclic", order)
    for a, b, c in product(G.elements(), repeat=3):
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    for a in G.elements():
        assert G.mul(a, G.inv(a)) == G.identity


def test_associativity_exhaustive_small(s3, klein):
    for G in (s3, klein):
        for a, b, c in product(G.elements(), repeat=3):
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@given(st.integers(min_value=1, max_value=24), st.data())
def test_double_inverse(order, data):
    G = builtin("cyclic", order)
    a = data.draw(st.integers(min_value=0, max_value=order - 1))
    assert G.inv(G.inv(a)) == a


def test_load_xor_table():
    G = load_cayley([["0", "1"], ["1", "0"]])
    assert G.order == 2
    assert G.identity == 0
    assert G.names == ("0", "1")


def test_load_roundtrip_identical():
    for family, n in (("cyclic", 2), ("cyclic", 3), ("symmetric", 3), ("klein", 0)):
        G = builtin(family, n)
        rows = [[G.names[v] for v in row] for row in G.array.tolist()]
        assert load_cayley(rows, labels=G.names) == G


def test_load_identity_not_first():
    # element order (a, e): the loader must detect the identity at index 1
    G = load_cayley([["e", "a"], ["a", "e"]], labels=["a", "e"])
    assert G.identity == 1
    assert G.mul(0, 0) == 1


def test_load_unknown_label():
    with pytest.raises(NotClosed, match="not a declared label"):
        load_cayley([["0", "2"], ["1", "0"]], labels=["0", "1"])


def test_load_ragged_row():
    with pytest.raises(NotClosed):
        load_cayley([["0", "1"], ["1"]], labels=["0", "1"])


def test_load_not_associative():
    # 0*0=0, 0*1=1, 1*0=0, 1*1=0: (1*1)*1 = 1 but 1*(1*1) = 0
    with pytest.raises(NotAssociative):
        load_cayley([["0", "1"], ["0", "0"]], labels=["0", "1"])


def test_load_no_identity():
    with pytest.raises(NoIdentity):
        load_cayley([["0", "0"], ["1", "1"]], labels=["0", "1"])


def test_load_no_inverse():
    # max(a, b) is an associative monoid, but 1 has no inverse
    with pytest.raises(NoInverse):
        load_cayley([["0", "1"], ["1", "1"]], labels=["0", "1"])


def test_index_out_of_range(z2):
    with pytest.raises(IndexOutOfRange):
        z2.mul(0, 2)
    with pytest.raises(IndexOutOfRange):
        z2.inv(-1)


def test_order_guard():
    with pytest.raises(SizeGuardExceeded):
        FiniteGroup([[(a + b) % 300 for b in range(300)] for a in range(300)])


def test_cayley_file_csv_and_tsv(tmp_path, s3):
    csv_path = tmp_path / "s3.csv"
    rows = [[s3.names[v] for v in row] for row in s3.array.tolist()]
    csv_path.write_text(
        ",".join(s3.names) + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
    )
    assert load_cayley_file(csv_path) == s3

    tsv_path = tmp_path / "s3.tsv"
    tsv_path.write_text(
        "\t".join(s3.names) + "\n" + "\n".join("\t".join(row) for row in rows) + "\n"
    )
    assert load_cayley_file(tsv_path) == s3


def test_cayley_file_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ParseError):
        load_cayley_file(path)


def _relabelled_s3() -> FiniteGroup:
    """S3 with its elements listed so that the identity sits at index 3."""
    s3 = builtin("symmetric", 3)
    labels = ["120", "021", "210", "012", "201", "102"]
    table = [
        [s3.names[s3.mul(s3.index_of(a), s3.index_of(b))] for b in labels] for a in labels
    ]
    return load_cayley(table, labels=labels)


@pytest.mark.parametrize(
    "G",
    [
        builtin("cyclic", 1),
        builtin("cyclic", 4),
        builtin("klein"),
        builtin("symmetric", 3),
        builtin("symmetric", 4),
        _relabelled_s3(),
    ],
    ids=["z1", "z4", "klein", "s3", "s4", "s3_relabelled"],
)
def test_opposite_group(G):
    op = G.opposite
    assert op.opposite is G
    assert G.opposite is op
    assert (op.names, op.identity) == (G.names, G.identity)
    assert op.inverse is G.inverse
    for a, b in product(G.elements(), repeat=2):
        assert op.mul(a, b) == G.mul(b, a)
    abelian = all(G.mul(a, b) == G.mul(b, a) for a, b in product(G.elements(), repeat=2))
    assert (op == G) == abelian


def test_group_array_is_the_read_only_cayley_table(s3):
    # G owns its arrays, the Cayley table and the inverses; G^op's table is
    # the read-only transposed view of G's, not a copy, and its inverses G's
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert FiniteGroup(table).array.tolist() == table
    for G in (s3, s3.opposite, _relabelled_s3()):
        assert G.array.dtype == G.inverse.dtype == np.intp
        assert G.array.shape == (G.order, G.order) and G.inverse.shape == (G.order,)
        with pytest.raises(ValueError):
            G.array[0, 0] = G.array[0, 1]
        with pytest.raises(ValueError):
            G.inverse[0] = G.inverse[1]
        products = [[G.mul(a, b) for b in G.elements()] for a in G.elements()]
        assert G.array.tolist() == products
    assert s3.opposite.array.base is s3.array
    assert (s3.opposite.array == s3.array.T).all()
    assert not s3.opposite.array.flags.writeable


def test_relabelled_identity_not_at_zero():
    assert _relabelled_s3().identity == 3
