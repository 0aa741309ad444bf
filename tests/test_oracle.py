import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scalar_reference
from hypothesis import example, given, settings, strategies as st
from scalar_reference import from_table, verify_map_into

from crossconn import (
    GenericSemigroup,
    ReesSemigroup,
    SandwichMatrix,
    associativity_witness,
    builtin,
    cones,
    connections,
    green_via_ideals,
    identity_matrix,
    idempotents,
    is_regular,
    kernel,
    oracle,
    verify_map,
)
from crossconn.errors import IndexOutOfRange, NotAssociative, NotClosed
from crossconn.oracle import ProductTables, canonical_partition, generators, ideal_rows


def _ideals(T, side):
    """The members of each principal ideal, unpacked from `ideal_rows`."""
    rows = np.unpackbits(ideal_rows(T.table)[side == "right"], axis=1, count=T.size)
    return [frozenset(np.flatnonzero(row).tolist()) for row in rows]


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
    assert _ideals(T, "left") == [frozenset({0}), frozenset({1})]
    green = green_via_ideals(T)
    assert green["L"] == ((0,), (1,))
    assert green["R"] == ((0, 1),)


def _full_transformations(n: int) -> list[list[int]]:
    """The table of T_n, every map of 0..n-1 to itself, as x*y = "x, then y"."""
    maps = list(itertools.product(range(n), repeat=n))
    index = {f: k for k, f in enumerate(maps)}
    return [[index[tuple(g[f[p]] for p in range(n))] for g in maps] for f in maps]


def _monogenic(index: int, period: int) -> list[list[int]]:
    """The table of <a | a^(index+period) = a^index>, element k being a^(k+1)."""
    n = index + period - 1

    def power(k: int) -> int:
        return k if k <= n else index + (k - index) % period

    return [[power(x + y + 2) - 1 for y in range(n)] for x in range(n)]


@pytest.mark.parametrize(
    "table, regular",
    [
        # null semigroup, x*y = 0: only 0 is regular
        ([[0] * 4 for _ in range(4)], False),
        # the full transformation monoid on 3 points is regular
        (_full_transformations(3), True),
        # a of index 2 is in no subgroup: its R-class {a} holds no idempotent
        (_monogenic(2, 3), False),
        # index 1: a cyclic group
        (_monogenic(1, 4), True),
    ],
    ids=["null", "T3", "monogenic-index-2", "monogenic-index-1"],
)
def test_regular_via_r_classes_matches_is_regular(table, regular):
    # associative tables that are not completely simple: the R-class rule
    # gives is_regular's verdict and the loop's
    T = from_table(table)
    verdict = oracle.regular_via_r_classes(T, green_via_ideals(T)["R"])
    assert verdict is is_regular(T) is scalar_reference.is_regular(T) is regular


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


FORMATS = ["int16", "int32", "int64", "list", "object"]


def _as(kind, rows):
    """The rows of a table as the oracle may be given them: an array of an
    integer dtype or of Python ints, or lists."""
    if kind == "list":
        return [list(row) for row in rows]
    return np.array(rows, dtype=object if kind == "object" else kind)


def _formats(rows):
    """The FORMATS that can hold these rows: an array needs rows of one
    length, and an integer dtype entries within int16."""
    if len({len(row) for row in rows}) > 1:
        return ["list"]
    if any(not -(2**15) <= x < 2**15 for row in rows for x in row):
        return ["list", "object"]
    return FORMATS


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "empty multiplication table"),
        ([[0, 1], [1]], "row 1 has 1 entries, expected 2"),
        ([[0, 1, 2], [0, 1, 2, 0], [0, 1, 2]], "row 1 has 4 entries, expected 3"),
        ([[0, 1], [2, 0]], "entry 2 at row 1, column 0 is not an index below 2"),
        # a scan by columns would meet (2, 0) first, and the least and
        # greatest entries are one of each
        ([[0, 1, 2], [0, 1, -1], [3, 1, 2]], "entry -1 at row 1, column 2 is not an index below 3"),
        # a row-major scan meets the bad entry of row 0 before the short row 1
        ([[0, 5], [1]], "entry 5 at row 0, column 1 is not an index below 2"),
        ([[0], [1, 1]], "row 0 has 1 entries, expected 2"),
        # a negative entry alone, which the greatest entry does not show
        ([[0, 1], [1, -1]], "entry -1 at row 1, column 1 is not an index below 2"),
        # the n before the -1
        ([[0, 1, 2], [0, 1, 3], [-1, 1, 2]], "entry 3 at row 1, column 2 is not an index below 3"),
        # an entry past int64 after both
        ([[0, 1, 2], [0, 1, -1], [3, 1, 2**64]], "entry -1 at row 1, column 2 is not an index below 3"),
        # three rows of two: no row is read for closure, so the entry past
        # int64 is not named
        ([[0, 1], [1, 0], [0, 1]], "row 0 has 2 entries, expected 3"),
        ([[0, 2**64], [1, 0], [0, 1]], "row 0 has 2 entries, expected 3"),
    ],
)
def test_not_closed_messages(table, message):
    for kind in _formats(table):
        for build in (GenericSemigroup, from_table):
            with pytest.raises(NotClosed, match=f"^{re.escape(message)}$"):
                build(_as(kind, table))


def test_closed_table_keeps_its_entries():
    T = GenericSemigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert T.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert T.table.dtype == kernel.index_dtype(3) and not T.table.flags.writeable
    assert type(T.mul(1, 2)) is int


def test_the_oracle_wraps_the_rees_table_without_a_copy(s1):
    S = ReesSemigroup(s1.matrix)
    assert np.shares_memory(S.to_generic().table, S.table())
    # a writable array stays writable for its owner, and read-only in the oracle
    table = S.index_table()
    T = GenericSemigroup(table)
    assert np.shares_memory(T.table, table)
    assert table.flags.writeable and not T.table.flags.writeable


def test_the_oracle_reads_both_table_formats_as_they_are(s1):
    # every product table is built narrow, and the oracle reads the narrow
    # and the int32 format without a copy; any other input is cast to the
    # narrow format
    narrow = s1.index_table()
    linked = connections.pair_arrays(s1)
    for table in (narrow, linked.u_gamma.table, linked.u_delta.table):
        assert table.dtype == kernel.index_dtype(len(table)) == np.int16
    for table in (narrow, narrow.astype(np.int32)):
        T = GenericSemigroup(table)
        assert T.table.dtype == table.dtype and np.shares_memory(T.table, table)
    for table in (narrow.astype(np.int64), narrow.tolist()):
        T = GenericSemigroup(table)
        assert T.table.dtype == np.int16 and T.table.tolist() == narrow.tolist()


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_messages_quote_table_entries_as_plain_ints(dtype):
    # Z4 with 2+3 changed to 0: (1*1)*3 = 2*3 = 0 but 1*(1*3) = 1*0 = 1
    table = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]], dtype=dtype)
    with pytest.raises(NotAssociative, match=r"^\(1\*1\)\*3 = 0 but 1\*\(1\*3\) = 1$"):
        from_table(table)
    table[0, 1] = 7
    with pytest.raises(NotClosed, match="^entry 7 at row 0, column 1 is not an index below 4$"):
        GenericSemigroup(table)


@pytest.mark.parametrize("kind", ["int16", "int32", "int64", "object"])
def test_a_set_whose_last_product_is_absent_is_not_regular(kind):
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert connections.is_regular_set(_as(kind, rows))
    rows[2][2] = -1
    assert not connections.is_regular_set(_as(kind, rows))


def _peak(call, *args) -> int:
    """The peak bytes that tracemalloc counts during call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closure_is_decided_without_a_mask_of_the_table():
    # Z1024's (1024, 1024) int16 table, 2 MiB.  Its least and greatest
    # entries decide closure in under 2 kB; the masks beside the table
    # peaked at the table's size.  is_regular's blocks of rows peak at about
    # a third of n^2 bytes, below any one mask of the table.
    n = 1024
    table = ((np.arange(n)[:, None] + np.arange(n)) % n).astype(np.int16)
    assert _peak(GenericSemigroup, table) < table.nbytes / 8
    assert _peak(connections.is_regular_set, table) < n * n
    assert connections.is_regular_set(table)


def _same_verdicts_on_both_formats(S, f):
    """Light's test, regularity, Green's relations and the map check read S's
    narrow table and its int32 copy alike, witnesses included."""
    narrow = S.to_generic()
    wide = GenericSemigroup(narrow.table.astype(np.int32))
    assert (narrow.table.dtype, wide.table.dtype) == (np.int16, np.int32)
    witness = associativity_witness(narrow.table)
    assert witness == associativity_witness(wide.table)
    assert witness is None or all(type(x) is int for x in witness)
    assert is_regular(narrow) is is_regular(wide)
    assert green_via_ideals(narrow) == green_via_ideals(wide)
    for g in (f, range(S.size)):
        assert verify_map_into(g, narrow, narrow.table) == verify_map_into(g, wide, wide.table)
        assert verify_map_into(g, narrow, wide.table) == verify_map_into(g, wide, narrow.table)
    return witness


def _corrupt(S, a, b, shift):
    """S with entry (a, b) of its table moved `shift` places, modulo |S|."""
    S.ENTRIES = {(a, b): (int(S.index_table()[a, b]) + shift) % S.size}
    return S


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([builtin("cyclic", 2), builtin("cyclic", 3), builtin("symmetric", 3)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.data(),
)
def test_narrow_and_int32_tables_get_the_same_verdicts(G, n_lambda, n_i, corrupt, data):
    # Random matrices, with one entry of the table changed or none; the
    # witness of Light's test is also the triple loop's.
    entries = [
        [data.draw(st.integers(0, G.order - 1)) for _ in range(n_i)] for _ in range(n_lambda)
    ]
    S = scalar_reference.CorruptedTable(SandwichMatrix(G, entries))
    if corrupt:
        a, b = (data.draw(st.integers(0, S.size - 1)) for _ in range(2))
        _corrupt(S, a, b, data.draw(st.integers(1, S.size - 1)))
    f = data.draw(st.lists(st.integers(0, S.size - 1), min_size=S.size, max_size=S.size))
    witness = _same_verdicts_on_both_formats(S, f)
    assert witness == scalar_reference.associativity_witness(S.to_generic())


@pytest.mark.parametrize("corrupt", [False, True])
def test_narrow_and_int32_tables_agree_past_int16_products(corrupt):
    # |S| = 512, the wide_index shape: index arithmetic such as x*|S| + y
    # exceeds int16 here, so a scan that forgot to widen would differ
    S = scalar_reference.CorruptedTable(identity_matrix(builtin("cyclic", 2), 16, 16))
    if corrupt:
        _corrupt(S, 300, 7, 1)
    f = [(7 * x + 3) % S.size for x in range(S.size)]
    assert (_same_verdicts_on_both_formats(S, f) is None) is not corrupt


def test_green_agreement_with_rees(s1):
    assert green_via_ideals(s1.to_generic()) == s1.green()


def test_verify_map_identity(s1):
    T = s1.to_generic()
    assert verify_map_into(range(T.size), T, T.table) is None


def test_verify_map_constant(s1):
    T = s1.to_generic()
    witness = verify_map_into([0] * T.size, T, T.table)
    assert "f(0) = f(1) = 7" in witness
    assert witness.endswith("element 0 of the target is never hit")


def test_verify_map_validates_totality(s1):
    T = s1.to_generic()
    with pytest.raises(IndexOutOfRange):
        verify_map_into([0] * (T.size - 1), T, T.table)
    with pytest.raises(IndexOutOfRange):
        verify_map_into([T.size] * T.size, T, T.table)


def test_verify_map_into_product_tables_validates_its_pairs(s1):
    # the identity of S1 into S1's table times the trivial table
    T = s1.to_generic()
    target = ProductTables(T.table, np.zeros((1, 1), dtype=np.int16))
    g, d = np.arange(T.size), np.zeros(T.size, dtype=np.intp)
    assert verify_map((g, d), T, target) == (None, None, None, None)
    with pytest.raises(IndexOutOfRange, match="^map has 7 entries, expected 8$"):
        verify_map((g[:-1], d[:-1]), T, target)
    d[3] = 1
    with pytest.raises(IndexOutOfRange, match=r"^f\(3\) = \(3, 1\) is not an element of the target$"):
        verify_map((g, d), T, target)


def test_verify_map_closure_is_not_the_first_homomorphism_failure():
    # Z2 onto the pairs (0, 0) and (1, 0): f(0)*f(0) is the listed pair f(1),
    # the first homomorphism failure, and only f(1)*f(1) = (2, 0) is none
    T1 = GenericSemigroup([[0, 1], [1, 0]])
    first = np.array([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    target = ProductTables(first, np.zeros((1, 1), dtype=np.int16))
    first, second, closure, witness = verify_map(([0, 1], [0, 0]), T1, target)
    assert (first, second) == ((0, 0), None)
    assert closure == (1, 1)
    assert witness == "f(0*0) = 0 but f(0)*f(0) = 1"


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


# the groups of the Rees matrix semigroups among the closed tables
REES_GROUPS = [builtin("cyclic", k) for k in (1, 2, 3)] + [builtin("klein"), builtin("symmetric", 3)]


@st.composite
def closed_tables(draw, max_size=12):
    """A closed table: arbitrary entries, a null semigroup or a semilattice,
    with at most max_size elements, or a Rees matrix semigroup over a cyclic
    group, Klein's or S3 with at most 2*max_size, so that S3 has two
    L-classes, with up to two entries changed; relabelled at random."""
    family = draw(st.sampled_from(["random", "null", "semilattice", "rees"]))
    if family == "rees":
        G = draw(st.sampled_from(REES_GROUPS))
        n_lambda = draw(st.integers(1, max(1, max_size // G.order)))
        n_i = draw(st.integers(1, max(1, 2 * max_size // (G.order * n_lambda))))
        entries = draw(
            st.lists(
                st.lists(st.integers(0, G.order - 1), min_size=n_i, max_size=n_i),
                min_size=n_lambda,
                max_size=n_lambda,
            )
        )
        table = ReesSemigroup(SandwichMatrix(G, entries)).index_table()
        n = len(table)
        for _ in range(draw(st.integers(0, 2))):
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


# block sizes in entries: one row per block, a few rows, and the default
BLOCKS = st.sampled_from([1, 7, kernel.BLOCK])


@settings(max_examples=150, deadline=None)
@given(closed_tables(), BLOCKS)
def test_array_oracle_matches_the_loops(table, block):
    # Verdicts, ideals, idempotents and Green partitions of the blocked
    # oracle equal those of the scalar loops, associative table or not.
    T = GenericSemigroup(table)
    with mock.patch.object(kernel, "BLOCK", block):
        assert is_regular(T) is scalar_reference.is_regular(T)
        assert idempotents(T) == scalar_reference.idempotents(T)
        for side, reference in (
            ("left", scalar_reference.left_ideal),
            ("right", scalar_reference.right_ideal),
        ):
            assert _ideals(T, side) == [reference(T, x) for x in range(T.size)]
        assert green_via_ideals(T) == scalar_reference.green_via_ideals(T)


class _ListedPairs:
    """The pairs (g[k], d[k]) of the direct product of two tables, as
    `scalar_reference.verify_map_loops` reads a target: its size and a
    scalar product, the last k that lists the componentwise product, or -1
    where none does."""

    def __init__(self, first, second, g, d):
        self.first, self.second = first, second
        self.pairs = list(zip(g, d))
        self.number = {pair: k for k, pair in enumerate(self.pairs)}
        self.size = len(self.pairs)

    def mul(self, p: int, q: int) -> int:
        (x, y), (u, v) = self.pairs[p], self.pairs[q]
        return self.number.get((int(self.first[x, u]), int(self.second[y, v])), -1)


@settings(max_examples=150, deadline=None)
@given(closed_tables(), st.data(), BLOCKS)
def test_verify_map_into_product_tables_matches_the_loops(table, data, block):
    # A map given by its two component maps (g, d) into the direct product
    # of two tables, judged onto the pairs it lists: g a relabelling of T1
    # onto its conjugate or random, d random or constant at an idempotent,
    # perhaps with a hole (-1) in either table.  The witness, a product
    # that is no listed pair numbered -1, is that of the loops
    # over the listed pairs, whatever the blocks of rows, and the closure
    # witness is the first such product in row order.
    T1 = GenericSemigroup(table)
    n = T1.size
    if data.draw(st.booleans()):
        g = list(data.draw(st.permutations(range(n))))
        first = np.array(_conjugate(table, g))
    else:
        first = np.array(data.draw(closed_tables()))
        g = data.draw(st.lists(st.integers(0, len(first) - 1), min_size=n, max_size=n))
    second = np.array(data.draw(closed_tables(max_size=3)))
    idempotent = [e for e in range(len(second)) if second[e, e] == e]
    if idempotent and data.draw(st.booleans()):
        d = [data.draw(st.sampled_from(idempotent))] * n
    else:
        d = data.draw(st.lists(st.integers(0, len(second) - 1), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        holed = data.draw(st.sampled_from([first, second]))
        holed.flat[data.draw(st.integers(0, holed.size - 1))] = -1
    with mock.patch.object(kernel, "BLOCK", block):
        *_, closure, witness = verify_map((g, d), T1, ProductTables(first, second))
    target = _ListedPairs(first, second, g, d)
    f = [target.number[pair] for pair in target.pairs]
    assert witness == scalar_reference.verify_map_loops(f, T1, target)
    outside = ((a, b) for a in range(n) for b in range(n) if target.mul(f[a], f[b]) == -1)
    assert closure == next(outside, None)
    assert witness is None or "np." not in witness


@settings(max_examples=150, deadline=None)
@given(closed_tables(), st.data(), BLOCKS, st.sampled_from([np.int16, np.int32]))
def test_homomorphism_witness_matches_the_loops(table, data, block, dtype):
    # One component map m from T1 into a table t, both tables int16 or
    # int32 and T1 associative or not: m a relabelling of T1 onto its
    # conjugate, or random into another table, perhaps with -1 holes in t
    # (no product) and -1 entries in m (no element of t).  The first
    # failing (a, b) is that of the loops, whatever the blocks of rows.
    T1 = GenericSemigroup(np.array(table, dtype=dtype))
    n = T1.size
    if data.draw(st.booleans()):
        m = list(data.draw(st.permutations(range(n))))
        t = np.array(_conjugate(table, m), dtype=dtype)
    else:
        t = np.array(data.draw(closed_tables()), dtype=dtype)
        m = data.draw(st.lists(st.integers(0, len(t) - 1), min_size=n, max_size=n))
    m = np.array(m, dtype=data.draw(st.sampled_from([np.int32, np.intp])))
    for _ in range(data.draw(st.integers(0, 2))):
        t.flat[data.draw(st.integers(0, t.size - 1))] = -1
    for _ in range(data.draw(st.integers(0, 2))):
        m[data.draw(st.integers(0, n - 1))] = -1
    with mock.patch.object(kernel, "BLOCK", block):
        first = oracle.homomorphism_witness(m, T1, t)
    assert first == scalar_reference.homomorphism_witness_loops(m.tolist(), T1, t.tolist())
    assert first is None or all(type(x) is int for x in first)


@settings(max_examples=200, deadline=None)
@given(closed_tables(), BLOCKS)
# Z4 with 2+3 changed to 0: the generators are 0 and 1, and only 1 fails
@example([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]], kernel.BLOCK)
def test_associativity_witness_matches_the_triple_loop(table, block):
    # Light's test in blocks of rows, then the full row scan on failure:
    # the verdict and the first witness are those of all n^3 triples in
    # (a, b, c) order.
    T = GenericSemigroup(table)
    with mock.patch.object(kernel, "BLOCK", block):
        assert associativity_witness(T.table) == scalar_reference.associativity_witness(T)


@settings(max_examples=150, deadline=None)
@given(closed_tables(), BLOCKS)
def test_generators_are_the_greedy_generating_set(table, block):
    # Each generator is the least element outside the left-normed products
    # of those before it whose column minimum and row minimum (the least
    # members of Sx and xS) are those of no such product, or, when every
    # outside element shares one, the least element outside; and the
    # left-normed products of all of them are the whole table, so all of
    # them generate it.  On an associative table the left-normed products
    # are the closure under all products.
    T = GenericSemigroup(table)
    with mock.patch.object(kernel, "BLOCK", block):
        gens = generators(T.table)
    lefts = [min(T.mul(s, x) for s in range(T.size)) for x in range(T.size)]
    rights = [min(T.mul(x, s) for s in range(T.size)) for x in range(T.size)]
    associative = scalar_reference.associativity_witness(T) is None
    for k, x in enumerate(gens):
        closure = scalar_reference.right_closure(T, gens[:k])
        assert not associative or closure == scalar_reference.magma_closure(T, gens[:k])
        outside = sorted(set(range(T.size)) - closure)
        met = {lefts[y] for y in closure}, {rights[y] for y in closure}
        fresh = [y for y in outside if lefts[y] not in met[0] and rights[y] not in met[1]]
        assert x == (fresh or outside)[0]
    assert scalar_reference.right_closure(T, gens) == set(range(T.size))
    assert scalar_reference.magma_closure(T, gens) == set(range(T.size))
    assert gens == scalar_reference.greedy_generators(T.table, lefts, rights)


def _rees_table(family, order, n_lambda, n_i, seed):
    G = builtin(family, order)
    rng = np.random.default_rng(seed)
    if seed is None:
        return ReesSemigroup(identity_matrix(G, n_lambda, n_i)).table()
    matrix = SandwichMatrix(G, rng.integers(0, G.order, (n_lambda, n_i)).tolist())
    return ReesSemigroup(matrix).table()


def _tl_table(family, order, n_lambda):
    G = builtin(family, order)
    return cones.cone_table(G, cones.enumerate_TL(G, n_lambda))


@pytest.mark.parametrize(
    "table",
    [
        pytest.param(lambda: _rees_table("cyclic", 1, 1, 1, None), id="trivial"),
        pytest.param(lambda: _rees_table("cyclic", 2, 2, 2, None), id="z2 2x2 identity"),
        pytest.param(lambda: _rees_table("cyclic", 4, 4, 4, None), id="z4 4x4 identity"),
        pytest.param(lambda: _rees_table("klein", 4, 3, 2, 1), id="klein 3x2 generic"),
        pytest.param(lambda: _rees_table("symmetric", 3, 2, 3, 2), id="s3 2x3 generic"),
        pytest.param(lambda: _rees_table("symmetric", 3, 3, 3, 3), id="s3 3x3 generic"),
        pytest.param(lambda: builtin("symmetric", 4).array, id="s4"),
        pytest.param(lambda: _tl_table("symmetric", 3, 2), id="T_L s3 2"),
        pytest.param(lambda: _tl_table("symmetric", 3, 3), id="T_L s3 3"),
    ],
)
def test_generators_are_those_the_ideal_classes_choose(table):
    # On a completely simple table, and on T_L, the minima tell the classes
    # apart exactly: the generators are those chosen by the classes of
    # equal principal left and right ideals (`ideal_rows`).
    t = table()
    lefts, rights = ([row.tobytes() for row in side] for side in ideal_rows(t))
    assert generators(t) == scalar_reference.greedy_generators(t, lefts, rights)
