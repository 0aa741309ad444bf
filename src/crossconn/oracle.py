"""Brute-force engine for finite semigroups given by a multiplication table.

Everything here works from the raw table alone, with the textbook
definitions (principal ideals, witness searches), so it can cross-check
the closed-form constructions implemented elsewhere in the package.

A table is one read-only (n, n) `kernel.index_dtype(n)` or int32 array
of indices below n: a kernel table with -1 holes (a set that is not closed)
is rejected by `GenericSemigroup`, so the oracle judges closed tables
only.  `verify_map` judges a map into the direct product of two tables
(`ProductTables`), read at the images of each block of rows of its
source, so that a set of pairs multiplied componentwise is judged closed,
and the map onto it an isomorphism, from its two components' tables.  The scans
read a table in blocks of rows of about `kernel.BLOCK` entries, so that
no temporary is larger than the table (only the full scan of a table
that fails Light's test, below, holds an intp copy), and their witnesses
hold Python ints: the first failing (a, b) in row order, then column
order, as a scan one row at a time would find it.

Ideals are bit rows.  `ideal_rows` gives the principal left ideals S^1 x
(x and column x of the table) and right ideals x S^1 (x and row x) of
every element as packed bit rows, each block of rows one boolean
scatter; the bytes of a row are an exact key of its ideal.  Green's
relations come as one dict of all four partitions, keyed by those bytes:
L and R by the row of each side, H by the pair, and D by union-find over
the L and R classes.  A caller that needs the rows more than once (Light's
test, Green's relations and the principal-ideal check of one table)
builds them once and passes them on.

Associativity is decided by Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, 1961, Section 1.2): the table is
associative when (x a) y = x (a y) holds for all x, y and every a of a
generating set A.  Each a is tested at its image classes, the x with
equal x a, reading one row of each class and the columns at the values
of row a: at most O(n^2 |A|) products instead of O(n^3), and
n^2/|Lambda| + n^2/|I| per generator in a completely simple semigroup.
`generators` picks A from the table: the lowest element outside the
closure so far whose L- and R-classes the closure does not meet, or else
the lowest outside, and closes by right multiplication with the
generators, a whole frontier per numpy step.  In a
completely simple semigroup a product is R-related to its first factor
and L-related to its last, so every generating set meets each R- and
L-class, and this choice stays near the rank (Ruskuc, "On the rank of
completely 0-simple semigroups", 1994): 33 generators for M[Z4; 32, 32]
where the lowest index alone takes 64.  Any set whose left-normed
products reach every element makes the test sound, so the choice
decides only its cost.  Only a table that
fails it is scanned in full, row by row, for the first failing triple,
so the witness is the one a full scan reports.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotClosed, ParseError


def associativity_witness(table, ideals=None) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None if associative.

    Light's test runs first.  The set N of elements a with (x a) y = x (a y)
    for all x, y is closed under the product: for a, b in N,
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y.  So if N holds
    a set A from which every element is a product of members of A, it
    holds the whole table, and the table is associative; `generators`
    picks such an A.  Each a of A is tested at its image classes (`_light`).
    Only when the test fails does the full row scan run, and it returns
    the first triple in (a, b, c) order.  `ideals`, the table's
    `ideal_rows` if the caller has them, is passed on to `generators`.
    """
    t = np.asarray(table)
    for a in generators(t, ideals):
        if not _light(t, a):
            return _full_scan(t)
    return None


def _light(t: np.ndarray, a: int) -> bool:
    """Whether (x a) y = x (a y) for all x, y, read at a's image classes.

    Let the x with equal x a form one class, and X hold one x of each.  The
    law holds at a exactly when (i) it holds for every x of X and every y,
    and (ii) each column r among the values of row a is constant on each
    class: then (x a) y = (x' a) y = x' (a y) = x (a y) for the x' of X in
    x's class, and conversely (x' a) y = (x a) y = x (a y) for any x of
    that class, so column a y agrees at x and x'.  That reads |X| n + n |R|
    entries for the |R| values of row a, in blocks of rows; in a completely
    simple semigroup X is one per member of a's L-class and R is a's
    R-class, so the law at a reads n^2/|Lambda| + n^2/|I| entries, not 2n^2.
    """
    n = len(t)
    column, row = t[:, a], t[a]
    chosen = np.empty(n, dtype=np.intp)
    chosen[column] = np.arange(n)  # one x of each class, by its value x a
    rep = chosen[column]
    X = np.flatnonzero(rep == np.arange(n))
    for rows in kernel.blocks(len(X), n):
        x = X[rows]
        # t[t[x, a], y] against t[x, t[a, y]]
        if not np.array_equal(np.take(t, column[x], axis=0), np.take(t[x], row, axis=1)):
            return False
    R = np.flatnonzero(np.bincount(row, minlength=n))
    columns = np.take(t, R, axis=1)
    return all(
        np.array_equal(columns[rows], np.take(columns, rep[rows], axis=0))
        for rows in kernel.blocks(n, len(R))
    )


def generators(table, ideals=None) -> list[int]:
    """A set A of the table's elements from which every element is a
    left-normed product ((a1 a2) ...) ak of members, in the order chosen.

    Each generator is the lowest element outside the closure so far whose
    L-class and R-class (equal `ideal_rows` on each side) the closure
    does not meet yet, or, when every outside element's classes are met,
    the lowest element outside (see the module's notes on the rank).  The
    closure is the left-normed products of the generators so far: when x
    is chosen, x and every member times x join it, and then each wave
    multiplies the elements the last one added (the frontier) by every
    generator, so each element is multiplied by each generator once.  On
    an associative table the left-normed products of A are all its
    products, so this is A's closure under the product; on any table, a
    closure that reaches all n elements shows that every element is a
    product of members of A, which is what Light's test needs.
    `ideals` is the table's `ideal_rows`, built here when it is None.
    """
    t = np.asarray(table)
    n = len(t)
    lefts, rights = ideal_rows(t) if ideals is None else ideals
    classes = [_class_ids(lefts), _class_ids(rights)]
    met = [np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)]  # per class id
    inside = np.zeros(n, dtype=bool)
    reached = 0
    out = []
    while reached < n:
        fresh = ~inside & ~met[0][classes[0]] & ~met[1][classes[1]]
        x = int(fresh.argmax()) if fresh.any() else int(inside.argmin())
        out.append(x)
        # np.unique would import numpy.ma: mark the products instead
        hit = np.zeros(n, dtype=bool)
        hit[t[:, x][inside]] = True
        hit[x] = True
        frontier = np.flatnonzero(hit & ~inside)
        while len(frontier):
            inside[frontier] = True
            reached += len(frontier)
            for ids, seen in zip(classes, met):
                seen[ids[frontier]] = True
            hit = np.zeros(n, dtype=bool)
            for rows in kernel.blocks(len(frontier), len(out)):
                hit[t[np.ix_(frontier[rows], out)]] = True
            frontier = np.flatnonzero(hit & ~inside)
    return out


def _full_scan(t: np.ndarray) -> tuple[int, int, int] | None:
    """`associativity_witness` over all n^3 triples, one row a at a time."""
    t = t.astype(np.intp)  # fancy indexing casts any other dtype per call
    for a in range(t.shape[0]):
        row = t[a]
        left = t[row]    # left[b, c] = t[t[a, b], c]
        right = row[t]   # right[b, c] = t[a, t[b, c]]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return a, int(b), int(c)
    return None


def integer_entries(rows) -> np.ndarray:
    """numpy's array of rows of equal length, after ParseError at the first
    entry, in row-major order, that is not an integer: numpy would read a
    bool, a float or a string of digits as one.  An integer beyond int64
    passes, as numpy's object or float array, for the caller's range check."""
    array = np.asarray(rows)
    if array.dtype.kind not in "iu":
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
                    value = x.item() if isinstance(x, np.generic) else x
                    raise ParseError(f"entry at row {r}, column {c} is {value!r}, not an integer")
    return array


class GenericSemigroup:
    """A multiplication table on 0..size-1, checked for closure only.

    `table` is a read-only view of the given table, not copied if int16 or
    int32, else cast to `kernel.index_dtype(size)`.  Building one does not
    scan for associativity: the caller reports or establishes it itself
    (`associativity_witness`).
    """

    def __init__(self, table):
        n = len(table)
        if n == 0:
            raise NotClosed("empty multiplication table")
        # the rows before the first one of the wrong length, in one array
        full = next((r for r, row in enumerate(table) if len(row) != n), n)
        entries = integer_entries(table[:full]).reshape(full, n)
        # the least and greatest entries decide closure; only a table that
        # fails is scanned, a block of rows at a time, for its first witness
        if full and not (entries.min() >= 0 and entries.max() < n):
            r, c = kernel.first_block_failure(
                full, n, lambda rows: (entries[rows] < 0) | (entries[rows] >= n)
            )
            raise NotClosed(
                f"entry {entries[r, c]} at row {r}, column {c} is not an index below {n}"
            )
        if full < n:
            raise NotClosed(f"row {full} has {len(table[full])} entries, expected {n}")
        self.size = n
        if entries.dtype not in (np.int16, np.int32):
            entries = entries.astype(kernel.index_dtype(n))
        self.table = entries.view()
        self.table.flags.writeable = False

    def mul(self, a: int, b: int) -> int:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise IndexOutOfRange(f"indices ({a}, {b}) out of range for size {self.size}")
        return int(self.table[a, b])

    def __repr__(self) -> str:
        return f"GenericSemigroup(size={self.size})"


def ideal_rows(table) -> tuple[np.ndarray, np.ndarray]:
    """The principal left ideals S^1 x and right ideals x S^1 of every
    element as packed bit rows, two (n, ceil(n/8)) uint8 arrays: row x of
    the first, unpacked by `np.unpackbits`, marks x and column x of the
    table, and row x of the second x and row x.  Equal ideals are equal
    rows, so the bytes of a row are an exact key of its ideal.  Each block
    of rows is one boolean scatter, packed."""
    t = np.asarray(table)
    n = len(t)
    sides = []
    for lines in (t.T, t):
        packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        for rows in kernel.blocks(n, n):
            x = np.arange(n)[rows]
            hit = np.zeros((len(x), n), dtype=bool)
            # the flat positions of row k of the block start at k*n
            starts = np.arange(0, hit.size, n)
            hit.ravel()[lines[rows] + starts[:, None]] = True
            hit.ravel()[starts + x] = True
            packed[rows] = np.packbits(hit, axis=1)
        sides.append(packed)
    return sides[0], sides[1]


def _keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each packed row, as hashable keys."""
    data, width = rows.tobytes(), rows.shape[1]
    return [data[k : k + width] for k in range(0, len(data), width)]


def _class_ids(rows: np.ndarray) -> np.ndarray:
    """The class of each row, numbered by first appearance: equal rows, equal ids."""
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(key, len(ids)) for key in _keys(rows)], dtype=np.intp)


def partition_by_key(keys: Sequence) -> tuple[tuple[int, ...], ...]:
    """The positions of equal keys as one class each, in canonical order."""
    classes: dict = {}
    for x, key in enumerate(keys):
        classes.setdefault(key, []).append(x)
    return canonical_partition(classes.values())


def canonical_partition(classes) -> tuple[tuple[int, ...], ...]:
    """Sort members within each class, then classes by least member."""
    norm = sorted(tuple(sorted(cls)) for cls in classes)
    return tuple(norm)


def green_via_ideals(T: GenericSemigroup, ideals=None) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Green's relations computed from principal-ideal equality, keyed
    "L", "R", "H" and "D".

    `ideals` is T's `ideal_rows`, built here when it is None.  L is
    equality of the rows of S^1 x, R dually, H equality of the pair, and D
    the join: the union of the L and R classes found, merged by union-find.
    """
    lefts, rights = map(_keys, ideal_rows(T.table) if ideals is None else ideals)
    green = {"L": partition_by_key(lefts), "R": partition_by_key(rights)}
    green["H"] = partition_by_key(list(zip(lefts, rights)))
    parent = list(range(T.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for cls in (*green["L"], *green["R"]):
        root = find(cls[0])
        for member in cls[1:]:
            parent[find(member)] = root
    green["D"] = partition_by_key([find(x) for x in range(T.size)])
    return green


def idempotents(T: GenericSemigroup) -> list[int]:
    """The x with x*x = x, in index order."""
    return np.flatnonzero(T.table.diagonal() == np.arange(T.size)).tolist()


def is_regular(T: GenericSemigroup) -> bool:
    """True when every x has a witness y with x*y*x = x: some entry of
    column x, taken at the rows of row x, is x.  Rows x go in blocks, read
    from the table as one flat array (a copy only if the table is a strided
    view)."""
    t, flat = T.table, T.table.ravel()

    def irregular(rows: slice) -> np.ndarray:
        x = np.arange(T.size)[rows, None]
        # t[t[x, y], x], read from the flat table: 1-d takes are the fastest gathers
        return ~(np.take(flat, t[rows] * np.intp(T.size) + x) == x).any(axis=1, keepdims=True)

    return kernel.first_block_failure(T.size, T.size, irregular) is None


def regular_via_r_classes(T: GenericSemigroup, R) -> bool:
    """`is_regular` of an associative table, from its R-classes R
    (`green_via_ideals`) and its diagonal: x is regular exactly when its
    R-class holds an idempotent (Howie, *Fundamentals of Semigroup Theory*,
    1995, Section 2.3).  If x = xyx, then xy is an idempotent R-related to
    x; if e R x with e idempotent, then x = ex and e = xy for some y of
    S^1, so x = xyx.  Both steps use associativity: a table that fails
    Light's test goes to `is_regular`."""
    idempotent = T.table.diagonal() == np.arange(T.size)
    return all(idempotent[list(cls)].any() for cls in R)


class ProductTables(NamedTuple):
    """The direct product of two tables on 0..m-1 and 0..l-1: (x, y) times
    (x', y') is (first[x, x'], second[y, y']), and a -1 in either table is
    no element.  `verify_map` reads each pair as its key (`keys`)."""

    first: np.ndarray
    second: np.ndarray

    def keys(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The key x*(l+1) + y of each pair of index arrays x and y, in
        `kernel.flat_index_dtype`; a -1 half keeps it off every element's."""
        stride = len(self.second) + 1
        out = x.astype(kernel.flat_index_dtype(len(self.first) * stride))
        out *= stride
        out += y
        return out


def verify_map(f, T1: GenericSemigroup, T2: ProductTables) -> tuple[tuple | None, str | None]:
    """Whether f, a total map on T1's indices given as its two component maps
    (g, d) into the direct product T2, is a bijective homomorphism onto the
    T1.size pairs f(k) = (g[k], d[k]) that it lists, and they are closed:
    (closure, witness), closure the first (a, b) in row order whose
    f(a)*f(b) is no listed pair, each None where it holds.  Equal pairs are
    one element, numbered by the last k (-1 for a product that is no listed
    pair).  Each block of rows of T1 compares the keys of f(a*b) and
    f(a)*f(b), read only at the images of the block, and only a failed
    compare, as a product off the pairs gives, runs the closure scan; the
    numbers, found by a key search, are counted and named in the witness."""
    maps = [np.asarray(m, dtype=np.intp) for m in f]
    for m in maps:
        if len(m) != T1.size:
            raise IndexOutOfRange(f"map has {len(m)} entries, expected {T1.size}")
    outside = np.logical_or.reduce([(m < 0) | (m >= len(t)) for m, t in zip(maps, T2)])
    if outside.any():
        x = int(outside.argmax())
        value = tuple(int(m[x]) for m in maps)
        raise IndexOutOfRange(f"f({x}) = {value} is not an element of the target")

    def products(rows) -> np.ndarray:
        return T2.keys(*(kernel.gather(t, m[rows], m, holes=False) for m, t in zip(maps, T2)))

    key = T2.keys(*maps)
    order = np.argsort(key, kind="stable")
    ranked = key[order]

    def number(keys):  # the last listed element with each key, or -1
        at = np.searchsorted(ranked, keys, side="right") - 1
        return np.where((at >= 0) & (ranked[at] == keys), order[at], -1)

    problems, closure = [], None
    # rows a of a block: f(a*b) against f(a)*f(b) for every b
    bad = kernel.first_block_failure(
        T1.size, T1.size, lambda rows: np.take(key, T1.table[rows]) != products(rows)
    )
    if bad is not None:
        a, b = bad
        product, target = number(key[T1.table[a, b]]), number(products(slice(a, a + 1))[0, b])
        problems.append(f"f({a}*{b}) = {int(product)} but f({a})*f({b}) = {int(target)}")
        closure = kernel.first_block_failure(
            T1.size, T1.size, lambda rows: number(products(rows)) < 0
        )

    # n numbers in n places: a number hit twice leaves another never hit
    numbers = number(key)
    hits = np.bincount(numbers, minlength=len(key))
    if hits.max() > 1:
        seen: dict[int, int] = {}
        x, v = next((x, v) for x, v in enumerate(numbers.tolist()) if seen.setdefault(v, x) != x)
        problems.append(f"f({seen[v]}) = f({x}) = {v}")
        problems.append(f"element {int(hits.argmin())} of the target is never hit")

    return closure, "; ".join(problems) if problems else None
