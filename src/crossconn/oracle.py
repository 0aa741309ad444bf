"""Brute-force engine for finite semigroups given by a multiplication table.

Everything here works from the raw table alone, with the textbook
definitions (principal ideals, witness searches), so it can cross-check
the closed-form constructions implemented elsewhere in the package.

A table is one read-only (n, n) `kernel.index_dtype(n)` or int32 array
of indices below n: a kernel table with -1 holes (a set that is not closed)
is rejected by `GenericSemigroup`, so the oracle judges closed tables
only.  The scans read it in blocks of rows of about `kernel.BLOCK`
entries, so that no temporary is larger than the table (only the full
scan of a table that fails Light's test, below, holds an intp copy), and
their witnesses hold Python ints: the first failing (a, b) in row order,
then column order, as a scan one row at a time would find it.

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
generating set A.  That reads O(n^2 |A|) products instead of O(n^3).
`generators` picks A from the table: the lowest element outside the
closure so far whose L- and R-classes the closure does not meet, or else
the lowest outside, and closes a whole frontier per numpy step.  In a
completely simple semigroup a product is R-related to its first factor
and L-related to its last, so every generating set meets each R- and
L-class, and this choice stays near the rank (Ruskuc, "On the rank of
completely 0-simple semigroups", 1994): 33 generators for M[Z4; 32, 32]
where the lowest index alone takes 64.  Any generating set makes the
test sound, so the choice decides only its cost.  Only a table that
fails it is scanned in full, row by row, for the first failing triple,
so the witness is the one a full scan reports.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import kernel
from .errors import IndexOutOfRange, NotAssociative, NotClosed


def associativity_witness(table, ideals=None) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None if associative.

    Light's test runs first.  The set N of elements a with (x a) y = x (a y)
    for all x, y is closed under the product: for a, b in N,
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y.  So if N holds
    a generating set A, it holds the whole table, and the table is
    associative.  `generators` builds its closure from table products
    only, so that closure lies inside the subsemigroup A generates, and
    the test is sound whichever generators it picks.  For each a of A,
    all (x, y) are compared in blocks of rows x.  Only when the test fails
    does the full row scan run, and it returns the first triple in
    (a, b, c) order.  `ideals`, the table's `ideal_rows` if the caller has
    them, is passed on to `generators`.
    """
    t = np.asarray(table)
    n = len(t)
    for a in generators(t, ideals):
        column, row = t[:, a], t[a]
        for rows in kernel.blocks(n, n):
            # left[x, y] = t[t[x, a], y] against right[x, y] = t[x, t[a, y]]
            left, right = np.take(t, column[rows], axis=0), np.take(t[rows], row, axis=1)
            if not np.array_equal(left, right):
                return _full_scan(t)
    return None


def generators(table, ideals=None) -> list[int]:
    """A generating set of the table as a magma, in the order chosen.

    Each generator is the lowest element outside the closure so far whose
    L-class and R-class (equal `ideal_rows` on each side) the closure
    does not meet yet, or, when every outside element's classes are met,
    the lowest element outside (see the module's notes on the rank).  The
    closure grows in waves: the elements a wave adds (the frontier)
    times every member, and every member times them, in blocks of
    frontier elements.  Each pair of members meets in the wave of the
    later of the two, so the closure is closed under all products.
    `ideals` is the table's `ideal_rows`, built here when it is None.
    """
    t = np.asarray(table)
    n = len(t)
    lefts, rights = ideal_rows(t) if ideals is None else ideals
    classes = [_class_ids(lefts), _class_ids(rights)]
    met = [np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)]  # per class id
    inside = np.zeros(n, dtype=bool)
    members = np.empty(n, dtype=np.intp)  # the closure, in the order reached
    reached = 0
    out = []
    while reached < n:
        fresh = ~inside & ~met[0][classes[0]] & ~met[1][classes[1]]
        x = int(fresh.argmax()) if fresh.any() else int(inside.argmin())
        out.append(x)
        frontier = np.array([x])
        while len(frontier):
            inside[frontier] = True
            members[reached : reached + len(frontier)] = frontier
            reached += len(frontier)
            for ids, seen in zip(classes, met):
                seen[ids[frontier]] = True
            current = members[:reached]
            # np.unique would import numpy.ma: mark the products instead
            hit = np.zeros(n, dtype=bool)
            for rows in kernel.blocks(len(frontier), reached):
                hit[t[np.ix_(frontier[rows], current)]] = True
                hit[t[np.ix_(current, frontier[rows])]] = True
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


class GenericSemigroup:
    """A multiplication table on 0..size-1, checked for closure only.

    `table` is a read-only view of the given table, not copied if int16 or
    int32, else cast to `kernel.index_dtype(size)`.  Building one does not
    scan for associativity: `from_table` does, and a caller that builds the
    class directly reports or establishes associativity itself.
    """

    def __init__(self, table):
        n = len(table)
        if n == 0:
            raise NotClosed("empty multiplication table")
        # the rows before the first one of the wrong length, in one array
        full = next((r for r, row in enumerate(table) if len(row) != n), n)
        entries = np.asarray(table[:full]).reshape(full, n)
        outside = (entries < 0) | (entries >= n)
        if outside.any():
            r, c = divmod(int(outside.argmax()), n)
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


def from_table(table) -> GenericSemigroup:
    """Validate a raw table (closure, then associativity) into a GenericSemigroup;
    the one entry point that rejects a non-associative table."""
    T = GenericSemigroup(table)
    bad = associativity_witness(T.table)
    if bad is not None:
        a, b, c = bad
        t = T.table
        raise NotAssociative(
            f"({a}*{b})*{c} = {t[t[a, b], c]} but {a}*({b}*{c}) = {t[a, t[b, c]]}"
        )
    return T


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


class MapCheck(NamedTuple):
    """Outcome of checking a candidate map between two table semigroups."""

    is_homomorphism: bool
    is_injective: bool
    is_surjective: bool
    witness: str | None

    @property
    def is_isomorphism(self) -> bool:
        return self.is_homomorphism and self.is_injective and self.is_surjective


def verify_map(f: Sequence[int], T1: GenericSemigroup, T2: GenericSemigroup) -> MapCheck:
    """Check whether f (a total map on T1's indices) is a homomorphism / bijection."""
    f = list(f)
    if len(f) != T1.size:
        raise IndexOutOfRange(f"map has {len(f)} entries, expected {T1.size}")
    for x, v in enumerate(f):
        if not 0 <= v < T2.size:
            raise IndexOutOfRange(f"f({x}) = {v} is not an element of the target")

    problems = []
    # rows a of a block: f(a*b) against f(a)*f(b) for every b
    image, flat = np.asarray(f, dtype=np.intp), T2.table.ravel()
    bad = kernel.first_block_failure(
        T1.size,
        T1.size,
        lambda rows: np.take(image, T1.table[rows])
        != np.take(flat, image[rows, None] * T2.size + image),
    )
    hom = bad is None
    if not hom:
        a, b = bad
        product = int(T1.table[a, b])
        problems.append(
            f"f({a}*{b}) = {f[product]} but f({a})*f({b}) = {int(T2.table[f[a], f[b]])}"
        )

    inj = True
    seen: dict[int, int] = {}
    for x, v in enumerate(f):
        if v in seen:
            inj = False
            problems.append(f"f({seen[v]}) = f({x}) = {v}")
            break
        seen[v] = x

    surj = len(set(f)) == T2.size
    if not surj:
        missing = min(set(range(T2.size)) - set(f))
        problems.append(f"element {missing} of the target is never hit")

    return MapCheck(hom, inj, surj, "; ".join(problems) if problems else None)
