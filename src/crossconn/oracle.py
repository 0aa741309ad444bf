"""Brute-force engine for finite semigroups given by a multiplication table.

Everything here works from the raw table alone, with the textbook
definitions (principal ideals, witness searches), so it can cross-check
the closed-form constructions implemented elsewhere in the package.

A table is one read-only (n, n) int32 array whose entries are all
indices below n: a kernel table with -1 holes (a set that is not closed)
is rejected by `GenericSemigroup`, so the oracle judges closed tables
only.  The scans read it one row or column at a time in numpy, and
their witnesses hold Python ints.  Green's relations come as one dict of
all four partitions, each principal ideal built once per table.

Associativity is decided by Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, 1961, Section 1.2): the table is
associative when (x a) y = x (a y) holds for all x, y and every a of a
generating set A, found greedily from the table.  That reads
O(n^2 |A|) products instead of O(n^3).  Only a table that fails it is
scanned in full, row by row, for the first failing triple, so the
witness is the one a full scan reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, NotAssociative, NotClosed


def associativity_witness(table) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None if associative.

    Light's test runs first.  The set N of elements a with (x a) y = x (a y)
    for all x, y is closed under the product: for a, b in N,
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y.  So if N holds
    a generating set A, it holds the whole table, and the table is
    associative.  `generators` builds its closure from table products
    only, so that closure lies inside the subsemigroup A generates, and
    the test is sound.  For each a of A, all (x, y) are one array
    comparison.  Only when the test fails does the full row scan run, and
    it returns the first triple in (a, b, c) order.
    """
    t = np.asarray(table, dtype=np.int32)
    for a in generators(t):
        # left[x, y] = t[t[x, a], y], right[x, y] = t[x, t[a, y]]
        left, right = np.take(t, t[:, a], axis=0), np.take(t, t[a], axis=1)
        if not np.array_equal(left, right):
            return _full_scan(t)
    return None


def generators(table) -> list[int]:
    """A greedy generating set of the table as a magma, in increasing order.

    Take the lowest index not yet in the closure, then close under the
    product one element u at a time: u times every member and every
    member times u (row u and column u at the members).  Each pair of
    members meets when the later of the two is taken, so the closure is
    closed under all products.
    """
    t = np.asarray(table)
    n = len(t)
    inside = np.zeros(n, dtype=bool)
    members = np.empty(n, dtype=np.intp)  # the closure, in the order reached
    reached = taken = 0
    out = []
    for x in range(n):
        if inside[x]:
            continue
        out.append(x)
        inside[x] = True
        members[reached] = x
        reached += 1
        while taken < reached:
            u, current = members[taken], members[:reached]
            taken += 1
            # np.unique would import numpy.ma: mark the products instead
            hit = np.zeros(n, dtype=bool)
            hit[t[u, current]] = True
            hit[t[current, u]] = True
            new = np.flatnonzero(hit & ~inside)
            inside[new] = True
            members[reached : reached + len(new)] = new
            reached += len(new)
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

    `table` is a read-only int32 view of the given table: an int32 array
    is not copied.  Building one does not scan for associativity:
    `from_table` does, and a caller that builds the class directly
    reports or establishes associativity itself.
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
        self.table = entries.astype(np.int32, copy=False).view()
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


def left_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    """S^1 x, the principal left ideal with the formal identity adjoined:
    x and column x of the table."""
    return frozenset([x, *T.table[:, x].tolist()])


def right_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    """x S^1: x and row x of the table."""
    return frozenset([x, *T.table[x].tolist()])


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


def green_via_ideals(T: GenericSemigroup) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Green's relations computed from principal-ideal equality, keyed
    "L", "R", "H" and "D".

    Each principal ideal is built once.  L is equality of S^1 x, R
    dually, H their intersection, and D the join: the union of the L and
    R classes found, merged by union-find.
    """
    lefts = [left_ideal(T, x) for x in range(T.size)]
    rights = [right_ideal(T, x) for x in range(T.size)]
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
    column x, taken at the rows of row x, is x."""
    t = T.table
    return all((t[t[x], x] == x).any() for x in range(T.size))


@dataclass(frozen=True)
class MapCheck:
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
    # row a: f(a*b) against f(a)*f(b) for every b
    image = np.asarray(f, dtype=np.intp)
    hom = True
    for a in range(T1.size):
        left, right = image[T1.table[a]], T2.table[f[a], image]
        bad = left != right
        if bad.any():
            b = int(bad.argmax())
            hom = False
            problems.append(f"f({a}*{b}) = {left[b]} but f({a})*f({b}) = {right[b]}")
            break

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
