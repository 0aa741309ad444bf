"""Brute-force engine for finite semigroups given by a multiplication table.

Everything here works from the raw table alone, with the textbook
definitions (principal ideals, witness searches), so it can cross-check
the closed-form constructions implemented elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, NotAssociative, NotClosed


def associativity_witness(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None if associative."""
    t = np.asarray(table, dtype=np.intp)
    n = t.shape[0]
    for a in range(n):
        row = t[a]
        left = t[row]    # left[b, c] = t[t[a, b], c]
        right = row[t]   # right[b, c] = t[a, t[b, c]]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return a, int(b), int(c)
    return None


class GenericSemigroup:
    """A multiplication table on 0..size-1, checked for closure only.

    Building one does not scan for associativity: `from_table` does, and
    a caller that builds the class directly reports or establishes
    associativity itself.
    """

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(table)
        if n == 0:
            raise NotClosed("empty multiplication table")
        rows = tuple(map(tuple, table))
        # the rows before the first one of the wrong length, in one array
        full = next((r for r, row in enumerate(rows) if len(row) != n), n)
        entries = np.asarray(table[:full]).reshape(full, n)
        outside = (entries < 0) | (entries >= n)
        if outside.any():
            r, c = divmod(int(outside.argmax()), n)
            raise NotClosed(
                f"entry {entries[r, c]} at row {r}, column {c} is not an index below {n}"
            )
        if full < n:
            raise NotClosed(f"row {full} has {len(rows[full])} entries, expected {n}")
        self.size = n
        self.table = rows
        if labels is None:
            self.labels = tuple(str(k) for k in range(n))
        else:
            self.labels = tuple(str(x) for x in labels)
            if len(self.labels) != n:
                raise NotClosed(f"{len(self.labels)} labels for {n} elements")

    def mul(self, a: int, b: int) -> int:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise IndexOutOfRange(f"indices ({a}, {b}) out of range for size {self.size}")
        return self.table[a][b]

    def __repr__(self) -> str:
        return f"GenericSemigroup(size={self.size})"


def from_table(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> GenericSemigroup:
    """Validate a raw table (closure, then associativity) into a GenericSemigroup;
    the one entry point that rejects a non-associative table."""
    T = GenericSemigroup(table, labels)
    bad = associativity_witness(T.table)
    if bad is not None:
        a, b, c = bad
        t = T.table
        raise NotAssociative(
            f"({a}*{b})*{c} = {t[t[a][b]][c]} but {a}*({b}*{c}) = {t[a][t[b][c]]}"
        )
    return T


def left_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    """S^1 x, the principal left ideal with the formal identity adjoined."""
    return frozenset({x} | {T.table[s][x] for s in range(T.size)})


def right_ideal(T: GenericSemigroup, x: int) -> frozenset[int]:
    return frozenset({x} | {T.table[x][s] for s in range(T.size)})


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


def green_via_ideals(T: GenericSemigroup, kind: str) -> tuple[tuple[int, ...], ...]:
    """Green's relation computed from principal-ideal equality.

    L by equality of S^1 x, R dually, H as their intersection, and D as
    the join (reachability across L and R classes).
    """
    if kind == "L":
        return partition_by_key([left_ideal(T, x) for x in range(T.size)])
    if kind == "R":
        return partition_by_key([right_ideal(T, x) for x in range(T.size)])
    if kind == "H":
        return partition_by_key(
            [(left_ideal(T, x), right_ideal(T, x)) for x in range(T.size)]
        )
    if kind == "D":
        parent = list(range(T.size))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for relation in ("L", "R"):
            for cls in green_via_ideals(T, relation):
                root = find(cls[0])
                for member in cls[1:]:
                    parent[find(member)] = root
        classes: dict[int, list[int]] = {}
        for x in range(T.size):
            classes.setdefault(find(x), []).append(x)
        return canonical_partition(classes.values())
    raise IndexOutOfRange(f"unknown Green relation {kind!r}; expected L, R, H or D")


def idempotents(T: GenericSemigroup) -> list[int]:
    return [x for x in range(T.size) if T.table[x][x] == x]


def is_regular(T: GenericSemigroup) -> bool:
    """True when every x has a witness y with x*y*x = x."""
    for x in range(T.size):
        row = T.table[x]
        if not any(T.table[row[y]][x] == x for y in range(T.size)):
            return False
    return True


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
    hom = True
    for a in range(T1.size):
        for b in range(T1.size):
            if f[T1.table[a][b]] != T2.table[f[a]][f[b]]:
                hom = False
                problems.append(
                    f"f({a}*{b}) = {f[T1.table[a][b]]} but f({a})*f({b}) = {T2.table[f[a]][f[b]]}"
                )
                break
        if not hom:
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
