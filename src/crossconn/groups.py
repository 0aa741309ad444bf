"""Finite groups presented as validated Cayley tables.

Elements are dense indices 0..order-1.  Loaded tables may place the
identity anywhere; the built-in families put it at index 0.  Validation
is eager: closure, associativity, a two-sided identity and two-sided
inverses are all checked at construction time.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import permutations
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CrossconnError,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    ParseError,
    SizeGuardExceeded,
)
from .oracle import GenericSemigroup, associativity_witness

MAX_VALIDATED_ORDER = 256
MAX_SYMMETRIC_DEGREE = 5


class FiniteGroup:
    """A finite group, held as read-only np.intp arrays: the Cayley table
    `array`, which every scan and product reads, and the table of inverses
    `inverse`; with its detected identity."""

    def __init__(self, cayley: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        n = len(cayley)
        if n > MAX_VALIDATED_ORDER:
            raise SizeGuardExceeded(
                f"group order {n} exceeds the validation guard {MAX_VALIDATED_ORDER}"
            )
        table = GenericSemigroup(cayley).table  # closure, as for any table
        self.order = n
        self.array = table.astype(np.intp)
        self.array.flags.writeable = False

        if names is None:
            self.names = tuple(str(k) for k in range(n))
        else:
            self.names = tuple(str(x) for x in names)
            if len(set(self.names)) != len(self.names):
                raise ParseError("duplicate element labels")
            if len(self.names) != n:
                raise ParseError(f"{len(self.names)} element names for order {n}")

        bad = associativity_witness(table)
        if bad is not None:
            a, b, c = bad
            raise NotAssociative(
                f"({self.names[a]}*{self.names[b]})*{self.names[c]} != "
                f"{self.names[a]}*({self.names[b]}*{self.names[c]})"
            )

        elements = np.arange(n)
        two_sided = (table == elements).all(axis=1) & (table.T == elements).all(axis=1)
        if not two_sided.any():
            raise NoIdentity("table has no two-sided identity element")
        self.identity = int(two_sided.argmax())

        # row a: the b with a*b = e = b*a
        units = (table == self.identity) & (table.T == self.identity)
        invertible = units.any(axis=1)
        if not invertible.all():
            a = int(invertible.argmin())
            raise NoInverse(f"element {self.names[a]} has no two-sided inverse")
        self.inverse = units.argmax(axis=1)
        self.inverse.flags.writeable = False
        self._opposite: FiniteGroup | None = None

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise IndexOutOfRange(f"element index {a} out of range for order {self.order}")

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.array.item(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        return self.inverse.item(a)

    def elements(self) -> range:
        return range(self.order)

    def index_of(self, label: str) -> int:
        try:
            return self.names.index(str(label))
        except ValueError:
            raise ParseError(f"unknown element label {label!r}") from None

    @property
    def opposite(self) -> FiniteGroup:
        """The opposite group (a*b there is b*a here): its table is the view
        `array.T`, with the same names, identity and inverses; built once, so
        G.opposite.opposite is G."""
        if self._opposite is None:
            # No re-validation: the transpose of a group table is a group table.
            # Attributes go in __init__'s order, never via cached_property, so both
            # instances keep the instance-dict layout that makes mul's reads fast.
            op = object.__new__(FiniteGroup)
            op.order, op.array = self.order, self.array.T
            op.names = self.names
            op.identity, op.inverse, op._opposite = self.identity, self.inverse, self
            self._opposite = op
        return self._opposite

    def label_rows(self) -> list[list[str]]:
        """The Cayley table with entries written as element labels."""
        return [[self.names[v] for v in row] for row in self.array.tolist()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, identity={self.names[self.identity]!r})"


def load_cayley(table: Sequence[Sequence[str]], labels: Sequence[str] | None = None) -> FiniteGroup:
    """Build a group from an order x order table of element labels.

    labels fixes the element index order; when omitted it defaults to the
    sorted set of distinct entries (file loaders always pass it explicitly).
    """
    rows = [[str(x) for x in row] for row in table]
    if labels is None:
        labels = sorted({x for row in rows for x in row})
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate element labels")
    n = len(labels)
    if len(rows) != n:
        raise NotClosed(f"table has {len(rows)} rows, expected {n} (one per label)")
    index = {lab: k for k, lab in enumerate(labels)}
    int_rows = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise NotClosed(f"row {r} ({labels[r]}) has {len(row)} entries, expected {n}")
        out = []
        for c, v in enumerate(row):
            if v not in index:
                raise NotClosed(
                    f"entry {v!r} at row {r} ({labels[r]}), column {c} ({labels[c]}) "
                    "is not a declared label"
                )
            out.append(index[v])
        int_rows.append(out)
    return FiniteGroup(int_rows, names=labels)


def read_text(path) -> str:
    """The contents of a UTF-8 input file, less a leading byte-order mark;
    any other encoding is a ParseError, as is an empty path, which Path reads as '.'."""
    if path == "":
        raise ParseError("empty file name ''")
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


@contextmanager
def prefix_errors(path) -> Iterator[None]:
    """Prefix `path: ` to every package error raised in the block, so that a
    malformed input file is named in the message."""
    try:
        yield
    except CrossconnError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_cayley_file(path) -> FiniteGroup:
    """Read a Cayley table file: first line = labels in index order, then one row per element.

    Cells are separated by tabs when the first line contains a tab,
    otherwise by commas.
    """
    text = read_text(path)
    with prefix_errors(path):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty Cayley table file")
        delim = "\t" if "\t" in lines[0] else ","
        rows = [[cell.strip() for cell in ln.split(delim)] for ln in lines]
        return load_cayley(rows[1:], labels=rows[0])


def builtin(family: str, n: int = 0) -> FiniteGroup:
    """Standard families: cyclic:n, symmetric:n (n <= 5), klein.

    cyclic:n is additive arithmetic mod n.  symmetric:n multiplies
    permutations of 0..n-1 in lexicographic order, composing a*b as
    "apply b, then a".  klein ignores n.
    """
    if family == "cyclic":
        if n < 1:
            raise ParseError(f"cyclic group order must be >= 1, got {n}")
        if n > MAX_VALIDATED_ORDER:  # before the n x n table is built
            raise SizeGuardExceeded(
                f"group order {n} exceeds the validation guard {MAX_VALIDATED_ORDER}"
            )
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(table, names=[str(k) for k in range(n)])
    if family == "symmetric":
        if n < 1:
            raise ParseError(f"symmetric group degree must be >= 1, got {n}")
        if n > MAX_SYMMETRIC_DEGREE:
            raise SizeGuardExceeded(
                f"symmetric group degree {n} exceeds the guard {MAX_SYMMETRIC_DEGREE}"
            )
        perms = np.array(sorted(permutations(range(n))), dtype=np.intp)
        # a*b is perms[a][perms[b]]; a permutation's base-n code grows with
        # its lexicographic rank, so searchsorted on the codes finds its index
        weights = n ** np.arange(n - 1, -1, -1)
        products = perms[np.arange(len(perms))[:, None, None], perms[None, :, :]]
        table = np.searchsorted(perms @ weights, products @ weights)
        names = ["".join(str(v) for v in p) for p in perms.tolist()]
        return FiniteGroup(table, names=names)
    if family == "klein":
        table = [[a ^ b for b in range(4)] for a in range(4)]
        return FiniteGroup(table, names=["e", "a", "b", "ab"])
    raise ParseError(f"unknown builtin family {family!r}; expected cyclic, symmetric or klein")
