"""Rees matrix semigroups G x I x Lambda over a finite group.

The product is (a,i,lam)(b,j,mu) = (a * p[lam][j] * b, i, mu) for a
Lambda x I sandwich matrix p with entries in the group.  Elements are
enumerated in (g, i, lam) lexicographic order, which fixes every table
layout and report ordering.  The multiplication table is one
`kernel.index_dtype` array from `index_table()` through `table()` to the oracle.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import MixedSemigroups, ParseError, SizeGuardExceeded
from .groups import FiniteGroup, prefix_errors, read_text
from .kernel import blocks, coordinates, element_arrays, index_dtype
from .oracle import GenericSemigroup, partition_by_key

DEFAULT_SIZE_GUARD = 512


class ReesElement(NamedTuple):
    g: int
    i: int
    lam: int


class SandwichMatrix:
    """A Lambda x I matrix of group element indices; entry(lam, i) mediates the product.
    `entries` holds it as tuples, `array` as the read-only np.intp array scans read,
    and `scaled` its columns scaled on the right by every group element: the
    read-only (|I|, |G|, |Lambda|) array whose entry [i, g] is col_i * g.  Every
    cone set of the connection is read off it; over P.transpose it is
    [lam, g] = g * row_lam."""

    def __init__(self, group: FiniteGroup, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ParseError("sandwich matrix needs at least one row and one column")
        width = len(rows[0])
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ParseError(f"row {r} has {len(row)} entries, expected {width}")
            for c, v in enumerate(row):
                if not 0 <= v < group.order:
                    raise ParseError(
                        f"entry at row {r}, column {c} is {v}, not an element of a group "
                        f"of order {group.order}"
                    )
        self.group = group
        self.entries = rows
        self.array = np.array(rows, dtype=np.intp)
        self.array.flags.writeable = False
        self.scaled = group.array[self.array.T[:, None, :], np.arange(group.order)[None, :, None]]
        self.scaled.flags.writeable = False
        self._transpose: SandwichMatrix | None = None

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, lam: int, i: int) -> int:
        return self.entries[lam][i]

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i] for row in self.entries)

    def row(self, lam: int) -> tuple[int, ...]:
        return self.entries[lam]

    def label_rows(self) -> list[list[str]]:
        return [[self.group.names[v] for v in row] for row in self.entries]

    @property
    def transpose(self) -> SandwichMatrix:
        """P^T over the opposite group, the matrix of S^op, its array the view
        `array.T`; P.transpose.transpose is P."""
        if self._transpose is None:
            t = SandwichMatrix(self.group.opposite, tuple(zip(*self.entries)))
            t.array, t._transpose = self.array.T, self
            self._transpose = t
        return self._transpose

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SandwichMatrix):
            return NotImplemented
        return self.group == other.group and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SandwichMatrix({self.rows}x{self.cols} over order {self.group.order})"


def identity_matrix(group: FiniteGroup, n_lambda: int, n_i: int) -> SandwichMatrix:
    """The constant-identity sandwich matrix (the rectangular band of groups case)."""
    return SandwichMatrix(group, [[group.identity] * n_i for _ in range(n_lambda)])


def load_matrix_file(path, group: FiniteGroup) -> SandwichMatrix:
    """Read a sandwich matrix CSV: one line per row, entries are group element labels."""
    text = read_text(path)
    with prefix_errors(path):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty sandwich matrix file")
        entries = []
        for r, ln in enumerate(lines):
            row = []
            for c, cell in enumerate(x.strip() for x in ln.split(",")):
                try:
                    row.append(group.index_of(cell))
                except ParseError:
                    raise ParseError(
                        f"row {r}, column {c}: unknown element label {cell!r}"
                    ) from None
            entries.append(row)
        return SandwichMatrix(group, entries)


def product(cayley: np.ndarray, entries: np.ndarray, a, i, lam, b, j, mu):
    """(a, i, lam)(b, j, mu) = (a * p[lam][j] * b, i, mu) on plain coordinates,
    over a group's Cayley array and a sandwich matrix's array; unchecked.
    The coordinates are ints or index arrays that broadcast against each
    other, as numpy indexing does.  The one statement of the product:
    `ReesSemigroup.mul` validates its arguments and calls it on ints, and
    `rees.table_matches_product` evaluates it on a block of rows against
    every element and compares it with `ReesSemigroup.table()`."""
    return cayley[cayley[a, entries[lam, j]], b], i, mu


def check_size(size: int, size_guard: int) -> None:
    """Refuse a semigroup of `size` elements above the guard."""
    if size > size_guard:
        raise SizeGuardExceeded(f"semigroup has {size} elements, above the guard {size_guard}")


class ReesSemigroup:
    """The completely simple semigroup determined by a sandwich matrix."""

    def __init__(self, matrix: SandwichMatrix, size_guard: int = DEFAULT_SIZE_GUARD):
        self.matrix = matrix
        self.group = matrix.group
        self.n_i = matrix.cols
        self.n_lambda = matrix.rows
        self.size = self.group.order * self.n_i * self.n_lambda
        check_size(self.size, size_guard)
        self._opposite: ReesSemigroup | None = None
        self._table: np.ndarray | None = None  # built on first use by table()

    @property
    def opposite(self) -> ReesSemigroup:
        """S^op as M[G^op; Lambda, I; P^T], where (g, i, lam) here is (g, lam, i);
        built once, so S.opposite.opposite is S."""
        if self._opposite is None:
            op = ReesSemigroup(self.matrix.transpose, size_guard=self.size)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def elements(self) -> Iterator[ReesElement]:
        for g in range(self.group.order):
            for i in range(self.n_i):
                for lam in range(self.n_lambda):
                    yield ReesElement(g, i, lam)

    def index(self, x: ReesElement) -> int:
        self._validate(x)
        return (x.g * self.n_i + x.i) * self.n_lambda + x.lam

    def element(self, k: int) -> ReesElement:
        if not 0 <= k < self.size:
            raise MixedSemigroups(f"index {k} out of range for size {self.size}")
        g, rem = divmod(k, self.n_i * self.n_lambda)
        i, lam = divmod(rem, self.n_lambda)
        return ReesElement(g, i, lam)

    def _validate(self, x: ReesElement) -> None:
        if not (
            0 <= x.g < self.group.order and 0 <= x.i < self.n_i and 0 <= x.lam < self.n_lambda
        ):
            raise MixedSemigroups(
                f"{x} does not belong to this semigroup "
                f"(|G|={self.group.order}, |I|={self.n_i}, |Lambda|={self.n_lambda})"
            )

    def mul(self, x: ReesElement, y: ReesElement) -> ReesElement:
        self._validate(x)
        self._validate(y)
        g, i, mu = product(self.group.array, self.matrix.array, x.g, x.i, x.lam, y.g, y.i, y.lam)
        return ReesElement(int(g), int(i), int(mu))

    def idempotents(self) -> list[ReesElement]:
        """Exactly the elements (p[lam][i]^-1, i, lam), one per matrix cell."""
        out = [
            ReesElement(self.group.inv(self.matrix.entry(lam, i)), i, lam)
            for i in range(self.n_i)
            for lam in range(self.n_lambda)
        ]
        return sorted(out, key=self.index)

    def green(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Green partitions of element indices, keyed "L", "R", "H" and "D":
        L by lam, R by i, H by (i, lam), and D the single full class.  The
        table oracle recomputes each independently from the ideals."""
        # elements() runs in index order, so positions are indices
        elements = list(self.elements())
        return {
            "L": partition_by_key([x.lam for x in elements]),
            "R": partition_by_key([x.i for x in elements]),
            "H": partition_by_key([(x.i, x.lam) for x in elements]),
            "D": (tuple(range(self.size)),),
        }

    def left_ideal_rows(self) -> np.ndarray:
        """S^1 x = G x I x {lam} of each L-class lam as a packed bit row, as in
        `oracle.ideal_rows`: every index congruent to lam modulo |Lambda|."""
        lam = np.arange(self.n_lambda)[:, None]
        return np.packbits(np.arange(self.size) % self.n_lambda == lam, axis=1)

    def index_table(self) -> np.ndarray:
        """The size x size multiplication table on element indices, as a new
        `kernel.index_dtype` array: row (g, i, lam) holds (g * p[lam][j] * h,
        i, mu) for every (h, j, mu), gathered for i = 0 from the scaled group
        part [g, lam, j, h], plus mu, and for i > 0 those plus i*|Lambda|."""
        n_g, n_i, n_l = self.group.order, self.n_i, self.n_lambda
        dtype, M = index_dtype(self.size), self.group.array
        h, j, mu = coordinates(np.arange(self.size, dtype=dtype), n_i, n_l)  # of each column
        prod_g = (M[M[:, self.matrix.array][..., None], np.arange(n_g)] * (n_i * n_l)).astype(dtype)
        table = np.empty((n_g, n_i, n_l, self.size), dtype=dtype)
        np.add(prod_g.reshape(n_g, n_l, -1)[:, :, j * n_g + h], mu, out=table[:, 0])
        np.add(table[:, :1], np.arange(1, n_i, dtype=dtype)[:, None, None] * n_l, out=table[:, 1:])
        return table.reshape(self.size, self.size)

    def table(self) -> np.ndarray:
        """index_table() made read-only, built on first use and kept, so
        that every suite of one run scans the same table.  When S^op
        already holds its table, this one is read off it instead."""
        if self._table is None:
            op = self._opposite
            if op is not None and op._table is not None:
                table = op._opposite_table()
            else:
                table = self.index_table()
            table.flags.writeable = False
            self._table = table
        return self._table

    def _opposite_table(self) -> np.ndarray:
        """S^op's table from table(): x*y in S^op is y*x in S, and element
        (g, i, lam) of S is element (g, lam, i) of S^op.  With inverse the
        S-index of each S^op element, row u of S^op's table is relabel of
        column inverse[u] of S's, read at the rows inverse, in blocks of rows."""
        g, i, lam = element_arrays(self.group.order, self.n_i, self.n_lambda)
        relabel = ((g * self.n_lambda + lam) * self.n_i + i).astype(self.table().dtype)
        inverse = np.argsort(relabel)
        columns = self.table().T
        table = np.empty_like(self.table())
        for rows in blocks(self.size, self.size):
            table[rows] = relabel[columns[inverse[rows, None], inverse]]
        return table

    def element_label(self, x: ReesElement) -> str:
        return f"({self.group.names[x.g]},{x.i},{x.lam})"

    def to_generic(self) -> GenericSemigroup:
        """table() wrapped for the table oracle without a copy.  The wrapper
        checks closure only: `rees.associative` scans the table for
        associativity and reports the result."""
        return GenericSemigroup(self.table())

    def __repr__(self) -> str:
        return (
            f"ReesSemigroup(|G|={self.group.order}, |I|={self.n_i}, "
            f"|Lambda|={self.n_lambda})"
        )
