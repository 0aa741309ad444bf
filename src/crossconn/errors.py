"""Exception types shared across the package."""


class CrossconnError(Exception):
    """Base class for every error raised by this package."""


class NotClosed(CrossconnError):
    """A table entry falls outside the declared element set, or the table is not square."""


class NotAssociative(CrossconnError):
    """A multiplication table fails associativity; the message names a witness triple."""


class NoIdentity(CrossconnError):
    """A Cayley table has no two-sided identity element."""


class NoInverse(CrossconnError):
    """Some element of a Cayley table has no two-sided inverse."""


class SizeGuardExceeded(CrossconnError):
    """A construction or scan was refused because it exceeds its size guard."""


class IndexOutOfRange(CrossconnError):
    """An element index does not fit the structure it is used with."""


class MixedSemigroups(CrossconnError):
    """An element was combined with a semigroup it does not belong to."""


class NotComposable(CrossconnError):
    """Two morphisms were composed whose codomain and domain do not match."""


class ParseError(CrossconnError):
    """Malformed input: a file, a label, or a command-line argument."""
