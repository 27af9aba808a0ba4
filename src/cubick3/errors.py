"""Exception types raised by the library.

Everything derives from ValueError so callers that do not care about the
fine-grained type can catch the usual thing.  Every class below the base
is raised by some library function; a class that loses its last raiser is
removed rather than kept for importers.

Most entry points take an even d, a discriminant or a K3 degree, and
`require_even` is the one check of that domain: a ``bool``, float,
``Fraction`` or ``str`` d raises the caller's class, like an odd int.
Malformed lattice input raises `InvalidMatrix` (a matrix or Gram matrix
from outside), `InvalidVector` (a vector of the wrong length or with a
non-integral entry) or `InvalidLattice` (anything but a lattice where one
is required).
"""


class CubicK3Error(ValueError):
    """Base class for all library errors."""


class DegenerateLattice(CubicK3Error):
    """The operation needs a nondegenerate Gram matrix."""


class DependentGenerators(CubicK3Error):
    """The given vectors are linearly dependent over the rationals."""


class ZeroVector(CubicK3Error):
    """The operation is undefined for the zero vector."""


class UnknownLattice(CubicK3Error):
    """Unrecognized standard-lattice name."""


class NotSpecialDiscriminant(CubicK3Error):
    """d is not a positive int congruent to 0 or 2 modulo 6."""


class InvalidMatrix(CubicK3Error):
    """A matrix has a non-integral entry or ragged rows, or a Gram matrix is not symmetric."""


class InvalidVector(CubicK3Error):
    """A coordinate vector has a non-integral entry or not the length of its lattice's rank.

    A vector with a non-integral entry (a ``Fraction`` or float that is not
    an integer, a ``bool``, or a value ``int()`` refuses, such as ``None``)
    is refused wherever integer coordinates are required
    (`lattice.as_vector`), as is a v that is not iterable at all;
    `Sublattice.contains` catches it and answers
    False, as an integer lattice holds no such vector.  A cohomology class
    of `mukai` with coefficients that are not five rationals, an operand of
    the Mukai pairing that is not a class, and a class without the constant
    term a series inverse or square root needs are refused the same way.
    """


class InvalidLattice(CubicK3Error):
    """Not a lattice where one is required.

    The lattice operations check the type of their lattice argument once, at
    the door: a `GramLattice` (an ambient, or the lattice of `signature`,
    `disc_group` and the parts of `direct_sum`, which needs at least one), a
    `Sublattice` (`saturation`), and the `IntMatrix` Gram of a
    `GramLattice` or basis of a `Sublattice`.
    """


class InvalidNLVector(CubicK3Error):
    """The vector is not primitive of negative square."""


class InvalidDegree(CubicK3Error):
    """The degree/discriminant does not satisfy the operation's congruence."""


class InvalidParity(CubicK3Error):
    """An even integer was required."""


class NotHyperbolicPair(CubicK3Error):
    """The two vectors do not span a standard hyperbolic plane."""


class SearchExhausted(CubicK3Error):
    """No solution within the configured search bound (not a disproof)."""


class InvalidBound(CubicK3Error):
    """A search bound is not an exact nonnegative int."""


def require_even(d, error: type[CubicK3Error], least: int = 2, name: str = "d") -> None:
    """Raise `error` unless d is an exact int, even and at least `least`."""
    if type(d) is not int or d < least or d % 2:
        raise error(f"{name} must be even and at least {least}, got {d!r}")
