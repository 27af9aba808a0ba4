"""Exception types raised by the library.

Everything derives from ValueError so callers that do not care about the
fine-grained type can catch the usual thing.  Every class below the base
is raised by some library function; a class that loses its last raiser is
removed rather than kept for importers.
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
    """d is not congruent to 0 or 2 modulo 6 (or not even positive)."""


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
