"""Exact characteristic-class calculus on the algebraic cohomology of a cubic fourfold.

Classes live in Q[h]/(h^5), written on the basis 1, h, h^2, h^3, h^4.  The
integral of a top-degree class is 3 times its h^4 coefficient since the
fourfold has degree 3.  The Mukai pairing

    (a . b) = -integral( exp(3h/2) * a^* * b )

is intentionally not symmetric; a^* negates the h and h^3 parts.

A class is five exact rational coefficients.  A coefficient, scalar or
`exp_h` argument that `Fraction` refuses or that is a `bool`, a coefficient
list of another length, and an operand of a sum, a difference or the
pairing that is not a class raise `InvalidVector`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._record import Record, show
from .errors import InvalidDegree, InvalidVector
from .lattice import IntMatrix

_DEG = 5


def _fraction(v) -> Fraction:
    if type(v) is bool:  # Fraction(True) is 1, but a bool is no coefficient
        raise InvalidVector(f"a coefficient or scalar must be rational, got {show(v)}")
    try:
        return Fraction(v)
    except (OverflowError, TypeError, ValueError) as e:  # None, "x", an infinity, ...
        raise InvalidVector(str(e)) from None


def _frac5(vals) -> tuple[Fraction, ...]:
    out = tuple(map(_fraction, vals))
    if len(out) != _DEG:
        raise InvalidVector("a cohomology class has five coefficients")
    return out


def _require_class(c) -> None:
    if not isinstance(c, CohClass):
        raise InvalidVector(f"a cohomology class is required, got {show(c)}")


class CohClass(Record):
    """A class a0 + a1 h + a2 h^2 + a3 h^3 + a4 h^4 with exact rational coefficients."""

    def __init__(self, coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]):
        self.__dict__["coeffs"] = coeffs

    @staticmethod
    def of(*vals) -> "CohClass":
        return CohClass(_frac5(vals))

    def __add__(self, other: "CohClass") -> "CohClass":
        _require_class(other)
        return CohClass(_frac5(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        _require_class(other)
        return CohClass(_frac5(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CohClass":
        return CohClass(_frac5(-a for a in self.coeffs))

    def scale(self, c) -> "CohClass":
        c = _fraction(c)
        return CohClass(_frac5(c * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CohClass):
            out = [Fraction(0)] * _DEG
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j < _DEG and b:
                        out[i + j] += a * b
            return CohClass(_frac5(out))
        return self.scale(other)

    __rmul__ = __mul__

    def dual(self) -> "CohClass":
        """The involution negating the degree-2 and degree-6 parts (h and h^3 here)."""
        a0, a1, a2, a3, a4 = self.coeffs
        return CohClass((a0, -a1, a2, -a3, a4))

    def integral(self) -> Fraction:
        return 3 * self.coeffs[4]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def exp_h(k) -> CohClass:
    """exp(k h) truncated at degree 4, with exact factorial denominators."""
    k = _fraction(k)
    term = Fraction(1)
    out = []
    for i in range(_DEG):
        out.append(term)
        term = term * k / (i + 1)
    return CohClass(_frac5(out))


class CharClasses(Record):
    """The total Chern class, the Todd class and its square root."""

    def __init__(self, chern: CohClass, todd: CohClass, sqrt_todd: CohClass):
        s = self.__dict__
        s["chern"] = chern
        s["todd"] = todd
        s["sqrt_todd"] = sqrt_todd


@lru_cache(maxsize=None)
def characteristic_classes() -> CharClasses:
    """Total Chern class, Todd class and its square root of a cubic fourfold, written down.

    The total Chern class, the degree-4 truncation of (1+h)^6 / (1+3h), is
    1 + 3h + 6h^2 + 2h^3 + 9h^4.  The Todd class, the universal Todd
    polynomial in c1..c4 = 3, 6, 2, 9, is 1 + 3/2 h + 5/4 h^2 + 3/4 h^3 +
    1/3 h^4, and its square root with constant term 1 is 1 + 3/4 h +
    11/32 h^2 + 15/128 h^3 + 121/6144 h^4.  No series is computed.  The
    proof is `verify`, which derives all three with its `series_inverse`,
    the Todd polynomial and its `series_sqrt`, and compares them with these.

    >>> print(characteristic_classes().todd)
    (1, 3/2, 5/4, 3/4, 1/3)
    """
    F = Fraction
    return CharClasses(
        CohClass.of(1, 3, 6, 2, 9),
        CohClass.of(1, F(3, 2), F(5, 4), F(3, 4), F(1, 3)),
        CohClass.of(1, F(3, 4), F(11, 32), F(15, 128), F(121, 6144)),
    )


def mukai_vector_line(k: int) -> CohClass:
    """Mukai vector of the k-th twist of the trivial line bundle: exp(kh) * sqrt(td).

    k is an exact int; a ``bool``, float, ``Fraction`` or ``str`` raises
    InvalidDegree.

    >>> print(mukai_vector_line(1))
    (1, 7/4, 51/32, 385/384, 2921/6144)
    """
    if type(k) is not int:
        raise InvalidDegree(f"k must be an int, got {show(k)}")
    return exp_h(k) * characteristic_classes().sqrt_todd


@lru_cache(maxsize=None)
def u_classes() -> tuple[CohClass, CohClass]:
    """Mukai vectors of the twisted structure sheaves of a line, taken as given data.

    They are validated against the Euler-characteristic pairing identities
    rather than rederived.
    """
    u1 = CohClass.of(0, 0, 0, Fraction(1, 3), Fraction(5, 12))
    u2 = CohClass.of(0, 0, 0, Fraction(1, 3), Fraction(9, 12))
    return u1, u2


@lru_cache(maxsize=None)
def _exp_3h2() -> CohClass:
    return exp_h(Fraction(3, 2))


def mukai_pairing(a: CohClass, b: CohClass) -> Fraction:
    """-integral(exp(3h/2) * a^* * b); not symmetric."""
    _require_class(a)
    _require_class(b)
    return -(_exp_3h2() * a.dual() * b).integral()


def euler_line(k: int) -> int:
    """Euler characteristic of the k-th twisted line bundle: C(k+5,5) - C(k+2,5).

    k is an exact int; a ``bool``, float, ``Fraction`` or ``str`` raises
    InvalidDegree.

    >>> [euler_line(k) for k in (-3, 0, 1, 2)]
    [1, 1, 6, 21]
    """
    if type(k) is not int:
        raise InvalidDegree(f"k must be an int, got {show(k)}")

    def binom5(m: int) -> int:
        return m * (m - 1) * (m - 2) * (m - 3) * (m - 4) // 120

    return binom5(k + 5) - binom5(k + 2)


def project_right(a: CohClass) -> CohClass:
    """Projection onto the right orthogonal complement of the three line-bundle vectors.

    Returns the unique p(a) = a - c0 w0 - c1 w1 - c2 w2 with (w_i . p(a)) = 0,
    by back-substitution: the pairing on the span of the w_i is upper
    triangular with -1 on the diagonal, so removing the w2, w1, w0
    components in turn leaves the earlier pairings at zero.
    """
    ws = [mukai_vector_line(i) for i in range(3)]
    out = a
    for w in reversed(ws):
        out = out - w.scale(mukai_pairing(w, out) / mukai_pairing(w, w))
    if any(mukai_pairing(w, out) for w in ws):
        raise AssertionError("projection is not right orthogonal to w0, w1, w2")
    return out


@lru_cache(maxsize=None)
def lambda_vectors() -> tuple[CohClass, CohClass]:
    """The right projections vlambda1, vlambda2 of u1 and u2, written down.

    vlambda1 = (3, 5/4, -7/32, -77/384, 41/2048) = u1 - w1 + 4 w0 and
    vlambda2 = (-3, -1/4, 15/32, 1/384, -153/2048) = u2 - w2 + 4 w1 - 6 w0.
    No projection is computed.  The proof is `verify`, which compares them
    with `project_right` of u1 and u2.

    >>> print(lambda_vectors()[0])
    (3, 5/4, -7/32, -77/384, 41/2048)
    """
    F = Fraction
    return (
        CohClass.of(3, F(5, 4), F(-7, 32), F(-77, 384), F(41, 2048)),
        CohClass.of(-3, F(-1, 4), F(15, 32), F(1, 384), F(-153, 2048)),
    )


def a2_mukai_gram() -> IntMatrix:
    """Gram of vlambda1, vlambda2 under the Mukai pairing, written down: A2.

    The pairing is already the sign-reversed Euler form, so it restricts to
    the standard positive A2 form [[2, -1], [-1, 2]] on the projected
    vectors with no further negation.  No pairing is computed.  The proof
    is `verify`, which compares it with the exact pairings of the
    projections of u1 and u2, so equality also proves them integral.

    >>> a2_mukai_gram().to_lists()
    [[2, -1], [-1, 2]]
    """
    return IntMatrix(((2, -1), (-1, 2)))


class MukaiSet(Record):
    """The seven distinguished Mukai vectors of a cubic fourfold."""

    def __init__(self, w0: CohClass, w1: CohClass, w2: CohClass, u1: CohClass, u2: CohClass,
                 vl1: CohClass, vl2: CohClass):
        s = self.__dict__
        s["w0"] = w0
        s["w1"] = w1
        s["w2"] = w2
        s["u1"] = u1
        s["u2"] = u2
        s["vl1"] = vl1
        s["vl2"] = vl2

    def to_json(self) -> dict:
        return {
            "w0": self.w0.to_json(),
            "w1": self.w1.to_json(),
            "w2": self.w2.to_json(),
            "u1": self.u1.to_json(),
            "u2": self.u2.to_json(),
            "vLambda1": self.vl1.to_json(),
            "vLambda2": self.vl2.to_json(),
        }


@lru_cache(maxsize=None)
def mukai_set() -> MukaiSet:
    return MukaiSet(*(mukai_vector_line(i) for i in range(3)), *u_classes(), *lambda_vectors())
