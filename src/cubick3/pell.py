"""The exact solver for the Pell-type equation x^2 - D y^2 = -3.

Both witness equations of the condition classifiers reduce to this single
equation: the square presentation d = (2n^2+2n+2)/a^2 via x = 2n+1, y = a,
D = 2d, and the Hilbert-scheme criterion 3p^2 - (d/6) q^2 = -1 via x = 3p,
y = q, D = d/2.  A returned None is a proof of unsolvability, never a
truncated search.

For nonsquare D > 9 the decision is made on small integers.  The continued
fraction of sqrt(D) comes from the recurrence

    m_{i+1} = Q_i a_i - m_i,  Q_{i+1} = (D - m_{i+1}^2) / Q_i,
    a_{i+1} = (a_0 + m_{i+1}) // Q_{i+1},   m_0 = 0, Q_0 = 1,

whose terms stay below 2 sqrt(D), and the convergents p_k/q_k satisfy

    p_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1).

Every positive solution is a convergent (|-3| < sqrt(D)), so
x^2 - D y^2 = -3 holds exactly at the even k with Q_(k+1) = 3.  Q repeats
with period L, so a hit at an odd index j < L recurs at k = j + L, which is
even only when L is odd; but then the symmetry Q_i = Q_(L-i) of the period
puts a hit at the even index L - j - 2 < L as well.  Hence the least
solution is the least even hit in the first period, and a period without
one is the proof that there is none: no bound on y is needed.

The walk stops at its first even hit, or at the middle of the period.  The
period is symmetric: Q_i = Q_(L-i) and m_i = m_(L+1-i), so a_i = a_(L-i)
for 0 < i < L, and a hit at k mirrors to one at L - 2 - k, of the same
parity for even L and of the other for odd L.  The middle shows in two
tests, whose first success within the period is there:

- m_(i+1) = m_i means L = 2i.  A hit k >= i mirrors to one at
  L - 2 - k <= i - 2 of the same parity, so a first half with no even hit
  proves there is none.
- Q_(i+1) = Q_i means L = 2i + 1.  An even hit k >= i mirrors an odd hit
  L - 2 - k <= i - 1, so a first half with no hit at all proves there is
  none.  Otherwise let k be the last odd hit of the first half.  The walk
  goes on, and the hits past the middle are the mirrors of those before
  it, met in reverse order: the first of them is L - 2 - k, even, and so
  the least even hit of the period, which leaves by the even-hit exit.
  Neither middle test fires again before it: m_(j+1) = m_j next holds at
  j = L, and Q_(j+1) = Q_j at j = i + L, both past L - 2 - k.

No caller in the library walks past a middle.  The period is odd exactly
when x^2 - D y^2 = -1 is solvable, and neither D = 2d (4 | D, and -1 is
not a square mod 4) nor D = d/2 (3 | D, and -1 is not a square mod 3)
admits that.  The walk-on serves the rest of the domain, D = 13, 61 and 97
among it, where the least even hit lies past the middle.

The walk divides only for a_i.  Subtracting Q_(i-1) Q_i = D - m_i^2 from
Q_i Q_(i+1) = D - m_(i+1)^2, with m_i + m_(i+1) = a_i Q_i, gives

    Q_(i+1) = Q_(i-1) + a_i (m_i - m_(i+1)),   Q_(-1) = D,

which replaces the division of the recurrence above.  At the hit j only
the denominators q_j, q_(j-1) of the convergent are built, and the
numerator follows from the identity

    p_j = m_(j+1) q_j + Q_(j+1) q_(j-1),   Q_(j+1) = 3.

A short quotient list is run through the recurrence q_(i+1) =
a_(i+1) q_i + q_(i-1); a long one, of a long walk, by binary splitting of
the matrix product of the partial quotients, whose factors have equal
size, so that the big multiplications run subquadratically.  The solution
is checked against the equation before it is returned.

For square D the equation factors.  The six nonsquare D <= 9 are too small
for the convergent argument and are pinned in `_SMALL`; the unit-bounded
scan of the test oracles (`oracles.solve_minus3`) checks them.
"""

from __future__ import annotations

from math import isqrt

from ._record import show
from .errors import InvalidDegree

# least solutions for the nonsquare D <= 9
_SMALL = {2: None, 3: (3, 2), 5: None, 6: None, 7: (2, 1), 8: None}
# the longest quotient list whose denominators are run through the recurrence
_FLAT_DENOMINATORS = 512


def _cf_product(quotients: list[int]) -> tuple[int, int, int, int]:
    # the product of [[a, 1], [1, 0]] over `quotients`, row by row, that is
    # (p_k, p_(k-1), q_k, q_(k-1)); the factors of each product have equal
    # size, so the big multiplications run subquadratically (a k-step
    # recurrence costs O(k^2) word operations).  Short runs are multiplied
    # out by the recurrence, where the entries are small.
    if len(quotients) <= 32:
        m00, m01, m10, m11 = 1, 0, 0, 1
        for a in quotients:
            m00, m01 = a * m00 + m01, m00
            m10, m11 = a * m10 + m11, m10
        return m00, m01, m10, m11
    mid = len(quotients) // 2
    a00, a01, a10, a11 = _cf_product(quotients[:mid])
    b00, b01, b10, b11 = _cf_product(quotients[mid:])
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _cf_denominators(quotients: list[int]) -> tuple[int, int]:
    # the bottom row (q_k, q_(k-1)) of `_cf_product(quotients)`: the
    # recurrence for a short list, and for a long one the bottom row of its
    # first half times the product of its second
    if len(quotients) <= _FLAT_DENOMINATORS:
        q, q_prev = 0, 1
        for a in quotients:
            q, q_prev = a * q + q_prev, q
        return q, q_prev
    mid = len(quotients) // 2
    a10, a11 = _cf_denominators(quotients[:mid])
    b00, b01, b10, b11 = _cf_product(quotients[mid:])
    return a10 * b00 + a11 * b10, a10 * b01 + a11 * b11


def least_solution(D: int) -> tuple[int, int] | None:
    """Least positive solution of x^2 - D y^2 = -3, or None (a proof, not a cutoff).

    D is an exact positive int; a ``bool``, float, ``Fraction``, ``str``,
    0 or a negative raises InvalidDegree.

    >>> least_solution(28), least_solution(148)
    ((5, 1), None)
    >>> least_solution(3)
    (3, 2)
    """
    if type(D) is not int or D <= 0:
        raise InvalidDegree(f"D must be a positive int, got {show(D)}")
    s = isqrt(D)
    if s * s == D:
        # (sy - x)(sy + x) = 3 forces sy = 2, x = 1
        return (1, 2 // s) if s in (1, 2) else None
    if D <= 9:
        return _SMALL[D]
    # quotients holds a_0..a_j, and Q_(j+1) = 3 at even j is the least
    # solution, with m = m_(j+1); the walk ends at the middle of the period,
    # or past the middle of an odd one at its first even hit
    m, den, den_prev, a = 0, 1, D, s
    quotients = [s]
    odd_seen = False  # whether an odd k with Q_(k+1) = 3 came before
    while True:
        m_next = den * a - m
        if m_next == m:
            return None  # the middle of an even period
        den_next = den_prev + a * (m - m_next)
        if den_next == den and not odd_seen:
            return None  # the middle of an odd period, with no hit before it
        m, den_prev, den = m_next, den, den_next
        if den == 3:
            if len(quotients) % 2:  # j = len(quotients) - 1 is even
                break
            odd_seen = True
        a = (s + m) // den
        quotients.append(a)
    q, q_prev = _cf_denominators(quotients)
    p = m * q + 3 * q_prev
    assert p * p - D * q * q == -3
    return p, q
