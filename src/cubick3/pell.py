"""Exact solvers for the Pell-type equation x^2 - D y^2 = -3.

Both witness equations of the condition classifiers reduce to this single
equation: the square presentation d = (2n^2+2n+2)/a^2 via x = 2n+1, y = a,
D = 2d, and the Hilbert-scheme criterion 3p^2 - (d/6) q^2 = -1 via x = 3p,
y = q, D = d/2.  A returned None is a proof of unsolvability, never a
truncated search.

For nonsquare D the decision is made on small integers.  The continued
fraction of sqrt(D) comes from the recurrence

    m_{i+1} = Q_i a_i - m_i,  Q_{i+1} = (D - m_{i+1}^2) / Q_i,
    a_{i+1} = (a_0 + m_{i+1}) // Q_{i+1},   m_0 = 0, Q_0 = 1,

whose terms stay below 2 sqrt(D), and the convergents p_k/q_k satisfy

    p_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1).

So x^2 - D y^2 = -3 holds at a convergent exactly when k is even and
Q_(k+1) = 3, and one period of Q (length L) decides it.  Q repeats with
period L, so a hit at an odd index j < L recurs at k = j + L, which is even
only when L is odd; but then the symmetry Q_i = Q_(L-i) of the period puts
a hit at the even index L - j - 2 < L as well.  Hence the least solution
among k <= 2L is the least even hit in the first period, if there is one.
The walk therefore stops at its first even hit and keeps only the partial
quotients before it, so on a solvable D its time and memory are bounded by
the hit index, not by L.  The big-integer convergent is built once, at the
hit, by binary splitting of the matrix product of the partial quotients.
Only a D without a hit walks the whole period, and only there does
`solve_minus3` build the convergent at L for its `bound_searched`;
`least_solution` decides without that bound and builds nothing.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt
from typing import NamedTuple


class PellResult(NamedTuple):
    solution: tuple[int, int] | None  # least solution with x > 0, y > 0
    bound_searched: int  # largest y examined on the decisive path


def _terms(D: int) -> Iterator[tuple[int, int]]:
    """(a_i, Q_i) for i = 1..L, one period of the expansion of sqrt(D), nonsquare D."""
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D must not be a perfect square")
    m, den, a = 0, 1, a0
    while a != 2 * a0:
        m = den * a - m
        den = (D - m * m) // den
        a = (a0 + m) // den
        yield a, den


def sqrt_cf(D: int) -> tuple[int, list[int]]:
    """Continued fraction of sqrt(D) for nonsquare D: (a0, periodic part)."""
    return isqrt(D), [a for a, _ in _terms(D)]


def _walk(D: int) -> tuple[list[int], bool]:
    """Walk sqrt(D), nonsquare D, to the least even j with Q_(j+1) = 3.

    Returns (quotients, hit).  With a hit the quotients are a_1..a_j, all
    that the convergent at j reads; without one they are the whole period.
    """
    quotients: list[int] = []
    for a, den in _terms(D):
        if den == 3 and len(quotients) % 2 == 0:
            return quotients, True
        quotients.append(a)
    return quotients, False


def _convergent(a0: int, quotients: list[int]) -> tuple[int, int, int, int]:
    """(p_(k-1), q_(k-1), p_k, q_k) of [a0; quotients], k = len(quotients).

    [[p_k, p_(k-1)], [q_k, q_(k-1)]] is the product of [[a_i, 1], [1, 0]]
    over a_0..a_k, multiplied out by binary splitting: the factors of each
    product have equal size, so the big multiplications run subquadratically
    (a k-step recurrence costs O(k^2) word operations).
    """
    p, p_prev, q, q_prev = _cf_product([a0, *quotients])
    return p_prev, q_prev, p, q


def _cf_product(quotients: list[int]) -> tuple[int, int, int, int]:
    # the product of [[a, 1], [1, 0]] over `quotients`, row by row; short
    # runs are multiplied out by the recurrence, where the entries are small
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


def fundamental_unit(D: int) -> tuple[int, int]:
    """Least (x, y) with x^2 - D y^2 = 1, y > 0, for nonsquare D > 1.

    Q_(k+1) = 1 only at k + 1 = 0 (mod L), so the unit is the convergent at
    k = L - 1 for even L and k = 2L - 1 for odd L.
    """
    a0, period = sqrt_cf(D)
    if len(period) % 2:
        period = period + period
    _, _, p, q = _convergent(a0, period[:-1])
    assert p * p - D * q * q == 1
    return p, q


def _hit_solution(D: int, quotients: list[int]) -> tuple[int, int]:
    # the solution at the convergent that a hit of `_walk` selected
    _, _, p, q = _convergent(isqrt(D), quotients)
    assert p * p - D * q * q == -3
    return p, q


def least_solution(D: int) -> tuple[int, int] | None:
    """Least positive solution of x^2 - D y^2 = -3, or None (a proof, not a cutoff).

    The decision of `solve_minus3` without its `bound_searched`: for
    nonsquare D > 9 the walk stops at the first even hit and builds the
    convergent there, and a D without a hit builds nothing.

    >>> least_solution(28), least_solution(148)
    ((5, 1), None)
    """
    if D <= 9 or isqrt(D) ** 2 == D:
        return solve_minus3(D).solution
    quotients, hit = _walk(D)
    return _hit_solution(D, quotients) if hit else None


def solve_minus3(D: int) -> PellResult:
    """Least positive solution of x^2 - D y^2 = -3, or a proof there is none.

    For square D the equation factors.  For nonsquare D > 9 every positive
    solution is a convergent p_k/q_k of sqrt(D) (|N| < sqrt(D)), and by
    p_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1) the least one is at the least even
    k <= 2L with Q_(k+1) = 3.  That k lies in the first period (see the
    module docstring for the parity argument), so the (m, Q) walk stops at
    the first even hit, and only the convergent at k is built; then
    `bound_searched` is its y.  Only without a hit does the walk cover the
    whole period and the bound get built: `bound_searched` is q_(2L), the
    last denominator of the two periods that decide, computed as
    q_L^2 + q_(L-1) (p_L - a0 q_L) from the first period.  For the finitely
    many nonsquare D <= 9 the classes of solutions have representatives
    below an explicit bound derived from the fundamental unit, which a
    direct scan covers.

    >>> solve_minus3(28).solution
    (5, 1)
    >>> solve_minus3(148).solution is None
    True
    """
    if D <= 0:
        raise ValueError("D must be positive")
    s = isqrt(D)
    if s * s == D:
        # (sy - x)(sy + x) = 3 forces sy = 2, x = 1
        if s in (1, 2):
            return PellResult((1, 2 // s), 2 // s)
        return PellResult(None, 1)
    if D > 9:
        quotients, hit = _walk(D)
        if hit:
            x, y = _hit_solution(D, quotients)
            return PellResult((x, y), y)
        _, q_prev, p, q = _convergent(s, quotients)
        return PellResult(None, q * q + q_prev * (p - s * q))
    # D in {2, 3, 5, 6, 7, 8}
    x0, y0 = fundamental_unit(D)
    # each solution class has a representative with
    # 0 <= y <= y0 * sqrt(3 / (2 (x0 - 1)))
    ybound = isqrt((3 * y0 * y0) // (2 * (x0 - 1))) + 1
    best: tuple[int, int] | None = None
    for y in range(1, ybound + 1):
        t = D * y * y - 3
        if t < 0:
            continue
        x = isqrt(t)
        if x * x != t:
            continue
        if x == 0:
            # translate by the unit to reach a positive-x solution
            cand = (D * y * y0, y * x0)
        else:
            cand = (x, y)
        if best is None or cand[1] < best[1]:
            best = cand
    return PellResult(best, ybound)
