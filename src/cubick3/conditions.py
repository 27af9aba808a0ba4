"""Number-theoretic classifiers for the special-discriminant conditions.

A positive even d is classified by the chain

    (***)  =>  (**)  =>  (**')  =>  (*)

where (*) is the residue test d = 0, 2 (mod 6), (**') asks for a vector of
square d in A2, (**) for a primitive one, and (***) for the square
presentation d = (2n^2+2n+2)/a^2.  The A2 tests and the (**) witness run on
one prime factorization of d/2, by `_factorize`: trial division by the
primes below 2^10, then deterministic Miller-Rabin and Pollard-Brent (a
square cofactor is split at its root first), so that every d/2 below 2^63
is factored in milliseconds.  One pass over its primes, `_a2_flags`, reads
both (**') and (**).  One prime p = 2 (mod 3) of d/2 to an odd power makes
both false, so `_a2_flags` has the factorization stop at the first such
prime: d/2 is factored completely only where (**') holds.  The (**)
witness exists exactly where (**) holds, so `witness_ss` reads (**) and
the factorization from `_a2_flags` and lifts roots only there.  The
(***) witness comes from the Pell solver, which `condition_flags` runs
only where (**) holds (the implication (***) => (**) is a check of
`verify` instead).

The table's `pell_3p2` column, Brakkee's 3p^2 - (d/6) q^2 = -1 for
d = 0 (mod 6), is the solvability of x^2 + 3 = D y^2 with x = 3p, y = q,
D = d/2, and it is decided without a walk where it can be:

- (***) implies it: a solution (x, y) of x^2 - 2d y^2 = -3 gives the
  solution (x, 2y) of x^2 - (d/2) y^2 = -3.  `csv_row` uses this, as it
  needs only the T; `pell_brakkee` reports the least solution instead.
- A solution forces three local conditions on D, with 3 | D.  For an odd
  prime p != 3 dividing D, p does not divide x (else p | 3), so -3 is a
  square mod p, that is p = 1 (mod 3).  3 | x, and x = 3x' gives
  3 (3x'^2 + 1) = D y^2 with 3 not dividing 3x'^2 + 1, so v_3(D) = 1.  For
  even x, x^2 + 3 is odd, so v_2(D) = 0; for odd x, x^2 + 3 = 4 (mod 8),
  so v_2(D) + 2 v_2(y) = 2 and v_2(D) is 0 or 2.  As (**) holds for d
  exactly when D has no prime factor 2 (mod 3), 2 included, and
  v_3(D) <= 1, these conditions say that (**) holds for d, or that
  d = 8 (mod 16) and (**) holds for d/4.  Where neither does, the
  column is F.
- Every other d is decided by `pell.least_solution(d/2)`.

One private decision, `_brakkee_least`, applies the obstruction and then
the solver, given (**) and (**') for d.  `csv_row` (behind `table`) calls
it with the condition flags, and so does `classify`, through the
`_brakkee_solution` that also gives `pell_brakkee` its (p, q): d/2 is
factored once, and every d is answered the same way.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from collections.abc import Callable

from . import pell
from ._record import Record, int_str, json_int, show
from .errors import InvalidDegree, InvalidParity, require_even

CLI_INPUT_CAP = 2**63

# the 172 primes below 2^10, written down; a test compares them with a sieve
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013, 1019, 1021,
)
_TRIAL = tuple((p, p * p) for p in _SMALL_PRIMES)  # (p, p^2), for trial division
# the first 13 primes, 2..41, decide primality for every n below psi_13
_MR_BASES = _SMALL_PRIMES[:13]
_PSI13 = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin with the bases 2..41, for odd n with
    # 41 < n < psi_13
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    # a proper factor of an odd composite n: Pollard's rho on
    # x -> x^2 + c with Brent's cycle finding, the products of m
    # differences taken modulo n between gcds; c = 1, 2, ... until the
    # cycle splits n (each c ends, as the walk mod n is eventually periodic)
    m = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # the batch overshot: step from its start one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factorize(n: int,
               stop: Callable[[int, int], bool] | None = None) -> dict[int, int] | None:
    """The prime factorization {p: e} of n >= 1, primes ascending.

    Trial division by the 172 primes below 2^10 comes first, and a cofactor
    below 2^20 that it leaves is prime.  A larger cofactor c is tested by
    deterministic Miller-Rabin with the first 13 prime bases 2, ..., 41,
    which is a proof of primality for c < psi_13 =
    3,317,044,064,679,887,385,961,981 (Sorenson-Webster, Math. Comp. 86
    (2017), arXiv 1509.00864; the first 12 bases are fooled by
    psi_12 = 399165290221 * 798330580441).  A composite is split at its
    integer square root where it is a square, and otherwise by Pollard's
    rho with Brent's cycle finding (Brent, BIT 20 (1980)), until every
    factor is proven prime.  Every n below 2^63 lies below psi_13; a
    cofactor at or above it is reduced by odd trial division first, the
    only proven route there, and that route alone warns that it may be
    very slow.

    `stop(p, e)`, where given, is asked of each prime power p^e of n as it
    is found, with e its whole exponent, in the trial, odd-trial and
    large-cofactor phases alike.  The first it accepts ends the
    factorization, which then returns None.  Nothing after it runs: a stop
    in the trial division by the primes below 2^10 comes before the odd
    trial division and its warning.
    """
    out: dict[int, int] = {}
    for p, p2 in _TRIAL:
        if p2 > n:
            if n > 1:
                if stop and stop(n, 1):
                    return None
                out[n] = 1
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            if stop and stop(p, e):
                return None
    # no prime factor of n lies below 2^10
    if n >= _PSI13:
        # the warning names the first caller outside this package
        frame, level = sys._getframe(), 1
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "a cofactor of 3.3e24 or more is trial-divided and may be very slow",
            RuntimeWarning,
            stacklevel=level,
        )
    p = _SMALL_PRIMES[-1] + 2
    while n >= _PSI13 and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            if stop and stop(p, e):
                return None
        p += 2
    # n is 1, or a prime, or a composite below psi_13 with no factor below
    # 2^10; each prime c of it is counted once, by its exponent in n
    large: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if c in large:
            continue
        if c < 2**20 or c >= _PSI13 or _is_prime(c):
            e, m = 1, n // c
            while m % c == 0:
                m //= c
                e += 1
            large[c] = e
            if stop and stop(c, e):
                return None
        else:
            r = math.isqrt(c)
            g = r if r * r == c else _pollard_brent(c)
            stack += [g, c // g]
    return out | dict(sorted(large.items()))


def a2_represents(d: int, primitive: bool = False) -> bool:
    """Whether A2 represents d (by a primitive vector when `primitive`).

    d is represented iff every prime p = 2 (mod 3) divides d/2 to an even
    power; primitively iff no such prime divides d/2 at all and 3 divides it
    at most once.

    >>> a2_represents(18), a2_represents(18, primitive=True)
    (True, False)
    >>> a2_represents(30)
    False
    """
    require_even(d, InvalidParity)
    ssp, ss, _ = _a2_flags(d // 2)
    return ss if primitive else ssp


def _obstructs(p: int, e: int) -> bool:
    # a prime 2 (mod 3) to an odd power: (**') and (**) fail for d = 2p^e m
    return p % 3 == 2 and e % 2 == 1


def _a2_flags(n: int) -> tuple[bool, bool, dict[int, int] | None]:
    # ((**'), (**)) for d = 2n, the two criteria of `a2_represents`, and the
    # factorization of n where (**') holds.  The factorization stops at the
    # first obstructing prime, where both fail; where none is found, n has
    # no prime 2 (mod 3) to an odd power, and (**) asks that it have none
    # at all and 3 at most once.
    factors = _factorize(n, _obstructs)
    if factors is None:
        return False, False, None
    primitive = factors.get(3, 0) < 2
    for p in factors:
        if p % 3 == 2:
            primitive = False
            break
    return True, primitive, factors


def witness_ss(d: int) -> tuple[int, int] | None:
    """Least (n, a) with a*d = 2n^2 + 2n + 2, or None (a proof, not a cutoff).

    n^2 + n + 1 is odd, so the condition is m | n^2 + n + 1 with m = d/2.
    The roots modulo each prime power of m are: n = 1 modulo 3; none modulo
    2, modulo 9 or modulo a prime p = 2 (mod 3); and modulo p^e for
    p = 1 (mod 3) the two primitive cube roots of unity, g^((p-1)/3) for
    the least g that gives one, lifted by Newton's iteration (f'(n) = 2n + 1
    is a unit, as (2n+1)^2 = -3).  So a witness exists exactly where (**)
    holds, which `_a2_flags` decides as it factors m, stopping at the first
    obstructing prime.  The roots modulo m are the CRT combinations of the
    local ones, all below m, and the least of them is n.

    >>> witness_ss(42), witness_ss(74), witness_ss(8)
    ((4, 1), (10, 3), None)
    """
    require_even(d, InvalidParity)
    _, ss, factors = _a2_flags(d // 2)
    return _witness_ss(d, factors) if ss else None


def _witness_ss(d: int, factors: dict[int, int]) -> tuple[int, int]:
    # `witness_ss` on the factorization of d/2, given (**) for d: its primes
    # are 3, to the first power, and primes 1 (mod 3)
    roots, mod = [0], 1  # every root of n^2 + n + 1 modulo `mod`
    for p, e in factors.items():
        if p == 3:
            pe, local = 3, (1,)
        else:
            # a primitive cube root of unity mod p, lifted to p^e
            g = 2
            while pow(g, (p - 1) // 3, p) == 1:
                g += 1
            r, pe = pow(g, (p - 1) // 3, p), p**e
            while (r * r + r + 1) % pe:
                r = (r - (r * r + r + 1) * pow(2 * r + 1, -1, pe)) % pe
            local = (r, pe - 1 - r)
        inv = pow(mod, -1, pe)
        roots = [x + mod * ((y - x) * inv % pe) for x in roots for y in local]
        mod *= pe
    n = min(roots)
    t = 2 * (n * n + n + 1)
    assert t % d == 0
    return n, t // d


def witness_sss(d: int) -> tuple[int, int] | None:
    """Least (n, a) with a^2*d = 2n^2 + 2n + 2, or None (a proof, not a cutoff).

    Equivalent to the Pell-type equation x^2 - 2d y^2 = -3 with x = 2n+1
    (x is odd automatically), solved exactly by continued fractions.

    >>> witness_sss(14)
    (2, 1)
    >>> witness_sss(38)
    (30, 7)
    >>> witness_sss(74) is None
    True
    """
    require_even(d, InvalidParity)
    sol = pell.least_solution(2 * d)
    if sol is None:
        return None
    x, y = sol
    assert x % 2 == 1
    n, a = (x - 1) // 2, y
    assert a * a * d == 2 * n * n + 2 * n + 2
    return n, a


def _json_pair(pair: tuple[int, int] | None) -> list | None:
    return [json_int(v) for v in pair] if pair else None


class ConditionFlags(Record):
    """Classification of one even discriminant, with witnesses where they exist.

    `case_mod6` is 0, 2, or None when d is not special.
    """

    def __init__(self, d: int, star: bool, starstar_prime: bool, starstar: bool,
                 starstarstar: bool, case_mod6: int | None,
                 ss_witness: tuple[int, int] | None, sss_witness: tuple[int, int] | None):
        s = self.__dict__
        s["d"] = d
        s["star"] = star
        s["starstar_prime"] = starstar_prime
        s["starstar"] = starstar
        s["starstarstar"] = starstarstar
        s["case_mod6"] = case_mod6
        s["ss_witness"] = ss_witness
        s["sss_witness"] = sss_witness

    def to_json(self) -> dict:
        return {
            "d": json_int(self.d),
            "star": self.star,
            "ss_prime": self.starstar_prime,
            "ss": self.starstar,
            "sss": self.starstarstar,
            "case_mod6": self.case_mod6,
            "ss_witness": _json_pair(self.ss_witness),
            "sss_witness": _json_pair(self.sss_witness),
        }


def condition_flags(d: int) -> ConditionFlags:
    """Evaluate the four conditions for an even positive d (an exact ``int``)."""
    require_even(d, InvalidParity)
    case = d % 6
    star = case in (0, 2)
    ssp, ss, factors = _a2_flags(d // 2)
    # (***) implies (**), so the Pell equation is solved only where (**) holds
    w_sss = witness_sss(d) if ss else None
    flags = ConditionFlags(d, star, ssp, ss, w_sss is not None, case if star else None,
                           _witness_ss(d, factors) if ss else None, w_sss)
    if (ss and not ssp) or (ssp and not star):
        raise AssertionError(f"implication chain violated at d={d}: {flags}")
    return flags


def boundary_count(d: int) -> int:
    """Number of boundary components of the degree-d moduli space: 2 iff d/2 = 1 (4).

    >>> boundary_count(10), boundary_count(8)
    (2, 1)
    """
    require_even(d, InvalidParity)
    return _boundary_count(d)


def _boundary_count(d: int) -> int:
    # `boundary_count` of an even d: d/2 = 1 (mod 4) is d = 2 (mod 8)
    return 2 if d % 8 == 2 else 1


class PellSolution(Record):
    """Outcome of one exactly-solved Pell-type equation."""

    def __init__(self, equation: str, solution: tuple[int, int] | None):
        s = self.__dict__
        s["equation"] = equation
        s["solution"] = solution

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "solution": _json_pair(self.solution),
        }


def _brakkee_least(d: int, ss: bool, ssp: bool) -> tuple[int, int] | None:
    # the least solution of x^2 - (d/2) y^2 = -3 for d = 0 (mod 6), given
    # (**) and (**') for d; None by the local obstruction of the module
    # docstring, without a walk.  (**) for d/4 implies (**') for d, whose
    # test is free.
    local = ss or (ssp and d % 16 == 8 and _a2_flags(d // 8)[1])
    return pell.least_solution(d // 2) if local else None


def _brakkee_solution(d: int, ss: bool, ssp: bool) -> PellSolution:
    # `pell_brakkee(d)` given (**) and (**') for d, so that a caller holding
    # the condition flags does not factor d/2 again
    tag = f"3p^2-{d // 6}q^2=-1"
    sol = _brakkee_least(d, ss, ssp)
    if sol is None:
        return PellSolution(tag, None)
    x, q = sol
    assert x % 3 == 0
    p = x // 3
    assert 3 * p * p - (d // 6) * q * q == -1
    return PellSolution(tag, (p, q))


def pell_brakkee(d: int) -> PellSolution:
    """Decide 3p^2 - (d/6) q^2 = -1 exactly; least positive (p, q) when solvable.

    Multiplying by 3 turns the equation into x^2 - (d/2) y^2 = -3 with
    x = 3p, and 3 | x is automatic since 3 | d/2.  The decision is the one
    `csv_row` makes for the table's `pell_3p2` cell: F by the local
    obstruction of the module docstring where it applies (read off the
    factorization of d/2), and otherwise `pell.least_solution(d/2)`.

    >>> pell_brakkee(42).solution
    (3, 2)
    >>> pell_brakkee(12).solution is None
    True
    """
    if type(d) is not int or d <= 0 or d % 6:
        raise InvalidDegree(f"d must be a positive multiple of 6, got {show(d)}")
    ssp, ss, _ = _a2_flags(d // 2)
    return _brakkee_solution(d, ss, ssp)


def table(max_d: int, start: int = 8) -> list[ConditionFlags]:
    """Condition flags for every special discriminant in [start, max_d], ascending."""
    require_even(max_d, InvalidDegree, least=8, name="max_d")
    require_even(start, InvalidDegree, name="start")
    return [
        condition_flags(d)
        for d in range(start, max_d + 1, 2)
        if d % 6 in (0, 2)
    ]


CSV_COLUMNS = (
    "d",
    "star",
    "ss_prime",
    "ss",
    "sss",
    "case_mod6",
    "ss_witness_n",
    "ss_witness_a",
    "sss_witness_n",
    "sss_witness_a",
    "boundary_components",
    "pell_3p2",
)


_TF = ("F", "T")  # the cell of a flag, indexed by it


def csv_row(flags: ConditionFlags) -> list[str]:
    """One table row in the documented CSV schema (values T/F, integers, or empty).

    The `pell_3p2` cell is `pell_brakkee(d).solution is not None`, by the
    same decision: T where (***) holds, and otherwise F where the local
    obstruction of the module docstring applies (neither (**) for d nor,
    for d = 8 (mod 16), (**) for d/4) and `pell.least_solution(d/2)`
    where it does not.
    """
    d = flags.d
    ss = [int_str(v) for v in flags.ss_witness] if flags.ss_witness else ["", ""]
    sss = [int_str(v) for v in flags.sss_witness] if flags.sss_witness else ["", ""]
    pell_cell = ""
    if d % 6 == 0:
        pell_cell = _TF[flags.starstarstar or _brakkee_least(
            d, flags.starstar, flags.starstar_prime) is not None]
    return [
        int_str(d),
        _TF[flags.star],
        _TF[flags.starstar_prime],
        _TF[flags.starstar],
        _TF[flags.starstarstar],
        "" if flags.case_mod6 is None else str(flags.case_mod6),
        *ss,
        *sss,
        str(_boundary_count(d)),
        pell_cell,
    ]
