"""The Pell-type solver's continued-fraction steps and budget, and the oracles that check it."""

import random
import time

import pytest

from cubick3 import pell
from cubick3.pell import least_solution
import oracles


def test_cf_denominators_match_the_product():
    # the denominators alone against the bottom row of the whole product, on
    # seeded quotient lists of every length from 0 to 600 (both sides of the
    # threshold between the recurrence and binary splitting) and two of 10^4
    # terms; a_0 may be large, the others are mostly small, as in sqrt(D)
    assert pell._FLAT_DENOMINATORS < 600
    rng = random.Random("cf-denominators")

    def quotients(n):
        return [rng.randrange(1, 2**40)] + [
            rng.choice((1, 1, 2, 3, rng.randrange(1, 2**20))) for _ in range(n - 1)]

    for n in range(601):
        qs = quotients(n) if n else []
        assert pell._cf_denominators(qs) == pell._cf_product(qs)[2:], n
    for _ in range(2):
        qs = quotients(10**4)
        assert pell._cf_denominators(qs) == pell._cf_product(qs)[2:]


def test_cf_expansion():
    # the expansion that the Pell oracles read
    assert oracles.sqrt_cf(2) == (1, [2])
    assert oracles.sqrt_cf(23) == (4, [1, 3, 1, 8])
    assert oracles.sqrt_cf(148) == (12, [6, 24])
    # 5^2 - 28 = -3: the solver stops at j = 0, sqrt_cf runs the whole period
    assert oracles.sqrt_cf(28) == (5, [3, 2, 3, 10])


def test_fundamental_units():
    for D, want in [(2, (3, 2)), (3, (2, 1)), (5, (9, 4)), (6, (5, 2)),
                    (7, (8, 3)), (8, (3, 1)), (61, (1766319049, 226153980))]:
        assert oracles._fundamental_unit(D) == want


def test_sieve_classes_are_the_crt_of_the_prime_power_classes():
    # x^2 == D*y^2 - 3 is solvable mod 8*9*5*7 exactly when it is solvable
    # mod each factor, so the sieve's classes are the CRT combinations of the
    # classes each factor allows, built here one modulus at a time.  The
    # comparison is of whole sets: a sieve that drops or adds one class
    # fails for every D where that class differs.  Most D < 500 have a
    # factor that allows no class (a local obstruction), and their set is
    # empty; the others must agree class for class
    empty = 0
    for D in range(1, 500):
        classes, M = {0}, 1
        for q in (8, 9, 5, 7):
            squares = {x * x % q for x in range(q)}
            allowed = [b for b in range(q) if (D * b * b - 3) % q in squares]
            inv = pow(M, -1, q)
            classes = {a + M * ((b - a) * inv % q) for a in classes for b in allowed}
            M *= q
        assert M == oracles.SIEVE_M
        assert classes == set(oracles.sieve_classes(D)), D
        empty += not classes
    assert 0 < empty < 499


def test_long_period_within_budget():
    # D = 2d for d = 2p, p = 68719476619 prime: a period of 295,212 terms
    # without an even hit, of which the first half is walked
    start = time.perf_counter()
    res = least_solution(4 * 68719476619)
    assert time.perf_counter() - start < 6
    assert res is None
    assert len(oracles.sqrt_cf(4 * 68719476619)[1]) == 295_212


@pytest.mark.parametrize("D", [13, 61, 97])
def test_mirrored_odd_hit(D):
    # odd periods whose least even hit lies past the middle: the walk goes
    # on from the middle to it, L - 2 - k for the last odd hit k of the
    # first half
    a0, period = oracles.sqrt_cf(D)
    assert len(period) % 2 == 1
    assert least_solution(D) == oracles.least_even_hit(D, a0, period)
