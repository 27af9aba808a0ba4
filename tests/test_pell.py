"""The Pell-type solver against a direct enumeration oracle."""

import random
import time
from math import isqrt

from cubick3.pell import fundamental_unit, least_solution, solve_minus3, sqrt_cf
import oracles


def brute_least(D, ymax):
    for y in range(1, ymax):
        t = D * y * y - 3
        if t <= 0:
            continue
        x = isqrt(t)
        if x * x == t:
            return (x, y)
    return None


def test_cf_expansion():
    assert sqrt_cf(2) == (1, [2])
    assert sqrt_cf(23) == (4, [1, 3, 1, 8])
    assert sqrt_cf(148) == (12, [6, 24])
    # 5^2 - 28 = -3: the solver stops at j = 0, sqrt_cf runs the whole period
    assert sqrt_cf(28) == (5, [3, 2, 3, 10])


def test_fundamental_units():
    for D, want in [(2, (3, 2)), (3, (2, 1)), (5, (9, 4)), (6, (5, 2)),
                    (7, (8, 3)), (8, (3, 1)), (61, (1766319049, 226153980))]:
        assert fundamental_unit(D) == want


def test_square_discriminants():
    assert solve_minus3(1).solution == (1, 2)
    assert solve_minus3(4).solution == (1, 1)
    assert solve_minus3(9).solution is None
    assert solve_minus3(16).solution is None


def test_against_oracle():
    # agreement where the oracle is conclusive; the solver may also find
    # genuine solutions beyond the oracle's horizon, never the reverse
    for D in range(1, 500):
        got = solve_minus3(D).solution
        want = brute_least(D, 20000)
        if got is None:
            assert want is None, (D, want)
        else:
            x, y = got
            assert x * x - D * y * y == -3
            if want is not None:
                assert got == want


def test_small_d_translate_case():
    # x = 0 at y = 1 for D = 3; the least positive solution is its unit translate
    assert solve_minus3(3).solution == (3, 2)


def test_matches_two_period_oracle():
    # every D that witness_sss (D = 2d) and pell_brakkee (D = d/2) pass on for
    # even d <= 10^4, on both the solution and bound_searched
    for d in range(2, 10_001, 2):
        for D in (2 * d, d // 2) if d % 6 == 0 else (2 * d,):
            assert solve_minus3(D) == oracles.solve_minus3(D), D


def test_long_period_within_budget():
    # D = 2d for d = 2p, p = 68719476619 prime: a period of 295,212 terms and
    # q_(2L) of about a million bits, which the step-by-step recurrence
    # took 10-12 s to build; binary splitting takes about half a second
    start = time.perf_counter()
    res = solve_minus3(4 * 68719476619)
    assert time.perf_counter() - start < 6
    assert res.solution is None
    assert len(sqrt_cf(4 * 68719476619)[1]) == 295_212


def test_least_solution_matches_full_period_on_large_d():
    # a seeded, log-uniform sample of solvable D in [2^24, 2^32]: the walk
    # that stops at the first even hit against the least even hit read off
    # the whole period that sqrt_cf returns
    rng = random.Random("least-even-hit")
    solvable = 0
    while solvable < 20:
        D = int(2.0 ** rng.uniform(24, 32))
        if isqrt(D) ** 2 == D:
            continue
        a0, period = sqrt_cf(D)
        assert (a0, period) == oracles.sqrt_cf(D), D
        want = oracles.least_even_hit(D, a0, period)
        assert least_solution(D) == want, D
        assert solve_minus3(D).solution == want, D
        solvable += want is not None


def test_least_solution_small_and_square():
    for D in range(1, 50):
        assert least_solution(D) == solve_minus3(D).solution, D
