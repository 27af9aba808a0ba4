"""Condition classifiers, witness solvers, and the table generator."""

import random
import signal
import time
import warnings
from math import isqrt, prod

import pytest
from hypothesis import given, seed, settings, strategies as hyp

from cubick3 import (
    InvalidDegree,
    InvalidParity,
    PellSolution,
    a2_bruteforce,
    a2_represents,
    boundary_count,
    condition_flags,
    pell_brakkee,
    table,
    witness_ss,
    witness_sss,
)
from cubick3 import conditions, pell
from cubick3.conditions import CSV_COLUMNS, csv_row
import oracles


class TestA2Represents:
    def test_18(self):
        assert a2_represents(18, False) is True
        assert a2_represents(18, True) is False

    def test_30(self):
        assert a2_represents(30, False) is False

    def test_2(self):
        assert a2_represents(2, True) is True

    def test_odd_rejected(self):
        with pytest.raises(InvalidParity):
            a2_represents(7)

    def test_large_input_warns(self):
        # only a cofactor of psi_13 or more is trial-divided, and only that
        # warns: 1031 * p, for p the largest prime below psi_13, gives up
        # 1031 at the first trial division and leaves p to Miller-Rabin
        p = 3317044064679887385961813
        with pytest.warns(RuntimeWarning):
            assert a2_represents(2 * 1031 * p) is False  # 1031 = 2 (mod 3)
        # past 2^63, but the primes below 2^10 factor it: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert a2_represents(2**65) is True  # 2^64 = (2^32)^2


class TestFactorize:
    # the 12th and 13th primes bound deterministic Miller-Rabin: psi_12 is a
    # strong pseudoprime to every prime base up to 37, and 3825123056546413051
    # to every one up to 23
    PSI12 = 318665857834031151167461
    SPSP23 = 3825123056546413051

    def test_matches_trial_division_to_2e5(self):
        # against the sieve of `oracles`, which shares no trial division
        for n, want in enumerate(oracles.factorizations(1, 200_001), start=1):
            assert conditions._factorize(n) == want, n

    def test_matches_trial_division_around_2_20(self):
        # the cofactor below 2^20 is prime; at 2^20 Miller-Rabin takes over
        lo = 2**20 - 2000
        for n, want in enumerate(oracles.factorizations(lo, 2**20 + 2000), start=lo):
            assert conditions._factorize(n) == want, n

    def test_primes_ascend(self):
        for n in (3 * 1031 * 1033, 1031**2 * 2**31, self.SPSP23, 2**61 - 1):
            got = conditions._factorize(n)
            assert list(got) == sorted(got), n

    def test_matches_sympy_on_a_seeded_sample(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("factorize")
        near_2_31 = [sympy.nextprime(2**31 + rng.randrange(-2**20, 2**20)) for _ in range(8)]
        above_2_10 = [1031, 1033, sympy.prevprime(2**21), sympy.nextprime(2**31 + 11)]
        sample = (
            [near_2_31[i] * near_2_31[i + 1] for i in range(0, 8, 2)]
            + [p * p for p in above_2_10] + [p**3 for p in above_2_10[:3]]
            + [2 * 1031**2 * 1033, self.SPSP23, 1031 * sympy.prevprime(2**52)]
            + list(range(2**20 - 5, 2**20 + 6)) + list(range(2**63 - 10, 2**63))
            + [rng.randrange(2, 2**63) for _ in range(16)]
        )
        assert max(sample) < 2**63

        def on_alarm(signum, frame):
            raise TimeoutError("the sample took more than 60 s")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(60)
        try:
            # a factorization is the unique one when its factors are primes
            # (sympy's isprime, which shares no code with `_is_prime`) whose
            # powers multiply back to n: a check, cheaper than factoring
            # every n again with sympy's factorint
            for n in sample:
                got = conditions._factorize(n)
                assert prod(p**e for p, e in got.items()) == n, n
                assert all(e >= 1 and sympy.isprime(p) for p, e in got.items()), n
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_psi12_is_composite(self, monkeypatch):
        with warnings.catch_warnings():  # past 2^63 but below psi_13: no warning
            warnings.simplefilter("error")
            assert conditions._factorize(self.PSI12) == {399165290221: 1, 798330580441: 1}
        assert not conditions._is_prime(self.PSI12)
        assert not conditions._is_prime(self.SPSP23)
        # the 13th base, 41, is the one that decides psi_12
        monkeypatch.setattr(conditions, "_MR_BASES", conditions._MR_BASES[:12])
        assert conditions._is_prime(self.PSI12)
        monkeypatch.setattr(conditions, "_MR_BASES", conditions._MR_BASES[:9])
        assert conditions._is_prime(self.SPSP23)

    def test_cofactor_past_psi13_is_trial_divided(self):
        # 1031^9 > psi_13: odd trial division takes every 1031 out
        q = 3317044064679887385941  # the largest prime below psi_13 / 1000
        with pytest.warns(RuntimeWarning):
            assert conditions._factorize(1031**9) == {1031: 9}
            # then the cofactor below psi_13 goes to Miller-Rabin, and
            # Pollard-Brent where it is composite
            assert conditions._factorize(6 * 1031 * q) == {2: 1, 3: 1, 1031: 1, q: 1}
            assert conditions._factorize(1031 * 1033 * self.PSI12) == {
                1031: 1, 1033: 1, 399165290221: 1, 798330580441: 1}


class TestA2Bruteforce:
    def test_2(self):
        sols = a2_bruteforce(2)
        assert {(x, y) for x, y, _ in sols} == {
            (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)
        }
        assert all(p for _, _, p in sols)

    def test_4_empty(self):
        assert a2_bruteforce(4) == []

    def test_6_contains_primitive(self):
        assert (2, 1, True) in a2_bruteforce(6)


class TestFlags:
    def test_8(self):
        f = condition_flags(8)
        assert (f.star, f.starstar_prime, f.starstar, f.starstarstar) == (
            True, True, False, False,
        )
        assert f.case_mod6 == 2

    def test_14(self):
        f = condition_flags(14)
        assert (f.star, f.starstar_prime, f.starstar, f.starstarstar) == (
            True, True, True, True,
        )

    def test_74(self):
        f = condition_flags(74)
        assert (f.star, f.starstar_prime, f.starstar, f.starstarstar) == (
            True, True, True, False,
        )

    def test_not_special(self):
        f = condition_flags(4)
        assert not f.star and f.case_mod6 is None

    def test_chain_holds_up_to_500(self):
        for d in range(2, 502, 2):
            f = condition_flags(d)
            assert f.starstarstar <= f.starstar <= f.starstar_prime <= f.star

    def test_no_sss_witness_without_ss_to_10000(self):
        # condition_flags solves the (***) equation only where (**) holds;
        # the implication (***) => (**) is checked here on every special d
        for d in range(8, 10_001, 2):
            if d % 6 in (0, 2) and not a2_represents(d, primitive=True):
                assert witness_sss(d) is None, d
                assert condition_flags(d).sss_witness is None, d


class TestWitnesses:
    def test_ss_42(self):
        assert witness_ss(42) == (4, 1)

    def test_ss_74(self):
        assert witness_ss(74) == (10, 3)

    def test_ss_8_none(self):
        # n^2 + n + 1 is odd, so 2(n^2+n+1) is never divisible by 4
        assert witness_ss(8) is None

    def test_ss_exactness(self):
        for d in range(2, 202, 2):
            w = witness_ss(d)
            if w is not None:
                n, a = w
                assert a * d == 2 * n * n + 2 * n + 2

    def test_sss_14(self):
        assert witness_sss(14) == (2, 1)
        assert 2 * 4 + 4 + 2 == 14

    def test_sss_38(self):
        assert witness_sss(38) == (30, 7)
        assert 2 * 900 + 60 + 2 == 38 * 49

    def test_sss_74_none(self):
        assert witness_sss(74) is None

    def test_sss_exactness(self):
        for d in range(2, 202, 2):
            w = witness_sss(d)
            if w is not None:
                n, a = w
                assert a * a * d == 2 * n * n + 2 * n + 2


class TestBoundaryCount:
    def test_values(self):
        assert boundary_count(10) == 2
        assert boundary_count(8) == 1
        assert boundary_count(2) == 2

    def test_odd(self):
        with pytest.raises(InvalidParity):
            boundary_count(9)


class TestPellBrakkee:
    def test_42(self):
        sol = pell_brakkee(42)
        assert sol.solution == (3, 2)
        p, q = sol.solution
        assert 3 * p * p - 7 * q * q == -1

    def test_12_none(self):
        # 2 q^2 = 1 (mod 3) has no solution
        assert pell_brakkee(12).solution is None

    def test_14_invalid(self):
        with pytest.raises(InvalidDegree):
            pell_brakkee(14)

    def test_large_d_obstructed_within_budget(self):
        # d = 6p for p = 1099511627831, the first prime = 2 (mod 3) above
        # 2^40: the local obstruction decides it; building a search bound
        # over the period of d/2 = 3p takes over 4 s
        start = time.perf_counter()
        assert pell_brakkee(6597069766986).solution is None
        assert time.perf_counter() - start < 1

    def test_obstruction_never_reaches_the_solver(self, monkeypatch):
        # F by the local obstruction is decided without a walk: neither d
        # nor, for d = 8 (mod 16), d/4 has a primitive vector in the
        # enumeration oracle; the large d have periods of about 10^6 and
        # 10^9 terms
        def primitive(e):
            return any(prim for _, _, prim in a2_bruteforce(e))

        def no_walk(D):
            raise AssertionError(f"walked D = {D}")

        obstructed = [
            d for d in range(6, 1201, 6)
            if not primitive(d) and not (d % 16 == 8 and primitive(d // 4))
        ]
        monkeypatch.setattr(pell, "least_solution", no_walk)
        for d in obstructed + [6597069766986, 1870021348591302594]:
            assert pell_brakkee(d).solution is None, d
            assert csv_row(condition_flags(d))[11] == "F", d


class TestTable:
    def test_star_row_to_42(self):
        rows = table(42)
        assert [f.d for f in rows] == [8, 12, 14, 18, 20, 24, 26, 30, 32, 36, 38, 42]

    def test_sss_row_to_42(self):
        rows = table(42)
        assert [f.d for f in rows if f.starstarstar] == [14, 26, 38, 42]

    def test_ss_row_to_78(self):
        rows = table(78)
        assert [f.d for f in rows if f.starstar] == [14, 26, 38, 42, 62, 74, 78]

    def test_ssprime_row_to_78_oracle_arbitrated(self):
        # every cell decided by the exhaustive form enumeration
        rows = table(78)
        got = [f.d for f in rows if f.starstar_prime]
        oracle = [f.d for f in rows if a2_bruteforce(f.d)]
        assert got == oracle
        assert got == [8, 14, 18, 24, 26, 32, 38, 42, 50, 54, 56, 62, 72, 74, 78]

    def test_row_count_to_78(self):
        assert len(table(78)) == 24

    def test_bad_range(self):
        with pytest.raises(InvalidDegree):
            table(6)

    def test_rows_match_condition_flags(self):
        for f in table(42):
            assert f == condition_flags(f.d)


class TestCsv:
    def test_header_schema(self):
        assert CSV_COLUMNS == (
            "d", "star", "ss_prime", "ss", "sss", "case_mod6",
            "ss_witness_n", "ss_witness_a", "sss_witness_n", "sss_witness_a",
            "boundary_components", "pell_3p2",
        )

    def test_row_14(self):
        row = csv_row(condition_flags(14))
        assert row == ["14", "T", "T", "T", "T", "2", "2", "1", "2", "1", "1", ""]

    def test_row_42(self):
        row = csv_row(condition_flags(42))
        assert row[:6] == ["42", "T", "T", "T", "T", "0"]
        assert row[10] == "2"  # 21 = 1 (mod 4): two components
        # 3p^2 - 7q^2 = -1 is solvable, decided by the (***) shortcut
        assert row[11] == "T"

    def test_pell_cell_matches_brakkee_to_100000(self):
        # the cell is decided by (***), the local obstruction and the
        # solver; pell_brakkee shares that decision, so the reference is
        # the least even hit read off the whole period of sqrt(d/2) (the
        # two-period oracle for the D <= 9 and the square D)
        for d in range(6, 100_001, 6):
            D = d // 2
            if D <= 9 or isqrt(D) ** 2 == D:
                sol = oracles.solve_minus3(D)[0]
            else:
                sol = oracles.least_even_hit(D, *oracles.sqrt_cf(D))
            want = "T" if sol is not None else "F"
            assert csv_row(condition_flags(d))[11] == want, d
            pq = None if sol is None else (sol[0] // 3, sol[1])
            assert pell_brakkee(d).solution == pq, d

    def test_pell_cell_d_over_4_branch(self):
        # (**) fails for 24 (12 is even) but holds for 24/4 = 6, and
        # 3 * 1^2 - 4 * 1^2 = -1
        flags = condition_flags(24)
        assert not flags.starstar and condition_flags(6).starstar
        assert pell_brakkee(24).solution == (1, 1)
        assert csv_row(flags)[11] == "T"


class TestOracleAgreement:
    def test_witness_ss_matches_scan_to_4000(self):
        for d in range(2, 4_001, 2):
            assert witness_ss(d) == oracles.witness_ss(d), d
        # the oracle's scan of one period, complete by its docstring, against [0, 2d]
        for d in range(2, 401, 2):
            t = (2 * (n * n + n + 1) for n in range(2 * d + 1))
            full = next(((n, x // d) for n, x in enumerate(t) if x % d == 0), None)
            assert oracles.witness_ss(d) == full, d

    def test_pell_witnesses_match_two_period_oracle_to_10000(self):
        for d in range(2, 10_001, 2):
            assert witness_sss(d) == _sss_from_oracle(d), d
            if d % 6 == 0:
                assert pell_brakkee(d) == _brakkee_from_oracle(d), d

    @seed(20231)
    @settings(max_examples=60, deadline=None)
    @given(hyp.integers(min_value=2**15, max_value=2**22 - 1)
           .map(lambda k: 2 * k)
           .filter(lambda d: d % 6 in (0, 2)))
    def test_large_special_d(self, d):
        flags = condition_flags(d)
        assert flags.sss_witness == _sss_from_oracle(d)
        if d % 6 == 0:
            assert pell_brakkee(d) == _brakkee_from_oracle(d)
        # the scan is cheap only when it stops at a witness (n < d/2); an
        # empty scan costs d/2 steps, so the None side of (**) is left to
        # the chain check in condition_flags and the exhaustive range above
        if flags.ss_witness is not None:
            assert flags.ss_witness == oracles.witness_ss(d)


def _sss_from_oracle(d):
    sol, _ = oracles.solve_minus3(2 * d)
    return None if sol is None else ((sol[0] - 1) // 2, sol[1])


def _brakkee_from_oracle(d):
    sol, _ = oracles.solve_minus3(d // 2)
    pq = None if sol is None else (sol[0] // 3, sol[1])
    return PellSolution(f"3p^2-{d // 6}q^2=-1", pq)

