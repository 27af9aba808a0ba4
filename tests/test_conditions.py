"""Condition classifiers, witness solvers, and the table generator.

The values of the witnesses, `a2_represents`, `boundary_count`,
`pell_brakkee`, the flags and CSV rows of the table to 78 and its header,
the chain (***) => (**) => (**') => (*), and the refused inputs, are pinned
once elsewhere: in the functions' doctests, `verify`'s `table78.*` and
`pell.*` checks, the golden `table 78 --format csv` line, the rows of the
differential table (the chain on every even d up to 800 is a column of
`witnesses.even.to800`) and the contract's out-of-domain rows.
"""

import random
import warnings
from math import prod

import pytest
from cubick3 import a2_represents, condition_flags, pell_brakkee, table, witness_ss, witness_sss
from cubick3 import conditions, pell
from cubick3.conditions import csv_row
from cubick3.verify import a2_bruteforce
import oracles
from limits import spy, time_limit


class TestA2Represents:
    def test_large_input_warns(self):
        # only a cofactor of psi_13 or more is trial-divided, and only that
        # warns: for 1031 * p, p the largest prime below psi_13, odd trial
        # division finds 1031 = 2 (mod 3) first and stops there, so p never
        # reaches Miller-Rabin
        p = 3317044064679887385961813
        with pytest.warns(RuntimeWarning) as record:
            assert a2_represents(2 * 1031 * p) is False
        assert record[0].filename == __file__  # the caller's line, not the library's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # past 2^63, but the primes below 2^10 factor it: no warning
            assert a2_represents(2**65) is True  # 2^64 = (2^32)^2
            # the primes below 2^10 stop at 5 = 2 (mod 3), before the odd
            # trial division of the cofactor 1033 * p, which would warn
            assert a2_represents(2 * 5 * 1033 * p) is False
            # and so does the (**) witness, which reads the same decision
            assert witness_ss(2 * 5 * 1033 * p) is None


class TestFactorize:
    # the 12th and 13th primes bound deterministic Miller-Rabin: psi_12 is a
    # strong pseudoprime to every prime base up to 37, and 3825123056546413051
    # to every one up to 23
    PSI12 = 318665857834031151167461
    SPSP23 = 3825123056546413051

    def test_small_primes_are_the_sieve_below_2_10(self):
        assert conditions._SMALL_PRIMES == oracles.primes_below(2**10)
        assert conditions._MR_BASES == conditions._SMALL_PRIMES[:13]

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

        with time_limit(60):
            # a factorization is the unique one when its factors are primes
            # (sympy's isprime, which shares no code with `_is_prime`) whose
            # powers multiply back to n: a check, cheaper than factoring
            # every n again with sympy's factorint
            for n in sample:
                got = conditions._factorize(n)
                assert prod(p**e for p, e in got.items()) == n, n
                assert all(e >= 1 and sympy.isprime(p) for p, e in got.items()), n

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

    def test_square_cofactor_is_split_at_its_root(self, monkeypatch):
        # (**) holds for d = 2 * 7 * r^2, r = 798330580441 = 1 (mod 3), so
        # the witness reads the whole factorization; the cofactor r^2 left
        # by the primes below 2^10 is split at its square root, not by
        # Pollard-Brent, whose walk on it takes about 0.25 s
        r = 798330580441
        splits = spy(monkeypatch, conditions, "_pollard_brent", record=int)
        assert witness_ss(2 * 7 * r**2) is not None
        assert conditions._factorize(5 * r**2) == {5: 1, r: 2}
        assert splits == []

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
    def test_not_special(self):
        assert condition_flags(4).case_mod6 is None

    def test_no_sss_witness_without_ss_to_10000(self):
        # condition_flags solves the (***) equation only where (**) holds;
        # the implication (***) => (**) is checked here on every special d
        for d in range(8, 10_001, 2):
            if d % 6 in (0, 2) and not a2_represents(d, primitive=True):
                assert witness_sss(d) is None, d
                assert condition_flags(d).sss_witness is None, d


class TestPellBrakkee:
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
    def test_rows_match_condition_flags(self):
        for f in table(42):
            assert f == condition_flags(f.d)


class TestCsv:
    def test_pell_cell_d_over_4_branch(self):
        # the T cell of 24, where (**) fails (12 is even), is its row of the
        # golden table; it is T because (**) holds for 24/4 = 6
        assert condition_flags(6).starstar

