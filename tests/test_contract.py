"""The input contract of the public entry points, outside their domains.

One table of (entry point, out-of-domain value, typed error): each call must
raise its entry point's `CubicK3Error` subclass, never answer, never raise a
bare `TypeError`, and never hang (each runs under `signal.alarm`).  The
values are a float, a `Fraction`, a `str`, `True` (an `int` subclass), 0, a
negative, an odd value and an even one of the wrong residue: 14.0 and
Fraction(14) pass a bare parity or residue test, and "14" breaks it with a
`TypeError`.  A twist k of `mukai_vector_line` and `euler_line` may be any
int, and a bound of `find_hyperbolic_AT` any int of at least 0, so only
their type and sign are refused; a vector of `find_hyperbolic_AT` of the
wrong length raises NotHyperbolicPair.  The lattice entry points that take a
vector get one of the wrong length for A2 (rank 2), and raise InvalidVector;
those that take integer coordinates raise it too for a vector with a
`Fraction(1, 2)`, a 0.5, a `None` or a `True` entry.  `pairing`, `square`
and `basis_pairings` pair rational vectors (int or `Fraction` entries), and
raise it for a 0.5 or a `True` entry; `Sublattice.contains` takes a rational
vector and answers False for a non-integral one.  A Gram matrix that is
ragged, not symmetric or not integral (a float, a `None` or a `True` entry)
raises InvalidMatrix.  The Mukai classes raise InvalidVector for
coefficients that are not five rationals, a scalar or an `exp_h` argument
that is not rational (a `bool` is not), a pairing, sum or difference with an
operand that is not a class, and a series inverse or square root of a class
without the constant term it needs.

This is the out-of-domain half of the contract test of ROADMAP item 3.  Of
the in-domain half, a second table holds the entry points that answer from
the factorization of d/2 alone, on two d of the CLI domain where d/2 has a
prime factor above 2^50: each must answer, under a 2-s alarm.  Trial
division did not finish there within 5 s.  `condition_flags` and `classify`
stay out of it, as on these d they walk a Pell period near 2^31; the rest
of the in-domain half waits for the per-call budget of that item.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cubick3 import conditions as cond
from cubick3 import lattice as lat
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.cli import build_report
from cubick3.errors import (
    InvalidBound,
    InvalidDegree,
    InvalidMatrix,
    InvalidParity,
    InvalidVector,
    NotHyperbolicPair,
    NotSpecialDiscriminant,
    UnknownLattice,
)

ALARM_S = 5

# the values refused by each domain: an exact int, even, at least 2
EVEN = (14.0, Fraction(14), "14", True, 0, -4, 7)
# ... and also 0 or 2 mod 6
SPECIAL = EVEN + (10,)


def table_start(start):
    return cond.table(60, start=start)


def hyperbolic_bound(bound):
    return st.find_hyperbolic_AT(st.unit_vector(24, st.E1), st.unit_vector(24, st.F1), bound)


def hyperbolic_e(e):
    return st.find_hyperbolic_AT(e, st.unit_vector(24, st.F1))


# a vector of the lattice A2 (rank 2) is refused at any other length
A2 = st.standard_lattice("A2")
WRONG_LENGTH = ((), (1,), (1, 0, 0))
# ... and at the right length, refused where integer coordinates are required
NON_INTEGRAL = ((Fraction(1, 2), 0), (0.5, 0), (None, 0), (True, 0))
# ... and where rational coordinates are taken, refused for a float or a bool entry
NON_RATIONAL = ((0.5, 0), (True, 0))


def span_sublattice(v):
    return lat.span_sublattice(A2, [v])


def orthogonal_complement(v):
    return lat.orthogonal_complement(A2, [v])


def saturate_rows(v):
    return lat.saturate_rows(A2, [(1, 0), v])


def contains(v):
    return lat.span_sublattice(A2, [(1, 1)]).contains(v)


def is_primitive(v):
    return lat.is_primitive(A2, v)


def divisibility(v):
    return lat.divisibility(A2, v)


def pairing(v):
    return A2.pairing((1, 0), v)


def square(v):
    return A2.square(v)


def basis_pairings(v):
    return A2.basis_pairings(v)


def gram_from_rows(rows):
    return lat.GramLattice.from_rows(rows)


# ragged, not symmetric, a float entry, a None entry, a bool entry
BAD_GRAMS = (((2, -1), (-1,)), ((2, -1), (0, 2)), ((2.5, -1), (-1, 2)), ((None,),), ((True,),))

ONE = mk.CohClass.of(1, 0, 0, 0, 0)
NO_CONSTANT_TERM = mk.CohClass.of(0, 1, 0, 0, 0)


def mukai_pairing(pair):
    return mk.mukai_pairing(*pair)


def coh_class(coeffs):
    return mk.CohClass.of(*coeffs)


def times_one(c):
    return ONE * c


def plus_one(c):
    return ONE + c


def minus_one(c):
    return ONE - c


def _rows(error, values, *entries):
    return [(f, error, v) for f in entries for v in values]


TABLE = (
    _rows(InvalidParity, EVEN, cond.condition_flags, build_report, cond.a2_represents,
          cond.a2_bruteforce, cond.witness_ss, cond.witness_sss, cond.boundary_count)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -8, 6, 9), cond.table)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -4, 9), table_start)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -6, 21, 14), cond.pell_brakkee)
    + _rows(NotSpecialDiscriminant, SPECIAL, st.nl_vector, st.closed_form_bases,
            st.hassett_triple, st.kdoo_index, st.genus_compare)
    + _rows(InvalidDegree, EVEN, st.polarization_vector, st.boundary_witnesses)
    + _rows(UnknownLattice, EVEN, st.lambda_d_lattice)
    # an odd bound of at least 8 is a valid sweep end, so 7 is the odd value
    + _rows(InvalidDegree, (8.5, Fraction(200), "200", True, 0, -5, 7), vf.run_all)
    + _rows(UnknownLattice, (14.0, Fraction(14), 5, True, 0, "Gammma", "LambdaD(0)",
                             "LambdaD(-4)", "LambdaD(7)", "LambdaD(14.0)"), st.standard_lattice)
    + _rows(InvalidDegree, (1.5, Fraction(1), "1", True), mk.mukai_vector_line, mk.euler_line)
    + _rows(InvalidVector, WRONG_LENGTH, span_sublattice, orthogonal_complement, saturate_rows,
            contains, is_primitive, divisibility, pairing, square, basis_pairings)
    + _rows(InvalidVector, NON_INTEGRAL, span_sublattice, orthogonal_complement, saturate_rows,
            is_primitive, divisibility)
    + _rows(InvalidVector, NON_RATIONAL, pairing, square, basis_pairings)
    + _rows(InvalidBound, (2.5, 4.0, Fraction(4), "4", True, -1), hyperbolic_bound)
    # a vector of LambdaTilde has 24 coordinates
    + _rows(NotHyperbolicPair, ((1, 0),), hyperbolic_e)
    + _rows(InvalidMatrix, BAD_GRAMS, gram_from_rows)
    + _rows(InvalidVector, ((ONE, 3), (1, 2)), mukai_pairing)
    + _rows(InvalidVector, ((1, 2), (None, 0, 0, 0, 0), (True, 0, 0, 0, 0)), coh_class)
    + _rows(InvalidVector, ("x", True), times_one)
    + _rows(InvalidVector, ("x", None, True), mk.exp_h)
    + _rows(InvalidVector, (3,), plus_one, minus_one)
    + _rows(InvalidVector, (NO_CONSTANT_TERM,), mk.series_sqrt, mk.series_inverse)
)


@contextmanager
def _alarm(seconds):
    def on_alarm(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize(
    "f, error, value",
    [pytest.param(f, error, v, id=f"{f.__name__}-{v!r}") for f, error, v in TABLE],
)
def test_out_of_domain_raises_its_typed_error(f, error, value):
    with _alarm(ALARM_S), pytest.raises(error):
        f(value)


# d/2 = 103 * 4245924680514079 and 19 * 216424186573972837, both (**)
IN_DOMAIN = (
    (st.genus_compare, 874660484185900274, True),
    (st.genus_compare, 8224119089810967806, True),
    (cond.a2_represents, 874660484185900274, True),
    (cond.a2_represents, 8224119089810967806, True),
    (cond.witness_ss, 874660484185900274, (122250892018012, 34173901461)),
    (cond.witness_ss, 8224119089810967806, (350623887762891803, 29896724336658571)),
)


@pytest.mark.parametrize(
    "f, d, want",
    [pytest.param(f, d, want, id=f"{f.__name__}-{d}") for f, d, want in IN_DOMAIN],
)
def test_in_domain_answers_within_the_alarm(f, d, want):
    with _alarm(2):
        assert f(d) == want
