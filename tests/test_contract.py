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
without the constant term it needs, as does `project_right` for a non-class.
A vector of `classify_nl_vector` or `eichler_invariants` that is a float,
`None` or not of rank 22 raises InvalidNLVector, and anything but a lattice
where one is required InvalidLattice.  Every public function of `cubick3`
has a row but the five of no argument: `a2_mukai_gram`,
`canonical_embedding_report`, `characteristic_classes`, `mukai_set` and
`u_classes`.

This is the out-of-domain half of the contract test of ROADMAP item 3.  Of
the in-domain half, a second table holds the entry points that answer from
the factorization of d/2 alone, on two d of the CLI domain where d/2 has a
prime factor above 2^50: each must answer, under a 2-s alarm.  Trial
division did not finish there within 5 s.  `condition_flags` and `classify`
stay out of it, as on these d they walk a Pell period near 2^31; the rest
of the in-domain half waits for the per-call budget of that item.
"""

import inspect
import signal
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cubick3
from cubick3 import conditions as cond
from cubick3 import lattice as lat
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.cli import build_report
from cubick3.errors import (
    InvalidBound,
    InvalidDegree,
    InvalidLattice,
    InvalidMatrix,
    InvalidNLVector,
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


def _entries(**calls):
    """The one-argument calls as table entries, each named in the test ids by its key."""
    for name, f in calls.items():
        f.__name__ = name
    return SimpleNamespace(**calls)


# a vector of the lattice A2 (rank 2) is refused at any other length
A2 = st.standard_lattice("A2")
WRONG_LENGTH = ((), (1,), (1, 0, 0))
# ... and at the right length, refused where integer coordinates are required
NON_INTEGRAL = ((Fraction(1, 2), 0), (0.5, 0), (None, 0), (True, 0))
# ... and where rational coordinates are taken, refused for a float or a bool entry
NON_RATIONAL = ((0.5, 0), (True, 0))
# ragged, not symmetric, a float entry, a None entry, a bool entry
BAD_GRAMS = (((2, -1), (-1,)), ((2, -1), (0, 2)), ((2.5, -1), (-1, 2)), ((None,),), ((True,),))
# where a lattice is required
NOT_A_LATTICE = (None, "x", 3)

UNIT_E1, UNIT_F1 = st.unit_vector(24, st.E1), st.unit_vector(24, st.F1)
ONE = mk.CohClass.of(1, 0, 0, 0, 0)
NO_CONSTANT_TERM = mk.CohClass.of(0, 1, 0, 0, 0)

call = _entries(
    table_start=lambda start: cond.table(60, start=start),
    hyperbolic_bound=lambda bound: st.find_hyperbolic_AT(UNIT_E1, UNIT_F1, bound),
    hyperbolic_e=lambda e: st.find_hyperbolic_AT(e, UNIT_F1),
    # the lattice entries on A2, at one vector v
    span_sublattice=lambda v: lat.span_sublattice(A2, [v]),
    orthogonal_complement=lambda v: lat.orthogonal_complement(A2, [v]),
    saturate_rows=lambda v: lat.saturate_rows(A2, [(1, 0), v]),
    contains=lambda v: lat.span_sublattice(A2, [(1, 1)]).contains(v),
    is_primitive=lambda v: lat.is_primitive(A2, v),
    divisibility=lambda v: lat.divisibility(A2, v),
    pairing=lambda v: A2.pairing((1, 0), v),
    square=lambda v: A2.square(v),
    basis_pairings=lambda v: A2.basis_pairings(v),
    gram_from_rows=lambda rows: lat.GramLattice.from_rows(rows),
    # ... and on an ambient amb that may not be a lattice
    span_sublattice_of=lambda amb: lat.span_sublattice(amb, [(1, 0)]),
    orthogonal_complement_of=lambda amb: lat.orthogonal_complement(amb, [(1, 0)]),
    saturate_rows_of=lambda amb: lat.saturate_rows(amb, [(1, 0)]),
    divisibility_of=lambda amb: lat.divisibility(amb, (1, 0)),
    is_primitive_of=lambda amb: lat.is_primitive(amb, (1, 0)),
    sublattice_rank=lambda x: lat.Sublattice(x, x).rank,
    mukai_pairing=lambda pair: mk.mukai_pairing(*pair),
    coh_class=lambda coeffs: mk.CohClass.of(*coeffs),
    times_one=lambda c: ONE * c,
    plus_one=lambda c: ONE + c,
    minus_one=lambda c: ONE - c,
)


def _rows(error, values, *entries):
    return [(f, error, v) for f in entries for v in values]


TABLE = (
    _rows(InvalidParity, EVEN, cond.condition_flags, build_report, cond.a2_represents,
          cond.a2_bruteforce, cond.witness_ss, cond.witness_sss, cond.boundary_count)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -8, 6, 9), cond.table)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -4, 9), call.table_start)
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
    + _rows(InvalidVector, WRONG_LENGTH, call.span_sublattice, call.orthogonal_complement,
            call.saturate_rows, call.contains, call.is_primitive, call.divisibility, call.pairing,
            call.square, call.basis_pairings)
    + _rows(InvalidVector, NON_INTEGRAL, call.span_sublattice, call.orthogonal_complement,
            call.saturate_rows, call.is_primitive, call.divisibility)
    + _rows(InvalidVector, NON_RATIONAL, call.pairing, call.square, call.basis_pairings)
    + _rows(InvalidBound, (2.5, 4.0, Fraction(4), "4", True, -1), call.hyperbolic_bound)
    # a vector of LambdaTilde has 24 coordinates
    + _rows(NotHyperbolicPair, ((1, 0),), call.hyperbolic_e)
    + _rows(InvalidMatrix, BAD_GRAMS, call.gram_from_rows)
    + _rows(InvalidVector, ((ONE, 3), (1, 2)), call.mukai_pairing)
    + _rows(InvalidVector, ((1, 2), (None, 0, 0, 0, 0), (True, 0, 0, 0, 0)), call.coh_class)
    + _rows(InvalidVector, ("x", True), call.times_one)
    + _rows(InvalidVector, ("x", None, True), mk.exp_h)
    + _rows(InvalidVector, (3,), call.plus_one, call.minus_one)
    + _rows(InvalidVector, (NO_CONSTANT_TERM,), mk.series_sqrt, mk.series_inverse)
    + _rows(InvalidVector, NOT_A_LATTICE, mk.project_right)
    + _rows(InvalidNLVector, (1.5, None, (1, 0)), st.classify_nl_vector, st.eichler_invariants)
    + _rows(InvalidLattice, NOT_A_LATTICE, lat.saturation, lat.disc_group, lat.signature,
            lat.GramLattice, call.sublattice_rank, call.span_sublattice_of,
            call.orthogonal_complement_of, call.saturate_rows_of, call.divisibility_of,
            call.is_primitive_of)
    + _rows(InvalidLattice, ((), (1,), (A2, None)), lat.direct_sum)
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


def test_every_public_function_has_a_row():
    # a row covers its entry, and an entry of `call` the functions it calls
    # by name; a function of no argument has no out-of-domain value
    covered = {f.__name__ for f, _, _ in TABLE}
    covered.update(*(f.__code__.co_names for f in vars(call).values()))
    missing = [name for name, obj in vars(cubick3).items()
               if callable(obj) and not isinstance(obj, type) and name not in covered]
    assert all(not inspect.signature(getattr(cubick3, n)).parameters for n in missing), missing
    assert all(f"`{n}`" in __doc__ for n in missing), missing


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
