"""The input contract of the public entry points, outside their domains.

One table of (entry point, out-of-domain value, typed error): each call must
raise its entry point's `CubicK3Error` subclass, never answer, never raise a
bare `TypeError`, and never hang (each runs under `limits.time_limit`).  The
values are a float, a `Fraction`, a `str`, `True` (an `int` subclass), 0, a
negative, an odd value, an odd value of 5,001 digits and an even one of the
wrong residue: 14.0 and Fraction(14) pass a bare parity or residue test,
"14" breaks it with a `TypeError`, and the long one breaks a message that
quotes it with `repr`, past the interpreter's int-str digit limit (the test
ids name it through `show`).  A twist k of `mukai_vector_line` and
`euler_line` may be any int and a D of `pell.least_solution` any positive
int, so only their type and sign are refused.  The lattice entry points
that take a vector get one of the wrong length for A2 (rank 2), and raise
InvalidVector, as does a `Sublattice` of A2 with basis rows of length 1 or
3; those that take integer coordinates, `pairing`, `square` and
`basis_pairings` among them, raise it too for a vector with a
`Fraction(1, 2)`, a 0.5, a `None`, a `True`, an infinite or a NaN entry;
`Sublattice.contains` takes a rational vector and answers False for a
non-integral one, but raises InvalidVector for a v that is not iterable
(`None`, 5, 1.5).  A `Sublattice` of a lattice with an entry past the digit
limit and a basis that is not a matrix raises InvalidLattice, with the
lattice in its message.  A Gram matrix that is ragged, not symmetric or not
integral (a float, a `None` or a `True` entry) raises InvalidMatrix, as
does an entry of `GramLattice.from_rows`, `IntMatrix.from_rows` or a
`from_json` object that is not an exact int (2.5, `Fraction(3, 2)`, an
infinity, a NaN, `None`, `True`), and a raw `IntMatrix` Gram with an entry
that is not an `int` (0.5, `Fraction(1, 2)`, `True`, "a") or a raw
`IntMatrix` `Sublattice` basis with one (0.5, `Fraction(1, 2)`, `True`,
`None`), and rows that are not a sequence (`None`, 5) and a JSON object of
`GramLattice.from_json` without integer `gram` rows, or with an entry
string that int() refuses for more than its length ("1e5", "1.5", "NaN");
so does a lattice label that is neither a `str` nor `None` (a list, 5,
`True`), through `from_rows` and through `from_json`.  The Mukai
classes raise InvalidVector for coefficients that are not five rationals, a
scalar or an `exp_h` argument that is not rational (a `bool` is not), a
pairing, sum or difference with an operand that is not a class, and a
series inverse or square root (`verify`'s) of a class without the
constant term it needs, as does `project_right` for a non-class.
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

import ast
import inspect
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import cubick3
from cubick3 import conditions as cond
from cubick3 import lattice as lat
from cubick3 import mukai as mk
from cubick3 import pell
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3._record import show
from cubick3 import errors
from cubick3.cli import build_report
from cubick3.errors import (
    InvalidDegree,
    InvalidLattice,
    InvalidMatrix,
    InvalidNLVector,
    InvalidParity,
    InvalidVector,
    NotSpecialDiscriminant,
    UnknownLattice,
)
from limits import time_limit

ALARM_S = 5

# an odd int past the interpreter's int-str digit limit (4,300 digits by default)
HUGE = 10**5000 + 1
# the values refused by each domain: an exact int, even, at least 2
EVEN = (14.0, Fraction(14), "14", True, 0, -4, 7, HUGE)
# ... and also 0 or 2 mod 6
SPECIAL = EVEN + (10,)


def _entries(**calls):
    """The one-argument calls as table entries, each named in the test ids by its key."""
    for name, f in calls.items():
        f.__name__ = name
    return SimpleNamespace(**calls)


class Built:
    """A row input that a library call builds, built when its row runs.

    A build that raises then fails the rows that use it, not the collection
    of the suite.  `text` is what `show` gives for the input, so that the
    test id names it as it would the input itself.
    """

    def __init__(self, text, build):
        self.text, self.build = text, build

    def __repr__(self):
        return self.text


# the library objects the entries share, built when an entry runs
def a2():
    return st.standard_lattice("A2")


def one():
    return mk.CohClass.of(1, 0, 0, 0, 0)


# a vector of the lattice A2 (rank 2) is refused at any other length
WRONG_LENGTH = ((), (1,), (1, 0, 0))
# ... and at the right length, refused where integer coordinates are required
INF, NAN = float("inf"), float("nan")
NON_INTEGRAL = ((Fraction(1, 2), 0), (0.5, 0), (None, 0), (True, 0), (INF, 0), (-INF, 0), (NAN, 0))
# an entry of a matrix or Gram from outside that is not an exact int
NOT_AN_INT = (2.5, Fraction(3, 2), INF, -INF, NAN, None, True)
# ragged, not symmetric, a float entry, a None entry, a bool entry, no rows at all
BAD_GRAMS = (((2, -1), (-1,)), ((2, -1), (0, 2)), ((2.5, -1), (-1, 2)), ((None,),), ((True,),),
             None, 5)
# no gram, not an object, gram not rows, entries int() refuses
BAD_JSON = ({}, [], {"gram": 5}, {"gram": [["x"]]}, {"gram": [["1e5"]]}, {"gram": [["1.5"]]},
            {"gram": [["NaN"]]})
# a label that is not text
BAD_LABELS = (["x"], 5, True)
# not iterable
NOT_A_VECTOR = (None, 5, 1.5)
# where a lattice is required
NOT_A_LATTICE = (None, "x", 3)
# a lattice whose repr holds an int past the digit limit
LONG_LABEL = "LambdaD(" + "2" * 5000 + ")"
LONG_LAMBDA = Built("GramLattice(gram=IntMatrix(data=<tuple with more digits than the int-str "
                    f"limit>), label={LONG_LABEL!r})", lambda: st.standard_lattice(LONG_LABEL))
A2_AND_NONE = Built("(GramLattice(gram=IntMatrix(data=((2, -1), (-1, 2))), label='A2'), None)",
                    lambda: (a2(), None))
ONE_AND_3 = Built("(CohClass(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), "
                  "Fraction(0, 1), Fraction(0, 1))), 3)", lambda: (one(), 3))
NO_CONSTANT_TERM = Built("CohClass(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), "
                         "Fraction(0, 1), Fraction(0, 1)))", lambda: mk.CohClass.of(0, 1, 0, 0, 0))

call = _entries(
    table_start=lambda start: cond.table(60, start=start),
    # the lattice entries on A2, at one vector v
    span_sublattice=lambda v: lat.span_sublattice(a2(), [v]),
    orthogonal_complement=lambda v: lat.orthogonal_complement(a2(), [v]),
    saturate_rows=lambda v: lat.saturate_rows(a2(), [(1, 0), v]),
    contains=lambda v: lat.span_sublattice(a2(), [(1, 1)]).contains(v),
    is_primitive=lambda v: lat.is_primitive(a2(), v),
    divisibility=lambda v: lat.divisibility(a2(), v),
    pairing=lambda v: a2().pairing((1, 0), v),
    square=lambda v: a2().square(v),
    basis_pairings=lambda v: a2().basis_pairings(v),
    gram_from_rows=lambda rows: lat.GramLattice.from_rows(rows),
    gram_entry=lambda e: lat.GramLattice(lat.IntMatrix(((e,),))),
    gram_rows_entry=lambda e: lat.GramLattice.from_rows([[e]]),
    matrix_rows_entry=lambda e: lat.IntMatrix.from_rows([[1, e]]),
    gram_json_entry=lambda e: lat.GramLattice.from_json({"gram": [[e]]}),
    sublattice_entry=lambda e: lat.Sublattice(a2(), lat.IntMatrix(((e, 0),))),
    label_from_rows=lambda label: lat.GramLattice.from_rows([[2]], label),
    label_from_json=lambda label: lat.GramLattice.from_json({"gram": [[2]], "label": label}),
    # ... and on an ambient amb that may not be a lattice
    span_sublattice_of=lambda amb: lat.span_sublattice(amb, [(1, 0)]),
    orthogonal_complement_of=lambda amb: lat.orthogonal_complement(amb, [(1, 0)]),
    saturate_rows_of=lambda amb: lat.saturate_rows(amb, [(1, 0)]),
    divisibility_of=lambda amb: lat.divisibility(amb, (1, 0)),
    is_primitive_of=lambda amb: lat.is_primitive(amb, (1, 0)),
    sublattice_rank=lambda x: lat.Sublattice(x, x).rank,
    sublattice_rows=lambda rows: lat.Sublattice(a2(), lat.IntMatrix.from_rows(rows)),
    sublattice_of=lambda amb: lat.Sublattice(amb, 5),
    mukai_pairing=lambda pair: mk.mukai_pairing(*pair),
    coh_class=lambda coeffs: mk.CohClass.of(*coeffs),
    times_one=lambda c: one() * c,
    plus_one=lambda c: one() + c,
    minus_one=lambda c: one() - c,
)


def _rows(error, values, *entries):
    return [(f, error, v) for f in entries for v in values]


TABLE = (
    _rows(InvalidParity, EVEN, cond.condition_flags, build_report, cond.a2_represents,
          vf.a2_bruteforce, cond.witness_ss, cond.witness_sss, cond.boundary_count)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -8, 6, 9, HUGE), cond.table)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -4, 9, HUGE), call.table_start)
    + _rows(InvalidDegree, (42.0, Fraction(42), "42", True, 0, -6, 21, 14, HUGE),
            cond.pell_brakkee)
    + _rows(InvalidDegree, (7.0, Fraction(7), "7", True, 0, -5, -HUGE), pell.least_solution)
    + _rows(NotSpecialDiscriminant, SPECIAL, st.nl_vector, vf.closed_form_bases,
            st.hassett_triple, st.kdoo_index, st.genus_compare)
    + _rows(InvalidDegree, EVEN, st.polarization_vector, st.boundary_witnesses)
    + _rows(UnknownLattice, EVEN, st.lambda_d_lattice)
    # an odd bound of at least 8 is a valid sweep end, so 7 is the odd value
    + _rows(InvalidDegree, (8.5, Fraction(200), "200", True, 0, -5, 7, -HUGE), vf.run_all)
    + _rows(UnknownLattice, (14.0, Fraction(14), 5, True, 0, "Gammma", "LambdaD(0)",
                             "LambdaD(-4)", "LambdaD(7)", "LambdaD(14.0)",
                             "LambdaD(" + "1" * 5000 + ")"), st.standard_lattice)
    + _rows(InvalidDegree, (1.5, Fraction(1), "1", True), mk.mukai_vector_line, mk.euler_line)
    + _rows(InvalidVector, WRONG_LENGTH, call.span_sublattice, call.orthogonal_complement,
            call.saturate_rows, call.contains, call.is_primitive, call.divisibility, call.pairing,
            call.square, call.basis_pairings)
    + _rows(InvalidVector, NON_INTEGRAL, call.span_sublattice, call.orthogonal_complement,
            call.saturate_rows, call.is_primitive, call.divisibility, call.pairing, call.square,
            call.basis_pairings)
    + _rows(InvalidVector, ([[1]], [[1, 0, 5]]), call.sublattice_rows)
    + _rows(InvalidVector, NOT_A_VECTOR, call.contains)
    + _rows(InvalidMatrix, BAD_GRAMS, call.gram_from_rows)
    + _rows(InvalidMatrix, (0.5, Fraction(1, 2), True, "a"), call.gram_entry)
    + _rows(InvalidMatrix, (0.5, Fraction(1, 2), True, None), call.sublattice_entry)
    + _rows(InvalidMatrix, BAD_JSON, lat.GramLattice.from_json)
    + _rows(InvalidMatrix, NOT_AN_INT, call.gram_rows_entry, call.matrix_rows_entry,
            call.gram_json_entry)
    + _rows(InvalidMatrix, BAD_LABELS, call.label_from_rows, call.label_from_json)
    + _rows(InvalidVector, (ONE_AND_3, (1, 2)), call.mukai_pairing)
    + _rows(InvalidVector, ((1, 2), (None, 0, 0, 0, 0), (True, 0, 0, 0, 0)), call.coh_class)
    + _rows(InvalidVector, ("x", True), call.times_one)
    + _rows(InvalidVector, ("x", None, True), mk.exp_h)
    + _rows(InvalidVector, (3,), call.plus_one, call.minus_one)
    + _rows(InvalidVector, (NO_CONSTANT_TERM,), vf.series_sqrt, vf.series_inverse)
    + _rows(InvalidVector, NOT_A_LATTICE, mk.project_right)
    + _rows(InvalidNLVector, (1.5, None, (1, 0)), st.classify_nl_vector, st.eichler_invariants)
    + _rows(InvalidLattice, NOT_A_LATTICE, lat.saturation, lat.disc_group, lat.signature,
            lat.GramLattice, call.sublattice_rank, call.span_sublattice_of,
            call.orthogonal_complement_of, call.saturate_rows_of, call.divisibility_of,
            call.is_primitive_of)
    + _rows(InvalidLattice, (LONG_LAMBDA,), call.sublattice_of)
    + _rows(InvalidLattice, ((), (1,), A2_AND_NONE), lat.direct_sum)
)


def _id(v) -> str:
    # `show`, which describes an int past the digit limit, with a long text cut
    text = show(v)
    return text if len(text) <= 200 else f"{text[:60]}...({len(text)} chars)"


@pytest.mark.parametrize(
    "f, error, value",
    [pytest.param(f, error, v, id=f"{f.__name__}-{_id(v)}") for f, error, v in TABLE],
)
def test_out_of_domain_raises_its_typed_error(f, error, value):
    if isinstance(value, Built):
        text, value = value.text, value.build()
        assert show(value) == text
    with time_limit(ALARM_S), pytest.raises(error):
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


def _raised_names(tree):
    # the names a module raises, by `raise X(...)` or `raise X`, or passes to require_even
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(exc, "id", getattr(exc, "attr", None))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_even"):
            yield from (getattr(arg, "id", getattr(arg, "attr", None)) for arg in node.args)


def test_every_error_class_is_raised():
    # the rule of the `errors` docstring: every class below the base is raised
    # by some library function outside `errors.py`
    package = Path(errors.__file__).parent
    raised = {name for path in package.glob("*.py") if path.name != "errors.py"
              for name in _raised_names(ast.parse(path.read_text()))}
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, errors.CubicK3Error) and obj is not errors.CubicK3Error}
    assert sorted(classes - raised) == []


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
    with time_limit(2):
        assert f(d) == want
