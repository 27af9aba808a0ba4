"""The frozen-record protocol of the value classes, and what `import cubick3` loads.

The records are plain classes on `cubick3._record.Record` (see its
docstring); they replaced `@dataclass(frozen=True)` classes, and each must
behave as before: the same repr, byte for byte, frozen fields, equality and
hashing by fields within one class, cached properties computed once, and a
copy through `_replace` that goes through the constructor.
`EichlerInvariant` and `CharClasses`, once `collections.namedtuple`
subclasses, keep their reprs and methods too; `NLCase`, once an `Enum`,
keeps its two instances and their values.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubick3 import InvalidMatrix
from cubick3 import conditions as cond
from cubick3 import intlinalg as la
from cubick3 import lattice as lat
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3._record import Record, parse_int, show
from cubick3.cli import Report
from limits import spy

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_typing_or_inspect():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cubick3, cubick3.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []


def test_only_the_verify_subcommand_loads_verify():
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from cubick3.cli import main\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "    return 'cubick3.verify' in sys.modules\n"
        "print(run(['classify', '14']), run(['table', '100']),"
        " run(['verify', '--genus-max', '8']))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False", "False", "True"]


A2_ROWS = "((2, -1), (-1, 2))"
A2 = f"GramLattice(gram=IntMatrix(data={A2_ROWS}), label='A2')"
DG = "DiscGroup(invariant_factors=(3,), columns=((1, 2),), q_numerators=(2,))"
FLAGS = ("ConditionFlags(d=14, star=True, starstar_prime=True, starstar=True, starstarstar=True, "
         "case_mod6=2, ss_witness=(2, 1), sss_witness=(2, 1))")
ONE = ("CohClass(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
       "Fraction(0, 1)))")
H = ("CohClass(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), "
     "Fraction(0, 1)))")
CHECK = "CheckResult(check_id='nl.d14', ok=True, expected='[]', actual='[]')"


def _records():
    # (record, its repr under the dataclass classes it replaced), one per class
    a2 = lat.GramLattice.from_rows([[2, -1], [-1, 2]], "A2")
    dg = lat.disc_group(a2)
    one, h = mk.CohClass.of(1, 0, 0, 0, 0), mk.CohClass.of(0, 1, 0, 0, 0)
    flags = cond.condition_flags(14)
    check = vf.CheckResult("nl.d14", True, "[]", "[]")
    K = lat.IntMatrix(((-3, 1), (1, -3)))
    return [
        (a2.gram, f"IntMatrix(data={A2_ROWS})"),
        (a2, A2),
        (lat.span_sublattice(a2, [(1, 1)]),
         f"Sublattice(ambient={A2}, basis=IntMatrix(data=((1, 1),)))"),
        (dg, DG),
        (flags, FLAGS),
        (cond.pell_brakkee(12), "PellSolution(equation='3p^2-2q^2=-1', solution=None)"),
        (st.canonical_embedding_report(),
         f"EmbeddingReport(lambda_gram=IntMatrix(data={A2_ROWS}), "
         "mu_gram=IntMatrix(data=((-2, 1), (1, -2))), glue_identity_holds=True, "
         "a2_perp_abs_det=3, a2_sum_saturation_index=3, a2_sum_saturation_abs_det=1, "
         "lambda12_square=6, fano_sublattice_abs_det=18, l1_perp_abs_det=2)"),
        (st.NLCase.INDEX_THREE, "NLCase(value='index3')"),
        (st.NLVectorReport(8, st.NLCase.INDEX_THREE, (1, 2), -24, K, a2.gram, a2.gram, dg, dg),
         "NLVectorReport(d=8, case=NLCase(value='index3'), v=(1, 2), v_square=-24, "
         f"gram_K=IntMatrix(data=((-3, 1), (1, -3))), gram_L=IntMatrix(data={A2_ROWS}), "
         f"gram_Gamma_d=IntMatrix(data={A2_ROWS}), disc_K={DG}, disc_Gamma_d={DG})"),
        (st.EichlerInvariant(-2, 3, 1), "EichlerInvariant(square=-2, div=3, disc_class=1)"),
        (st.KdooWitness(1, None, (Fraction(1, 3),), (Fraction(-1, 3),)),
         "KdooWitness(index=1, involution=None, member=(Fraction(1, 3),), "
         "non_member=(Fraction(-1, 3),))"),
        (one, ONE),
        (mk.CharClasses(one, h, one), f"CharClasses(chern={ONE}, todd={H}, sqrt_todd={ONE})"),
        (mk.MukaiSet(one, h, one, h, one, h, one),
         f"MukaiSet(w0={ONE}, w1={H}, w2={ONE}, u1={H}, u2={ONE}, vl1={H}, vl2={ONE})"),
        (check, CHECK),
        (vf.VerifySummary((check,)), f"VerifySummary(checks=({CHECK},))"),
        (Report(14, flags, None, 1, None, ("note",)),
         f"Report(d=14, flags={FLAGS}, nl=None, boundary=1, pell=None, notes=('note',))"),
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    classes = {type(r) for r, _ in RECORDS}
    modules = (lat, cond, st, mk, vf, sys.modules["cubick3.cli"])
    defined = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and issubclass(c, Record) and c is not Record}
    assert classes == defined


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_protocol(record, text):
    assert repr(record) == text
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    copy = record._replace()
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert repr(copy) == text
    with pytest.raises(TypeError, match="not_a_field"):
        record._replace(not_a_field=1)


def test_repr_describes_an_int_past_the_digit_limit():
    # the interpreter's str() refuses the 5,000-digit entry of this Gram
    L = st.standard_lattice("LambdaD(" + "2" * 5000 + ")")
    assert repr(L).startswith("GramLattice(gram=IntMatrix(data=<tuple with more digits than")
    assert show(-(10**5000)) == "<int with more digits than the int-str limit>"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-str digit limit")
def test_parse_int_reads_what_int_reads_past_the_digit_limit():
    digits = "7" * 5000
    texts = (digits, f" -{digits}\n", "+" + "_".join(digits), "\u0661" * 5000)
    refused = ("1e5", "1.5", "NaN", "Infinity", "", "-", "_" + digits, digits + "_",
               "7__" + digits, "+-" + digits, digits + ".0", digits + "x")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        wanted = [int(t) for t in texts]
        for t in refused:
            with pytest.raises(ValueError):
                int(t)
    finally:
        sys.set_int_max_str_digits(old)
    assert [parse_int(t) for t in texts] == wanted
    for t in refused:
        with pytest.raises(ValueError):
            parse_int(t)


def test_equality_is_per_class():
    # one field each, of equal value: unequal, and each side defers
    data = ((1,),)
    m, s = lat.IntMatrix(data), vf.VerifySummary(data)
    assert m != s and not m == s
    assert m.__eq__(s) is NotImplemented and s.__eq__(m) is NotImplemented
    assert m == lat.IntMatrix(((1,),)) and m != lat.IntMatrix(((2,),))


def test_eichler_invariant_keeps_same_up_to_sign():
    # its repr and frozen fields are checked with the other records above
    e = st.EichlerInvariant(-2, 3, 1)
    assert e.same_up_to_sign(st.EichlerInvariant(-2, 3, -1))
    assert not e.same_up_to_sign(st.EichlerInvariant(-2, 1, -1))


def test_no_module_imports_enum_or_namedtuple():
    # both build classes by factory at import time, where `Record` builds none
    found = []
    for path in sorted((SRC / "cubick3").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names
                          if a.name.partition(".")[0] == "enum"]
            elif isinstance(node, ast.ImportFrom) and node.module == "enum":
                found.append((path.name, "enum"))
            elif "namedtuple" in (getattr(node, "name", None), getattr(node, "attr", None)):
                # from collections import namedtuple, or collections.namedtuple
                found.append((path.name, "namedtuple"))
    assert found == []


def test_cached_property_is_computed_once(monkeypatch):
    calls = spy(monkeypatch, la, "inertia")
    L = lat.GramLattice.from_rows([[2, -1], [-1, 2]])
    S = lat.span_sublattice(L, [(1, 1), (1, -1)])
    assert (L.det, L.det, S.det, S.det) == (3, 3, 12, 12)
    assert calls == [2, 2]
    # the cached value lives beside the fields, where == and hash do not see it
    fresh = lat.GramLattice.from_rows([[2, -1], [-1, 2]])
    assert fresh == L and hash(fresh) == hash(L) and repr(fresh) == repr(L)


def test_replace_copies_through_the_constructor():
    amb = st.standard_lattice("A2")
    X = lat.orthogonal_complement(amb, [(1, 0)])
    assert X._saturated
    copy = X._replace()
    assert copy == X and not copy._saturated and X._saturated
    assert lat.GramLattice(amb.gram).label is None
    assert amb._replace(label="x") == lat.GramLattice(amb.gram, label="x")
    with pytest.raises(InvalidMatrix, match="symmetric"):
        amb._replace(gram=lat.IntMatrix(((1, 2), (3, 4))))
