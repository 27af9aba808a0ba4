"""The Mukai classes: series helpers, the written-down values' routes, independence.

The values themselves are pinned once elsewhere: the classes, the w_i and
the pairings by `verify`'s `chern.*`, `todd.*`, `sqrt_td.*`, `w*` and
`pairing.*` checks (acceptance C02 and C03), the seven vectors and the A2
Gram by the `mukai` golden lines, and `euler_line` by its doctest and the
row `euler_line.binomial` of the differential table.
"""

from fractions import Fraction as F

from cubick3 import (
    CohClass,
    a2_mukai_gram,
    characteristic_classes,
    mukai_set,
    mukai_vector_line,
)
from cubick3 import intlinalg as la
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.mukai import lambda_vectors
from cubick3.verify import series_inverse, series_sqrt
from limits import forbid
from oracles import det_bareiss


def test_series_helpers():
    c = CohClass.of(1, 2, 3, 4, 5)
    assert (c * series_inverse(c)).coeffs == (F(1), 0, 0, 0, 0)
    assert -c == c.scale(-1) == CohClass.of(-1, -2, -3, -4, -5)
    s = series_sqrt(CohClass.of(1, 2, 1, 0, 0))
    assert s == CohClass.of(1, 1, 0, 0, 0)


def test_series_sqrt_runs_no_series_inverse(monkeypatch):
    want = series_sqrt(characteristic_classes().todd)
    forbid(monkeypatch, "series_sqrt must not invert a series", (vf, "series_inverse"))
    assert series_sqrt(characteristic_classes().todd) == want


def test_written_down_values_run_no_derivation(monkeypatch):
    # the embedding report, the classes, the projected A2 basis and its Gram
    # are written down; verify derives them
    written = (st.canonical_embedding_report, characteristic_classes, lambda_vectors,
               a2_mukai_gram, mukai_set)
    cached = [f for f in written if hasattr(f, "cache_clear")]
    want = tuple(f() for f in written)
    for f in cached:
        f.cache_clear()
    try:
        forbid(monkeypatch, "a written-down value must not be derived", (la, "row_echelon"),
               (la, "inertia"), (mk, "project_right"), (mk, "mukai_pairing"))
        assert tuple(f() for f in written) == want
    finally:
        for f in cached:
            f.cache_clear()


def test_five_classes_independent():
    vl1, vl2 = lambda_vectors()
    rows = [
        list(c.coeffs)
        for c in (mukai_vector_line(0), mukai_vector_line(1), mukai_vector_line(2), vl1, vl2)
    ]
    from math import lcm

    den = lcm(*[x.denominator for row in rows for x in row])
    assert det_bareiss([[int(x * den) for x in row] for row in rows]) != 0
