"""Characteristic classes and the Mukai pairing, with Euler-characteristic oracles."""

from fractions import Fraction as F

from cubick3 import (
    CohClass,
    a2_mukai_gram,
    characteristic_classes,
    euler_line,
    mukai_pairing,
    mukai_set,
    mukai_vector_line,
    project_right,
    u_classes,
)
from cubick3 import intlinalg as la
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.mukai import exp_h, lambda_vectors
from cubick3.verify import series_inverse, series_sqrt
from limits import forbid
from oracles import det_bareiss


def test_chern_class():
    assert characteristic_classes().chern.coeffs == (F(1), F(3), F(6), F(2), F(9))


def test_euler_number():
    # rank bookkeeping: 3 * c4-coefficient is the topological Euler number
    assert 3 * characteristic_classes().chern.coeffs[4] == 27


def test_todd_integral_is_one():
    # chi of the structure sheaf: C(5,5) - C(2,5) = 1
    assert characteristic_classes().todd.integral() == 1


def test_sqrt_todd():
    assert characteristic_classes().sqrt_todd.coeffs == (
        F(1), F(3, 4), F(11, 32), F(15, 128), F(121, 6144),
    )


def test_sqrt_squares_back():
    cc = characteristic_classes()
    assert (cc.sqrt_todd * cc.sqrt_todd - cc.todd).is_zero()


def test_sqrt_dual_identity():
    st = characteristic_classes().sqrt_todd
    assert st.dual() == exp_h(F(-3, 2)) * st


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


def test_w_vectors():
    assert mukai_vector_line(0) == characteristic_classes().sqrt_todd
    assert mukai_vector_line(1).coeffs == (
        F(1), F(7, 4), F(51, 32), F(385, 384), F(2921, 6144),
    )
    w2 = mukai_vector_line(2).coeffs
    assert (w2[0], w2[1], w2[3], w2[4]) == (F(1), F(11, 4), F(1397, 384), F(16025, 6144))
    # the degree-2 coefficient is fixed by the pairing oracle, not by print
    assert w2[2] == F(123, 32)


def test_euler_line():
    import math

    def binom(m, k):
        # generalized binomial via the falling-factorial product
        num = 1
        for i in range(k):
            num *= m - i
        return num // math.factorial(k)

    for k in range(-6, 7):
        assert euler_line(k) == binom(k + 5, 5) - binom(k + 2, 5)
    assert euler_line(0) == 1
    assert euler_line(1) == 6
    assert euler_line(-3) == 1  # Serre duality partner of the structure sheaf


def test_nine_pairing_identities():
    w = [mukai_vector_line(i) for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert mukai_pairing(w[i], w[j]) == -euler_line(j - i)


def test_asymmetry():
    w0, w1 = mukai_vector_line(0), mukai_vector_line(1)
    assert mukai_pairing(w0, w1) == -6
    assert mukai_pairing(w1, w0) == 0


def test_u_classes_and_pairings():
    u1, u2 = u_classes()
    assert u1.coeffs == (0, 0, 0, F(1, 3), F(5, 12))
    assert u2.coeffs == (0, 0, 0, F(1, 3), F(9, 12))
    for a in (u1, u2):
        for b in (u1, u2):
            assert mukai_pairing(a, b) == 0
    w = [mukai_vector_line(i) for i in range(3)]
    u = {1: u1, 2: u2}
    for i in range(3):
        for j in (1, 2):
            # chi on the line: chi(P1, O(m)) = m + 1
            assert mukai_pairing(w[i], u[j]) == -(j - i + 1)
            assert mukai_pairing(u[j], w[i]) == -(j - i - 2)
    assert mukai_pairing(w[0], u1) == -2


def test_projection():
    u1, u2 = u_classes()
    vl1, vl2 = lambda_vectors()
    assert vl1.coeffs == (F(3), F(5, 4), F(-7, 32), F(-77, 384), F(41, 2048))
    assert vl2.coeffs == (F(-3), F(-1, 4), F(15, 32), F(1, 384), F(-153, 2048))
    assert project_right(mukai_vector_line(2)).is_zero()
    assert project_right(vl1) == vl1
    ms = mukai_set()
    assert ms.vl1 == u1 - ms.w1 + ms.w0.scale(4)
    assert ms.vl2 == u2 - ms.w2 + ms.w1.scale(4) - ms.w0.scale(6)


def test_a2_gram():
    assert a2_mukai_gram().to_lists() == [[2, -1], [-1, 2]]
    vl1, vl2 = lambda_vectors()
    w = [mukai_vector_line(i) for i in range(3)]
    for wi in w:
        for v in (vl1, vl2):
            assert mukai_pairing(wi, v) == 0
    assert mukai_pairing(vl1, vl2) == mukai_pairing(vl2, vl1)


def test_a2_gram_matches_abstract_lattice():
    # the two realizations of A2 (cohomological and abstract) carry the
    # same form, which is what lets the direct sum extend over both models
    from cubick3.standard import standard_lattice

    assert a2_mukai_gram() == standard_lattice("A2").gram


def test_five_classes_independent():
    vl1, vl2 = lambda_vectors()
    rows = [
        list(c.coeffs)
        for c in (mukai_vector_line(0), mukai_vector_line(1), mukai_vector_line(2), vl1, vl2)
    ]
    from math import lcm

    den = lcm(*[x.denominator for row in rows for x in row])
    assert det_bareiss([[int(x * den) for x in row] for row in rows]) != 0


def test_json_rendering():
    ms = mukai_set()
    obj = ms.to_json()
    assert set(obj) == {"w0", "w1", "w2", "u1", "u2", "vLambda1", "vLambda2"}
    assert obj["w0"] == ["1", "3/4", "11/32", "15/128", "121/6144"]
    assert obj["vLambda1"] == ["3", "5/4", "-7/32", "-77/384", "41/2048"]
