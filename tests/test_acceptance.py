"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact equality; the two sweeps carry their stated
wall-clock budgets.
"""

import math
import time
from fractions import Fraction as F

from cubick3 import (
    DegenerateLattice,
    NLCase,
    a2_bruteforce,
    a2_represents,
    boundary_count,
    canonical_embedding_report,
    classify_nl_vector,
    condition_flags,
    disc_group,
    find_hyperbolic_AT,
    genus_compare,
    hassett_triple,
    kdoo_index,
    mukai_pairing,
    mukai_vector_line,
    nl_vector,
    orthogonal_complement,
    pell_brakkee,
    polarization_vector,
    project_right,
    saturation,
    span_sublattice,
    table,
    u_classes,
    witness_ss,
    witness_sss,
)
from cubick3 import intlinalg as la
from cubick3 import standard as st
from cubick3.mukai import characteristic_classes, euler_line, lambda_vectors
from cubick3.standard import is_primitive, standard_lattice
from oracles import binary_grams_equivalent, c11_inputs, det_bareiss


def report(cid, ok, detail=""):
    line = f"ACCEPTANCE {cid}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_table_reproduction():
    rows = table(78)
    got = {
        "star": {f.d for f in rows if f.star},
        "ssprime": {f.d for f in rows if f.starstar_prime},
        "ss": {f.d for f in rows if f.starstar},
        "sss": {f.d for f in rows if f.starstarstar},
    }
    want_star = set(range(8, 79, 2)) - {d for d in range(8, 79, 2) if d % 6 == 4}
    ok = got["star"] == want_star
    ok = ok and got["ss"] == {14, 26, 38, 42, 62, 74, 78}
    ok = ok and got["sss"] == {14, 26, 38, 42, 62}
    # every (**') cell is decided by the exhaustive form enumeration:
    # 27, 28 and 36 are norm-form values, 34 = 2*17 is not
    want_ssprime = {d for d in want_star if a2_bruteforce(d)}
    ok = ok and got["ssprime"] == want_ssprime
    ok = ok and want_ssprime == {8, 14, 18, 24, 26, 32, 38, 42,
                                 50, 54, 56, 62, 72, 74, 78}
    report("C1 table-reproduction", ok, "rows over 24 special d <= 78")


def test_c02_sqrt_todd_and_w_vectors():
    cc = characteristic_classes()
    ok = cc.sqrt_todd.coeffs == (F(1), F(3, 4), F(11, 32), F(15, 128), F(121, 6144))
    w1 = mukai_vector_line(1).coeffs
    ok = ok and w1 == (F(1), F(7, 4), F(51, 32), F(385, 384), F(2921, 6144))
    w2 = mukai_vector_line(2).coeffs
    ok = ok and (w2[0], w2[1], w2[3], w2[4]) == (
        F(1), F(11, 4), F(1397, 384), F(16025, 6144),
    )
    nine = all(
        mukai_pairing(mukai_vector_line(i), mukai_vector_line(j)) == -euler_line(j - i)
        for i in range(3)
        for j in range(3)
    )
    report("C2 sqrt-todd-and-w", ok and nine, "coefficients + nine pairing identities")


def test_c03_v_lambda_identities():
    u1, _ = u_classes()
    vl1, vl2 = lambda_vectors()
    ok = project_right(u1).coeffs == (F(3), F(5, 4), F(-7, 32), F(-77, 384), F(41, 2048))
    from cubick3 import a2_mukai_gram

    ok = ok and a2_mukai_gram().to_lists() == [[2, -1], [-1, 2]]
    orth = all(
        mukai_pairing(mukai_vector_line(i), v) == 0
        for i in range(3)
        for v in (vl1, vl2)
    )
    report("C3 v-lambda", ok and orth, "projection, A2 Gram, six orthogonality pairings")


def test_c04_canonical_lattice_identities():
    rep = canonical_embedding_report()
    ok = (
        rep.lambda12_square == 6
        and rep.l1_perp_abs_det == 2
        and rep.a2_perp_abs_det == 3
        and rep.a2_sum_saturation_index == 3
        and rep.a2_sum_saturation_abs_det == 1
        and rep.fano_sublattice_abs_det == 18
        and rep.glue_identity_holds
    )
    report("C4 canonical-identities", ok, "all exact")


def _k_disc_shape(d):
    if d % 6 == 2:
        return (d,)
    g = math.gcd(3, d // 3)
    lo, hi = g, (3 * (d // 3)) // g
    return tuple(x for x in (lo, hi) if x > 1)


def test_c05_nl_dichotomy_sweep():
    hassett_triple.cache_clear()
    t0 = time.monotonic()
    ok = True
    for d in range(8, 201, 2):
        if d % 6 not in (0, 2):
            continue
        r = hassett_triple(d)
        case, dd = classify_nl_vector(r.v)
        want_case = NLCase.SATURATED if d % 6 == 0 else NLCase.INDEX_THREE
        ok = ok and (case, dd) == (want_case, d)
        ok = ok and abs(det_bareiss(r.gram_K.to_lists())) == d
        ok = ok and r.disc_K.invariant_factors == _k_disc_shape(d)
        ok = ok and r.disc_K.is_cyclic == (d % 9 != 0)
    ok = ok and binary_grams_equivalent(
        hassett_triple(14).gram_K.to_lists(), [[-3, 1], [1, -5]]
    )
    elapsed = time.monotonic() - t0
    report("C5 nl-dichotomy", ok and elapsed <= 5.0, f"sweep to 200 in {elapsed:.2f}s")


def test_c06_oracle_equivalence():
    ok = True
    for d in range(2, 501, 2):
        sols = a2_bruteforce(d)
        ok = ok and a2_represents(d, False) == bool(sols)
        ok = ok and a2_represents(d, True) == any(p for _, _, p in sols)
    for d in range(2, 201, 2):
        f = condition_flags(d)
        ok = ok and (witness_ss(d) is not None) == f.starstar
        ok = ok and (witness_sss(d) is not None) == f.starstarstar
    for d in range(8, 201, 2):
        if d % 6 in (0, 2):
            ok = ok and genus_compare(d) == condition_flags(d).starstar
    report("C6 oracle-equivalence", ok, "a2<=500, witnesses<=200, genus<=200")


def test_c07_boundary_witnesses():
    lam = standard_lattice("Lambda")
    ok = True
    for d in (2, 10, 18, 26, 34, 42, 50):
        ell = polarization_vector(d)
        delta0, delta1 = st.boundary_witnesses(d)
        two = (d // 2) % 4 == 1
        ok = ok and (delta1 is not None) == two
        for delta in (delta0,) + ((delta1,) if delta1 else ()):
            ok = ok and lam.square(delta) == -2
            ok = ok and lam.pairing(delta, ell) == 0
            ok = ok and is_primitive(lam, delta)
        ok = ok and boundary_count(d) == (2 if two else 1)
    report("C7 boundary-witnesses", ok, "d in {2,10,18,26,34,42,50}")


def test_c08_kdoo_witnesses():
    gbar = standard_lattice("Gammabar")
    G = gbar.gram.to_lists()
    ok = True
    for d in (12, 18):
        idx, w = kdoo_index(d)
        ok = ok and idx == 2 and w.involution is not None
        g = w.involution.to_lists()
        vbar = st.gamma_to_gammabar(nl_vector(d))
        ok = ok and la.sparse_gram_product(g, la.sparse_rows(G)) == G
        ok = ok and la.mat_vec(g, st.H2) == list(st.H2)
        ok = ok and la.mat_vec(g, vbar) == [-e for e in vbar]
    for d in (14, 20):
        idx, w = kdoo_index(d)
        ok = ok and idx == 1
        satK, _ = saturation(
            span_sublattice(gbar, [st.H2, st.gamma_to_gammabar(nl_vector(d))])
        )
        ok = ok and satK.contains(w.member) and not satK.contains(w.non_member)
    report("C8 kdoo-witnesses", ok, "index 2 at 12,18; index 1 at 14,20")


def test_c09_pell_criteria():
    ok = witness_sss(38) == (30, 7)
    ok = ok and witness_sss(74) is None
    ok = ok and pell_brakkee(42).solution == (3, 2)
    ok = ok and pell_brakkee(12).solution is None
    report("C9 pell-criteria", ok)


def test_c10_hyperbolic_search():
    lt = standard_lattice("LambdaTilde")
    ok = True
    for e_idx, f_idx in ((st.E4, st.F4), (st.E1, st.F1)):
        e = st.unit_vector(24, e_idx)
        f = st.unit_vector(24, f_idx)
        ep, fp = find_hyperbolic_AT(e, f, bound=4)
        ok = ok and lt.square(ep) == 0 and lt.square(fp) == 0
        ok = ok and lt.pairing(ep, fp) == 1
        ok = ok and la.rank_int(
            [list(st.LAMBDA1), list(st.LAMBDA2), list(ep), list(fp)]
        ) == 3
    report("C10 hyperbolic-search", ok, "both pairs at bound 4")


def test_c11_randomized_property_suite():
    t0 = time.monotonic()
    ok = True
    for amb, rows in c11_inputs(1000):
        S = span_sublattice(amb, rows)
        sat, idx = saturation(S)
        ok = ok and S.det == idx * idx * sat.det
        again, idx2 = saturation(sat)
        ok = ok and idx2 == 1 and again.basis == sat.basis
        comp = orthogonal_complement(amb, rows)
        _, idx3 = saturation(comp)
        ok = ok and idx3 == 1
        lat = sat.as_lattice()
        if lat.det != 0:
            ok = ok and disc_group(lat).order == lat.abs_det
        else:
            try:
                disc_group(lat)
                ok = False
            except DegenerateLattice:
                pass
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report("C11 randomized-properties", ok and elapsed <= 30.0,
           f"1000 sublattices in {elapsed:.1f}s")
