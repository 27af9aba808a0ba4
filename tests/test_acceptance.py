"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  `cubick3.verify` is the one implementation of each pinned identity:
C01-C10 read one module-scoped `verify.run_all()` and assert an exact list of
its check ids, each run and passed, so a check that verify drops fails its
criterion.  A criterion that rests on an agreement with a reference route
also runs the rows of `tests/differential.py` that pin it, by their ids,
each through the table's own sample and routes.  What neither reports stays
in the test.  Every tolerance is exact equality; the two sweeps carry their
stated wall-clock budgets.
"""

import time

import pytest

from cubick3 import (
    DegenerateLattice,
    disc_group,
    hassett_triple,
    mukai_pairing,
    mukai_vector_line,
    orthogonal_complement,
    saturation,
    span_sublattice,
)
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.lattice import is_primitive
from cubick3.mukai import lambda_vectors
from cubick3.standard import standard_lattice
import differential as dt
from limits import time_limit
from oracles import det_bareiss, find_hyperbolic_AT

ROWS = {row.id: row for row in dt.ROWS}


@pytest.fixture(scope="module")
def verified():
    """verify's checks at the default sweep bound, as {id: ok}, and the run's seconds.

    A failed check fails the criteria that name it, each with its
    `not verified: <id>` line, and the golden `verify` lines.
    """
    t0 = time.monotonic()
    summary = vf.run_all()
    elapsed = time.monotonic() - t0
    return {c.check_id: c.ok for c in summary.checks}, elapsed


def report(cid, ok, detail=""):
    line = f"ACCEPTANCE {cid}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def row_holds(row_id):
    """Whether the differential table's row `row_id` agrees, and raises nothing, on its sample."""
    row = ROWS[row_id]
    return not any(dt.differs(row, x) for x in dt.draw(row.sampler, row.size, row.ranges, row.seed))


def report_verified(cid, verified, ids, ok=True, detail="", rows=()):
    """`report`, failing also unless each of verify's `ids` and of the table's `rows` passed."""
    checks, _ = verified
    missed = [i for i in ids if not checks.get(i)] + [r for r in rows if not row_holds(r)]
    if missed:
        detail = "; ".join(filter(None, (detail, f"not verified: {', '.join(missed)}")))
    report(cid, ok and not missed, detail)


def test_c01_table_reproduction(verified):
    ids = [f"table78.{col}" for col in ("star", "ssprime", "ss", "sss")]
    ids += [f"table78.oracle.{d}" for d in (54, 56, 72, 68)]
    # with table78.ssprime, the row's exhaustive form enumeration decides
    # every (**') cell that verify pins
    report_verified("C1 table-reproduction", verified, ids, detail="rows over 24 special d <= 78",
                    rows=["a2_represents.bruteforce.to800"])


def test_c02_sqrt_todd_and_w_vectors(verified):
    ids = ["chern.total", "todd.integral", "sqrt_td.coeffs", "sqrt_td.square", "sqrt_td.dual",
           "w1.coeffs", "w2.coeffs_except_deg2"]
    ids += [f"pairing.w{i}.w{j}" for i in range(3) for j in range(3)]
    report_verified("C2 sqrt-todd-and-w", verified, ids,
                    detail="coefficients + nine pairing identities")


def test_c03_v_lambda_identities(verified):
    ids = ["vlambda1.coeffs", "vlambda2.coeffs", "a2gram.mukai", "proj.idempotent",
           "proj.kills_w2"]
    ids += [f"pairing.u{i}.u{j}" for i in (1, 2) for j in (1, 2)]
    ids += [f"pairing.{a}.{b}" for i in range(3) for j in (1, 2)
            for a, b in ((f"w{i}", f"u{j}"), (f"u{j}", f"w{i}"))]
    orth = all(
        mukai_pairing(mukai_vector_line(i), v) == 0
        for i in range(3)
        for v in lambda_vectors()
    )
    report_verified("C3 v-lambda", verified, ids, orth,
                    "projection, A2 Gram, six orthogonality pairings")


def test_c04_canonical_lattice_identities(verified):
    ids = [f"embedding.{key}" for key in (
        "lambda_gram", "mu_gram", "glue_identity_holds", "a2_perp_abs_det",
        "a2_sum_saturation_index", "a2_sum_saturation_abs_det", "lambda12_square",
        "fano_sublattice_abs_det", "l1_perp_abs_det",
    )]
    report_verified("C4 canonical-identities", verified, ids, detail="all exact")


def test_c05_nl_dichotomy_sweep(verified):
    # nl.sweep.to200 checks, on every special d <= 200, the classification,
    # the saturation indices and the discriminant groups of hassett_triple(d)
    # against the generic lattices; the budget bounds the whole run_all(200)
    ids = ["nl.sweep.to200", "disc.K12", "disc.K14", "disc.K18", "disc.K26"]
    _, elapsed = verified
    ok = all(abs(det_bareiss(hassett_triple(d).gram_K.to_lists())) == d
             for d in range(8, 201, 2) if d % 6 in (0, 2))
    report_verified("C5 nl-dichotomy", verified, ids, ok and elapsed <= 5.0,
                    f"verify with the sweep to 200 in {elapsed:.2f}s")


def test_c06_oracle_equivalence(verified):
    report_verified("C6 oracle-equivalence", verified,
                    ["genus.matches_ss.to200", "chain.sss_implies_ss.to200"],
                    detail="a2 and witnesses <= 800, genus <= 200",
                    rows=["a2_represents.bruteforce.to800", "witnesses.even.to800"])


def test_c07_boundary_witnesses(verified):
    ds = (2, 10, 18, 26, 34, 42, 50)
    lam = standard_lattice("Lambda")
    ok = all(is_primitive(lam, delta) for d in ds for delta in st.boundary_witnesses(d) if delta)
    report_verified("C7 boundary-witnesses", verified, [f"delta.{d}" for d in ds], ok,
                    "d in {2,10,18,26,34,42,50}")


def test_c08_kdoo_witnesses(verified):
    ids = []
    for d in (12, 14, 18, 20):
        ids += [f"kdoo.{d}", f"kdoo.{d}.{'involution' if d % 6 == 0 else 'membership'}"]
    report_verified("C8 kdoo-witnesses", verified, ids,
                    detail="index 2 at 12,18; index 1 at 14,20")


def test_c09_pell_criteria(verified):
    ids = ["pell.brakkee.42", "pell.brakkee.12", "pell.sss.38", "pell.sss.74"]
    report_verified("C9 pell-criteria", verified, ids)


def test_c10_hyperbolic_search(verified):
    ids = ["hyperbolic.e4f4", "hyperbolic.e1f1"]
    # verify proves the written-down pairs; the search finds the same ones
    e4, f4, e1, f1 = (st.unit_vector(st.RANK_TILDE, i) for i in (st.E4, st.F4, st.E1, st.F1))
    pairs = vf.hyperbolic_pairs()
    ok = (find_hyperbolic_AT(e4, f4, 4) == pairs["e4f4"]
          and find_hyperbolic_AT(e1, f1, 4) == pairs["e1f1"])
    report_verified("C10 hyperbolic-search", verified, ids, ok,
                    "the search finds both written-down pairs at bound 4")


def test_c11_randomized_property_suite():
    t0 = time.monotonic()
    ok = True
    with time_limit(30):
        for amb, rows in dt.draw("c11", 1000, *dt.C11):
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
    report("C11 randomized-properties", ok, f"1000 sublattices in {elapsed:.1f}s")
