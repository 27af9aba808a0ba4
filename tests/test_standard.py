"""Named constructions: standard lattices, NL vectors, witnesses, searches.

The ranks, determinants, signatures and parity of the standard lattices, the
Grams and groups `hassett_triple` writes down, the boundary witnesses and
the worked genus examples are pinned once elsewhere: in the golden `lattice`
and `classify` lines, the rows `det.theory_grams` and
`signature.theory_grams` (whose sample digests fix each Gram), `verify`'s
`disc.*`, `delta.*` and `nl.sweep.*` checks, and the doctests.
"""

import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from cubick3 import lattice
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3 import (
    InvalidNLVector,
    NLCase,
    UnknownLattice,
    ZeroVector,
    disc_group,
    signature,
)
from cubick3 import intlinalg as la
from cubick3.lattice import GramLattice
import oracles
from limits import forbid, spy
from cubick3.standard import (
    E1,
    F1,
    LAMBDA1,
    LAMBDA2,
    M1,
    RANK_GAMMA,
    _vec,
    boundary_witnesses,
    classify_nl_vector,
    eichler_invariants,
    gamma_to_gammabar,
    genus_compare,
    hassett_triple,
    kdoo_index,
    nl_vector,
    standard_lattice,
    unit_vector,
)


class TestStandardLattices:
    def test_e_is_even_unimodular(self):
        # unimodular, of rank 16 and signature (0, 16, 0): the theory_grams rows
        assert standard_lattice("E").is_even

    def test_e8_root_count(self):
        # close the simple roots under the simple reflections; the orbit of a
        # simply-laced diagram is the full root system, 240 roots for E8
        E = standard_lattice("E")
        G = [row[:8] for row in E.gram.to_lists()[:8]]  # the first E8(-1) summand
        simple = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
        roots = set(simple) | {tuple(-x for x in s) for s in simple}
        frontier = list(roots)
        while frontier:
            nxt = []
            for v in frontier:
                for alpha in simple:
                    pair = sum(
                        vi * sum(g * aj for g, aj in zip(row, alpha))
                        for vi, row in zip(v, G)
                    )
                    # reflection in a (-2)-root: v + (v.alpha) alpha
                    img = tuple(x + pair * a for x, a in zip(v, alpha))
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        assert len(roots) == 240
        assert all(E.square(r + (0,) * 8) == -2 for r in roots)

    def test_lambda_d_parsing(self):
        with pytest.raises(UnknownLattice):
            standard_lattice("Foo")

    @pytest.mark.parametrize("name", [
        "LambdaD(14)", "LambdaD(014)", "LambdaD()", "LambdaD(-4)", "LambdaD(+14)",
        "LambdaD(1 4)", "LambdaD(1_4)", "LambdaD(14.0)", "LambdaD((14))", " LambdaD(14)",
        "LambdaD(14)x", "LambdaD(14)\n", "LambdaD(14", "LambdaD14)", "LambdaD(",
        "LambdaD(\u0661\u0664)", "LambdaD(\u0663\u0660)", "LambdaD(\uff11\uff14)",
        "LambdaD(\U0001d7d9\U0001d7dc)", "LambdaD(\u00b2)", "LambdaD(\u2460)",
        "LambdaD(7)", "LambdaD(0)", "lambdaD(14)", "Gamma", "LambdaTilde",
    ])
    def test_lambda_d_names_parse_as_the_regex_did(self, name):
        # the pattern LambdaD\((\d+)\) read d, and any other name was a
        # fixed one; \d and str.isdecimal both accept exactly the Unicode Nd
        # digits, so Arabic-Indic and fullwidth digits name LambdaD(14) too
        def outcome(build):
            try:
                return build()
            except UnknownLattice as exc:
                return UnknownLattice, str(exc)

        m = re.fullmatch(r"LambdaD\((\d+)\)", name)
        want = outcome(lambda: st.lambda_d_lattice(int(m.group(1))) if m
                       else st._fixed_lattice(name))
        assert outcome(lambda: standard_lattice(name)) == want

    def test_standard_imports_no_re(self):
        assert "re" not in vars(st)

    def test_lambda_d_names_leave_every_cache_bounded(self):
        # each LambdaD(d) is built on its call; no cache of the module keeps it
        caches = [f for f in vars(st).values() if hasattr(f, "cache_info")]
        for d in range(2, 2002, 2):
            assert standard_lattice(f"LambdaD({d})").abs_det == d
        sizes = {f.__name__: f.cache_info().currsize for f in caches}
        assert max(sizes.values()) < 16, sizes


class TestStandardBasis:
    def test_hyperbolic_pairings(self):
        lt = standard_lattice("LambdaTilde")
        for i, (e, f) in enumerate(((16, 17), (18, 19), (20, 21), (22, 23))):
            want = -1 if i == 3 else 1
            assert lt.pairing(unit_vector(24, e), unit_vector(24, f)) == want
            assert lt.square(unit_vector(24, e)) == 0
            assert lt.square(unit_vector(24, f)) == 0

    def test_h2_square(self):
        from cubick3.standard import H2

        assert standard_lattice("Gammabar").square(H2) == -3

    def test_lambda_mu_pairings(self):
        lt = standard_lattice("LambdaTilde")
        from cubick3.standard import MU1_TILDE, MU2_TILDE

        assert lt.square(LAMBDA1) == 2 and lt.square(LAMBDA2) == 2
        assert lt.pairing(LAMBDA1, LAMBDA2) == -1
        assert lt.square(MU1_TILDE) == -2 and lt.square(MU2_TILDE) == -2
        assert lt.pairing(MU1_TILDE, MU2_TILDE) == 1
        for lam in (LAMBDA1, LAMBDA2):
            for mu in (MU1_TILDE, MU2_TILDE):
                assert lt.pairing(lam, mu) == 0


class TestNLVector:
    def test_d12(self):
        v = nl_vector(12)
        assert v == _vec(RANK_GAMMA, {E1: 1, F1: -2})
        assert standard_lattice("Gamma").square(v) == -4

    def test_d8(self):
        assert standard_lattice("Gamma").square(nl_vector(8)) == -24


class TestClassify:
    def test_square_minus_two(self):
        # any (-2)-vector classifies as saturated of discriminant 6
        v = unit_vector(RANK_GAMMA, M1)
        assert classify_nl_vector(v) == (NLCase.SATURATED, 6)

    def test_rejects_non_integral(self):
        # e1 - (7/3) f1 must not be read as e1 - 2 f1
        for x in (Fraction(-7, 3), float("inf"), float("-inf"), float("nan")):
            v = [Fraction(e) for e in nl_vector(12)]
            v[F1] = x
            with pytest.raises(InvalidNLVector, match="non-integral"):
                classify_nl_vector(v)

    def test_rejects_nonprimitive_and_positive(self):
        with pytest.raises(InvalidNLVector):
            classify_nl_vector(tuple(2 * e for e in nl_vector(12)))
        with pytest.raises(InvalidNLVector):
            classify_nl_vector(unit_vector(RANK_GAMMA, E1))  # isotropic
        with pytest.raises(InvalidNLVector):
            classify_nl_vector((0,) * RANK_GAMMA)

    def test_runs_no_rank_test(self, monkeypatch):
        # the span of h2 and v is built as a basis; its saturation still runs
        ranks = spy(monkeypatch, la, "rank_int", record=type)
        # standard no longer imports span_sublattice by name; count it where it lives
        spans = spy(monkeypatch, lattice, "span_sublattice", record=type)
        sats = spy(monkeypatch, st, "saturation", record=type)
        assert classify_nl_vector(nl_vector(14)) == (NLCase.INDEX_THREE, 14)
        assert (ranks, spans, sats) == ([], [], [lattice.Sublattice])


@pytest.mark.parametrize(
    "entry, zero_error",
    [(classify_nl_vector, InvalidNLVector), (eichler_invariants, ZeroVector)],
    ids=["classify_nl_vector", "eichler_invariants"],
)
def test_primitive_gamma_vector_errors(entry, zero_error):
    # both entry points validate a primitive Gamma vector the same way, but
    # for the zero vector, which each refuses with its own typed error
    with pytest.raises(zero_error, match="zero vector"):
        entry((0,) * RANK_GAMMA)
    with pytest.raises(InvalidNLVector, match="rank 22"):
        entry(nl_vector(14)[:-1])
    with pytest.raises(InvalidNLVector, match="not primitive"):
        entry(tuple(2 * e for e in nl_vector(14)))


class TestHassettTriple:
    def test_rejects_a_basis_that_spans_another_lattice(self, monkeypatch):
        # the complement of v_12 in place of the complement of v_18: the
        # closed-form basis of Gamma_18 has another Hermite basis
        real = lattice.orthogonal_complement

        def swapped(amb, vecs):
            return real(amb, [nl_vector(12)] if list(vecs) == [nl_vector(18)] else vecs)

        monkeypatch.setattr(lattice, "orthogonal_complement", swapped)
        failures = {c.check_id: c.actual for c in vf.run_all(genus_max=20).failures}
        assert failures["nl.sweep.to20"] == repr([(18, "basisGamma")])

    def test_oracle_rejects_a_corrupted_closed_form(self, monkeypatch):
        real = st._gamma_block

        def corrupted(d):
            a, b, (x, y, z) = real(d)
            return a, b, (x, y, z + 6 if d == 14 else z)

        monkeypatch.setattr(st, "_gamma_block", corrupted)
        hassett_triple.cache_clear()
        try:
            s = vf.run_all(genus_max=20)
        finally:
            hassett_triple.cache_clear()  # drop the corrupted reports
        sweep = next(c for c in s.failures if c.check_id == "nl.sweep.to20")
        # the written-down group of Gamma_14 is not that of the corrupted
        # block, and L_d, whose Gram is -B_d, carries the corruption too
        assert sweep.actual == repr(
            [(14, "gramL"), (14, "gramGamma"), (14, "detL"), (14, "discGamma")])

    def test_written_down_grams_match_direct_sums(self):
        # the rows of gram_Gamma_d and gram_L against the orthogonal sums they
        # write down, on every special d to 2000 and three d far past them
        # (mod 6: 2^61 = 2, 3 * 2^62 = 0 with 9 not dividing it, 2 * 3^37 = 0 with 9 | d)
        E, U = standard_lattice("E"), standard_lattice("U")
        A2, A2m = standard_lattice("A2"), standard_lattice("A2m")
        ds = [d for d in range(2, 2_001, 2) if d % 6 in (0, 2)] + [2**61, 3 * 2**62, 2 * 3**37]
        for d in ds:
            rep = hassett_triple(d)
            if d % 6 == 0:
                block = lattice.direct_sum([A2m, GramLattice.from_rows([[d // 3]])])
                gram_L = lattice.direct_sum([A2, GramLattice.from_rows([[-(d // 3)]])]).gram
                assert rep.gram_L == gram_L, d
            else:
                c = (d - 2) // 3
                block = GramLattice.from_rows([[-2, 1, 0], [1, -2, 1], [0, 1, c]])
            assert st._gamma_block(d) == block.gram.data, d
            assert rep.gram_Gamma_d == lattice.direct_sum([E, U, block]).gram, d
            assert all(type(e) is int for row in rep.gram_Gamma_d.data for e in row), d

    def test_closed_form_computes_no_lattice(self, monkeypatch):
        ds = (2, 6, 8, 12, 14, 18, 54, 2**61)
        want = {d: (hassett_triple(d), genus_compare(d)) for d in ds}
        # after the warm calls above, the fixed lattices are cached: only the
        # block of each d is built, so not even an orthogonal sum is left
        forbid(monkeypatch, "hassett_triple must not run the generic route",
               (st, "direct_sum"), (st, "saturation"), (st, "GramLattice"),
               (lattice, "orthogonal_complement"), (lattice, "disc_group"),
               (la, "hnf_rows"), (la, "inertia"), (la, "smith_normal_form"))
        for d in ds:
            assert hassett_triple.__wrapped__(d) == want[d][0]  # bypass the cache
            hassett_triple.cache_clear()  # genus_compare builds its report here
            assert genus_compare(d) == want[d][1]

    def test_oracle_holds_far_beyond_every_sweep(self):
        # no verify sweep reaches these d; each takes the generic route once
        rng = random.Random(9)
        ds = []
        while len(ds) < 20:
            d = 2 * rng.randrange(2**39, 2**62)
            if d % 6 in (0, 2):
                ds.append(d)
        assert {d % 6 for d in ds} == {0, 2}
        for d in ds:
            assert vf._nl_failures(d) == [], d

    def test_d14(self):
        r = hassett_triple(14)
        assert r.gram_K.to_lists() == [[-3, 1], [1, -5]]
        assert abs(oracles.det_bareiss(r.gram_K.to_lists())) == 14
        assert r.disc_K.invariant_factors == (14,)
        assert r.case is NLCase.INDEX_THREE

    def test_d12(self):
        r = hassett_triple(12)
        assert r.gram_K.to_lists() == [[-3, 0], [0, -4]]
        # extra generator e1 + 2 f1 of square 4 appears in the complement block
        assert r.gram_Gamma_d.to_lists()[20][20] == 4

    def test_dets_and_disc_over_sweep(self):
        for d in (2, 6, 8, 12, 14, 18, 24, 26, 36, 54):
            r = hassett_triple(d)
            assert abs(oracles.det_bareiss(r.gram_K.to_lists())) == d
            assert abs(oracles.det_bareiss(r.gram_L.to_lists())) == d
            assert abs(oracles.det_bareiss(r.gram_Gamma_d.to_lists())) == d
            assert r.disc_K.is_cyclic == (d % 9 != 0)
            assert r.v_square == (-d // 3 if d % 6 == 0 else -3 * d)

    def test_complements_share_genus_invariants(self):
        # the complements of K_d in the full cubic lattice and of L_d in the
        # extended K3 lattice agree in rank, signature, |det|, and
        # discriminant group: both are copies of Gamma_d
        from cubick3.lattice import orthogonal_complement
        from cubick3.standard import H2
        from cubick3.verify import gamma_to_lambdatilde

        gbar = standard_lattice("Gammabar")
        ltil = standard_lattice("LambdaTilde")
        for d in (12, 14, 18, 20):
            v = nl_vector(d)
            K_perp = orthogonal_complement(gbar, [H2, gamma_to_gammabar(v)])
            L_perp = orthogonal_complement(
                ltil, [LAMBDA1, LAMBDA2, gamma_to_lambdatilde(v)]
            )
            r = hassett_triple(d)
            Gd = GramLattice(r.gram_Gamma_d)
            for side in (K_perp.as_lattice(), L_perp.as_lattice()):
                assert side.rank == Gd.rank == 21
                assert signature(side) == signature(Gd)
                assert side.abs_det == Gd.abs_det == d
                assert (
                    disc_group(side).invariant_factors
                    == disc_group(Gd).invariant_factors
                )


class TestEichler:
    def test_known_values(self):
        e14, e12 = eichler_invariants(nl_vector(14)), eichler_invariants(nl_vector(12))
        assert (e14.square, e14.div, abs(e14.disc_class)) == (-42, 3, 1)
        assert (e12.square, e12.div, e12.disc_class) == (-4, 1, 0)

    def test_permutation_invariance(self):
        # e1 - 3 f1 and its image under swapping the two hyperbolic blocks
        from cubick3.standard import E2, F2

        v18 = nl_vector(18)
        swapped = _vec(RANK_GAMMA, {E2: 1, F2: -3})
        a, b = eichler_invariants(v18), eichler_invariants(swapped)
        assert a.same_up_to_sign(b)

    def test_same_d_same_invariants(self):
        # two distinct primitive vectors of discriminant 6
        one = unit_vector(RANK_GAMMA, M1)
        other = _vec(RANK_GAMMA, {M1: 1, M2_IDX: 1})
        a, b = eichler_invariants(one), eichler_invariants(other)
        assert a.same_up_to_sign(b)

    def test_d14_alternative_vector(self):
        from cubick3.standard import E2, F2

        alt = _vec(RANK_GAMMA, {E2: 3, F2: -6, M1: 1, M2_IDX: -1})
        assert classify_nl_vector(alt) == (NLCase.INDEX_THREE, 14)
        a, b = eichler_invariants(nl_vector(14)), eichler_invariants(alt)
        assert a.same_up_to_sign(b)

    def test_divisibility_matches_case(self):
        # the two characterizations of the dichotomy are computed by
        # independent routes: saturation index vs pairing ideal
        import math
        import random

        from cubick3 import divisibility

        gamma = standard_lattice("Gamma")
        rng = random.Random(31)
        found = 0
        while found < 40:
            v = [rng.randint(-4, 4) for _ in range(RANK_GAMMA)]
            g = math.gcd(*(abs(e) for e in v))
            if g == 0:
                continue
            v = tuple(e // g for e in v)
            if gamma.square(v) >= 0:
                continue
            case, d = classify_nl_vector(v)
            div = divisibility(gamma, v)
            assert div in (1, 3)
            assert (div == 3) == (case is NLCase.INDEX_THREE)
            assert (case is NLCase.SATURATED) == (d % 6 == 0)
            assert eichler_invariants(v).disc_class == 0 or div == 3
            found += 1

    def test_disc_generator_is_the_smith_column(self):
        # the written-down generator 2 m1 + m2 against the Smith form of Gamma
        assert st._gamma_disc_generator() == disc_group(standard_lattice("Gamma")).columns[0]

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            eichler_invariants((0,) * RANK_GAMMA)

    def test_non_integral_rejected(self):
        for x in (0.5, float("inf"), float("-inf"), float("nan")):
            v = list(nl_vector(14))
            v[M1] = x
            with pytest.raises(InvalidNLVector, match="non-integral"):
                eichler_invariants(v)


M2_IDX = 21


class TestKdoo:
    # kdoo_index writes both witnesses down; the generic routes are the oracles
    SPECIAL = [d for d in range(2, 2_001, 2) if d % 6 in (0, 2)]

    def test_index_two(self):
        # verify's generic check: the involution preserves the Gram, fixes h2
        # and negates v_d
        for d in self.SPECIAL:
            if d % 6:
                continue
            idx, w = kdoo_index(d)
            assert idx == 2 and w.member is None and w.non_member is None, d
            assert vf._kdoo_holds(d, w), d

    def test_index_one(self):
        # (v_d - h2)/3 lies in the saturation K_d and (-v_d - h2)/3 does not,
        # by Hermite equality (verify's check) and by the rational-coefficient
        # oracle
        gbar = standard_lattice("Gammabar")
        for d in self.SPECIAL:
            if d % 6 == 0:
                continue
            idx, w = kdoo_index(d)
            assert idx == 1 and w.involution is None, d
            assert vf._kdoo_holds(d, w), d
            vbar = gamma_to_gammabar(nl_vector(d))
            satK, _ = lattice.saturation(lattice.span_sublattice(gbar, [st.H2, vbar]))
            assert oracles.contains(satK, w.member), d
            assert not oracles.contains(satK, w.non_member), d

    def test_verify_refutes_a_wrong_witness(self):
        # verify's kdoo.* checks compute, so a wrong witness fails them
        assert vf._kdoo_holds(12, kdoo_index(12)[1]) and vf._kdoo_holds(14, kdoo_index(14)[1])
        w = kdoo_index(14)[1]
        assert not vf._kdoo_holds(14, w._replace(member=w.non_member))
        assert not vf._kdoo_holds(14, w._replace(non_member=w.member))
        assert not vf._kdoo_holds(14, w._replace(member=None))
        w = kdoo_index(12)[1]
        # each fails one check: the identity keeps v_d, negating eps1 too
        # moves h2, and doubling the first basis vector changes the Gram
        for edits in ({st.E1: 1, st.F1: 1}, {st.EPS1: -1}, {0: 2}):
            rows = w.involution.to_lists()
            for i, e in edits.items():
                rows[i][i] = e
            bad = w._replace(involution=lattice.IntMatrix.from_rows(rows))
            assert not vf._kdoo_holds(12, bad), edits
        assert not vf._kdoo_holds(12, w._replace(involution=None))

    def test_runs_no_generic_route(self, monkeypatch):
        # kdoo_index and eichler_invariants compute no lattice: no saturation,
        # Hermite form, membership, Smith form or Gram product
        ds = [d for d in self.SPECIAL if d <= 200] + [2**61, 3 * 2**62]
        want = {d: (kdoo_index(d), eichler_invariants(nl_vector(d))) for d in ds}
        forbid(monkeypatch, "the closed form must not run the generic route",
               (st, "saturation"), (lattice, "saturation"), (lattice, "disc_group"),
               (lattice.Sublattice, "contains"), (la, "hnf_rows"), (la, "smith_normal_form"),
               (la, "sparse_gram_product"))
        for d in ds:
            assert (kdoo_index(d), eichler_invariants(nl_vector(d))) == want[d], d

    def test_dichotomy_sweep(self):
        for d in range(2, 61, 2):
            if d % 6 in (0, 2):
                assert kdoo_index(d)[0] == (2 if d % 6 == 0 else 1)


class TestBoundary:
    def test_d10(self):
        from cubick3.standard import E2, F2

        assert boundary_witnesses(10)[1] == _vec(22, {E1: 2, F1: 2, E2: 1, F2: -5})

    def test_d8_single(self):
        d0, d1 = boundary_witnesses(8)
        assert d1 is None
        assert standard_lattice("Lambda").square(d0) == -2

    def test_written_down_runs_no_lattice_check(self, monkeypatch):
        # the witnesses are written down; verify's delta.{d} checks prove them
        forbid(monkeypatch, "a written-down witness must not be re-checked",
               (lattice, "is_primitive"), (GramLattice, "pairing"), (GramLattice, "square"))
        for d in range(2, 2001, 2):
            _, d1 = boundary_witnesses(d)
            assert (d1 is not None) == (d // 2 % 4 == 1)


class TestGenus:
    def test_blocks_have_signature_1_2_to_2000(self):
        # genus_compare skips the signature comparison: B_d and U + <-d> are
        # both of signature (1, 2) at every special d
        for d in range(8, 2_001, 2):
            if d % 6 not in (0, 2):
                continue
            gamma_block = GramLattice.from_rows(st._gamma_block(d))
            # the trailing 3x3 block of the closed-form Gram of Gamma_d
            gram_G = hassett_triple(d).gram_Gamma_d.data
            assert tuple(row[-3:] for row in gram_G[-3:]) == st._gamma_block(d), d
            lambda_block = GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -d]])
            assert signature(gamma_block) == signature(lambda_block) == (1, 2, 0), d

    def test_disc_groups_match_generic_to_2000(self):
        # verify's check of the written-down groups of K_d and Gamma_d against
        # the Smith forms of the whole Grams, on every special d up to 2000,
        # d = 2 and 6 included
        ds = [d for d in range(2, 2_001, 2) if d % 6 in (0, 2)]
        assert ds[:2] == [2, 6] and 18 in ds and 1998 in ds
        for d in ds:
            rep = hassett_triple(d)
            K, Gd = GramLattice(rep.gram_K), GramLattice(rep.gram_Gamma_d)
            for L, dg in ((K, rep.disc_K), (Gd, rep.disc_Gamma_d)):
                generic = oracles.generic_disc_group(L.gram.data)
                assert vf._disc_holds(dg, L, generic.invariant_factors), d
                assert all(len(col) == L.rank and all(type(e) is int for e in col)
                           for col in dg.columns), d
            # K_d is odd: no discriminant quadratic form
            assert not K.is_even
            dg = rep.disc_Gamma_d
            assert all(0 <= a < 2 * n for a, n in zip(dg.q_numerators, dg.invariant_factors)), d
            form = oracles.DiscForm.of_group(Gd, dg)
            assert oracles.disc_forms_isomorphic(form, oracles.DiscForm.of(Gd)), d

    def test_far_beyond_the_old_search_cap(self):
        # 12002 = 2 * 17 * 353 with 17 = 2 (mod 3): not (**)
        assert genus_compare(12002) is False
        assert genus_compare(12006) is False  # 9 | 12006: not cyclic
        assert genus_compare(12014) is True  # 12014 = 2 * 6007, 6007 = 1 (mod 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 2 * 3 * 5 * 1033 * p, p the largest prime below psi_13, with
            # 9 not dividing it: the Legendre symbol at 3 decides it before
            # the odd trial division of the cofactor 1033 * p, which would
            # warn
            assert genus_compare(102795195564429710090956584870) is False


class TestHyperbolicSearch:
    """The oracle search that C10 runs: its box, its order and its empty case."""

    def test_documented_pair_is_valid(self):
        # the pair (lambda1 + e1 - f1, lambda2 - e1 + f1) passes the
        # postconditions, so the search space is nonempty at small bound
        lt = standard_lattice("LambdaTilde")
        e1, f1 = unit_vector(24, E1), unit_vector(24, F1)
        ep = tuple(a + b - c for a, b, c in zip(LAMBDA1, e1, f1))
        fp = tuple(a - b + c for a, b, c in zip(LAMBDA2, e1, f1))
        assert lt.square(ep) == 0 and lt.square(fp) == 0
        assert lt.pairing(ep, fp) == 1

    def test_determinism(self):
        e, f = unit_vector(24, E1), unit_vector(24, F1)
        assert oracles.find_hyperbolic_AT(e, f, 4) == oracles.find_hyperbolic_AT(e, f, 4)

    def test_bound_zero_exhausts(self):
        # the box of bound 0 holds only the zero vector
        assert oracles.find_hyperbolic_AT(unit_vector(24, E1), unit_vector(24, F1), 0) is None

