"""The verify suite itself: green on a sound build, red on a corrupted one."""

import types
from collections import Counter
from fractions import Fraction

import pytest

import cubick3
from cubick3 import conditions as cond
from cubick3 import mukai as mk
from cubick3 import standard as st
from cubick3 import verify as vf
from cubick3.lattice import IntMatrix
import oracles


def test_summary_json_shape():
    s = vf.run_all(genus_max=20)
    obj = s.to_json()
    assert obj["checks_run"] == s.checks_run
    assert obj["failures"] == []
    ids = [c["id"] for c in obj["checks"]]
    assert len(ids) == len(set(ids))  # stable unique ids
    assert "pairing.w0.w2" in ids


def test_detects_corrupted_w2(monkeypatch):
    # populate the memoized clean values first so the corruption cannot leak
    mk.characteristic_classes()
    mk.lambda_vectors()
    mk.mukai_set()
    real = mk.mukai_vector_line

    def corrupted(k):
        c = real(k)
        if k == 2:
            cs = list(c.coeffs)
            cs[2] = Fraction(132, 32)
            return mk.CohClass(tuple(cs))
        return c

    monkeypatch.setattr(mk, "mukai_vector_line", corrupted)
    s = vf.run_all(genus_max=20)
    failing = {c.check_id for c in s.failures}
    assert {"pairing.w0.w2", "pairing.w1.w2", "pairing.w2.w2"} <= failing
    assert not s.ok


def test_genus_search_cap():
    # the cap lives in the brute-force oracle only; the library has none
    with pytest.raises(oracles.SearchCapExceeded):
        oracles.genus_compare(62, cap=10)


def test_chain_check_in_suite():
    ids = [c["id"] for c in vf.run_all(genus_max=8).to_json()["checks"]]
    assert "chain.sss_implies_ss.to8" in ids
    assert ids.index("chain.sss_implies_ss.to8") == ids.index("genus.matches_ss.to8") + 1


@pytest.fixture(scope="module")
def sweep_600():
    # one run_all(600) serves the two tests below. The genus and chain checks
    # share one flag computation per d; the counter sees the calls of verify
    # itself, not those inside cond.table.
    calls = Counter()

    def counted(d):
        calls[d] += 1
        return cond.condition_flags(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "cond", types.SimpleNamespace(**{**vars(cond), "condition_flags": counted}))
        summary = vf.run_all(genus_max=600)
    return summary, calls, st.hassett_triple.cache_info().currsize


def test_sweep_runs_condition_flags_once_per_d(sweep_600):
    summary, calls, _ = sweep_600
    assert summary.ok
    assert calls == Counter(d for d in range(8, 601, 2) if d % 6 in (0, 2))


def test_sweep_keeps_at_most_one_report(sweep_600):
    summary, _, reports = sweep_600
    assert summary.ok
    assert reports <= 1


def test_sweep_exception_is_itemized(monkeypatch):
    real = vf._nl_failures

    def broken(d):
        if d == 14:
            raise RuntimeError("broken at 14")
        return real(d)

    monkeypatch.setattr(vf, "_nl_failures", broken)
    s = vf.run_all(genus_max=30)
    assert [c.check_id for c in s.failures] == ["sweep.exception"]
    assert "broken at 14" in s.failures[0].actual
    ids = [c.check_id for c in s.checks]
    assert not [i for i in ids if i.startswith(("nl.", "genus.", "chain."))]
    for block in ("delta.", "kdoo.", "pell.", "hyperbolic."):
        assert any(i.startswith(block) for i in ids), block


def _doubled(g):
    return tuple(2 * x for x in g)


@pytest.mark.parametrize(
    "d, field, mutate, tag",
    [
        # a generator of order 7 in place of one of order 14
        pytest.param(14, "disc_K", lambda g: g._replace(columns=(_doubled(g.columns[0]),)),
                     "discK", id="K-order"),
        pytest.param(14, "disc_K", lambda g: g._replace(q_numerators=(3,)),
                     "discK", id="K-odd-with-q"),
        # q + 1: the numerator plus its denominator 14
        pytest.param(14, "disc_Gamma_d",
                     lambda g: g._replace(q_numerators=(g.q_numerators[0] + 14,)),
                     "discGamma", id="Gamma-q"),
        # (4, 8, 1)/12 has order 12 but pairs to 1/3 with the block <4>
        pytest.param(12, "disc_Gamma_d",
                     lambda g: g._replace(columns=(g.columns[0][:20] + (1,),)),
                     "discGamma", id="Gamma-not-dual"),
        # Z/18 in place of Z/3 + Z/6
        pytest.param(18, "disc_Gamma_d", lambda g: g._replace(invariant_factors=(18,)),
                     "discGamma", id="Gamma-factors"),
        pytest.param(18, "v_square", lambda v: v + 1, "vsquare", id="v-square"),
    ],
)
def test_nl_oracle_refutes_a_wrong_disc_group(monkeypatch, d, field, mutate, tag):
    rep = st.hassett_triple.__wrapped__(d)
    bad = rep._replace(**{field: mutate(getattr(rep, field))})
    monkeypatch.setattr(st, "hassett_triple", lambda _: bad)
    assert vf._nl_failures(d) == [tag]


def _sqrt_todd_off_by_one(cc):
    # 122/6144 in place of 121/6144
    return cc._replace(sqrt_todd=mk.CohClass.of(*cc.sqrt_todd.coeffs[:4], Fraction(122, 6144)))


def _vlambda1_off_by_one(vl):
    # 43/2048 in place of 41/2048
    return mk.CohClass.of(*vl[0].coeffs[:4], Fraction(43, 2048)), vl[1]


def _delta1_off_at_10(deltas, d):
    # f1 coefficient 3 in place of (d/2 - 1)/2 = 2, of square 2
    if d != 10:
        return deltas
    return deltas[0], st._vec(st.RANK_LAMBDA, {st.E1: 2, st.F1: 3, st.E2: 1, st.F2: -5})


def _membership_swapped_at_14(kdoo, d):
    if d != 14:
        return kdoo
    idx, w = kdoo
    return idx, w._replace(member=w.non_member, non_member=w.member)


@pytest.mark.parametrize(
    "module, name, mutate, check_id",
    [
        pytest.param(st, "canonical_embedding_report",
                     lambda rep: rep._replace(fano_sublattice_abs_det=19),
                     "embedding.fano_sublattice_abs_det", id="fano-det"),
        pytest.param(mk, "characteristic_classes", _sqrt_todd_off_by_one,
                     "sqrt_td.coeffs", id="sqrt-todd"),
        # the Todd class has no check of its own: the square of the checked
        # root pins it
        pytest.param(mk, "characteristic_classes",
                     lambda cc: cc._replace(todd=cc.todd + mk.CohClass.of(0, 0, 1, 0, 0)),
                     "sqrt_td.square", id="todd"),
        pytest.param(mk, "lambda_vectors", _vlambda1_off_by_one, "vlambda1.coeffs",
                     id="vlambda1"),
        pytest.param(mk, "a2_mukai_gram", lambda g: IntMatrix(((2, -1), (-1, 3))),
                     "a2gram.mukai", id="a2-gram"),
        pytest.param(st, "boundary_witnesses", _delta1_off_at_10, "delta.10", id="delta1"),
        pytest.param(st, "kdoo_index", _membership_swapped_at_14, "kdoo.14.membership",
                     id="kdoo-membership"),
        # isotropic, of pairing 1 and rank 3 with A2, but outside the
        # saturation of A2 + span(e1, f1)
        pytest.param(vf, "hyperbolic_pairs", lambda p: {**p, "e1f1": p["e4f4"]},
                     "hyperbolic.e1f1", id="hyperbolic-e1f1"),
    ],
)
def test_verify_refutes_a_wrong_written_down_value(monkeypatch, module, name, mutate, check_id):
    # verify derives each written-down value, so it is no constant compared with itself
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: mutate(real(*args), *args))
    s = vf.run_all(genus_max=8)
    assert check_id in {c.check_id for c in s.failures}


def test_code_only_verify_uses_lives_in_verify():
    removed = ("find_hyperbolic_AT", "a2_bruteforce", "InvalidBound", "NotHyperbolicPair",
               "SearchExhausted")
    assert [name for name in removed if hasattr(cubick3, name)] == []
    moved = ("find_hyperbolic_AT", "closed_form_bases", "gamma_to_lambdatilde", "a2_bruteforce",
             "series_inverse", "series_sqrt")
    assert [(m.__name__, name) for m in (st, cond, mk) for name in moved if hasattr(m, name)] == []
