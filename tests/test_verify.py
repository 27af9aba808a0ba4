"""The verify suite itself: green on a sound build, red on a corrupted one."""

from fractions import Fraction

import pytest

from cubick3 import InvalidDegree
from cubick3 import mukai as mk
from cubick3 import verify as vf
import oracles


def test_run_all_green():
    s = vf.run_all(genus_max=30)
    assert s.ok
    assert s.checks_run > 60
    assert s.failures == ()


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


@pytest.mark.parametrize("genus_max", [-5, 0, 7])
def test_genus_max_below_8_rejected(genus_max):
    # an empty sweep must not report its checks as passed
    with pytest.raises(InvalidDegree):
        vf.run_all(genus_max=genus_max)


def test_chain_check_in_suite():
    ids = [c["id"] for c in vf.run_all(genus_max=8).to_json()["checks"]]
    assert "chain.sss_implies_ss.to8" in ids
    assert ids.index("chain.sss_implies_ss.to8") == ids.index("genus.matches_ss.to8") + 1
