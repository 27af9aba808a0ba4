"""Property-based checks of the algebraic identities."""

import random

from hypothesis import given, settings, strategies as hyp

from cubick3 import (
    condition_flags,
    orthogonal_complement,
    saturation,
    signature,
    span_sublattice,
    witness_ss,
    witness_sss,
)
from cubick3 import intlinalg as la
from cubick3.lattice import IntMatrix, Sublattice, direct_sum, GramLattice, saturate_rows
from cubick3.standard import standard_lattice
import oracles
from limits import forbid, spy

even_d = hyp.integers(min_value=1, max_value=400).map(lambda k: 2 * k)


@given(even_d)
@settings(max_examples=60, deadline=None)
def test_witness_solvers_match_classifier(d):
    f = condition_flags(d)
    assert (witness_ss(d) is not None) == f.starstar
    assert (witness_sss(d) is not None) == f.starstarstar
    assert f.starstarstar <= f.starstar <= f.starstar_prime <= f.star


@given(hyp.integers(min_value=-40, max_value=40), hyp.integers(min_value=-40, max_value=40))
@settings(max_examples=80, deadline=None)
def test_a2_form_values_never_two_mod_three(x, y):
    # every represented half-value is 0 or 1 mod 3, which is why the chain
    # (**') => (*) holds
    v = x * x - x * y + y * y
    assert v % 3 != 2


@given(hyp.lists(hyp.sampled_from(["U", "A2", "A2m", "I03"]), min_size=1, max_size=3),
       hyp.lists(hyp.sampled_from([1, -1, 2]), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_direct_sum_signature_additive(names, scales):
    # each part's Gram scaled by t; t < 0 swaps its positive and negative counts
    scales = scales[: len(names)]
    parts = [
        GramLattice.from_rows([[t * e for e in row] for row in standard_lattice(n).gram.data])
        for n, t in zip(names, scales)
    ]
    total = signature(direct_sum(parts))
    expect = [0, 0, 0]
    for n, t in zip(names, scales):
        pos, neg, null = signature(standard_lattice(n))
        if t < 0:
            pos, neg = neg, pos
        expect[0] += pos
        expect[1] += neg
        expect[2] += null
    assert total == tuple(expect)


def _hermite_brute(rows):
    # canonical Hermite, restated: every row has a first nonzero entry, and
    # these pivots are positive, in strictly increasing columns, with every
    # entry above each of them in [0, pivot)
    pivots = []
    for row in rows:
        nonzero = [j for j, e in enumerate(row) if e != 0]
        if not nonzero:
            return None
        pivots.append(nonzero[0])
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        return None
    for i, j in enumerate(pivots):
        p = rows[i][j]
        if p <= 0 or any(rows[k][j] < 0 or rows[k][j] >= p for k in range(i)):
            return None
    return pivots


@given(
    hyp.integers(min_value=1, max_value=4),
    hyp.integers(min_value=1, max_value=6),
    hyp.sampled_from(["raw", "hermite"]),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_hermite_pivots_match_bruteforce(k, n, kind, seed):
    # random matrices, and canonical Hermite bases with one entry nudged
    # (which may or may not keep them canonical); the fixed point of
    # `hnf_rows` is a second restatement
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    if kind == "hermite":
        rows = la.hnf_rows(rows) or [[0] * n]
        i, j = rng.randrange(len(rows)), rng.randrange(n)
        rows[i][j] += rng.choice([-1, 0, 1])
    pivots = oracles.hermite_pivots(rows)
    assert pivots == _hermite_brute(rows)
    assert (pivots is not None) == (la.hnf_rows(rows) == rows)


def test_hermite_pivots_reject_near_misses():
    H = [[2, 1, 0, 4, 1], [0, 3, 0, 2, 0], [0, 0, 0, 5, 1]]
    assert oracles.hermite_pivots(H) == _hermite_brute(H) == [0, 1, 3]
    assert oracles.hermite_pivots([tuple(row) for row in H]) == [0, 1, 3]
    assert oracles.hermite_pivots([]) == []
    near_misses = {
        "entry above a pivot equal to it": [[2, 3, 0, 4, 1], H[1], H[2]],
        "entry above the last pivot equal to it": [H[0], [0, 3, 0, 5, 0], H[2]],
        "negative entry above a pivot": [[2, -1, 0, 4, 1], H[1], H[2]],
        "negative entry above the last pivot": [H[0], [0, 3, 0, -1, 0], H[2]],
        "negative pivot": [H[0], [0, -3, 0, 2, 0], H[2]],
        "negative first pivot": [[-2, 1, 0, 4, 1], H[1], H[2]],
        "zero row": [H[0], [0] * 5, H[2]],
        "zero last row": [H[0], H[1], H[2], [0] * 5],
        "repeated pivot column": [H[0], H[1], [0, 3, 0, 5, 1]],
        "decreasing pivot columns": [H[0], H[2], H[1]],
    }
    for name, rows in near_misses.items():
        assert oracles.hermite_pivots(rows) is None, name
        assert _hermite_brute(rows) is None, name
        assert la.hnf_rows(rows) != rows, name


def test_complement_saturation_returns_the_complement(monkeypatch):
    # a complement is marked saturated where it is built: re-saturating it
    # returns the same object at index 1 and runs no echelon, no
    # `hnf_rows` and no transform
    for amb, rows in oracles.c11_sample():
        comp = orthogonal_complement(amb, rows)
        with monkeypatch.context() as m:
            forbid(m, "a complement runs no reduction", *((la, name) for name in (
                "row_echelon", "row_echelon_transform", "hnf_rows")))
            sat, idx = saturation(comp)
        assert idx == 1 and sat is comp


def test_saturation_marker(monkeypatch):
    # saturations, saturate_rows results and complements come back as
    # themselves; a rebuilt copy with an equal basis is computed again; the
    # marker is invisible to ==, repr and hash and lost by replace
    amb = standard_lattice("Gammabar")
    rows = [[1, 2, 0] + [0] * 19 + [3], [0, 0, 4] + [0] * 19 + [1]]
    built = {
        "saturation": saturation(span_sublattice(amb, rows))[0],
        "saturate_rows": saturate_rows(amb, rows + [[a + b for a, b in zip(*rows)]]),
        "complement": orthogonal_complement(amb, rows),
    }
    calls = spy(monkeypatch, la, "row_echelon_transform")
    for name, X in built.items():
        calls.clear()
        sat, idx = saturation(X)
        assert sat is X and idx == 1 and calls == [], name
        copy = Sublattice(amb, X.basis)
        sat, idx = saturation(copy)
        assert sat is not copy and sat.basis == X.basis and idx == 1, name
        assert len(calls) == 1, name
        assert copy == X and repr(copy) == repr(X) and hash(copy) == hash(X), name
        replaced = X._replace()
        assert replaced == X, name
        calls.clear()
        assert saturation(replaced)[0] is not replaced and len(calls) == 1, name
    # a scaled Hermite basis of index > 1 runs one transform, not two routes
    rows = la.hnf_rows([[3 * e for e in rows[0]], rows[1]])
    assert oracles.hermite_pivots(rows) is not None
    S = Sublattice(amb, IntMatrix.from_rows(rows))
    calls.clear()
    sat, idx = saturation(S)
    assert len(calls) == 1
    assert idx == 3 and (sat, idx) == oracles.saturation(S)
