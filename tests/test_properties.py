"""Property-based checks of the algebraic identities."""

import random

import pytest
from hypothesis import given, settings, strategies as hyp

from cubick3 import (
    DependentGenerators,
    a2_represents,
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
from cubick3.verify import a2_bruteforce
import oracles
from oracles import saturation_index

even_d = hyp.integers(min_value=1, max_value=400).map(lambda k: 2 * k)


@given(even_d)
@settings(max_examples=120, deadline=None)
def test_a2_oracle_equivalence(d):
    sols = a2_bruteforce(d)
    assert a2_represents(d, False) == bool(sols)
    assert a2_represents(d, True) == any(p for _, _, p in sols)


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


def _random_independent(rng, amb, k):
    while True:
        rows = [
            tuple(rng.randint(-5, 5) for _ in range(amb.rank)) for _ in range(k)
        ]
        if la.rank_int([list(r) for r in rows]) == k:
            return rows


def _mixed(rng, rows):
    # T * rows for a random nonsingular k x k matrix T, which puts |det T| into the index
    k = len(rows)
    while True:
        T = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if oracles.det_bareiss(T):
            return oracles.matmul(T, [list(r) for r in rows])


def test_double_complement_is_saturation():
    # in a nondegenerate ambient, the complement of the complement recovers
    # exactly the saturation, even for degenerate sublattices
    rng = random.Random(7)
    for i in range(40):
        amb = standard_lattice("LambdaTilde" if i % 2 else "Gammabar")
        k = rng.randint(1, 3)
        rows = _random_independent(rng, amb, k)
        sat, _ = saturation(span_sublattice(amb, rows))
        double = orthogonal_complement(
            amb, orthogonal_complement(amb, rows).basis.to_lists()
        )
        assert double.basis == sat.basis


@given(
    hyp.sampled_from(["Gammabar", "LambdaTilde"]),
    hyp.integers(min_value=1, max_value=4),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_saturation_index_matches_coefficient_oracle(name, k, seed):
    # mixing independent rows by a random nonsingular k x k matrix T puts a
    # factor |det T| into the index, so nontrivial indices are common
    rng = random.Random(seed)
    amb = standard_lattice(name)
    S = span_sublattice(amb, _mixed(rng, _random_independent(rng, amb, k)))
    sat, idx = saturation(S)
    assert idx == saturation_index(S, sat)
    assert S.det == idx * idx * sat.det


@given(
    hyp.sampled_from(["Gammabar", "LambdaTilde"]),
    hyp.integers(min_value=1, max_value=4),
    hyp.sampled_from(["independent", "dependent", "zero"]),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_saturation_matches_double_kernel_oracle(name, k, kind, seed):
    # the one-echelon saturation against the double-kernel route with the
    # pivot-quotient index; "dependent" appends a combination of the rows,
    # "zero" is k all-zero rows
    rng = random.Random(seed)
    amb = standard_lattice(name)
    if kind == "zero":
        rows = [[0] * amb.rank for _ in range(k)]
    else:
        rows = _mixed(rng, _random_independent(rng, amb, k))
        if kind == "dependent":
            c = [rng.randint(-3, 3) for _ in range(k)]
            rows.append(oracles.matmul([c], rows)[0])
    assert saturate_rows(amb, rows) == oracles.saturate_rows(amb, rows)
    S = Sublattice(amb, IntMatrix.from_rows(rows))
    if kind == "independent":
        assert saturation(S) == oracles.saturation(S)
    else:
        for route in (saturation, oracles.saturation):
            with pytest.raises(DependentGenerators):
                route(S)


@given(
    hyp.integers(min_value=1, max_value=4),
    hyp.integers(min_value=0, max_value=20),
    hyp.sampled_from(["sparse", "scaled", "dense"]),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_suffix_saturation_matches_oracle(k, extra, kind, seed):
    # saturation echelons a short suffix of the coordinates and grows it on
    # an inexact solve.  "sparse" rows are mostly zero, so few coordinates
    # are left and the suffix is often all of them; "scaled" multiplies the
    # last k + 3 coordinates by 2 or 3, so the first suffix spans too little
    # and must grow, and one generator too, for an index above 1; "dense"
    # rows are like the C11 sample's
    rng = random.Random(seed)
    n = k + extra
    amb = GramLattice.from_rows(la.identity(n))
    entries = [0] * 8 + [-2, -1, 1, 2, 3] if kind == "sparse" else range(-5, 6)
    while True:
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(k)]
        if la.rank_int(rows) == k:
            break
    if kind == "scaled":
        f, tail = rng.choice([2, 3]), max(n - k - 3, 0)
        for row in rows:
            row[tail:] = [f * e for e in row[tail:]]
        i = rng.randrange(k)
        rows[i] = [f * e for e in rows[i]]
    S = Sublattice(amb, IntMatrix.from_rows(rows))
    assert saturation(S) == oracles.saturation(S)
    assert saturate_rows(amb, rows) == oracles.saturate_rows(amb, rows)


@given(
    hyp.sampled_from(["Gammabar", "LambdaTilde"]),
    hyp.integers(min_value=1, max_value=4),
    hyp.sampled_from(["independent", "dependent", "zero row", "zero"]),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_saturation_of_generators_on_a_coordinate_support(name, k, kind, seed):
    # the echelon of S^T runs only on the coordinates where some generator
    # is nonzero.  Here the generators vanish off a random support of at
    # least k coordinates, so that the echelon drops rows of S^T.  Both
    # routes must agree with the oracles, and the saturation of the rows
    # padded by zeros must be the padded saturation in the lattice on the
    # support, with the same index.  "dependent" appends a combination of
    # the rows, "zero row" an all-zero row, and "zero" is k all-zero rows
    rng = random.Random(seed)
    amb = standard_lattice(name)
    support = sorted(rng.sample(range(amb.rank), rng.randint(k, amb.rank)))
    G = amb.gram.data
    small = GramLattice.from_rows([[G[i][j] for j in support] for i in support])
    if kind == "zero":
        short = [[0] * len(support) for _ in range(k)]
    else:
        short = _mixed(rng, _random_independent(rng, small, k))
        if kind == "dependent":
            c = [rng.randint(-3, 3) for _ in range(k)]
            short.append(oracles.matmul([c], short)[0])
        elif kind == "zero row":
            short.insert(rng.randint(0, k), [0] * len(support))

    def pad(row):
        full = [0] * amb.rank
        for c, e in zip(support, row):
            full[c] = e
        return full

    def padded(sub):
        return [pad(r) for r in sub.basis.data]

    rows = [pad(r) for r in short]
    sat = saturate_rows(amb, rows)
    assert sat == oracles.saturate_rows(amb, rows)
    assert sat.basis.to_lists() == padded(saturate_rows(small, short))
    S = Sublattice(amb, IntMatrix.from_rows(rows))
    if kind == "independent":
        (sat, idx), (part, part_idx) = saturation(S), saturation(span_sublattice(small, short))
        assert (sat, idx) == oracles.saturation(S)
        assert sat.basis.to_lists() == padded(part) and idx == part_idx
    else:
        for route in (saturation, oracles.saturation):
            with pytest.raises(DependentGenerators):
                route(S)


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


def _unit_pivot_basis(rng, n, k, last_pivot):
    # a canonical Hermite basis with pivots 1, except a last pivot of
    # last_pivot: zeros left of each pivot and, above a unit pivot, in its
    # column; entries above the last pivot in [0, last_pivot)
    cols = sorted(rng.sample(range(n), k))
    rows = []
    for i, c in enumerate(cols):
        row = [0] * n
        for j in range(c + 1, n):
            if j not in cols:
                row[j] = rng.randint(-4, 4)
        row[c] = 1
        rows.append(row)
    rows[-1][cols[-1]] = last_pivot
    for row in rows[:-1]:
        row[cols[-1]] = rng.randrange(last_pivot)
    return rows


@given(
    hyp.sampled_from(["Gammabar", "LambdaTilde"]),
    hyp.integers(min_value=1, max_value=4),
    hyp.sampled_from(["hnf", "scaled", "unit", "last"]),
    hyp.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=120, deadline=None)
def test_saturation_of_hermite_bases_matches_oracle(name, k, kind, seed):
    # canonical Hermite bases built by the caller carry no saturation
    # marker and run the echelon like any basis: "hnf" is the Hermite basis
    # of random rows (mostly index 1), "scaled" the Hermite basis after one
    # of its rows is scaled by 2 or 3 (index > 1), "unit" has every pivot 1
    # (index 1), and "last" has one non-unit pivot, the last, of 2, 3 or 6
    rng = random.Random(seed)
    amb = standard_lattice(name)
    if kind in ("hnf", "scaled"):
        rows = la.hnf_rows([list(r) for r in _random_independent(rng, amb, k)])
        if kind == "scaled":
            i, f = rng.randrange(k), rng.choice([2, 3])
            rows[i] = [f * e for e in rows[i]]
            rows = la.hnf_rows(rows)
    else:
        rows = _unit_pivot_basis(rng, amb.rank, k, 1 if kind == "unit" else rng.choice([2, 3, 6]))
    assert oracles.hermite_pivots(rows) is not None
    S = Sublattice(amb, IntMatrix.from_rows(rows))
    sat, idx = saturation(S)
    assert (sat, idx) == oracles.saturation(S)
    if kind == "scaled":
        assert idx > 1
    if kind == "unit":
        assert idx == 1
    if idx == 1:
        assert sat.basis == S.basis


def test_complement_saturation_returns_the_complement(monkeypatch):
    # a complement is marked saturated where it is built: re-saturating it
    # returns the same object at index 1 and runs no echelon, no
    # `hnf_rows` and no transform
    def forbidden(name):
        def wrapper(*args):
            raise AssertionError(f"{name} called")
        return wrapper

    for amb, rows in oracles.c11_sample():
        comp = orthogonal_complement(amb, rows)
        with monkeypatch.context() as m:
            for name in ("row_echelon", "row_echelon_transform", "hnf_rows"):
                m.setattr(la, name, forbidden(name))
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
    echelon = la.row_echelon_transform
    calls = []

    def tracked(A):
        calls.append(len(A))
        return echelon(A)

    monkeypatch.setattr(la, "row_echelon_transform", tracked)
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


@given(hyp.integers(min_value=2, max_value=120))
@settings(max_examples=40, deadline=None)
def test_signature_matches_rational_diagonalization(seed):
    # against the characteristic polynomial read by Descartes' rule of signs
    # (`oracles.signature_descartes`), which shares no step with an
    # elimination; a third of the matrices have a zero diagonal, where the
    # kernel's first pivot takes a congruence
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-4, 4)
    if seed % 3 == 0:
        for i in range(n):
            A[i][i] = 0
    L = GramLattice.from_rows(A)
    assert signature(L) == oracles.signature_descartes(A) == oracles.signature(A)
    assert L.det == oracles.det_bareiss(A)
