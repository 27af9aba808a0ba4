"""The sparse and integer kernels of the lattice path, against the dense Fraction routes in `oracles`."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as hyp

from cubick3 import GramLattice, hassett_triple, signature, span_sublattice
from cubick3 import intlinalg as la
from cubick3.standard import lambda_d_lattice
import oracles
from oracles import DiscForm
from shapes import booleans, integers, matrices, vectors

# mostly zeros, like the Gram matrices of the standard lattices
SPARSE_INTS = hyp.sampled_from([0, 0, 0, 0, 0, -3, -2, -1, 1, 2, 3, 7])


@hyp.composite
def _fractions(draw):
    # hyp.fractions(-4, 4, max_denominator=6), which draws the denominator,
    # then the numerator from a strategy that flatmap builds anew each draw
    d = draw(integers(1, 6))
    return Fraction(draw(integers(-4 * d, 4 * d)), d)


FRACTIONS = hyp.one_of(hyp.just(Fraction(0)), _fractions())
ENTRIES = hyp.sampled_from([SPARSE_INTS, FRACTIONS])
SPECIAL_D = [d for d in range(8, 201, 2) if d % 6 in (0, 2)]


def _matrix(data, m, n, entries):
    rows = data.draw(matrices(m, n, entries))
    if rows and data.draw(booleans):
        rows[data.draw(integers(0, m - 1))] = [0] * n
    return rows


def _symmetric(data, n, entries, zero_diagonal=False):
    # the diagonal, then the strict lower triangle row by row, each drawn whole
    G = [[0] * n for _ in range(n)]
    if not zero_diagonal:
        for i, e in enumerate(data.draw(vectors(n, entries))):
            G[i][i] = e
    below = iter(data.draw(vectors(n * (n - 1) // 2, entries)))
    for i in range(n):
        for j in range(i):
            G[i][j] = G[j][i] = next(below)
    return G


@given(hyp.data())
@settings(max_examples=100, deadline=None)
def test_gram_products_match_dense(data):
    n = data.draw(integers(1, 7))
    k = data.draw(integers(0, 5))
    entries = data.draw(ENTRIES)
    G = _symmetric(data, n, entries)
    B = _matrix(data, k, n, entries)
    S = la.sparse_rows(G)
    assert la.sparse_gram_product(B, S) == oracles.gram_product(B, G)
    u = data.draw(vectors(n, entries))
    v = data.draw(vectors(n, entries))
    assert la.pairing(S, u, v) == oracles.pairing(G, u, v)
    assert la.sparse_mat_vec(S, v) == la.mat_vec(G, v)


def test_products_of_empty_inputs():
    assert la.sparse_gram_product([], la.sparse_rows([[2]])) == oracles.gram_product([], [[2]]) == []
    assert la.sparse_rows([[0, 0], [0, 3]]) == [[], [(1, 3)]]


def _check_disc_form(L):
    dg = oracles.generic_disc_group(L.gram.data)
    q_values = tuple(Fraction(a, n) for a, n in zip(dg.q_numerators, dg.invariant_factors))
    assert q_values == oracles.q_values(L)
    assert DiscForm.of(L).pair_table == oracles.pair_table(L)


@given(hyp.data())
@settings(max_examples=150, deadline=None)
def test_disc_form_values_match_fraction_route(data):
    n = data.draw(integers(1, 6))
    G = _symmetric(data, n, SPARSE_INTS, zero_diagonal=True)
    for i, e in enumerate(data.draw(vectors(n, integers(-4, 4)))):
        G[i][i] = 2 * e
    L = GramLattice.from_rows(G)
    assume(L.det != 0)
    _check_disc_form(L)


def test_disc_form_values_of_gamma_d_and_lambda_d():
    for d in SPECIAL_D:
        _check_disc_form(GramLattice(hassett_triple(d).gram_Gamma_d))
        _check_disc_form(lambda_d_lattice(d))


@given(hyp.data())
@settings(max_examples=300, deadline=None)
def test_signature_matches_dense_elimination(data):
    n = data.draw(integers(1, 8))
    G = _symmetric(data, n, SPARSE_INTS, zero_diagonal=data.draw(booleans))
    sig = signature(GramLattice.from_rows(G))
    assert sig == oracles.signature(G)
    assert sig[2] == n - la.rank_int(G)


@given(hyp.data())
@settings(max_examples=300, deadline=None)
def test_contains_matches_rational_back_substitution(data):
    n = data.draw(integers(1, 6))
    k = data.draw(integers(1, n))
    rows = data.draw(matrices(k, n, integers(-4, 4)))
    assume(la.rank_int(rows) == k)
    S = span_sublattice(GramLattice.from_rows(la.identity(n)), rows)
    coeffs = data.draw(vectors(k, integers(-3, 3)))
    member = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    noise = data.draw(vectors(n, integers(-2, 2)))
    den = data.draw(integers(1, 4))
    candidates = [
        member,
        [a + b for a, b in zip(member, noise)],
        [Fraction(a + b, den) for a, b in zip(member, noise)],
        [Fraction(den * a, den) for a in member],
    ]
    assert S.contains(member)
    for v in candidates:
        assert S.contains(v) == oracles.contains(S, v)
