"""The sparse and integer kernels of the lattice path, against the dense Fraction routes in `oracles`."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as hyp

from cubick3 import GramLattice, signature
from cubick3 import intlinalg as la
import differential as dt
import oracles
from shapes import booleans, integers, matrices, permutations, vectors

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


@given(hyp.data())
@settings(max_examples=150, deadline=None)
def test_disc_form_values_match_fraction_route(data):
    n = data.draw(integers(1, 6))
    G = _symmetric(data, n, SPARSE_INTS, zero_diagonal=True)
    for i, e in enumerate(data.draw(vectors(n, integers(-4, 4)))):
        G[i][i] = 2 * e
    L = GramLattice.from_rows(G)
    assume(L.det != 0)
    assert dt.disc_form(L) == dt.disc_form_oracle(L)


def _hyperbolic_sum(data, n):
    # planes b U and 1x1 blocks down the diagonal, in a shuffled basis
    G = [[0] * n for _ in range(n)]
    planes, values = data.draw(vectors(n, booleans)), data.draw(vectors(n, SPARSE_INTS))
    i = 0
    while i < n:
        if planes[i] and i + 1 < n:
            G[i][i + 1] = G[i + 1][i] = values[i] or 1
            i += 2
        else:
            G[i][i] = values[i]
            i += 1
    p = data.draw(permutations(tuple(range(n))))
    return [[G[a][b] for b in p] for a in p]


@given(hyp.data())
@settings(max_examples=300, deadline=None)
def test_signature_matches_dense_elimination(data):
    n = data.draw(integers(1, 8))
    if data.draw(booleans):
        G = _hyperbolic_sum(data, n)
    else:
        G = _symmetric(data, n, SPARSE_INTS, zero_diagonal=data.draw(booleans))
    # a zeroed row and column, or one repeated as another: a singular Gram
    defect = data.draw(integers(0, 2))
    i, k = data.draw(integers(0, n - 1)), data.draw(integers(0, n - 1))
    old = [row[:] for row in G]
    for t in range(n) if defect else ():
        G[k][t] = G[t][k] = 0 if defect == 1 else old[i][i if t == k else t]
    sig = signature(GramLattice.from_rows(G))
    assert sig == oracles.signature(G)
    assert sig[2] == n - la.rank_int(G)
