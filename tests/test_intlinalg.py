"""The elimination kernels, checked against independent dense-rational oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cubick3 import intlinalg as la
from cubick3.lattice import GramLattice, saturate_rows
import differential as dt
import oracles
from oracles import det_bareiss, frac_inv, matmul, solve_rational
from limits import spy


def minors_gcd(A, k):
    # gcd of all k x k minors; d_1 * ... * d_k of the Smith form equals this
    m, n = len(A), len(A[0])
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[A[i][j] for j in cols] for i in rows]
            g = math.gcd(g, abs(det_bareiss(sub)))
    return g


def _det(G):
    return la.inertia(G)[3]


def test_det_empty_and_singular():
    assert _det([]) == 1
    assert _det([[2, 4], [4, 8]]) == 0
    assert _det([[0, 1], [1, -2]]) == -1  # a zero pivot: a congruence with t = -1
    assert _det([[-3]]) == -3  # one negative pivot
    assert _det([[1, 1, 2], [1, 1, 2], [2, 2, 1]]) == 0  # repeated row and column


# mostly zeros, with entries prime to each other and to the small pivots
RIDING_ENTRIES = (0, 0, 0, -7, -3, -2, -1, 1, 2, 3, 5, 12)


def test_row_echelon_transform_properties():
    # U A = H with U unimodular and H in echelon form; m and n run from 0 to
    # 5, with entries from [-5, 5] or from RIDING_ENTRIES
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        entries = rng.choice((range(-5, 6), RIDING_ENTRIES))
        A = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        H, U, r = la.row_echelon_transform(A)
        assert matmul(U, A) == H
        assert abs(det_bareiss(U)) == 1
        assert all(not any(H[i]) for i in range(r, m))
        pivots = [next(j for j in range(n) if row[j]) for row in H[:r]]
        assert pivots == sorted(pivots) and len(set(pivots)) == r


def test_riding_columns_come_back_multiplied_by_the_transform():
    # the columns past n take every row operation, so [A | X] -> [H | U X],
    # and the identity rides along as the transform itself.  m, n and X's
    # width p run from 0 to 5, with entries from RIDING_ENTRIES
    rng = random.Random(12)
    for _ in range(150):
        m, n, p = (rng.randint(0, 5) for _ in range(3))
        A, X = ([[rng.choice(RIDING_ENTRIES) for _ in range(w)] for _ in range(m)] for w in (n, p))
        H, U, r = la.row_echelon_transform(A)
        assert la.row_echelon([a + x for a, x in zip(A, X)], n) == (
            [h + ux for h, ux in zip(H, matmul(U, X))], r)
        assert la.row_echelon([a + e for a, e in zip(A, la.identity(m))], n) == (
            [h + u for h, u in zip(H, U)], r)


def test_empty_dimensions():
    assert la.smith_normal_form([]) == ([], [])
    assert la.smith_normal_form([[], []]) == ([], [])
    assert la.smith_normal_form([[0], [0]]) == ([0], [[1]])
    assert la.rank_int([[]]) == 0
    assert la.hnf_rows([[]]) == []
    assert la.left_kernel([[], []]) == [[1, 0], [0, 1]]
    assert la.row_echelon_transform([[], []]) == ([[], []], [[1, 0], [0, 1]], 0)


# The written-down inputs of `left_kernel`, which walks the rows of A, each
# commented with the path it takes on the schedule of
# `intlinalg.suffix_starts` (`oracles.suffix_path`).  The echelons each one
# expects are read off `oracles.suffix_echelons`, so no expectation here
# names a suffix length
KERNEL_CASES = [
    [[], [], [], []],  # first suffix: k = 0, the kernel Z^4 from a three-row suffix
    [[1, 2, 3], [4, 5, 6]],  # no suffix: m <= k, the whole of A at once
    [[1], [2], [3], [4]],  # no suffix: m = k + 3, the whole of A at once
    [[0, 0]] * 6,  # all rows: rank 0 < k sends j0 to 0
    [[1, 2], [2, 4], [3, 6], [-1, -2], [5, 10], [4, 8]],  # all rows: rank deficient
    [[1, 0], [0, 0], [0, 1], [0, 0], [1, 0], [0, 1], [0, 0]],  # first suffix: zero rows
    [[1], [2], [2], [2], [4], [6]],  # all rows: 1 is outside 2Z, one row more, then all of A
    # first suffix: T = [[1, 1, -1, 0], [0, 3, -2, 0], [0, 0, 0, 1]] has the pivot 3
    [[4], [1], [2], [3], [0]],
    # grown suffix: the first spans the pairs of even sum, index 2, without [1, 0]
    [[3, 1], [1, 0], [2, 0], [0, 2], [1, 1], [4, 2], [2, 2]],
]


@pytest.mark.parametrize("A, suffixes", [(A, oracles.suffix_echelons(A, True)) for A in KERNEL_CASES])
def test_left_kernel_suffix_lengths(monkeypatch, A, suffixes):
    # the echelons run in turn (a spy on `row_echelon`), and the kernel
    # against the oracle
    want = oracles.left_kernel(A)
    seen = spy(monkeypatch, la, "row_echelon")
    assert la.left_kernel(A) == want
    assert seen == suffixes


def test_left_kernel_suffixes_on_c11_sample(monkeypatch):
    # the echelons `left_kernel` runs on the pairing matrices G * W^T that
    # `orthogonal_complement` hands it, on the C11 sample of both ambients,
    # whose kernels the row left_kernel.c11 compares with the oracle.  Every
    # input accepts a suffix: the first on some, a grown one on others
    paths = set()
    for A in dt.draw("c11_pairings", 200, *dt.C11):
        with monkeypatch.context() as m:
            seen = spy(m, la, "row_echelon")
            la.left_kernel(A)
        assert seen == oracles.suffix_echelons(A, True)
        paths.add(oracles.suffix_path(A, len(A[0])))
    assert paths == {"first suffix", "grown suffix"}


def test_echelon_solve_exact():
    # z_0 = (6, -3) / 3 and z_1 = ((5, 1) - 2 * z_0) / 1; the column without
    # a pivot is not read
    H = [[3, 2, 7], [0, 1, 4]]
    assert la.echelon_solve(H, [0, 1], [[6, -3], [5, 1], [99, 99]]) == [[2, -1], [1, 3]]


def test_echelon_solve_inexact_division_is_none():
    # (5, 1) - 2 * (2, -1) = (1, 3) is not divisible by the pivot 2
    assert la.echelon_solve([[3, 2], [0, 2]], [0, 1], [[6, -3], [5, 1]]) is None
    # one coordinate with a remainder is enough
    assert la.echelon_solve([[2]], [0], [[4, 6, 7]]) is None


def test_echelon_solve_pivots_off_the_diagonal():
    # a dependent generator list, as `saturate_rows` takes it: generator 1 is
    # twice generator 0, so the echelon of S^T has no pivot in its column and
    # the pivots are 0 and 2.  The solve reads generators 0 and 2 alone, and
    # its rows are a basis of the saturation
    rows = [(1, 2, 0, 3), (2, 4, 0, 6), (0, 1, 2, 1)]
    H, _, r = la.row_echelon_transform(la.transpose(rows))
    pivots = [la.pivot_column(h) for h in H[:r]]
    assert pivots == [0, 2]
    W = la.echelon_solve(H, pivots, rows)
    for i, p in enumerate(pivots):
        assert [sum(H[l][p] * W[l][c] for l in range(i + 1)) for c in range(4)] == list(rows[p])
    amb = GramLattice.from_rows(la.identity(4))
    want = oracles.saturate_rows(amb, rows).basis.to_lists()
    assert la.hnf_rows(W) == saturate_rows(amb, rows).basis.to_lists() == want


def test_echelon_solve_without_pivots():
    assert la.echelon_solve([], [], []) == []
    assert la.echelon_solve([[0, 0]], [], [[1], [2]]) == []


def test_hnf_rows_canonical():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    h1 = la.hnf_rows(rows)
    h2 = la.hnf_rows(list(reversed(rows)))
    assert h1 == h2
    # pivots positive, entries above pivots reduced
    for i, row in enumerate(h1):
        j = next(k for k in range(3) if row[k])
        assert row[j] > 0
        for above in h1[:i]:
            assert 0 <= above[j] < row[j]


def check_smith(A, diag, V):
    # the Smith contract: D = U*A*V with V unimodular, so A*V = U^-1 * D and
    # column i of A*V is d_i times column i of the unimodular U^-1
    m, n = len(A), len(A[0])
    assert len(diag) == min(m, n)
    assert abs(det_bareiss(V)) == 1
    nonzero = [d for d in diag if d]
    # divisibility chain, zeros trailing
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    # oracle: the product of the first k factors is the gcd of k x k minors
    prod = 1
    for k, d in enumerate(nonzero, start=1):
        prod *= d
        assert prod == minors_gcd(A, k)
    # V is the column transform: column i of A*V is divisible by d_i (zero where d_i = 0)
    AV = matmul(A, V)
    for i in range(n):
        d = diag[i] if i < len(diag) else 0
        col = [row[i] for row in AV]
        assert not any(col) if d == 0 else all(e % d == 0 for e in col)
    if m == n and 0 not in diag:
        quotient = [[e // d for e, d in zip(row, diag)] for row in AV]
        assert abs(det_bareiss(quotient)) == 1


def test_smith_normal_form_invariant_factors():
    rng = random.Random(17)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        diag, V = la.smith_normal_form(A)
        check_smith(A, diag, V)
    known = [
        # a diagonal input that breaks the divisibility chain forces a column merge
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[6, 0], [0, 4]], [2, 12]),
        ([[4, 6, 10]], [2]),
        ([[0, -3, 6, 9]], [3]),
        ([[6], [-4], [0]], [2]),
        ([[0, 0, 0], [0, 0, 0]], [0, 0]),
        ([[2, 4, 6], [1, 2, 3], [0, 0, 0]], [1, 0, 0]),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 3, 0]),
        ([[0, 0, 0], [0, 0, 4], [0, 6, 0]], [2, 12, 0]),
    ]
    for A, want in known:
        diag, V = la.smith_normal_form(A)
        assert diag == want, A
        check_smith(A, diag, V)


def test_smith_known_values():
    assert la.smith_normal_form([[2, -1], [-1, 2]])[0] == [1, 3]
    assert la.smith_normal_form([[-3, 0], [0, -4]])[0] == [1, 12]
    assert la.smith_normal_form([[-3, 0], [0, -6]])[0] == [3, 6]


def test_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 7)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag, _ = la.smith_normal_form(A)
        ref = sympy_snf(sympy.Matrix(A))
        ref_diag = [abs(int(ref[i, i])) for i in range(min(ref.shape))]
        assert diag == ref_diag


def test_frac_inv():
    A = [[2, 1], [1, 1]]
    inv = frac_inv(A)
    assert matmul(inv, A) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        frac_inv([[1, 1], [1, 1]])


def test_solve_rational_and_rowspace():
    B = [[1, 2, 0], [0, 0, 3]]
    c = solve_rational(B, [2, 4, 3])
    assert c == [Fraction(2), Fraction(1)]
    assert solve_rational(B, [1, 0, 0]) is None
    assert solve_rational([], [0, 0]) == [] and solve_rational([], [0, 1]) is None
