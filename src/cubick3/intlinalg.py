"""Exact integer matrix kernels.

Matrices are plain lists of lists (row-major) of Python ints.  The
`sparse_*` kernels and `pairing` take a matrix in sparse form instead: for
each row, the list of its nonzero (column, entry) pairs, as built by
`sparse_rows`.  Nothing in this module knows about lattices.  Two
eliminations give every fact.  `row_echelon`, by unimodular row operations,
is behind the Hermite bases, echelon transforms, kernels, ranks and the
Smith normal form.  `inertia`, fraction-free and symmetric, gives the
signature and the determinant of a symmetric matrix at once; a matrix that
is not symmetric has no determinant here.  `row_echelon` applies each row
operation to whole rows, so columns past the echelon ride along: a matrix X
appended to A comes back as U*X, and an appended identity as the transform
U.  Beside it sit the one exact solve against echelon rows,
`echelon_solve`, and the one reduction above the pivots, `_reduce_above`.

Two kernels read their answer off a short suffix of the rows, once the
suffix spans the same Z-module as all of them.  `left_kernel` gives the
canonical kernel basis of A as [[I, Y], [0, T]], with T the kernel of the
suffix and Y one `echelon_solve` against the suffix's echelon, and
`saturation_basis` gives the saturation of k rows S from the echelon of a
suffix of the nonzero rows of S^T.  Both try the suffixes of one schedule,
`suffix_starts`: for rows of k columns the first holds k + 3 rows, and
each retry adds 1, 2, 4, ... rows more, so there are logarithmically many.
A suffix of rank below k, or a schedule run out, ends in the echelon of
all the rows.

Nothing here tests whether given rows are already a canonical Hermite
basis: a caller that needs to know keeps that fact from where the rows were
built.  All arithmetic is exact.
"""

from __future__ import annotations

from itertools import compress, count
from math import prod
from operator import mul


def identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def transpose(A: list[list]) -> list[list]:
    return [list(col) for col in zip(*A)] if A else []


def sparse_rows(A: list[list]) -> list[list[tuple]]:
    """The nonzero (column, entry) pairs of each row of A.

    This is the sparse matrix form that `sparse_mat_vec`, `pairing` and
    `sparse_gram_product` take; a caller that multiplies by the same matrix
    often builds it once.
    """
    return [[(j, e) for j, e in enumerate(row) if e] for row in A]


def mat_vec(A: list[list], v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def sparse_mat_vec(S, v) -> list:
    """G * v for a symmetric matrix G given by its sparse rows S.

    The product is scattered from the nonzero entries of v: v_i adds
    v_i * G[i][j] to entry j for each nonzero G[i][j].  That sum is v * G,
    which is G * v only because G is symmetric; a Gram matrix always is.
    """
    out = [0] * len(S)
    for a, row in zip(v, S):
        if a:
            for j, e in row:
                out[j] += a * e
    return out


def sparse_gram_product(B: list[list], S) -> list[list]:
    """B * G * B^T for a k x n row matrix B and a Gram matrix G given by its sparse rows S.

    Each row b_i * G is scattered from the nonzero entries of b_i and of G
    (see `sparse_mat_vec`), then paired with the rows b_j for j >= i; G is
    symmetric, so the product is too, and entry (j, i) is entry (i, j).
    """
    k = len(B)
    out = [[0] * k for _ in range(k)]
    for i, b in enumerate(B):
        bg = sparse_mat_vec(S, b)
        row = out[i]
        for j in range(i, k):
            row[j] = out[j][i] = sum(map(mul, bg, B[j]))
    return out


def pairing(S, u, v):
    """u * G * v^T for a Gram matrix G given by its sparse rows S."""
    return sum(a * sum(e * v[j] for j, e in row) for a, row in zip(u, S) if a)


def row_echelon(rows: list[list[int]], n: int) -> tuple[list[list[int]], int]:
    """Integer row echelon form of the first n columns, by unimodular row operations.

    Returns (M, rank).  Row operations act on whole rows, so the columns
    past n ride along: rows [A | X] give M = [H | U*X] with U*A == H and U
    unimodular, pivot columns of H strictly increasing with positive pivots,
    and rows from index `rank` on zero in H.  X = I gives U itself.

    Pivot rule: for each column, the row with the smallest nonzero |entry|
    is moved to the pivot position and the nearest-integer multiple of it is
    subtracted from every row below; this repeats until the column is clear
    below the pivot.  After each pass every entry below the pivot is at most
    half the pivot in absolute value, so the pivot shrinks geometrically and
    the coefficients stay small.

    Neither H nor U is canonical: U is one unimodular transform among many
    and H is reduced only below its pivots.  Only the outputs of `hnf_rows`
    and `left_kernel` are canonical.
    """
    M = [list(row) for row in rows]
    m = len(M)
    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            piv, best = None, 0
            for i in range(r, m):
                e = M[i][col]
                if e and (piv is None or abs(e) < best):
                    piv, best = i, abs(e)
            if piv is None:
                break
            if piv != r:
                M[r], M[piv] = M[piv], M[r]
            Mr = M[r]
            a = Mr[col]
            # zero entries of the pivot row leave the other rows unchanged
            support = [j for j in range(col, len(Mr)) if Mr[j]]
            cleared = True
            for i in range(r + 1, m):
                Mi = M[i]
                b = Mi[col]
                if not b:
                    continue
                q = (2 * b + a) // (2 * a)  # nearest integer to b / a
                for j in support:
                    Mi[j] -= q * Mr[j]
                if Mi[col]:
                    cleared = False
            if cleared:
                break
        if not M[r][col]:
            continue  # no pivot in this column
        if M[r][col] < 0:
            M[r] = [-e for e in M[r]]
        r += 1
    return M, r


def row_echelon_transform(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """(H, U, rank) with U*A == H: the `row_echelon` of [A | I], split."""
    m = len(A)
    n = len(A[0]) if m else 0
    M, r = row_echelon([list(row) + e for row, e in zip(A, identity(m))], n)
    return [row[:n] for row in M], [row[n:] for row in M], r


def inertia(G: list[list[int]]) -> tuple[int, int, int, int]:
    """(pos, neg, null, det) of a symmetric integer matrix: its Sylvester signature and determinant.

    One fraction-free symmetric elimination (Bareiss 1968), on the upper
    triangle alone.  Let Delta be the minor of G on the rows and columns
    eliminated so far (1 before the first) and c = |Delta|.  The invariant:
    the trailing block is c times the Schur complement S of that minor.  A
    pivot p = M[lo][lo] is c times the real pivot s = S[lo][lo], so s has the
    sign of p and counts into pos or neg directly.  The step

        M[i][j] = (|p| * M[i][j] - sign(p) * M[i][lo] * M[lo][j]) // c

    keeps the invariant: the new |Delta| is |Delta * s| = |p|, and the
    right-hand side is |p| * (S[i][j] - S[i][lo] * S[lo][j] / s).  Its
    division is exact, since c times an entry of a Schur complement is, up
    to sign, the bordered minor of G on the eliminated rows and i by the
    eliminated columns and j (Sylvester's identity): an integer.  Then c
    becomes |p|.  det G is the product of the real pivots, so it is
    (-1)^neg * c at the end, or 0 when a row came up zero.

    A zero row of the trailing block lies in the radical of S: it counts one
    null and is skipped.  Its entries stay zero, and it enters no later
    minor.  A zero pivot whose row is not zero is fixed by one unimodular
    congruence: with a = M[lo][j] the first nonzero entry of the row and
    b = M[j][j], t times row and column j are added to row and column lo.
    The new pivot is 2ta + b, and t = 1 makes it nonzero unless 2a + b = 0,
    when t = -1 does, as a != 0.  The divisions stay exact through it.  On G
    the congruence is P = I + Q, with I on the eliminated indices and Q
    unimodular on the trailing ones.  It leaves Delta as it is and maps S to
    Q^T S Q.  Each bordered minor of P^T G P is linear in its last row and
    its last column, so it is an integer combination of bordered minors of
    G: the trailing block is c times the Schur complement of the integer
    matrix P^T G P, and det(P^T G P) = det G.

    >>> inertia([[0, 1], [1, 0]])  # a hyperbolic plane: pivot 2, then -1/2
    (1, 1, 0, -1)
    >>> inertia([[2, -1, 0], [-1, 2, 0], [0, 0, 0]])
    (2, 0, 1, 0)
    """
    M = [list(row) for row in G]
    n = len(M)
    pos = neg = null = 0
    c = 1
    for lo in range(n):
        row = M[lo]
        if not row[lo]:
            j = next((j for j in range(lo + 1, n) if row[j]), None)
            if j is None:
                null += 1
                continue
            a, b = row[j], M[j][j]
            t = 1 if 2 * a + b else -1
            for k in range(lo + 1, n):  # entry (j, k) of the upper triangle
                row[k] += t * (M[j][k] if k >= j else M[k][j])
            row[lo] = 2 * t * a + b
        p = row[lo]
        if p > 0:
            pos, s = pos + 1, 1
        else:
            neg, s = neg + 1, -1
        q = abs(p)
        for i in range(lo + 1, n):
            Mi, f = M[i], s * row[i]
            if f:
                Mi[i:] = [(q * x - f * y) // c for x, y in zip(Mi[i:], row[i:])]
            elif q != c:
                Mi[i:] = [q * x // c for x in Mi[i:]]
        c = q
    return pos, neg, null, 0 if null else (-c if neg % 2 else c)


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice (zero rows dropped).

    Pivots are positive and the entries above each pivot are reduced into
    [0, pivot), so two generating sets of the same lattice give identical
    output, and a canonical Hermite basis comes back as it is:

    >>> hnf_rows([[2, 4, 1], [2, 1, -2]])
    [[2, 1, -2], [0, 3, 3]]
    >>> hnf_rows([[0, 3, 3], [2, 4, 1], [4, 5, -1]])
    [[2, 1, -2], [0, 3, 3]]
    >>> hnf_rows([[2, 1, -2], [0, 3, 3]])
    [[2, 1, -2], [0, 3, 3]]
    """
    if not rows:
        return []
    H, r = row_echelon(rows, len(rows[0]))
    H = H[:r]
    _reduce_above(H, list(map(pivot_column, H)))
    return H


def pivot_column(row) -> int | None:
    """The column of the first nonzero entry of row, None for a zero row."""
    return next(compress(count(), row), None)


def _reduce_above(rows, pivots, start=0) -> None:
    """Reduce, in place, the entries above the pivots of rows[start:] into [0, pivot).

    pivots[i], increasing, is the pivot column of rows[start + i].  A row
    subtracted from the rows above changes them only from its pivot on.
    """
    for i, p in enumerate(pivots, start):
        h = rows[i]
        d = h[p]
        support = [c for c in range(p, len(h)) if h[c]]
        for row in rows[:i]:
            q = row[p] // d  # floor division keeps the entry in [0, d)
            if q:
                for c in support:
                    row[c] -= q * h[c]


def echelon_solve(H, pivots, b) -> list | None:
    """The z_i with sum_{l <= i} H[l][p_i] * z_l == b[p_i], or None on an inexact division.

    H are echelon rows with pivot columns p_0 < p_1 < ... (`pivots`), and
    b[c], a vector, is the right-hand side of column c: the solve runs on all
    its coordinates at once.  Row l is zero left of p_l, so the system is
    lower triangular and forward substitution solves it (Cohen, GTM 138,
    section 2.4.3).  A division with a remainder gives None, never a
    truncated z.

    >>> echelon_solve([[2, 1], [0, 3]], [0, 1], [[4, 2], [5, 7]])
    [[2, 1], [1, 2]]
    >>> echelon_solve([[2, 1], [0, 3]], [0, 1], [[4, 2], [5, 6]]) is None
    True
    """
    Z = []
    for i, p in enumerate(pivots):
        z = b[p]
        for l in range(i):
            h = H[l][p]
            if h:
                z = [a - h * c for a, c in zip(z, Z[l])]
        d = H[i][p]
        if d != 1:
            if any(e % d for e in z):
                return None
            z = [e // d for e in z]
        Z.append(z)
    return Z


def left_kernel(A: list[list[int]]) -> list[list[int]]:
    """Canonical basis of {x in Z^m : x*A == 0}, read off a suffix A[j0:] of the rows.

    For an m x k matrix A, take j0 so that the rows A[j0:] span the same
    Z-module as all of A.  Then every row A_j with j < j0 has an integer
    solution y_j of y * A[j0:] == -A_j, and the kernel K is the direct sum
    of the rows e_j + y_j (j < j0) and of the kernel T of A[j0:] shifted
    right by j0: a kernel vector x minus the sum of x_j * (e_j + y_j) is
    zero left of j0.  The solution y_j is unique up to T, so there is one
    with its entries at the pivot columns of T's Hermite basis in [0, pivot).
    With that choice [[I_j0, Y], [0, T]] has positive pivots in increasing
    columns and every entry above a pivot in [0, pivot): it is the canonical
    Hermite basis of K, the one `hnf_rows` returns for any basis of it.

    Each suffix that `suffix_starts` yields is echeloned once, [A[j0:] | I]
    to [H | U].  T is the Hermite basis of the rows of U past the rank.
    When H has rank k, its first k rows are square and a basis of the
    suffix's span, so A_j lies in that span exactly when the z_j with
    z_j * H[:k] == A_j (one `echelon_solve` on the columns of A[:j0]) is
    integral; then y_j = -z_j * U[:k].  An inexact division means the
    suffix is too short, and the next suffix is tried.  A suffix of rank
    below k, or a schedule run out, goes to j0 = 0, the whole of A, where
    there is no y_j and the result is the Hermite basis of the rows of the
    transform past the rank.  That kernel of a unimodular transform is
    saturated by construction: the returned rows span every integer vector
    of the rational kernel.

    >>> left_kernel([[2, 0], [0, 3], [2, 3]])
    [[1, 1, -1]]

    With j0 = 1, y_0 = (0, 1, -2, 0) and T = [[1, 1, -1, 0], [0, 3, -2, 0], [0, 0, 0, 1]]:

    >>> left_kernel([[4], [1], [2], [3], [0]])
    [[1, 0, 1, -2, 0], [0, 1, 1, -1, 0], [0, 0, 3, -2, 0], [0, 0, 0, 0, 1]]
    """
    m = len(A)
    if m == 0:
        return []
    k = len(A[0])
    Z = None
    for j0 in suffix_starts(m, k):
        H, U, r = row_echelon_transform(A[j0:])
        if r < k:
            break
        Z = echelon_solve(H, range(k), transpose(A[:j0]))
        if Z is not None:
            break
    if Z is None:
        j0 = 0
        H, U, r = row_echelon_transform(A)
        Z = []
    Y = []  # the columns of Y = -Z * U[:k], then reduced by T
    for c in range(m - j0):
        y = [0] * j0
        for z, u in zip(Z, U):
            if u[c]:
                y = [a - u[c] * b for a, b in zip(y, z)]
        Y.append(y)
    T = hnf_rows(U[r:])
    K = [e + list(y) for e, y in zip(identity(j0), zip(*Y))] + [[0] * j0 + t for t in T]
    _reduce_above(K, [j0 + pivot_column(t) for t in T], j0)
    return K


def suffix_starts(m: int, k: int):
    """The starts j0 > 0 of the suffixes A[j0:] of an m x k matrix, in the order tried.

    The one suffix schedule, of `left_kernel` and `saturation_basis` alike.
    The first suffix holds k + 3 rows, and each retry adds 1, 2, 4, ... rows
    more, so at most about log2(m) suffixes are tried.  A suffix of rank k
    holds k rows at least, and each row past them can only widen its span
    toward the module of all the rows.  A suffix that would hold every row
    is never yielded: the caller then works on all of A.

    >>> list(suffix_starts(20, 0))
    [17, 16, 14, 10, 2]
    >>> list(suffix_starts(5, 2))
    []
    """
    length, step = k + 3, 1
    while length < m:
        yield m - length
        length += step
        step *= 2


def saturation_basis(rows) -> tuple[list[list[int]], int, int]:
    """(H, index, rank): the canonical Hermite basis H of the saturation of the k rows S.

    The saturation is every integer vector in the rational span of S; for
    independent rows (rank k), index is [sat : span S].  One echelon
    U * T = H decides everything (Cohen, GTM 138, section 2.4.3), for T the
    rows of S^T that are not zero, the m coordinates where some row of S is
    nonzero: a zero row of S^T is never a pivot and never changes, so
    leaving it out changes U alone, which is not read.  When H has rank k,
    its pivots are its first k diagonal entries and S = C * W with
    C = H[:k]^T lower triangular and W the first k rows of U^-T.  W is part
    of a unimodular matrix, so its rows are a basis of the saturation, and
    the index is det C = prod H[i][i].  W = C^-1 * S is one `echelon_solve`,
    and `hnf_rows` of W is the canonical basis.

    The echelon runs first on the suffixes T[j0:] of `suffix_starts`, with
    no transform.  Of rank k, a suffix gives a C and a W = C^-1 * S by the
    same solve, whose coordinates on the suffix are the first k rows of
    U^-T.  If W is integral, every row T_j is an integer combination (its
    coordinate column of W) of the rows of H[:k], so the suffix spans the
    same module as all of T: W is a basis of the saturation and
    prod H[i][i] is the index, as for all of T.  A division with a
    remainder means some T_j is outside that module, and the next suffix is
    tried.  Otherwise H is the echelon of all of T, of rank k exactly when
    the rows are independent.  For dependent rows the solve runs on the
    rows of S at the pivot columns of H, where a remainder is an
    AssertionError, never truncated; their index is not [sat : span S].

    >>> saturation_basis([[2, 4, 6, 0]])  # T = [[2], [4], [6]]: no suffix is tried
    ([[1, 2, 3, 0]], 2, 1)
    """
    k = len(rows)
    T = [c for c in zip(*rows) if any(c)]
    W = None
    for j0 in suffix_starts(len(T), k):
        H, r = row_echelon(T[j0:], k)
        if r < k:
            break
        W = echelon_solve(H, range(k), rows)
        if W is not None:
            break
    if W is None:
        # U is not read; `perfbench/test_harness.py` counts this call (ROADMAP item 1)
        H, _, r = row_echelon_transform(T)
        # row i of H has its pivot in column p_i, and rows j > i vanish there,
        # so row p_i of S is the sum over j <= i of H[j][p_i] * W[j]
        W = echelon_solve(H, [pivot_column(h) for h in H[:r]], rows)
        if W is None:
            raise AssertionError("a generator is not divisible by its pivot")
    return hnf_rows(W), prod(H[i][i] for i in range(r)), r


def rank_int(A: list[list[int]]) -> int:
    return row_echelon(A, len(A[0]))[1] if A else 0


def smith_normal_form(A: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form diagonal of an integer matrix.

    Returns (diag, V) where diag lists the min(m, n) diagonal entries of
    D = U*A*V (nonnegative, each dividing the next, zeros last) for
    unimodular U and V; only the column transform V is returned.

    The passes of Kannan and Bachem (1979) alternate until D is diagonal.  A
    column pass is a row operation on D^T and on V^T alike, so it is one
    `row_echelon` of [D^T | V^T] on its first m columns: V^T rides along and
    comes back updated.  A row pass is the `row_echelon` of D with nothing
    riding, since U is not returned.  Each pass can only shrink the leading
    pivot, since the new pivot is the gcd of the old one with the rest of its
    row or column.  The echelon keeps the current row on ties, so once the
    pivot divides its row and its column a single pass clears both, and later
    passes leave that row and column alone: the loop then works on the
    trailing block.  When D is diagonal but some d_i does not divide a later
    d_j, column j is added to column i and the loop runs again; that replaces
    d_i by gcd(d_i, d_j) < d_i and keeps d_0..d_(i-1), so the diagonal
    decreases lexicographically and the loop ends.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    Vt = identity(n)  # V^T: a column operation on D is a row operation on Vt
    while True:
        M, _ = row_echelon([c + v for c, v in zip(transpose(D), Vt)], m)
        Vt = [row[m:] for row in M]
        D, _ = row_echelon(transpose(M)[:m], n)
        if any(D[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        diag = [D[i][i] for i in range(min(m, n))]
        r = sum(1 for d in diag if d)  # row echelon: the nonzero entries come first
        bad = next(((i, j) for i in range(r) for j in range(i + 1, r) if diag[j] % diag[i]), None)
        if bad is None:
            return diag, transpose(Vt)
        i, j = bad
        D[j][i] = D[j][j]  # column i += column j
        Vt[i] = [a + b for a, b in zip(Vt[i], Vt[j])]
