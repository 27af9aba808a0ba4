"""Exact integer matrix kernels.

Matrices are plain lists of lists (row-major) of Python ints.  The
`sparse_*` kernels and `pairing` take a matrix in sparse form instead: for
each row, the list of its nonzero (column, entry) pairs, as built by
`sparse_rows`.  Nothing in this module knows about lattices.  One
elimination routine, `row_echelon`, is behind the Hermite bases, echelon
transforms, kernels, ranks, determinants and the Smith normal form.  It
applies each row operation to whole rows, so columns past the echelon ride
along: a matrix X appended to A comes back as U*X, and an appended identity
as the transform U.  A kernel is read off a short suffix of the rows: once
the rows A[j0:] span the same Z-module as all of A, the canonical kernel
basis is [[I, Y], [0, T]], with T the kernel of the suffix and each row of Y
one exact solve against the suffix's echelon (see `left_kernel`).  All
arithmetic is exact.
"""

from __future__ import annotations

import math
from itertools import compress, count


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
    """A * v for a matrix A given by its sparse rows S."""
    return [sum(e * v[j] for j, e in row) for row in S]


def sparse_gram_product(B: list[list], S) -> list[list]:
    """B * G * B^T for a k x n row matrix B and a Gram matrix G given by its sparse rows S.

    Only the nonzero entries of B and of G are touched: each row of B*G is
    accumulated from the rows of G that the row of B meets, then paired with
    the support of every row of B.
    """
    B_rows = sparse_rows(B)
    n = len(S)
    out = []
    for bi in B_rows:
        acc = [0] * n
        for k, b in bi:
            for j, g in S[k]:
                acc[j] += b * g
        out.append([sum(c * acc[j] for j, c in bj) for bj in B_rows])
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def pairing(S, u, v):
    """u * G * v^T for a Gram matrix G given by its sparse rows S."""
    return sum(a * sum(e * v[j] for j, e in row) for a, row in zip(u, S) if a)


def row_echelon(rows: list[list[int]], n: int) -> tuple[list[list[int]], int, int]:
    """Integer row echelon form of the first n columns, by unimodular row operations.

    Returns (M, rank, sign).  Row operations act on whole rows, so the
    columns past n ride along: rows [A | X] give M = [H | U*X] with U*A == H
    and U unimodular, pivot columns of H strictly increasing with positive
    pivots, and rows from index `rank` on zero in H.  X = I gives U itself.
    sign = det U is +1 or -1: each row swap and each pivot negation flips
    it, and subtracting a multiple of one row from another keeps it.

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
    sign = 1
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
                sign = -sign
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
            sign = -sign
        r += 1
    return M, r, sign


def row_echelon_transform(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """(H, U, rank) with U*A == H: the `row_echelon` of [A | I], split."""
    m = len(A)
    n = len(A[0]) if m else 0
    M, r, _ = row_echelon([list(row) + e for row, e in zip(A, identity(m))], n)
    return [row[:n] for row in M], [row[n:] for row in M], r


def det(A: list[list[int]]) -> int:
    """Signed determinant of a square matrix, read off its `row_echelon` U*A == H.

    H is upper triangular, so det A = det U * prod H[i][i] with det U the
    echelon's sign.  Below full rank the last row of H is zero, and so is the
    product.  The empty matrix has determinant 1.
    """
    n = len(A)
    H, _, sign = row_echelon(A, n)
    return sign * math.prod(H[i][i] for i in range(n))


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice (zero rows dropped).

    Pivots are positive and the entries above each pivot are reduced into
    [0, pivot), so two generating sets of the same lattice give identical
    output, and a canonical Hermite basis (see `hermite_pivots`) comes back
    as it is:

    >>> hnf_rows([[2, 4, 1], [2, 1, -2]])
    [[2, 1, -2], [0, 3, 3]]
    >>> hnf_rows([[0, 3, 3], [2, 4, 1], [4, 5, -1]])
    [[2, 1, -2], [0, 3, 3]]
    >>> hermite_pivots([[2, 1, -2], [0, 3, 3]])
    [0, 1]
    >>> hnf_rows([[2, 1, -2], [0, 3, 3]])
    [[2, 1, -2], [0, 3, 3]]
    """
    if not rows:
        return []
    n = len(rows[0])
    H, r, _ = row_echelon(rows, n)
    H = H[:r]
    pivots = []
    for i, row in enumerate(H):
        j = next(k for k in range(n) if row[k])
        pivots.append((i, j))
    for i, j in pivots:
        p = H[i][j]
        for k in range(i):
            q = H[k][j] // p  # floor division keeps the entry in [0, p)
            if q:
                for col in range(j, n):  # row i is zero left of its pivot
                    H[k][col] -= q * H[i][col]
    return H


def hermite_pivots(rows) -> list[int] | None:
    """The pivot columns of rows that are already a canonical Hermite basis, else None.

    Canonical is what `hnf_rows` returns: no zero row, pivots (the first
    nonzero entry of each row) in strictly increasing columns and positive,
    and every entry above a pivot in [0, pivot).  The scan stops at the
    first violation.

    >>> hermite_pivots([[2, 1, 0], [0, 0, 3]])
    [0, 2]
    >>> hermite_pivots([[2, 1, 3], [0, 0, 3]]) is None  # 3 above the pivot 3
    True
    >>> hermite_pivots([[0, 1], [1, 0]]) is None  # pivot columns decrease
    True
    """
    pivots = []
    last = -1
    for i, row in enumerate(rows):
        j = next(compress(count(), row), None)  # column of the first nonzero entry
        if j is None or j <= last:
            return None
        p = row[j]
        if p < 0:
            return None
        for above in rows[:i]:
            if not 0 <= above[j] < p:
                return None
        pivots.append(j)
        last = j
    return pivots


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

    The suffix starts with k + 1 rows and is echeloned once, [A[j0:] | I] to
    [H | U].  T is the Hermite basis of the rows of U past the rank.  When H
    has rank k, its first k rows are square and a basis of the suffix's
    span, so A_j lies in that span exactly when z_j = -A_j * H^-1, found by
    forward substitution, is integral; then y_j = z_j * U[:k].  An inexact
    division means the suffix is too short, and it doubles.  A suffix of
    rank below k goes straight to j0 = 0, the whole of A, where there is no
    y_j and the result is the Hermite basis of the rows of the transform
    past the rank.  That kernel of a unimodular transform is saturated by
    construction: the returned rows span every integer vector of the
    rational kernel.

    >>> left_kernel([[2, 0], [0, 3], [2, 3]])
    [[1, 1, -1]]
    >>> left_kernel([[1], [2], [3]])  # j0 = 1: y_0 = (1, -1), T = [[3, -2]]
    [[1, 1, -1], [0, 3, -2]]
    """
    m = len(A)
    if m == 0:
        return []
    k = len(A[0])
    j0 = max(m - k - 1, 0)
    while True:
        H, U, r = row_echelon_transform(A[j0:])
        if r < k and j0:
            j0 = 0
            continue
        T = hnf_rows(U[r:])
        Y = _suffix_solutions(A[:j0], H[:k], U[:k], T, m - j0)
        if Y is not None:
            break
        j0 = max(2 * j0 - m, 0)
    return [e + y for e, y in zip(identity(j0), Y)] + [[0] * j0 + t for t in T]


def _suffix_solutions(rows, H, U, T, s) -> list[list[int]] | None:
    """For each row a, the y of length s with y * A_s == -a, reduced by T; None when one is not integral.

    H (square, upper triangular, positive diagonal) and U are the first
    rows of the echelon U * A_s == H, and T is the Hermite basis of the
    kernel of A_s.  The work runs down columns, over all rows at once:
    z = -a * H^-1 by forward substitution, whose divisions are exact for
    every a exactly when every row lies in the span of the suffix, then
    y = z * U, then the reduction of each pivot column of T.
    """
    if not rows:
        return []
    k = len(H)
    cols = transpose(rows)
    Z = []
    for i in range(k):
        z = [-e for e in cols[i]]
        for l in range(i):
            h = H[l][i]
            if h:
                z = [a - h * b for a, b in zip(z, Z[l])]
        p = H[i][i]
        if p != 1:
            if any(e % p for e in z):
                return None
            z = [e // p for e in z]
        Z.append(z)
    Y = []  # the columns of the solutions
    for c in range(s):
        y = [0] * len(rows)
        for i in range(k):
            u = U[i][c]
            if u:
                y = [a + u * b for a, b in zip(y, Z[i])]
        Y.append(y)
    for t in T:
        p = next(compress(count(), t))
        q = [e // t[p] for e in Y[p]]
        if any(q):
            for c in range(p, s):
                if t[c]:
                    Y[c] = [a - t[c] * b for a, b in zip(Y[c], q)]
    return transpose(Y)


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
        M, _, _ = row_echelon([c + v for c, v in zip(transpose(D), Vt)], m)
        Vt = [row[m:] for row in M]
        D, _, _ = row_echelon(transpose(M)[:m], n)
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
