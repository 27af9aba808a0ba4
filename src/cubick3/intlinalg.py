"""Exact integer matrix kernels.

Matrices are plain lists of lists (row-major) of Python ints; the products
work on Fraction entries too.  The `sparse_*` kernels, `pairing` and
`echelon_coords` take a matrix in sparse form instead: for each row, the list
of its nonzero (column, entry) pairs, as built by `sparse_rows`.  Nothing in
this module knows about lattices.  One elimination routine,
`row_echelon_transform`, is behind the Hermite bases, kernels, ranks and
saturations and the Smith normal form; `det_bareiss` stays for signed
determinants.  All arithmetic is exact.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A: list[list]) -> list[list]:
    return [list(col) for col in zip(*A)] if A else []


def sparse_rows(A: list[list]) -> list[list[tuple]]:
    """The nonzero (column, entry) pairs of each row of A.

    This is the sparse matrix form that `sparse_mat_vec`, `pairing` and
    `sparse_gram_product` take; a caller that multiplies by the same matrix
    often builds it once.
    """
    return [[(j, e) for j, e in enumerate(row) if e] for row in A]


def matmul(A: list[list], B: list[list]) -> list[list]:
    """A * B, touching only the nonzero entries of both factors."""
    if not A:
        return []
    cols = len(B[0]) if B else 0
    B_rows = sparse_rows(B)
    out = []
    for row in A:
        acc = [0] * cols
        for a, Bk in zip(row, B_rows):
            if a:
                for j, b in Bk:
                    acc[j] += a * b
        out.append(acc)
    return out


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


def det_bareiss(A: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def row_echelon_transform(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer row echelon form through unimodular row operations.

    Returns (H, U, rank) with U*A == H, U unimodular, pivot columns strictly
    increasing with positive pivots, and rows from index `rank` on zero.

    Pivot rule: for each column, the row with the smallest nonzero |entry|
    is moved to the pivot position and the nearest-integer multiple of it is
    subtracted from every row below (on H and U alike); this repeats until
    the column is clear below the pivot.  After each pass every entry below
    the pivot is at most half the pivot in absolute value, so the pivot
    shrinks geometrically and the coefficients of H and U stay small.

    Neither H nor U is canonical: U is one unimodular transform among many
    and H is reduced only below its pivots.  Only the outputs of `hnf_rows`
    and `left_kernel` are canonical.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = identity(m)
    r = 0
    for col in range(n):
        while True:
            piv, best = None, 0
            for i in range(r, m):
                e = H[i][col]
                if e and (piv is None or abs(e) < best):
                    piv, best = i, abs(e)
            if piv is None:
                break
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            Hr, Ur = H[r], U[r]
            a = Hr[col]
            # zero entries of the pivot row leave the other rows unchanged
            h_support = [j for j in range(col, n) if Hr[j]]
            u_support = [j for j in range(m) if Ur[j]]
            cleared = True
            for i in range(r + 1, m):
                Hi = H[i]
                b = Hi[col]
                if not b:
                    continue
                q = (2 * b + a) // (2 * a)  # nearest integer to b / a
                Ui = U[i]
                for j in h_support:
                    Hi[j] -= q * Hr[j]
                for j in u_support:
                    Ui[j] -= q * Ur[j]
                if Hi[col]:
                    cleared = False
            if cleared:
                break
        if not H[r][col]:
            continue  # no pivot in this column
        if H[r][col] < 0:
            H[r] = [-e for e in H[r]]
            U[r] = [-e for e in U[r]]
        r += 1
        if r == m:
            break
    return H, U, r


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice (zero rows dropped).

    Pivots are positive and the entries above each pivot are reduced into
    [0, pivot), so two generating sets of the same lattice give identical
    output.
    """
    if not rows:
        return []
    H, _, r = row_echelon_transform(rows)
    H = H[:r]
    n = len(H[0]) if H else 0
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


def left_kernel(A: list[list[int]]) -> list[list[int]]:
    """Canonical basis of {x in Z^m : x*A == 0}.

    The kernel of a unimodular transform is saturated by construction: the
    returned rows span every integer vector of the rational kernel.
    """
    m = len(A)
    if m == 0:
        return []
    _, U, r = row_echelon_transform(A)
    return hnf_rows(U[r:])


def rank_int(A: list[list[int]]) -> int:
    if not A:
        return 0
    _, _, r = row_echelon_transform(A)
    return r


def smith_normal_form(A: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form diagonal of an integer matrix.

    Returns (diag, V) where diag lists the min(m, n) diagonal entries of
    D = U*A*V (nonnegative, each dividing the next, zeros last) for
    unimodular U and V; only the column transform V is returned.

    Every elimination step is a `row_echelon_transform` (Kannan and Bachem
    1979): a column pass takes the echelon W * D^T of D^T, so D <- D * W^T
    and V <- V * W^T, and a row pass takes the echelon of D, whose transform
    is dropped.  The passes alternate until D is diagonal.  Each pass can only
    shrink the leading pivot, since the new pivot is the gcd of the old one
    with the rest of its row or column.  The echelon keeps the current row on
    ties, so once the pivot divides its row and its column a single pass
    clears both, and later passes leave that row and column alone: the loop
    then works on the trailing block.  When D is diagonal but some d_i does
    not divide a later d_j, column j is added to column i and the loop runs
    again; that replaces d_i by gcd(d_i, d_j) < d_i and keeps d_0..d_(i-1),
    so the diagonal decreases lexicographically and the loop ends.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    Vt = identity(n)  # V^T: a column operation on D is a row operation on Vt
    while True:
        Ht, W, _ = row_echelon_transform(transpose(D))
        Vt = matmul(W, Vt)
        D, _, _ = row_echelon_transform(transpose(Ht))
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


def echelon_coords(H_rows, x: list[int]) -> list[int] | None:
    """Integer coefficients of the integer vector x on echelon rows, or None.

    H_rows are the sparse rows of an integer matrix with strictly increasing
    pivot columns (e.g. `sparse_rows(hnf_rows(...))`), so the first pair of
    each row is its pivot.  One exact-division back-substitution pass decides
    whether x lies in the row lattice: None means it does not.
    """
    res = list(x)
    out = []
    for row in H_rows:
        j, p = row[0]
        q, r = divmod(res[j], p)
        if r:
            return None
        out.append(q)
        if q:
            for t, e in row:
                res[t] -= q * e
    return None if any(res) else out
