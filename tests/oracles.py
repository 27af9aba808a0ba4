"""Slow reference routes kept only as oracles for the tests."""

from fractions import Fraction

from cubick3 import intlinalg as la


def frac_inv(A) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q (Gauss-Jordan)."""
    n = len(A)
    M = la.frac_rows(A)
    R = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        R[col], R[piv] = R[piv], R[col]
        inv = 1 / M[col][col]
        M[col] = [e * inv for e in M[col]]
        R[col] = [e * inv for e in R[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
                R[i] = [a - f * b for a, b in zip(R[i], R[col])]
    return R


def saturation_index(S, sat) -> int:
    """[sat : S] as |det| of the integer coefficients of S on the echelon basis of sat."""
    basis = sat.basis.to_lists()
    coeffs = []
    for row in S.basis.to_lists():
        c = la.hnf_solve(basis, row)
        assert c is not None and all(x.denominator == 1 for x in c)
        coeffs.append([int(x) for x in c])
    return abs(la.det_bareiss(coeffs))
