"""Slow reference routes kept only as oracles for the tests."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from cubick3 import intlinalg as la
from cubick3 import lattice as lat
from cubick3.errors import DependentGenerators
from cubick3.lattice import DiscGroup, GramLattice, IntMatrix, Sublattice, disc_group
from cubick3.mukai import CohClass
from cubick3.standard import (H2, LAMBDA1, LAMBDA2, NLCase, gamma_to_gammabar, hassett_triple,
                              lambda_d_lattice, standard_lattice)
from cubick3.verify import series_inverse


def _bareiss(M, ncols) -> int:
    """Fraction-free (Bareiss) elimination, in place, of integer rows M on ncols columns.

    Column c takes the first row at or below c with a nonzero entry there as
    its pivot, and each entry below and right of the pivot becomes its 2x2
    minor with the pivot over the previous pivot, an exact division: every
    entry stays a minor of the input.  Returns the sign of the row
    permutation, or 0 when a column has no pivot (the elimination stops
    there).
    """
    sign, prev = 1, 1
    for c in range(ncols):
        piv = next((i for i in range(c, len(M)) if M[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        top = M[c]
        p = top[c]
        for i in range(c + 1, len(M)):
            row, a = M[i], M[i][c]
            rest = zip(row[c + 1:], top[c + 1:])
            M[i] = [0] * (c + 1) + [(x * p - a * y) // prev for x, y in rest]
        prev = p
    return sign


def det_bareiss(A: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix: the `_bareiss` sign times the last pivot."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    return _bareiss(M, n) * M[n - 1][n - 1]


def solve_rational(rows, x) -> list[Fraction] | None:
    """The rational c with sum_i c_i * rows[i] == x, or None when x is outside their span.

    The rows must be linearly independent (else ValueError).  Entries are
    ints or Fractions, and one common denominator makes the system integral.
    `_bareiss` eliminates the system whose columns are the rows, x riding
    along as the last column: x is in the span exactly when every equation
    past the k pivots reads 0 = 0, and c comes from back substitution over Q
    on the k x k triangle.
    """
    k = len(rows)
    scale = math.lcm(1, *(e.denominator for r in rows for e in r), *(e.denominator for e in x))
    M = [[(r[j] * scale).numerator for r in rows] + [(e * scale).numerator]
         for j, e in enumerate(x)]
    if not _bareiss(M, k):
        raise ValueError("rows are linearly dependent")
    if any(row[k] for row in M[k:]):
        return None
    c = [Fraction(0)] * k
    for i in reversed(range(k)):
        row = M[i]
        c[i] = Fraction(row[k] - sum(row[j] * c[j] for j in range(i + 1, k)), row[i])
    return c


def frac_inv(A) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q: row i solves x * A == e_i."""
    return [solve_rational(A, e) for e in la.identity(len(A))]


def left_kernel(A: list[list[int]]) -> list[list[int]]:
    """Canonical basis of {x in Z^m : x*A == 0} in two steps over the whole of A.

    The rows of the transform U * A == H past the rank span the kernel (U is
    unimodular, so they span every integer vector of the rational kernel),
    and `hnf_rows` puts them in canonical form.
    """
    if not A:
        return []
    _, U, r = la.row_echelon_transform(A)
    return la.hnf_rows(U[r:])


def hermite_pivots(rows) -> list[int] | None:
    """The pivot columns of rows that are already a canonical Hermite basis, else None.

    Canonical is what `hnf_rows` returns: no zero row, pivots (the first
    nonzero entry of each row) in strictly increasing columns and positive,
    and every entry above a pivot in [0, pivot).  A scan, independent of
    the reduction above the pivots that `hnf_rows` and `left_kernel` share;
    it stops at the first violation.
    """
    pivots = []
    last = -1
    for i, row in enumerate(rows):
        j = next((c for c, e in enumerate(row) if e), None)
        if j is None or j <= last:
            return None
        p = row[j]
        if p < 0 or not all(0 <= above[j] < p for above in rows[:i]):
            return None
        pivots.append(j)
        last = j
    return pivots


def saturate_rows(amb, rows) -> Sublattice:
    """Saturation as a double integer kernel: the kernel of the kernel of the row matrix."""
    rows = [list(r) for r in rows]
    if not rows:
        return Sublattice(amb, IntMatrix(()))
    ker = left_kernel(la.transpose(rows))  # right kernel of the row matrix
    basis = left_kernel(la.transpose(ker)) if ker else la.identity(amb.rank)
    return Sublattice(amb, IntMatrix.from_rows(basis))


def saturation(S):
    """(sat, [sat : S]): the double-kernel saturation, and `saturation_index` on it.

    A dependent basis spans a module of smaller rank than it has rows.
    """
    sat = saturate_rows(S.ambient, S.basis.to_lists())
    if sat.rank < S.rank:
        raise DependentGenerators("sublattice basis is linearly dependent")
    return sat, saturation_index(S, sat)


def spanning_suffixes(T, k) -> tuple[list[int], bool]:
    """(lengths, accepted): the suffixes of the rows T, of k columns, that a suffix route echelons.

    `la.left_kernel` walks the rows of its matrix, `la.saturation_basis` the
    nonzero rows of S^T for k generators S.  The suffixes hold k + 3
    rows, then 1, 2, 4, ... more, while shorter than T; a suffix is accepted
    when its Hermite basis is that of all of T (it spans the same module),
    and the walk stops without one at a suffix of rank below k.  When none
    is accepted, the route echelons all of T after them.
    """
    m, full = len(T), la.hnf_rows(T)
    length, step, lengths = k + 3, 1, []
    while length < m:
        lengths.append(length)
        suffix = T[m - length:]
        if la.rank_int(suffix) < k:
            return lengths, False
        if la.hnf_rows(suffix) == full:
            return lengths, True
        length, step = length + step, 2 * step
    return lengths, False


PATHS = {"no suffix", "first suffix", "grown suffix", "all rows"}


def suffix_path(T, k) -> str:
    """The path of a suffix route on the rows T of k columns, by `spanning_suffixes`.

    "no suffix" when T is too short for one, "first suffix" or "grown
    suffix" for the one accepted, "all rows" after suffixes that do not span.
    """
    lengths, accepted = spanning_suffixes(T, k)
    if accepted:
        return "first suffix" if len(lengths) == 1 else "grown suffix"
    return "all rows" if lengths else "no suffix"


def suffix_rows(x, kernel) -> tuple[list, int]:
    """(T, k): the rows a suffix route walks and their column count.

    The kernel `la.left_kernel(x)` (`kernel` true) walks the rows T = x, of k
    columns, and the saturation of the k generators x the nonzero rows of x^T.
    """
    return (x, len(x[0]) if x else 0) if kernel else ([c for c in zip(*x) if any(c)], len(x))


def suffix_echelons(x, kernel) -> list[int]:
    """The row counts of the echelons of `la.left_kernel(x)` (`kernel` true) or of a saturation of x.

    On the rows T of `suffix_rows`: the suffixes that `spanning_suffixes`
    walks, all of T when none is accepted, then the Hermite reduction, when
    it has rows.  That reduction gets, of the last echelon, of l rows and
    rank r, the l - r rows of the kernel, or the r rows of W for the
    saturation.
    """
    T, k = suffix_rows(x, kernel)
    lengths, accepted = spanning_suffixes(T, k)
    walked = lengths if accepted else lengths + [len(T)]
    r = la.rank_int(T[len(T) - walked[-1]:])
    tail = walked[-1] - r if kernel else r
    return walked + [tail] * (tail > 0)


def saturation_index(S, sat) -> int:
    """[sat : S] as |det| of the integer coefficients of S on the basis of sat (S independent)."""
    basis = sat.basis.to_lists()
    coeffs = []
    for row in S.basis.to_lists():
        c = solve_rational(basis, row)
        assert c is not None and all(x.denominator == 1 for x in c)
        coeffs.append([int(x) for x in c])
    return abs(det_bareiss(coeffs))


def contains(S, v) -> bool:
    """Sublattice membership as integrality of the rational coefficients on S's own basis."""
    c = solve_rational(S.basis.to_lists(), v)
    return c is not None and all(Fraction(x).denominator == 1 for x in c)


def generic_classification(v):
    """The case and discriminant of a Noether-Lefschetz vector v of Gamma, v^2 < 0, read
    off the double-kernel saturation of `span_sublattice`'s checked span of h^2
    and v in Gammabar."""
    sq = standard_lattice("Gamma").square(v)
    gbar = standard_lattice("Gammabar")
    _, index = saturation(lat.span_sublattice(gbar, [H2, gamma_to_gammabar(v)]))
    if index == 1:
        return NLCase.SATURATED, -3 * sq
    assert index == 3 and sq % 3 == 0
    return NLCase.INDEX_THREE, -sq // 3


def find_hyperbolic_AT(e, f, bound):
    """Search the saturation of A2 + span(e, f) for a hyperbolic pair meeting A2.

    (e, f) is a hyperbolic pair of the extended K3 lattice.  The search
    enumerates the vectors of the saturation whose coordinates on its
    Hermite basis are bounded by `bound`, and returns the lexicographically
    least pair (e', f') with (e')^2 = (f')^2 = 0, (e'.f') = 1 and
    rank(A2 + span(e', f')) = 3, or None when the box holds none (at bound
    0 it holds only the zero vector).  Its cost grows as (2 bound + 1)^4.
    """
    lt = standard_lattice("LambdaTilde")
    T = lat.saturate_rows(lt, [LAMBDA1, LAMBDA2, e, f])
    TG = T.induced_gram.to_lists()
    basis_t = la.transpose(T.basis.to_lists())
    isotropic = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=T.rank):
        Gc = la.mat_vec(TG, coords)
        if any(coords) and dot(coords, Gc) == 0:
            isotropic.append((coords, Gc, la.mat_vec(basis_t, coords)))
    for _, Ge, amb_e in isotropic:
        for cf, _, amb_f in isotropic:
            if dot(cf, Ge) == 1 and la.rank_int([list(LAMBDA1), list(LAMBDA2), amb_e, amb_f]) == 3:
                return tuple(amb_e), tuple(amb_f)
    return None


def matmul(A, B):
    """Dense A * B: every entry is a full sum over the inner index."""
    if not A:
        return []
    n = len(B)
    cols = range(len(B[0])) if B else range(0)
    return [[sum(row[k] * B[k][j] for k in range(n)) for j in cols] for row in A]


def gram_product(B, G):
    """Dense B * G * B^T."""
    return matmul(matmul(B, G), la.transpose(B))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def pairing(G, u, v):
    """Dense u * G * v^T."""
    return dot(u, la.mat_vec(G, v))


def q_values(L):
    """Discriminant-form values of the `disc_group` generators, by a dense integer product.

    For each raw Smith column c of order n, q = (c . c) / n^2 mod 2.
    """
    G = L.gram.to_lists()
    return tuple(Fraction(pairing(G, c, c), n * n) % 2 for c, n in _smith_columns(L))


def pair_table(L):
    """Pair table of the `disc_group` generators, in Fractions throughout."""
    G = L.gram.to_lists()
    # `disc_group` reduces each Smith column c mod its order n, to the class (c mod n)/n
    gens = [[Fraction(e % n, n) for e in c] for c, n in _smith_columns(L)]
    return tuple(tuple(pairing(G, gi, gj) for gj in gens) for gi in gens)


@functools.cache
def _smith_columns(L):
    # independent of disc_group: the raw Smith columns c with their orders
    # d_i, read directly; cached, as q_values and pair_table both read them
    diag, V = la.smith_normal_form(L.gram.to_lists())
    return tuple((tuple(row[i] for row in V), d) for i, d in enumerate(diag) if d > 1)


def signature(G) -> tuple[int, int, int]:
    """Dense Fraction symmetric elimination of a symmetric matrix G."""
    n = len(G)
    M = [[Fraction(e) for e in row] for row in G]
    pos = neg = null = 0

    def swap(i, j):
        M[i], M[j] = M[j], M[i]
        for row in M:
            row[i], row[j] = row[j], row[i]

    lo = 0
    while lo < n:
        if all(M[lo][j] == 0 for j in range(lo, n)):
            null += 1
            lo += 1
            continue
        if M[lo][lo] == 0:
            d = next((j for j in range(lo + 1, n) if M[j][j] != 0), None)
            if d is not None:
                swap(lo, d)
            else:
                # all remaining diagonal entries vanish: split a hyperbolic plane
                j = next(j for j in range(lo + 1, n) if M[lo][j] != 0)
                swap(lo + 1, j)
                b = M[lo][lo + 1]
                old = [row[:] for row in M]
                for k in range(lo + 2, n):
                    cu = old[k][lo + 1] / b
                    cv = old[k][lo] / b
                    for t in range(lo + 2, n):
                        M[k][t] = old[k][t] - cu * old[lo][t] - cv * old[lo + 1][t]
                    M[k][lo] = M[k][lo + 1] = Fraction(0)
                    M[lo][k] = M[lo + 1][k] = Fraction(0)
                pos += 1
                neg += 1
                lo += 2
                continue
        p = M[lo][lo]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(lo + 1, n):
            if M[i][lo]:
                f = M[i][lo] / p
                for j in range(lo + 1, n):
                    M[i][j] -= f * M[lo][j]
        for i in range(lo + 1, n):
            M[lo][i] = M[i][lo] = Fraction(0)
        lo += 1
    return pos, neg, null


def charpoly(G) -> list[int]:
    """Coefficients c_0, ..., c_n of det(x I - G) = sum c_k x^k, by Faddeev-LeVerrier.

    With M_0 = 0 and c_n = 1, step k sets M_k = G M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(G M_k) / k.  For an integer G every M_k and c is an integer,
    so each division by k is exact; no elimination and no pivot is used.
    """
    n = len(G)
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = matmul(G, M)
        for i in range(n):
            M[i][i] += c[n - k + 1]
        t = sum(dot(G[i], [row[i] for row in M]) for i in range(n))
        if t % k:
            raise AssertionError("Faddeev-LeVerrier division is not exact")
        c[n - k] = -t // k
    return c


def signature_descartes(G) -> tuple[int, int, int]:
    """(pos, neg, null) of a symmetric G from its characteristic polynomial alone.

    A real symmetric matrix has only real eigenvalues, and for a polynomial
    with only real roots Descartes' rule of signs is exact: the sign changes
    of the coefficients count the positive roots, those of p(-x) the
    negative ones.  null is the multiplicity of the root 0, the number of
    zero coefficients below the lowest nonzero one.
    """
    c = charpoly(G)
    null = next(k for k, e in enumerate(c) if e)

    def changes(coeffs):
        signs = [e > 0 for e in coeffs if e]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(c), changes([e if k % 2 == 0 else -e for k, e in enumerate(c)]), null


def witness_ss(d):
    """Least (n, a) with a*d = 2n^2 + 2n + 2 for even d, or None, by scanning n in [0, d/2).

    With m = d/2, d | 2(n^2 + n + 1) iff m | n^2 + n + 1, and
    (n + m)^2 + (n + m) + 1 = n^2 + n + 1 (mod m): the condition has period
    m in n.  So any witness n leaves a witness n mod m in [0, m), no larger,
    and the least witness is in the scan; an empty scan proves there is none.
    """
    for n in range(d // 2):
        t = 2 * (n * n + n + 1)
        if t % d == 0:
            return n, t // d
    return None


@functools.cache
def a2_primitive_norms(limit):
    """The n <= limit that x^2 - xy + y^2 takes at a coprime (x, y), by enumeration.

    (**) holds for d = 2n exactly where n is one of them, and this needs no
    factorization.  x^2 - xy + y^2 >= (x^2 + y^2) / 2, so every such pair
    has |x|, |y| <= isqrt(2 * limit) + 1.
    """
    box = range(-math.isqrt(2 * limit) - 1, math.isqrt(2 * limit) + 2)
    return frozenset(n for x in box for y in box
                     if (n := x * x - x * y + y * y) <= limit and math.gcd(x, y) == 1)


def primes_below(n):
    """The primes below n >= 2, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


def factorizations(lo, hi):
    """{p: e} of every n in [lo, hi), lo >= 1, primes ascending, by a segmented sieve.

    Each prime p <= sqrt(hi) (from `primes_below`) is divided out of every
    multiple of p in the window; what is left of n above 1 is a prime.  No
    trial division of a single n, and no primality test.
    """
    rest = list(range(lo, hi))
    out = [{} for _ in rest]
    for p in primes_below(math.isqrt(hi) + 1):
        for i in range(-lo % p, hi - lo, p):
            e = 0
            while rest[i] % p == 0:
                rest[i] //= p
                e += 1
            out[i][p] = e
    for f, r in zip(out, rest):
        if r > 1:
            f[r] = 1
    return out


def sqrt_cf(D):
    """(a0, period) of sqrt(D), nonsquare D, from the (m, den) recurrence."""
    a0 = math.isqrt(D)
    period = []
    m, den, a = 0, 1, a0
    while a != 2 * a0:
        m = den * a - m
        den = (D - m * m) // den
        a = (a0 + m) // den
        period.append(a)
    return a0, period


def least_even_hit(D, a0, period):
    """Least positive solution of x^2 - D y^2 = -3 read off the full period
    [a0; period] of sqrt(D): the convergent at the least even j < L with
    Q_(j+1) = 3, or None.

    The Q_i follow from the given quotients alone, by m_(i+1) = Q_i a_i - m_i
    and Q_(i+1) = (D - m_(i+1)^2) / Q_i (an exact division), over the whole
    period; the convergent is built by the step-by-step recurrence.
    """
    m, Q, hits = 0, 1, []
    for j, a in enumerate([a0, *period[:-1]]):
        m = Q * a - m
        Q, r = divmod(D - m * m, Q)
        assert r == 0 and Q > 0
        if Q == 3 and j % 2 == 0:
            hits.append(j)
    assert Q == 1  # Q_L
    if not hits:
        return None
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in period[:min(hits)]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    assert p * p - D * q * q == -3
    return p, q


def _convergents(D):
    a0, period = sqrt_cf(D)
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    yield p, q
    while True:
        for a in period:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            yield p, q


def _fundamental_unit(D):
    for p, q in _convergents(D):
        if p * p - D * q * q == 1:
            return p, q


def solve_minus3(D):
    """(solution, bound_searched) of x^2 - D y^2 = -3 by checking the norm of
    every convergent of sqrt(D) over two periods (D > 9), or by factoring
    (square D), or by a scan below the unit bound (D <= 9)."""
    s = math.isqrt(D)
    if s * s == D:
        if s in (1, 2):
            return (1, 2 // s), 2 // s
        return None, 1
    if D > 9:
        count = 2 * len(sqrt_cf(D)[1]) + 1
        last_q = 0
        for k, (p, q) in enumerate(_convergents(D)):
            if k >= count:
                break
            last_q = q
            if p * p - D * q * q == -3:
                return (p, q), q
        return None, last_q
    x0, y0 = _fundamental_unit(D)
    ybound = math.isqrt((3 * y0 * y0) // (2 * (x0 - 1))) + 1
    best = None
    for y in range(1, ybound + 1):
        t = D * y * y - 3
        if t < 0:
            continue
        x = math.isqrt(t)
        if x * x != t:
            continue
        cand = (D * y * y0, y * x0) if x == 0 else (x, y)
        if best is None or cand[1] < best[1]:
            best = cand
    return best, ybound


# D*y^2 - 3 = x^2 makes D*y^2 - 3 a square modulo any M, so only the y in
# the residue classes mod M where it is one can solve the equation
SIEVE_M = 8 * 9 * 5 * 7
SQUARES_MOD_M = frozenset(x * x % SIEVE_M for x in range(SIEVE_M))


def sieve_classes(D):
    """The classes r mod SIEVE_M where D*r^2 - 3 is a square mod SIEVE_M."""
    return [r for r in range(SIEVE_M) if (D * r * r - 3) % SIEVE_M in SQUARES_MOD_M]


def brute_least(D, ymax):
    """The least solution (x, y) of x^2 - D y^2 = -3 with 0 < y < ymax, or None.

    It visits y in increasing order, but only in the classes mod SIEVE_M
    that the squares allow.
    """
    classes = sieve_classes(D)
    for base in range(0, ymax, SIEVE_M):
        for r in classes:
            y = base + r
            if y >= ymax:
                return None
            t = D * y * y - 3
            if t <= 0:
                continue
            x = math.isqrt(t)
            if x * x == t:
                return (x, y)
    return None


# --- discriminant forms by exhaustive search (the genus oracle) --------------


@functools.cache
def generic_disc_group(gram_data) -> DiscGroup:
    """The library's `disc_group` of the Gram with rows `gram_data`, run once per Gram.

    Three tests read the Smith forms of the same Grams of Gamma_d and Lambda_d.
    """
    return disc_group(GramLattice(IntMatrix(gram_data)))


@dataclass(frozen=True)
class DiscForm:
    """Finite quadratic form on a discriminant group, in invariant-factor coordinates."""

    orders: tuple[int, ...]
    pair_table: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def of(L: GramLattice) -> "DiscForm":
        return DiscForm.of_group(L, generic_disc_group(L.gram.data))

    @staticmethod
    def of_group(L: GramLattice, dg: DiscGroup) -> "DiscForm":
        """The form on `dg`, which must be `disc_group(L)` already computed."""
        if not L.is_even:
            raise ValueError("discriminant forms are defined for even lattices")
        orders = dg.invariant_factors
        # the generator of order d is the integer column c over d
        table = tuple(
            tuple(Fraction(L.pairing(ci, cj), di * dj) for cj, dj in zip(dg.columns, orders))
            for ci, di in zip(dg.columns, orders)
        )
        return DiscForm(orders, table)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def elements(self):
        return itertools.product(*(range(o) for o in self.orders))

    def element_order(self, el) -> int:
        out = 1
        for a, o in zip(el, self.orders):
            out = math.lcm(out, o // math.gcd(a, o))
        return out

    def scaled_table(self, N: int) -> list[list[int]]:
        """N times the pair table, in integers; N must clear every denominator."""
        return [[x.numerator * (N // x.denominator) for x in row] for row in self.pair_table]


def _q_num(T, el, N: int) -> int:
    # N q(el) modulo 2N, on the integer pair table T = N * pair_table
    total = 0
    k = len(el)
    for i in range(k):
        total += el[i] * el[i] * T[i][i]
        for j in range(i + 1, k):
            total += 2 * el[i] * el[j] * T[i][j]
    return total % (2 * N)


def _b_num(T, e1, e2, N: int) -> int:
    # N b(e1, e2) modulo N, on the integer pair table T = N * pair_table
    k = len(e1)
    return sum(e1[i] * e2[j] * T[i][j] for i in range(k) for j in range(k)) % N


class SearchCapExceeded(ValueError):
    """The brute-force form search was asked to exceed its cap."""


def disc_forms_isomorphic(F1: DiscForm, F2: DiscForm, cap: int = 10_000) -> bool:
    """Brute-force search for a quadratic-form isomorphism of two finite forms.

    Raises SearchCapExceeded when the group has more than `cap` elements.
    """
    if F1.orders != F2.orders:
        return False
    n = F1.order
    if n > cap:
        raise SearchCapExceeded(f"group order {n} exceeds cap {cap}")
    if n == 1:
        return True
    k = len(F1.orders)
    # q and b of both forms as integer numerators over one common denominator N
    N = math.lcm(*(x.denominator for F in (F1, F2) for row in F.pair_table for x in row))
    T1, T2 = F1.scaled_table(N), F2.scaled_table(N)
    gens1 = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    q1 = [_q_num(T1, g, N) for g in gens1]
    b1 = [[_b_num(T1, gi, gj, N) for gj in gens1] for gi in gens1]
    q2 = [(el, _q_num(T2, el, N)) for el in F2.elements()]  # q of each element, once
    candidates = [[el for el, q in q2 if q == q1[i] and F2.element_order(el) == F1.orders[i]]
                  for i in range(k)]

    # the images generate Z/o_1 + ... + Z/o_k iff with the relations they
    # span Z^k, that is iff their Hermite basis is the identity
    relations = [[o if j == i else 0 for j in range(k)] for i, o in enumerate(F2.orders)]

    def images_generate(images) -> bool:
        return la.hnf_rows([list(im) for im in images] + relations) == la.identity(k)

    def extend(i, chosen):
        if i == k:
            return images_generate(chosen)
        for el in candidates[i]:
            if all(_b_num(T2, el, prev, N) == b1[i][j] for j, prev in enumerate(chosen)):
                if extend(i + 1, chosen + [el]):
                    return True
        return False

    return extend(0, [])


def genus_compare(d: int, cap: int = 10_000) -> bool:
    """Genus of Gamma_d against Lambda_d on the generic 21x21 Grams.

    Rank, `signature` of the whole Gram, and the discriminant forms of the
    generic Smith forms compared by exhaustive search.
    """
    Gd = GramLattice(hassett_triple(d).gram_Gamma_d, f"Gamma_{d}")
    Ld = lambda_d_lattice(d)
    if Gd.rank != Ld.rank or lat.signature(Gd) != lat.signature(Ld):
        return False
    return disc_forms_isomorphic(DiscForm.of(Gd), DiscForm.of(Ld), cap)


def series_sqrt_newton(c):
    """Square root with constant term 1 by Newton's iteration s -> (s + c/s)/2.

    Each step doubles the number of correct coefficients, so four steps
    from s = 1 reach h^4.
    """
    s = CohClass.of(1, 0, 0, 0, 0)
    for _ in range(4):
        s = (s + c * series_inverse(s)).scale(Fraction(1, 2))
    return s


def euler_line(k):
    """C(k + 5, 5) - C(k + 2, 5), each a generalized binomial: a falling factorial over 5!."""
    def binom5(m):
        return math.prod(range(m - 4, m + 1)) // math.factorial(5)

    return binom5(k + 5) - binom5(k + 2)
