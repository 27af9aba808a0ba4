"""Integral lattices presented by Gram matrices.

A lattice here is a free Z-module of finite rank with an integer symmetric
bilinear form, given by its Gram matrix.  Vectors are coordinate tuples in
the (implicit) basis.  Everything is immutable (frozen records, see
`_record`) and every operation is a pure function, so values can be shared
freely between threads.

The arithmetic stays in integers (a non-integral coordinate raises
`InvalidVector`, a non-integral, ragged or non-symmetric Gram matrix
`InvalidMatrix`, and anything but a lattice where one is required
`InvalidLattice`; nothing is truncated) and touches only nonzero entries: a
`GramLattice` keeps the sparse rows of its Gram matrix for pairings and
induced Gram matrices, both scattered from the nonzero entries of each
vector (`intlinalg.sparse_mat_vec`).  Each lattice fact is read off the one
reduction that produces it.  Saturation is one echelon U * S^T = H of the
generators, run on a short suffix of the coordinates where some generator
is nonzero (k + 3 of them for k generators), whose rows span the same
module as all of them: the product of the diagonal of H is the index
[sat : S], and one `intlinalg.echelon_solve` against H gives a basis of
the saturation, and proves the suffix spans when it divides exactly (see
`saturation`).  Complements are one `left_kernel` of the pairing matrix
G * W^T, which echelons only a suffix of its rows that spans the same
module as all of them (k + 2 rows for k vectors) and solves the other rows
against it with the same `echelon_solve`.  Both suffixes grow by 1, 2, 4,
... rows while a division is inexact (`intlinalg.suffix_starts`).
Saturations and complements come back as canonical Hermite bases, so equal
lattices have equal bases, and membership is Hermite equality: v lies in the
lattice with Hermite basis H exactly when the Hermite basis of H + [v] is H
again (a non-integral vector is never a member).  A sublattice built here
as a saturation or a complement carries that fact (see `Sublattice`), so
its own saturation is itself, at index 1, with no echelon.  Determinants
are the signed diagonal of one `row_echelon`.
`disc_group` reads degeneracy off the zero of the Smith diagonal and stays
in integers: generator i is the Smith column c_i over its order n_i, and
its q-value is the numerator (c_i . c_i) / n_i mod 2 n_i over n_i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .errors import (
    DegenerateLattice,
    DependentGenerators,
    InvalidLattice,
    InvalidMatrix,
    InvalidVector,
    ZeroVector,
)
from . import intlinalg as la

Vector = tuple[int, ...]


def _as_int(e) -> int:
    if type(e) is int:
        return e
    if type(e) is not bool:  # a bool is refused, as wherever an exact int is required
        try:
            n = int(e)
            if n == e:
                return n
        except (OverflowError, TypeError, ValueError):  # an infinity, a nan, None, ...
            pass
    raise InvalidVector(f"non-integral entry {e!r}")


_INT_ONLY = frozenset({int})
# the entries `GramLattice.pairing` takes: rationals, exactly (a bool is refused)
_RATIONAL = frozenset({int, Fraction})


def as_vector(v) -> Vector:
    """The integer coordinate tuple of v; a non-integral entry raises `InvalidVector`.

    A tuple of exact ``int`` entries is returned as it is; any other entry
    goes through the full check, which refuses a ``bool`` and accepts a
    ``Fraction`` or ``float`` only at an integer value.  A v that is not
    iterable is refused too.
    """
    try:
        t = tuple(v)
    except TypeError:
        raise InvalidVector(f"a coordinate vector is required, got {v!r}") from None
    if _INT_ONLY.issuperset(map(type, t)):
        return t
    return tuple(map(_as_int, t))


class IntMatrix(Record):
    """Immutable integer matrix, row-major.

    The constructor takes a tuple of int tuples as it is (kernel outputs are
    built this way, unvalidated) and checks only that the rows have one
    length; `from_rows` validates entries from outside.
    """

    def __init__(self, data: tuple[tuple[int, ...], ...]):
        if len({len(row) for row in data}) > 1:
            raise InvalidMatrix("ragged matrix")
        self.__dict__["data"] = data

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        try:
            data = tuple(map(as_vector, rows))
        except InvalidVector as e:  # a non-integral entry, with `as_vector`'s message
            raise InvalidMatrix(str(e)) from None
        return IntMatrix(data)

    @property
    def nrows(self) -> int:
        return len(self.data)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def is_symmetric(self) -> bool:
        # the transpose of a non-square matrix has another shape
        return self.data == tuple(zip(*self.data))

    def to_json(self) -> list[list]:
        return [[json_int(e) for e in row] for row in self.data]


def json_int(n: int):
    """Integers above 64 bits are rendered as decimal strings in JSON."""
    return n if -(2**63) <= n < 2**63 else str(n)


class GramLattice(Record):
    """A finite-rank integral lattice given by a symmetric Gram matrix."""

    def __init__(self, gram: IntMatrix, label: str | None = None):
        if not isinstance(gram, IntMatrix):
            raise InvalidLattice(f"a Gram IntMatrix is required, got {gram!r}")
        if not gram.is_symmetric():
            raise InvalidMatrix("Gram matrix must be symmetric")
        s = self.__dict__
        s["gram"] = gram
        s["label"] = label

    @staticmethod
    def from_rows(rows, label: str | None = None) -> "GramLattice":
        return GramLattice(IntMatrix.from_rows(rows), label)

    @property
    def rank(self) -> int:
        return self.gram.nrows

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram.data[i][i] % 2 == 0 for i in range(self.rank))

    @cached_property
    def det(self) -> int:
        """Signed determinant of the Gram matrix."""
        return la.det(self.gram.to_lists())

    @property
    def abs_det(self) -> int:
        return abs(self.det)

    def _check_rational(self, v):
        # one scan of the entry types: an int or a Fraction, never a float or a bool
        if len(v) != self.rank:
            raise InvalidVector(f"vector length {len(v)} != rank {self.rank}")
        if not _RATIONAL.issuperset(map(type, v)):
            raise InvalidVector(f"non-rational entry in {tuple(v)!r}")

    @cached_property
    def gram_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each Gram row (see `intlinalg.sparse_rows`)."""
        return tuple(map(tuple, la.sparse_rows(self.gram.data)))

    def pairing(self, u, v):
        """u * G * v^T for rational vectors u and v (int or `Fraction` entries)."""
        self._check_rational(u)
        self._check_rational(v)
        return la.pairing(self.gram_rows, u, v)

    def square(self, v):
        self._check_rational(v)
        return la.pairing(self.gram_rows, v, v)

    def basis_pairings(self, v) -> list:
        """Pairings of the rational vector v with the basis vectors, i.e. G*v."""
        self._check_rational(v)
        return la.sparse_mat_vec(self.gram_rows, v)

    def to_json(self) -> dict:
        obj: dict = {}
        if self.label is not None:
            obj["label"] = self.label
        obj["gram"] = self.gram.to_json()
        return obj

    @staticmethod
    def from_json(obj: dict) -> "GramLattice":
        # integers above 64 bits arrive as decimal strings (see `json_int`)
        rows = [[int(e) if isinstance(e, str) else e for e in row] for row in obj["gram"]]
        return GramLattice.from_rows(rows, obj.get("label"))


class Sublattice(Record):
    """A sublattice of an ambient lattice, given by basis rows in ambient coordinates.

    `saturation`, `saturate_rows` and `orthogonal_complement` prove that the
    basis they return is saturated and a canonical Hermite basis, and they
    mark it so (`_saturated`); `saturation` returns a marked sublattice as it
    is.  The marker is set only in this module and is not a field: the
    constructor cannot set it, a copy (`_replace`, or the constructor on
    the same ambient and basis) is unmarked, and `==`, `repr` and `hash` do
    not see it.
    """

    _saturated = False  # see `_saturated_sublattice`

    def __init__(self, ambient: GramLattice, basis: IntMatrix):
        if not (isinstance(ambient, GramLattice) and isinstance(basis, IntMatrix)):
            raise InvalidLattice(f"a GramLattice and an IntMatrix basis are required, "
                                 f"got {ambient!r} and {basis!r}")
        s = self.__dict__
        s["ambient"] = ambient
        s["basis"] = basis

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @cached_property
    def induced_gram(self) -> IntMatrix:
        # kernel outputs are Python ints already: built directly, not re-validated
        G = la.sparse_gram_product(self.basis.data, self.ambient.gram_rows)
        return IntMatrix(tuple(map(tuple, G)))

    def as_lattice(self, label: str | None = None) -> GramLattice:
        return GramLattice(self.induced_gram, label)

    @cached_property
    def det(self) -> int:
        return la.det(self.induced_gram.to_lists())

    @property
    def abs_det(self) -> int:
        return abs(self.det)

    @cached_property
    def _hnf(self) -> list[list[int]]:
        # the canonical Hermite basis of the same lattice; a marked basis is one
        if self._saturated:
            return self.basis.to_lists()
        return la.hnf_rows(self.basis.to_lists())

    def contains(self, v) -> bool:
        """Whether the (possibly rational) ambient vector lies in the sublattice.

        Hermite equality: v is a member iff adding it to the canonical
        Hermite basis H spans the same lattice, i.e. hnf_rows(H + [v]) == H.
        A vector with a non-integral entry (a ``Fraction``, a float, ``None``,
        ...) is not a member.
        """
        _check_lengths(self.ambient, [v])
        try:
            w = as_vector(v)
        except InvalidVector:
            return False  # integer basis rows span only integer vectors
        return la.hnf_rows(self._hnf + [list(w)]) == self._hnf


class DiscGroup(Record):
    """Discriminant group A_L = L*/L of a nondegenerate lattice, in integers.

    Generator i of the cyclic factor of order n_i = `invariant_factors[i]`
    is the class of c / n_i for c = `columns[i]`, an integer coordinate vector
    with G c = 0 (mod n_i) and gcd(n_i, c) = 1.  Its discriminant quadratic
    form value is q_i = `q_numerators[i]` / n_i in Q/2Z, with the numerator
    in [0, 2 n_i); `q_numerators` is None for an odd lattice.
    """

    def __init__(self, invariant_factors: tuple[int, ...], columns: tuple[Vector, ...],
                 q_numerators: tuple[int, ...] | None):
        s = self.__dict__
        s["invariant_factors"] = invariant_factors
        s["columns"] = columns
        s["q_numerators"] = q_numerators

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


# ---------------------------------------------------------------------------
# operations


def direct_sum(parts, *, label: str | None = None) -> GramLattice:
    """Orthogonal sum of lattices: the block-diagonal Gram of the parts, in order.

    The sum is validated like any Gram from outside (`GramLattice.from_rows`),
    since a part built with the raw `IntMatrix` constructor may hold
    non-integral entries.
    """
    parts = list(parts)
    if not parts or not all(isinstance(p, GramLattice) for p in parts):
        raise InvalidLattice(f"direct_sum needs at least one part, all GramLattices, got {parts!r}")
    rank = sum(p.rank for p in parts)
    rows = []
    off = 0
    for part in parts:
        pad = rank - off - part.rank
        rows += [(0,) * off + row + (0,) * pad for row in part.gram.data]
        off += part.rank
    return GramLattice.from_rows(rows, label)


def signature(L: GramLattice) -> tuple[int, int, int]:
    """Sylvester signature (pos, neg, null) by exact symmetric elimination.

    Zero pivots are handled by moving a nonzero diagonal entry to the front
    when one exists, and otherwise by splitting off a hyperbolic 2x2 block,
    which contributes (1, 1).  Each step updates only the rows and columns
    where the pivot rows are nonzero: the trailing block stays symmetric, so
    no other entry of it changes.
    """
    _check_lattice(L)
    n = L.rank
    M = L.gram.to_lists()  # entries become Fractions where elimination divides
    pos = neg = null = 0

    def swap(i, j):
        M[i], M[j] = M[j], M[i]
        for row in M:
            row[i], row[j] = row[j], row[i]

    lo = 0
    while lo < n:
        if not M[lo][lo]:
            d = next((j for j in range(lo + 1, n) if M[j][j]), None)
            if d is not None:
                swap(lo, d)
        row = M[lo]
        support = [j for j in range(lo + 1, n) if row[j]]
        if row[lo]:
            p = Fraction(row[lo])
            if p > 0:
                pos += 1
            else:
                neg += 1
            for i in support:
                Mi = M[i]
                f = Mi[lo] / p
                for j in support:
                    Mi[j] -= f * row[j]
            lo += 1
        elif not support:
            null += 1
            lo += 1
        else:
            # all remaining diagonal entries vanish: split a hyperbolic plane
            swap(lo + 1, support[0])
            u, w = M[lo], M[lo + 1]
            b = Fraction(u[lo + 1])
            support = [k for k in range(lo + 2, n) if u[k] or w[k]]
            for k in support:
                Mk = M[k]
                cu = Mk[lo + 1] / b  # component along the first plane vector
                cv = Mk[lo] / b
                for t in support:
                    Mk[t] -= cu * u[t] + cv * w[t]
            pos += 1
            neg += 1
            lo += 2
    return pos, neg, null


def disc_group(L: GramLattice) -> DiscGroup:
    """Discriminant group from the Smith normal form of the Gram matrix.

    With U*G*V = D, the class of the i-th column c of V over d_i generates
    the i-th cyclic factor (this is the dual-basis description: G * c / d_i
    is a standard generator of Z^n / G Z^n).  G c = 0 (mod d_i), so
    (c . c) / d_i is an integer, the numerator of q over d_i.  Each column
    comes back reduced into [0, d_i): a change of c by d_i e keeps its class,
    and changes (c . c) / d_i by 2 e.(G c) + d_i (e . e) = 0 (mod 2 d_i) on
    an even lattice, so q too.
    """
    _check_lattice(L)
    diag, V = la.smith_normal_form(L.gram.to_lists())
    if 0 in diag:
        raise DegenerateLattice("discriminant group needs det != 0")
    factors = tuple(d for d in diag if d > 1)
    cols = tuple(tuple(row[i] % d for row in V) for i, d in enumerate(diag) if d > 1)
    q_numerators = None
    if L.is_even:
        q_numerators = tuple(L.square(c) // d % (2 * d) for c, d in zip(cols, factors))
    return DiscGroup(factors, cols, q_numerators)


def span_sublattice(amb: GramLattice, vecs) -> Sublattice:
    _check_lattice(amb)
    rows = [as_vector(v) for v in vecs]
    _check_lengths(amb, rows)
    if la.rank_int(rows) != len(rows):
        raise DependentGenerators("generators are linearly dependent")
    return Sublattice(amb, IntMatrix(tuple(rows)))


def saturate_rows(amb: GramLattice, rows) -> Sublattice:
    """Saturation of the row span: all ambient integer vectors in its rational span.

    Accepts an arbitrary (possibly dependent) generating list; see
    `saturation` for the reduction.  The basis is the canonical Hermite basis.
    """
    _check_lattice(amb)
    return _saturate(amb, [as_vector(v) for v in rows])[0]


def saturation(S: Sublattice) -> tuple[Sublattice, int]:
    """Minimal primitive sublattice containing S, plus the index [sat : S].

    One echelon U * T = H decides everything (Cohen, GTM 138, section
    2.4.3), for T the rows of S^T that are not zero, the m coordinates where
    some generator is nonzero: a zero row of S^T is never a pivot and never
    changes, so leaving it out changes U alone, which is not used.  When H
    has rank k, its pivots are its first k diagonal entries and the
    generators are S = C * W with C = H[:k]^T lower triangular and W the
    first k rows of U^-T.  W is part of a unimodular matrix, so its rows are
    a basis of the saturation, and [sat : S] = det C = prod H[i][i].
    W = C^-1 * S is one `intlinalg.echelon_solve`, and one Hermite reduction
    of W makes the basis canonical.

    The echelon runs first on a suffix T[j0:] of k + 3 rows, which grows by
    1, 2, 4, ... rows (`intlinalg.suffix_starts`).  Of rank k, it gives a C
    and a W = C^-1 * S by the same solve, whose coordinates on the suffix
    are the first k rows of U^-T.  If W is integral, every row T_j is an
    integer combination (its coordinate column of W) of the rows of
    H[:k], so the suffix spans the same module as all of T: W is a basis
    of the saturation and prod H[i][i] is the index, as for all of T.  A
    division with a remainder means some T_j is outside that module, and
    the suffix grows.  When no suffix is tried (m <= k + 3) or one has rank
    below k, H is the echelon of all of T; its rank r is k exactly when the
    generators are independent, and for a dependent generating list
    (`saturate_rows`) the solve runs on the generators at the pivot columns
    of H, where a remainder is an AssertionError, never truncated.

    A sublattice marked saturated where it was built (see `Sublattice`)
    comes back as it is, with index 1.  Any other runs the echelon, even
    one with an equal basis built by the caller.

    K_d is the saturation of the span of h^2 and the Noether-Lefschetz
    vector in Gammabar, of |det| = d; the span has index 3 in it for
    d = 2 (mod 6) and is saturated for d = 0 (mod 6):

    >>> from cubick3.standard import H2, gamma_to_gammabar, nl_vector, standard_lattice
    >>> gb = standard_lattice("Gammabar")
    >>> K8, index = saturation(span_sublattice(gb, [H2, gamma_to_gammabar(nl_vector(8))]))
    >>> index, K8.abs_det
    (3, 8)
    >>> K12, index = saturation(span_sublattice(gb, [H2, gamma_to_gammabar(nl_vector(12))]))
    >>> index, K12.abs_det
    (1, 12)
    """
    if not isinstance(S, Sublattice):
        raise InvalidLattice(f"a Sublattice is required, got {S!r}")
    if S._saturated:
        return S, 1
    sat, H, r = _saturate(S.ambient, S.basis.data)
    if r < S.rank:
        raise DependentGenerators("sublattice basis is linearly dependent")
    return sat, math.prod(H[i][i] for i in range(r))


def _check_lattice(L):
    if not isinstance(L, GramLattice):
        raise InvalidLattice(f"a GramLattice is required, got {L!r}")


def _check_lengths(amb: GramLattice, rows):
    n = amb.rank
    for row in rows:
        if len(row) != n:
            raise InvalidVector("vector length does not match the ambient rank")


def _saturate(amb: GramLattice, rows):
    # (saturation, echelon H of a spanning suffix of rows^T, rank); no rows
    # give the rank-0 lattice
    n, k = amb.rank, len(rows)
    _check_lengths(amb, rows)
    # the zero rows of rows^T are left out: that changes U alone (see `saturation`)
    T = [c for c in zip(*rows) if any(c)]
    # a suffix of rank k spans the module of all of T exactly when W is
    # integral; the echelon's transform is not read, so none is carried
    W = None
    for j0 in la.suffix_starts(len(T), k + 3):
        H, r, _ = la.row_echelon(T[j0:], k)
        if r < k:
            break
        W = la.echelon_solve(H, range(k), rows)
        if W is not None:
            break
    if W is None:
        H, _, r = la.row_echelon_transform(T)
        if r == n:
            return _saturated_sublattice(amb, la.identity(n)), H, r
        # row i of H has its pivot in column p_i, and rows j > i vanish there,
        # so generator p_i is rows[p_i] = sum_{j <= i} H[j][p_i] * W[j]
        W = la.echelon_solve(H, [la.pivot_column(h) for h in H[:r]], rows)
        if W is None:
            raise AssertionError("a generator is not divisible by its pivot")
    return _saturated_sublattice(amb, la.hnf_rows(W)), H, r


def _saturated_sublattice(amb: GramLattice, basis) -> Sublattice:
    # the one place that marks a Sublattice: basis must be proved saturated
    # and a canonical Hermite basis by the caller (see `Sublattice`)
    S = Sublattice(amb, IntMatrix(tuple(map(tuple, basis))))
    S.__dict__["_saturated"] = True
    return S


def orthogonal_complement(amb: GramLattice, vecs) -> Sublattice:
    """The saturated sublattice of everything pairing to zero with the given vectors."""
    _check_lattice(amb)
    W = [as_vector(v) for v in vecs]
    _check_lengths(amb, W)
    # the rows of G * W^T; no vectors still give rank (empty) rows
    A = list(zip(*(la.sparse_mat_vec(amb.gram_rows, w) for w in W))) or [()] * amb.rank
    return _saturated_sublattice(amb, la.left_kernel(A))


def divisibility(amb: GramLattice, v) -> int:
    """The positive generator n of the pairing ideal (v . amb) = nZ."""
    _check_lattice(amb)
    v = as_vector(v)
    _check_lengths(amb, [v])
    if not any(v):
        raise ZeroVector("divisibility of the zero vector")
    return math.gcd(*(abs(p) for p in amb.basis_pairings(v)))


def is_primitive(amb: GramLattice, v) -> bool:
    """True when v is not a proper integer multiple, i.e. gcd of coordinates is 1."""
    _check_lattice(amb)
    v = as_vector(v)
    _check_lengths(amb, [v])
    if not any(v):
        raise ZeroVector("primitivity of the zero vector")
    return math.gcd(*(abs(e) for e in v)) == 1
