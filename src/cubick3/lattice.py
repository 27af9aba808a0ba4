"""Integral lattices presented by Gram matrices.

A lattice here is a free Z-module of finite rank with an integer symmetric
bilinear form, given by its Gram matrix.  Vectors are coordinate tuples in
the (implicit) basis.  Everything is immutable (frozen records, see
`_record`) and every operation is a pure function, so values can be shared
freely between threads.

The arithmetic stays in integers (a non-integral coordinate raises
`InvalidVector`, a non-integral, ragged or non-symmetric Gram matrix
`InvalidMatrix`, also in a raw `IntMatrix`, and anything but a lattice
where one is required `InvalidLattice`; nothing is truncated) and touches
only nonzero entries: a `GramLattice` keeps the sparse rows of its Gram
matrix for pairings and induced Gram matrices, both scattered from the
nonzero entries of each vector (`intlinalg.sparse_mat_vec`).  Each lattice
fact is read off the one reduction that produces it.  Saturation is one
echelon U * S^T = H of the generators, run on a short suffix of the
coordinates where some generator is nonzero (k + 3 of them for k
generators), whose rows span the same module as all of them: the product of the diagonal of H is the index
[sat : S], and one `intlinalg.echelon_solve` against H gives a basis of
the saturation, and proves the suffix spans when it divides exactly (see
`saturation`).  Complements are one `left_kernel` of the pairing matrix
G * W^T, which echelons only a suffix of its rows that spans the same
module as all of them (k + 2 rows for k vectors) and solves the other rows
against it with the same `echelon_solve`.  Both suffixes grow by 1, 2, 4,
... rows while a division is inexact (`intlinalg.suffix_starts`).
Saturations and complements come back as canonical Hermite bases, so equal
lattices have equal bases, and membership is one `echelon_solve` of v
against the Hermite basis H at its pivot columns, checked in the others (a
non-integral vector is never a member).  A sublattice built here
as a saturation or a complement carries that fact (see `Sublattice`), so
its own saturation is itself, at index 1, with no echelon.  The signature
and the determinant of a Gram are read off one fraction-free symmetric
elimination, `intlinalg.inertia`, which each `GramLattice` runs at most
once; no `Fraction` enters this module.
`disc_group` reads degeneracy off the zero of the Smith diagonal and stays
in integers: generator i is the Smith column c_i over its order n_i, and
its q-value is the numerator (c_i . c_i) / n_i mod 2 n_i over n_i.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from ._record import Record, json_int, parse_int, show
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
    raise InvalidVector(f"non-integral entry {show(e)}")


_INT_ONLY = frozenset({int})


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
        raise InvalidVector(f"a coordinate vector is required, got {show(v)}") from None
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
        except TypeError:
            raise InvalidMatrix(f"a sequence of rows is required, got {show(rows)}") from None
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


def _check_ints(matrix: IntMatrix, what: str):
    # a raw `IntMatrix` is not validated: an entry that is not an int is refused here
    if not _INT_ONLY.issuperset(map(type, chain.from_iterable(matrix.data))):
        bad = next(e for e in chain.from_iterable(matrix.data) if type(e) is not int)
        raise InvalidMatrix(f"non-integral {what} entry {show(bad)}")


class GramLattice(Record):
    """A finite-rank integral lattice given by a symmetric Gram matrix.

    `label` is a name for reports, a str or None; anything else raises
    InvalidMatrix.
    """

    def __init__(self, gram: IntMatrix, label: str | None = None):
        if not isinstance(gram, IntMatrix):
            raise InvalidLattice(f"a Gram IntMatrix is required, got {show(gram)}")
        if not gram.is_symmetric():
            raise InvalidMatrix("Gram matrix must be symmetric")
        _check_ints(gram, "Gram")
        if label is not None and not isinstance(label, str):
            raise InvalidMatrix(f"a lattice label must be a str or None, got {show(label)}")
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
    def _inertia(self) -> tuple[int, int, int, int]:
        # (pos, neg, null, det): `signature` and `det` read one elimination
        return la.inertia(self.gram.data)

    @property
    def det(self) -> int:
        """Signed determinant of the Gram matrix."""
        return self._inertia[3]

    @property
    def abs_det(self) -> int:
        return abs(self.det)

    @cached_property
    def gram_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each Gram row (see `intlinalg.sparse_rows`)."""
        return tuple(map(tuple, la.sparse_rows(self.gram.data)))

    def pairing(self, u, v) -> int:
        """u * G * v^T for integer coordinate vectors u and v (see `as_vector`)."""
        u, v = as_vector(u), as_vector(v)
        _check_lengths(self, (u, v))
        return la.pairing(self.gram_rows, u, v)

    def square(self, v) -> int:
        v = as_vector(v)
        _check_lengths(self, (v,))
        return la.pairing(self.gram_rows, v, v)

    def basis_pairings(self, v) -> list[int]:
        """Pairings of the integer vector v with the basis vectors, i.e. G*v."""
        v = as_vector(v)
        _check_lengths(self, (v,))
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
        try:
            rows = [[parse_int(e) if isinstance(e, str) else e for e in r] for r in obj["gram"]]
        except (KeyError, TypeError, ValueError):
            raise InvalidMatrix(f"not a JSON lattice with integer gram rows: {show(obj)}") from None
        return GramLattice.from_rows(rows, obj.get("label"))


class Sublattice(Record):
    """A sublattice of an ambient lattice, given by basis rows in ambient coordinates.

    `saturation`, `saturate_rows` and `orthogonal_complement` prove that the
    basis they return is saturated and a canonical Hermite basis, and they
    mark it so (`_saturated`); `saturation` returns a marked sublattice as it
    is.  The marker is set only in this module and is not a field: the
    constructor cannot set it, a copy (`_replace`, or the constructor on
    the same ambient and basis) is unmarked, and `==`, `repr` and `hash` do
    not see it.  A basis entry that is not an int raises InvalidMatrix; the
    builders of this module, whose bases are ints by construction, skip that
    check (`_sublattice`).
    """

    _saturated = False  # see `_saturated_sublattice`

    def __init__(self, ambient: GramLattice, basis: IntMatrix):
        if not (isinstance(ambient, GramLattice) and isinstance(basis, IntMatrix)):
            raise InvalidLattice(f"a GramLattice and an IntMatrix basis are required, "
                                 f"got {show(ambient)} and {show(basis)}")
        # IntMatrix rows have one length, so the first row stands for all
        if basis.data and len(basis.data[0]) != ambient.rank:
            raise InvalidVector("basis row length does not match the ambient rank")
        _check_ints(basis, "basis")
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
        return self.as_lattice().det

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

        One `intlinalg.echelon_solve` against the canonical Hermite basis H:
        v = z * H has at most one solution, read off the pivot columns of H
        by forward substitution, and v is a member iff that z is integral
        and z * H agrees with v in every other column too.  A rank-0
        sublattice holds only 0.  A vector with a non-integral entry (a
        ``Fraction``, a float, ``None``, ...) is not a member; a v that is
        not iterable raises `InvalidVector`.
        """
        try:
            v = tuple(v)
        except TypeError:
            raise InvalidVector(f"a coordinate vector is required, got {show(v)}") from None
        _check_lengths(self.ambient, [v])
        try:
            w = as_vector(v)
        except InvalidVector:
            return False  # integer basis rows span only integer vectors
        H = self._hnf
        z = la.echelon_solve(H, [la.pivot_column(h) for h in H], [[e] for e in w])
        return z is not None and all(
            sum(c * h[j] for (c,), h in zip(z, H)) == e for j, e in enumerate(w))


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

    Every part's Gram was checked when the part was built, so the sum is
    built with the raw `IntMatrix` constructor.
    """
    parts = list(parts)
    if not parts or not all(isinstance(p, GramLattice) for p in parts):
        raise InvalidLattice("direct_sum needs at least one part, all GramLattices, "
                             f"got {show(parts)}")
    rank = sum(p.rank for p in parts)
    rows = []
    off = 0
    for part in parts:
        pad = rank - off - part.rank
        rows += [(0,) * off + row + (0,) * pad for row in part.gram.data]
        off += part.rank
    return GramLattice(IntMatrix(tuple(rows)), label)


def signature(L: GramLattice) -> tuple[int, int, int]:
    """Sylvester signature (pos, neg, null), read off `intlinalg.inertia` with `det`."""
    _check_lattice(L)
    return L._inertia[:3]


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
    return _sublattice(amb, IntMatrix(tuple(rows)))


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
        raise InvalidLattice(f"a Sublattice is required, got {show(S)}")
    if S._saturated:
        return S, 1
    sat, H, r = _saturate(S.ambient, S.basis.data)
    if r < S.rank:
        raise DependentGenerators("sublattice basis is linearly dependent")
    return sat, math.prod(H[i][i] for i in range(r))


def _check_lattice(L):
    if not isinstance(L, GramLattice):
        raise InvalidLattice(f"a GramLattice is required, got {show(L)}")


def _check_lengths(amb: GramLattice, rows):
    n = amb.rank
    for row in rows:
        if len(row) != n:
            raise InvalidVector("vector length does not match the ambient rank")


def _saturate(amb: GramLattice, rows):
    # (saturation, echelon H of a spanning suffix of rows^T, rank); no rows
    # give the rank-0 lattice
    k = len(rows)
    _check_lengths(amb, rows)
    # the zero rows of rows^T are left out: that changes U alone (see `saturation`)
    T = [c for c in zip(*rows) if any(c)]
    # a suffix of rank k spans the module of all of T exactly when W is
    # integral; the echelon's transform is not read, so none is carried
    W = None
    for j0 in la.suffix_starts(len(T), k + 3):
        H, r = la.row_echelon(T[j0:], k)
        if r < k:
            break
        W = la.echelon_solve(H, range(k), rows)
        if W is not None:
            break
    if W is None:
        H, _, r = la.row_echelon_transform(T)
        # row i of H has its pivot in column p_i, and rows j > i vanish there,
        # so generator p_i is rows[p_i] = sum_{j <= i} H[j][p_i] * W[j]
        W = la.echelon_solve(H, [la.pivot_column(h) for h in H[:r]], rows)
        if W is None:
            raise AssertionError("a generator is not divisible by its pivot")
    return _saturated_sublattice(amb, la.hnf_rows(W)), H, r


def _sublattice(amb: GramLattice, basis: IntMatrix) -> Sublattice:
    # a Sublattice whose basis holds ints of the ambient rank by construction,
    # built without `Sublattice.__init__`'s checks, which cost a pass over it
    S = object.__new__(Sublattice)
    S.__dict__.update(ambient=amb, basis=basis)
    return S


def _saturated_sublattice(amb: GramLattice, basis) -> Sublattice:
    # the one place that marks a Sublattice: basis must be proved saturated
    # and a canonical Hermite basis by the caller (see `Sublattice`)
    S = _sublattice(amb, IntMatrix(tuple(map(tuple, basis))))
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
