"""The differential table: every fact Tier-1 checks against `oracles`, one row each.

A row names a fact (`id`), a library route and an oracle route (each a
function of one input, and the two must agree on every input), and the
sample both run on: a named sampler, its size, the ranges it draws from
and its seed.  A sampler is a generator of inputs; the row takes the first
`size` of them, and a sweep must have exactly `size`.  `draw` caches each
sample, so a sample that several rows read is built once per session: the
C11 sample, and the factorizations of the oracles' sieve.

`test_differential.py` runs every row, pins each row's size, ranges, seed,
sample digest and CI scale to its line in `differential_floors.txt` (a row
below its floor, above it, on another sample or missing fails), and checks
that each other test that calls into `oracles`, this module or one of
`verify`'s reference and generic routes is one of the `EXCEPTIONS`, listed
with its reason.  The samplers draw only from the `random.Random` methods
whose output is the same on Python 3.10-3.13.

These samplers are the suite's one source of drawn input: a fact checked
on drawn shapes (Grams, kernels, NL vectors, ...) is a row here, and a
test that is not a row draws from a seeded loop of its own, so every
sample is the same on every run and every release of the suite's tools.

A row's `ci` is its CI scale, and `tests/ci/differential_at_scale.py` runs
every row that has one at that scale: the first `ci` inputs of the same sampler and
seed, or a sweep over the `ci` ranges, which contain the row's.  So the
pinned sample is a prefix of the CI sample.  There a row with `paths` must
take every path of its suffix route, and an exception in a route counts as
a difference (`differs`).
"""

import functools
from collections import namedtuple
import itertools
import random
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter

import oracles
from cubick3 import conditions as cond
from cubick3 import intlinalg as la
from cubick3 import lattice as lat
from cubick3 import pell, standard as st
from cubick3.errors import DependentGenerators
from cubick3.mukai import CohClass, euler_line
from cubick3.verify import _derived_embedding, a2_bruteforce, series_sqrt


# ranges: the (lo, hi) pairs the sampler draws from, in its parameters' order;
# ci: the CI size, or a sweep's CI ranges; paths: on a suffix route's row, the
# function of an input that gives `oracles.suffix_path` its rows T and k columns
Row = namedtuple("Row", "id library oracle sampler size ranges seed ci paths",
                 defaults=(None, None, None))


SAMPLERS = {}


def sampler(f):
    SAMPLERS[f.__name__] = f
    return f


@functools.cache
def draw(name, size, ranges, seed=None) -> tuple:
    return tuple(itertools.islice(SAMPLERS[name](*ranges, seed=seed), size))


def differs(row, x):
    """Whether the row's routes differ on x: False, True, or the exception one of them raised."""
    try:
        return row.library(x) != row.oracle(x)
    except Exception as e:
        return e


# --- sweeps -------------------------------------------------------------------


@sampler
def sieve(ns, seed):
    yield from enumerate(oracles.factorizations(ns[0], ns[1] + 1), start=ns[0])


@sampler
def integers(ns, seed):
    yield from range(ns[0], ns[1] + 1)


@sampler
def nonsquare(Ds, seed):
    yield from (D for D in integers(Ds, seed) if isqrt(D) ** 2 != D)


@sampler
def even(ds, seed, residues=(0, 2, 4)):
    yield from (d for d in range(ds[0], ds[1] + 1, 2) if d % 6 in residues)


SAMPLERS.update(special=functools.partial(even, residues=(0, 2)),
                six=functools.partial(even, residues=(0,)))


@sampler
def sss_and_brakkee_D(ds, seed):
    # the D that witness_sss (D = 2d) and pell_brakkee (D = d/2) pass on
    for d in even(ds, seed):
        yield from (2 * d, d // 2) if d % 6 == 0 else (2 * d,)


# primes of known residue mod 3 and the largest exponent each is drawn with:
# small ones, 1031 (the least prime past the trial division), primes near
# 2^20, the two factors of psi_12 and a prime near 2^61
A2_PRIMES = ((2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (1031, 3), (1048573, 3),
             (1048583, 3), (399165290221, 1), (798330580441, 1), (2**61 + 15, 1))


@sampler
def known_factorizations(seed):
    # (d, the factorization of d/2), d/2 < psi_13 a product of the primes above
    # taken in a drawn order with drawn exponents, each prime kept only while
    # the product stays below psi_13.  In a third of the draws each prime
    # 2 (mod 3) has an even exponent, in a third it has none and 3 has at most
    # one, and the rest are free.
    rng = random.Random(seed)
    while True:
        kind, n, factors = rng.randint(0, 2), 1, {}
        for p, cap in rng.sample(A2_PRIMES, len(A2_PRIMES)):
            e = rng.randint(0, cap)
            if kind == 1 and p % 3 == 2:
                e -= e % 2
            elif kind == 2 and p % 3 != 1:
                e = min(e, 1) if p == 3 else 0
            if e and n * p**e < cond._PSI13:
                n *= p**e
                factors[p] = e
        yield 2 * n, factors


def _a2_flags_of(factors):
    # (**') and (**) read off the factorization of d/2: no prime 2 (mod 3) to
    # an odd power, and none at all with 3 at most once
    odd = [p for p in factors if p % 3 == 2]
    return all(factors[p] % 2 == 0 for p in odd), not odd and factors.get(3, 0) <= 1


@sampler
def theory_grams(seed):
    # the standard lattices, three LambdaD, and the four sublattices that
    # verify derives the embedding report's determinants from
    grams = [st.standard_lattice(name).gram for name in ("U", "E", "A2", "A2m", "I03", "Gammabar",
             "Gamma", "Lambda", "LambdaTilde", "LambdaD(2)", "LambdaD(14)", "LambdaD(42)")]
    yield from (G.to_lists() for G in grams + [S.induced_gram for S in _derived_embedding()[1]])


@sampler
def gamma_d_and_lambda_d(ds, seed):
    for d in even(ds, seed, (0, 2)):
        yield from (lat.GramLattice(st.hassett_triple(d).gram_Gamma_d), st.lambda_d_lattice(d))


# --- the C11 sample and memberships ---------------------------------------------


@sampler
def c11(entries, seed):
    # the C11 acceptance sweep, (ambient, rows): ambients alternate between
    # Gammabar and LambdaTilde, and each input is k in [1, 4] random rows with
    # entries in `entries`, drawn again until independent.  Every part is
    # immutable, since `draw` caches the sample: the rows are tuples of tuples
    rng = random.Random(seed)
    for amb in itertools.cycle(map(st.standard_lattice, AMBIENTS)):
        k = rng.randint(1, 4)
        while True:
            rows = tuple(tuple(rng.randint(*entries) for _ in range(amb.rank)) for _ in range(k))
            if la.rank_int(rows) == k:
                break
        yield amb, rows


@sampler
def c11_pairings(entries, seed):
    # the pairing matrices G * W^T that `orthogonal_complement` hands to
    # `left_kernel`, of the C11 sample's generator sets W
    for amb, rows in c11(entries, seed):
        cols = [amb.basis_pairings(w) for w in rows]
        yield [[c[j] for c in cols] for j in range(amb.rank)]


@sampler
def c11_dependent(entries, seed):
    # the C11 sample's generator sets with a combination of their rows appended
    rng = random.Random(seed)
    for amb, rows in c11(entries, seed):
        yield amb, [*rows, oracles.matmul([[rng.randint(-3, 3) for _ in rows]], rows)[0]]


@sampler
def c11_rebuilt(entries, seed):
    # the saturations and complements of the C11 sample, rebuilt unmarked
    for amb, rows in c11(entries, seed):
        sat, _ = lat.saturation(lat.span_sublattice(amb, rows))
        for S in sat, lat.orthogonal_complement(amb, rows):
            yield lat.Sublattice(amb, S.basis)


@sampler
def c11_lattices(entries, seed):
    # the nondegenerate saturations and complements of the C11 sample
    for amb, rows in c11(entries, seed):
        sat, _ = lat.saturation(lat.span_sublattice(amb, rows))
        Ls = sat.as_lattice(), lat.orthogonal_complement(amb, rows).as_lattice()
        yield from (L for L in Ls if L.det)


def _candidates(rng, S):
    # an integer combination of the basis, plus noise, then over a
    # denominator, and as Fractions of denominator 1
    c = [rng.randint(-3, 3) for _ in S.basis.data]
    member = [sum(a * row[j] for a, row in zip(c, S.basis.data)) for j in range(S.ambient.rank)]
    noisy = [e + rng.randint(-2, 2) for e in member]
    den = rng.randint(1, 4)
    yield from ((S, v) for v in (member, noisy, [Fraction(e, den) for e in noisy],
                                 [Fraction(den * e, den) for e in member]))


@sampler
def c11_memberships(entries, seed):
    # the saturations and complements of the C11 sample, which are marked
    rng = random.Random(seed)
    for amb, rows in c11(entries, seed):
        sat, _ = lat.saturation(lat.span_sublattice(amb, rows))
        for S in sat, lat.orthogonal_complement(amb, rows):
            yield from _candidates(rng, S)


@sampler
def hermite_memberships(ks, seed):
    # canonical Hermite bases built by the caller, which are not marked
    rng = random.Random(seed)
    for amb, rows in hermite_bases(ks, seed):
        yield from _candidates(rng, lat.Sublattice(amb, lat.IntMatrix.from_rows(rows)))


@sampler
def span_memberships(ns, entries, seed):
    # the span of k <= n independent random rows in Z^n, not marked
    rng = random.Random(seed)
    while True:
        n = rng.randint(*ns)
        rows = [[rng.randint(*entries) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if la.rank_int(rows) == len(rows):
            amb = lat.GramLattice.from_rows(la.identity(n))
            yield from _candidates(rng, lat.span_sublattice(amb, rows))


@sampler
def rank0_memberships(entries, seed):
    rng = random.Random(seed)
    for name in itertools.cycle(("U", "A2", "Gammabar", "LambdaTilde")):
        S = lat.Sublattice(st.standard_lattice(name), lat.IntMatrix(()))
        yield from _candidates(rng, S)
        yield S, [rng.randint(*entries) for _ in range(S.ambient.rank)]


# --- seeded random --------------------------------------------------------------


def _symmetric(n, entry, zero_diagonal=False):
    # an n x n symmetric matrix, its upper triangle row by row from entry()
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            A[i][j] = A[j][i] = entry()
    return A


@sampler
def symmetric(sizes, entries, seed, zero_diagonals=False):
    # a repeated row and column makes a fifth of them singular; with
    # zero_diagonals, every third (the first included) has a zero diagonal,
    # where the first pivot takes a congruence
    rng = random.Random(seed)
    for t in itertools.count():
        n = rng.randint(*sizes)
        A = _symmetric(n, lambda: rng.randint(*entries))
        if zero_diagonals and t % 3 == 0:
            for a in range(n):
                A[a][a] = 0
        if n >= 2 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            A[i] = list(A[j])
            for row in A:
                row[i] = row[j]
        yield A


SAMPLERS["symmetric_zero_diagonals"] = functools.partial(symmetric, zero_diagonals=True)


@sampler
def symmetric_by_seed(sizes, entries, seed):
    # one generator per seed: seed, seed + 1, ...; a third have a zero diagonal
    for s in itertools.count(seed):
        rng = random.Random(s)
        A = _symmetric(rng.randint(*sizes), lambda: rng.randint(*entries))
        yield [[e if i != j or s % 3 else 0 for j, e in enumerate(row)] for i, row in enumerate(A)]


# mostly zeros, like the Gram matrices of the standard lattices
SPARSE_INTS = (0, 0, 0, 0, 0, -3, -2, -1, 1, 2, 3, 7)


def _hyperbolic_sum(rng, n):
    # planes b U and 1x1 blocks down the diagonal, in a shuffled basis
    G = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        b = rng.choice(SPARSE_INTS)
        if i + 1 < n and rng.random() < 0.5:
            G[i][i + 1] = G[i + 1][i] = b or 1
            i += 2
        else:
            G[i][i] = b
            i += 1
    p = rng.sample(range(n), n)
    return [[G[a][c] for c in p] for a in p]


@sampler
def shaped_grams(sizes, seed):
    # half are sums of planes and 1x1 blocks, half sparse, with or without a
    # zero diagonal; two thirds then get a zeroed row and column, or one
    # repeated as another (a no-op when it is repeated as itself)
    rng = random.Random(seed)
    while True:
        n = rng.randint(*sizes)
        if rng.random() < 0.5:
            G = _hyperbolic_sum(rng, n)
        else:
            G = _symmetric(n, lambda: rng.choice(SPARSE_INTS), rng.random() < 0.5)
        defect, i, k = rng.randint(0, 2), rng.randrange(n), rng.randrange(n)
        old = [row[:] for row in G]
        for t in range(n) if defect else ():
            G[k][t] = G[t][k] = 0 if defect == 1 else old[i][i if t == k else t]
        yield G


@sampler
def even_grams(sizes, seed):
    # nondegenerate even Grams: sparse off the diagonal, 2e on it for e in [-4, 4]
    rng = random.Random(seed)
    while True:
        n = rng.randint(*sizes)
        G = _symmetric(n, lambda: rng.choice(SPARSE_INTS), zero_diagonal=True)
        for i in range(n):
            G[i][i] = 2 * rng.randint(-4, 4)
        if (L := lat.GramLattice.from_rows(G)).det:
            yield L


def _fraction(rng):
    # 0 half the time, else a Fraction in [-4, 4] of denominator at most 6
    if rng.random() < 0.5:
        return Fraction(0)
    den = rng.randint(1, 6)
    return Fraction(rng.randint(-4 * den, 4 * den), den)


@sampler
def gram_products(ns, ks, seed):
    # (G, B, u, v): an n x n symmetric G, a k x n B with a zero row half the
    # time, and two vectors, with entries all from SPARSE_INTS or all Fractions
    rng = random.Random(seed)
    while True:
        n, k = rng.randint(*ns), rng.randint(*ks)
        ints = rng.random() < 0.5
        entry = (lambda: rng.choice(SPARSE_INTS)) if ints else (lambda: _fraction(rng))
        G = _symmetric(n, entry)
        B = [[entry() for _ in range(n)] for _ in range(k)]
        if B and rng.random() < 0.5:
            B[rng.randrange(k)] = [0] * n
        yield G, B, [entry() for _ in range(n)], [entry() for _ in range(n)]


KERNEL_ENTRIES = (0, 0, 0, -6, -3, -2, -1, 1, 2, 3, 4, 12)


@sampler
def kernel_shapes(ms, ks, seed):
    # m x k matrices of four kinds: "plain"; "zero rows" zeroes some rows;
    # "rank deficient" makes the last column a combination of the others;
    # "scaled suffix" multiplies the last k + 3 rows, the first suffix, by 2
    # or 3, so it can span too little and grow.  Small m and k give k = 0,
    # m <= k and A = 0
    rng = random.Random(seed)
    while True:
        m, k = rng.randint(*ms), rng.randint(*ks)
        kind = rng.choice(["plain", "zero rows", "rank deficient", "scaled suffix"])
        A = [[rng.choice(KERNEL_ENTRIES) for _ in range(k)] for _ in range(m)]
        if kind == "zero rows":
            A = [[0] * k if rng.random() < 0.5 else row for row in A]
        elif kind == "rank deficient" and k:
            c = [rng.randint(-2, 2) for _ in range(k - 1)]
            for row in A:
                row[-1] = oracles.dot(row, c)
        elif kind == "scaled suffix":
            f, j = rng.choice([2, 3]), max(m - k - 3, 0)
            A[j:] = [[f * e for e in row] for row in A[j:]]
        yield A


@sampler
def nl_vectors(entries, seed):
    # primitive v of Gamma with v^2 < 0: v = w / gcd, of divisibility 1 or 3,
    # or v = (3w + k c) / gcd for k = 1, 2 and c the column of the generator
    # c/3 of A_Gamma, so G v = 0 (mod 3) and v has divisibility 3 (dividing
    # by a gcd prime to 3 keeps it)
    rng, c, gamma = random.Random(seed), st._gamma_disc_generator(), st.standard_lattice("Gamma")
    while True:
        w, k = [rng.randint(*entries) for _ in range(st.RANK_GAMMA)], rng.choice((0, 1, 2))
        v = w if k == 0 else [3 * a + k * b for a, b in zip(w, c)]
        if g := gcd(*v):
            v = tuple(e // g for e in v)
            if gamma.square(v) < 0:
                assert k == 0 or lat.divisibility(gamma, v) == 3
                yield v


@sampler
def small_matrices(ms, ks, seed):
    # m x k matrices, zero rows and rank deficiency included, with entries
    # from a mostly-zero set, from [-4, 4] or from a set of even numbers
    rng = random.Random(seed)
    sets = ((0, 0, 0, 1, -1, 2, 3, -6), range(-4, 5), (0, 2, 4, -6, 12))
    while True:
        m, k, entries = rng.randint(*ms), rng.randint(*ks), rng.choice(sets)
        yield [[rng.choice(entries) for _ in range(k)] for _ in range(m)]


@sampler
def special_d(ks, seed):
    # d = 2k with d = 0 or 2 (mod 6)
    rng = random.Random(seed)
    yield from (d for d in iter(lambda: 2 * rng.randint(*ks), None) if d % 6 in (0, 2))


@sampler
def log_uniform_nonsquare(exponents, seed):
    rng = random.Random(seed)
    Ds = iter(lambda: int(2.0 ** rng.uniform(*exponents)), None)
    yield from (D for D in Ds if isqrt(D) ** 2 != D)


@sampler
def echelon_systems(ks, widths, seed):
    # k echelon rows with pivots in random increasing columns (negative pivot
    # entries included) and right-hand sides of `width` coordinates, half of
    # them built from an integer solution
    rng = random.Random(seed)
    while True:
        k, width = rng.randint(*ks), rng.randint(*widths)
        n = k + rng.randint(0, 3)
        pivots = sorted(rng.sample(range(n), k))
        H = [[0] * p + [rng.choice([-3, -2, -1, 1, 2, 3, 4, 6])]
             + [rng.randint(-5, 5) for _ in range(n - p - 1)] for p in pivots]
        if rng.random() < 0.5:
            Z = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(k)]
            b = [[sum(h[c] * z[t] for h, z in zip(H, Z)) for t in range(width)] for c in range(n)]
        else:
            b = [[rng.randint(-20, 20) for _ in range(width)] for _ in range(n)]
        yield H, pivots, b


@sampler
def series_classes(numerators, denominators, seed):
    # 1 + c1 h + ... + c4 h^4
    rng = random.Random(seed)
    while True:
        c = [Fraction(rng.randint(*numerators), rng.randint(*denominators)) for _ in range(4)]
        yield CohClass.of(1, *c)


def random_independent(rng, amb, k):
    while True:
        rows = [tuple(rng.randint(-5, 5) for _ in range(amb.rank)) for _ in range(k)]
        if la.rank_int(rows) == k:
            return rows


def mixed(rng, rows):
    # T * rows for a random nonsingular k x k matrix T, which puts |det T| into the index
    k = len(rows)
    while True:
        T = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if oracles.det_bareiss(T):
            return oracles.matmul(T, [list(r) for r in rows])


def _generators(rng, amb, k, kind):
    # "independent" rows mixed by `mixed`; "dependent" appends a combination
    # of them, "zero row" an all-zero row, and "zero" is k all-zero rows
    if kind == "zero":
        return [[0] * amb.rank for _ in range(k)]
    rows = mixed(rng, random_independent(rng, amb, k))
    if kind == "dependent":
        rows.append(oracles.matmul([[rng.randint(-3, 3) for _ in range(k)]], rows)[0])
    elif kind == "zero row":
        rows.insert(rng.randint(0, k), [0] * amb.rank)
    return rows


AMBIENTS = ("Gammabar", "LambdaTilde")


@sampler
def mixed_generators(ks, seed, kinds=("independent", "dependent", "zero")):
    rng = random.Random(seed)
    while True:
        amb, k = st.standard_lattice(rng.choice(AMBIENTS)), rng.randint(*ks)
        yield amb, _generators(rng, amb, k, rng.choice(kinds))


SAMPLERS["mixed_independent"] = functools.partial(mixed_generators, kinds=("independent",))


def _pad(row, support, n):
    # a row on the support coordinates, padded with zeros to length n
    at = dict(zip(support, row))
    return [at.get(c, 0) for c in range(n)]


@sampler
def generators_on_a_support(ks, seed):
    # generators that vanish off a random support of at least k coordinates,
    # so that the echelon drops rows of S^T; with the lattice on the
    # support, the rows there, and the support
    rng = random.Random(seed)
    while True:
        amb, k = st.standard_lattice(rng.choice(AMBIENTS)), rng.randint(*ks)
        kind = rng.choice(["independent", "dependent", "zero row", "zero"])
        support = sorted(rng.sample(range(amb.rank), rng.randint(k, amb.rank)))
        small = lat.GramLattice.from_rows([[amb.gram.data[i][j] for j in support] for i in support])
        short = _generators(rng, small, k, kind)
        yield amb, [_pad(r, support, amb.rank) for r in short], small, short, support


@sampler
def alternating_independent(ks, seed):
    # independent rows in Gammabar and LambdaTilde in turn
    rng = random.Random(seed)
    for amb in itertools.cycle(map(st.standard_lattice, AMBIENTS)):
        yield amb, random_independent(rng, amb, rng.randint(*ks))


@sampler
def suffix_generators(ks, extras, seed):
    # "sparse" rows are mostly zero, so few coordinates are left and the
    # suffix is often all of them; "scaled" multiplies the last k + 3
    # coordinates by 2 or 3, so the first suffix spans too little and must
    # grow, and one generator too, for an index above 1; "dense" rows are
    # like the C11 sample's
    rng = random.Random(seed)
    while True:
        k, kind = rng.randint(*ks), rng.choice(["sparse", "scaled", "dense"])
        n = k + rng.randint(*extras)
        amb = lat.GramLattice.from_rows(la.identity(n))
        entries = [0] * 8 + [-2, -1, 1, 2, 3] if kind == "sparse" else range(-5, 6)
        while True:
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(k)]
            if la.rank_int(rows) == k:
                break
        if kind == "scaled":
            f, tail = rng.choice([2, 3]), max(n - k - 3, 0)
            for row in rows:
                row[tail:] = [f * e for e in row[tail:]]
            i = rng.randrange(k)
            rows[i] = [f * e for e in rows[i]]
        yield amb, rows


def _unit_pivot_basis(rng, n, k, last_pivot):
    # a canonical Hermite basis with pivots 1, except a last pivot of
    # last_pivot: zeros left of each pivot and, above a unit pivot, in its
    # column; entries above the last pivot in [0, last_pivot)
    cols = sorted(rng.sample(range(n), k))
    rows = [[0] * c + [1] + [0 if j in cols else rng.randint(-4, 4) for j in range(c + 1, n)]
            for c in cols]
    rows[-1][cols[-1]] = last_pivot
    for row in rows[:-1]:
        row[cols[-1]] = rng.randrange(last_pivot)
    return rows


@sampler
def hermite_bases(ks, seed):
    # "hnf" is the Hermite basis of random rows (mostly index 1), "scaled"
    # the Hermite basis after one of its rows is scaled by 2 or 3 (index > 1),
    # "unit" has every pivot 1 (index 1), and "last" has one non-unit pivot,
    # the last, of 2, 3 or 6
    rng = random.Random(seed)
    while True:
        amb, k = st.standard_lattice(rng.choice(AMBIENTS)), rng.randint(*ks)
        kind = rng.choice(["hnf", "scaled", "unit", "last"])
        if kind in ("hnf", "scaled"):
            rows = la.hnf_rows([list(r) for r in random_independent(rng, amb, k)])
            if kind == "scaled":
                i, f = rng.randrange(k), rng.choice([2, 3])
                rows[i] = [f * e for e in rows[i]]
                rows = la.hnf_rows(rows)
        else:
            last = 1 if kind == "unit" else rng.choice([2, 3, 6])
            rows = _unit_pivot_basis(rng, amb.rank, k, last)
        assert oracles.hermite_pivots(rows) is not None
        yield amb, rows


# --- routes -------------------------------------------------------------------


def _or_dependent(route, *args):
    # the route's answer, or DependentGenerators where it raises that
    try:
        return route(*args)
    except DependentGenerators:
        return DependentGenerators


def _saturations(saturation, saturate):
    # (saturate(amb, rows), saturation(S)) for S the rows as a caller-built basis
    def run(x):
        amb, rows = x[:2]
        S = lat.Sublattice(amb, lat.IntMatrix.from_rows(rows))
        return saturate(amb, rows), _or_dependent(saturation, S)
    return run


def _padded(saturations, pad=list):
    # the bases of (saturate_rows, saturation) as lists, each row through pad
    sat, indexed = saturations
    if indexed is not DependentGenerators:
        indexed = [pad(r) for r in indexed[0].basis.data], indexed[1]
    return [pad(r) for r in sat.basis.data], indexed


def _on_the_support(x):
    # the library's saturations on the lattice on the support, padded back
    amb, _, small, short, support = x
    return _padded(SATURATIONS[0]((small, short)), lambda row: _pad(row, support, amb.rank))


def _two_period(D):
    return oracles.solve_minus3(D)[0]


def _full_period(D):
    # the least even hit of the whole period of sqrt(D); the two-period
    # oracle for D <= 9 and the square D
    if D <= 9 or isqrt(D) ** 2 == D:
        return _two_period(D)
    return oracles.least_even_hit(D, *oracles.sqrt_cf(D))


def _sss(d, solve=_two_period):
    sol = solve(2 * d)
    return None if sol is None else ((sol[0] - 1) // 2, sol[1])


def _brakkee(d, solve=_two_period):
    sol = solve(d // 2)
    return cond.PellSolution(f"3p^2-{d // 6}q^2=-1", sol and (sol[0] // 3, sol[1]))


def _csv_cell(d):
    # the cell is decided by (***), the local obstruction and the solver, a
    # decision pell_brakkee shares, so the reference is the full period
    want = _brakkee(d, _full_period)
    return "F" if want.solution is None else "T", want


def _flags_of_large_d(d):
    f = cond.condition_flags(d)
    return f.sss_witness, d % 6 == 0 and cond.pell_brakkee(d), f.ss_witness


def _flags_of_large_d_oracle(d):
    # (***) by the full period of sqrt(2d), whose convergents two periods
    # long run to thousands of digits here.  The scan is cheap only when it
    # stops at a witness (n < d/2); an empty scan costs d/2 steps, so the
    # None side of (**) is left to the chain check in condition_flags and
    # the exhaustive sweep to 4000
    scan = cond.condition_flags(d).ss_witness is not None
    sss = _sss(d, _full_period)
    return sss, d % 6 == 0 and _brakkee(d), oracles.witness_ss(d) if scan else None


def _full_scan_ss(d):
    # the least n in [0, 2d] with d | 2(n^2 + n + 1), with its quotient
    t = (2 * (n * n + n + 1) for n in range(2 * d + 1))
    return next(((n, x // d) for n, x in enumerate(t) if x % d == 0), None)


def _starstar(d):
    return (cond.condition_flags(d).starstar, cond.a2_represents(d, True),
            cond.witness_ss(d) is not None, st.genus_compare(d))


def _starstar_oracle(d):
    # d/2 among the primitive norms of A2 up to the least power of two above
    # it, so that a sweep enumerates a few cached bounds
    n = d // 2
    return (n in oracles.a2_primitive_norms(1 << n.bit_length()),) * 4


def _witnesses(d):
    # (**) and (***), each as its flag and as whether its witness solver
    # finds one, and the chain (***) => (**) => (**') => (*); the witnesses
    # themselves are the rows witness_ss.scan.to4000 and
    # witness_sss.two_period.to10000
    f = cond.condition_flags(d)
    return (f.starstar, cond.witness_ss(d) is not None, f.starstarstar,
            cond.witness_sss(d) is not None,
            f.starstarstar <= f.starstar <= f.starstar_prime <= f.star)


def _witnesses_oracle(d):
    ss, sss = _starstar_oracle(d)[0], _sss(d) is not None
    return ss, ss, sss, sss, True


def _least_below_20000(D):
    # the least solution, read as None when its y is past brute_least's horizon
    sol = pell.least_solution(D)
    return sol if sol is None or sol[1] < 20_000 else None


def _nl_case(d):
    # saturated for d = 0 (mod 6), of index three for d = 2 (mod 6)
    return st.NLCase.SATURATED if d % 6 == 0 else st.NLCase.INDEX_THREE, d


def _sparse_products(x):
    G, B, u, v = x
    S = la.sparse_rows(G)
    return la.sparse_gram_product(B, S), la.pairing(S, u, v), la.sparse_mat_vec(S, v)


def _dense_products(x):
    G, B, u, v = x
    return oracles.gram_product(B, G), oracles.pairing(G, u, v), la.mat_vec(G, v)


def _echelon_solve_rational(x):
    # the triangular system over Q, one coordinate at a time: its solution
    # when every coordinate is integral, else None
    H, pivots, b = x
    M = [[h[p] for p in pivots] for h in H]  # z_l multiplies row l
    sols = [oracles.solve_rational(M, [b[p][t] for p in pivots]) for t in range(len(b and b[0]))]
    if all(c.denominator == 1 for sol in sols for c in sol):
        return [[int(sol[l]) for sol in sols] for l in range(len(H))]


def disc_form(L):
    """The q-values and pair table of the generic `disc_group` of L."""
    dg = oracles.generic_disc_group(L.gram.data)
    q = tuple(map(Fraction, dg.q_numerators, dg.invariant_factors))
    return q, oracles.DiscForm.of(L).pair_table


def disc_form_oracle(L):
    return oracles.q_values(L), oracles.pair_table(L)


def _disc_group(L):
    dg = lat.disc_group(L)
    q = dg.q_numerators and tuple(map(Fraction, dg.q_numerators, dg.invariant_factors))
    return tuple(zip(dg.columns, dg.invariant_factors)), q


def _smith_columns_reduced(L):
    cols = tuple((tuple(e % n for e in c), n) for c, n in oracles._smith_columns(L))
    return cols, oracles.q_values(L) if L.is_even else None


# (library, oracle) pairs that several rows share
FACTORIZE = (lambda x: cond._factorize(x[0]), itemgetter(1))
DET = (lambda A: la.inertia(A)[3], oracles.det_bareiss)
SATURATIONS = (_saturations(lat.saturation, lat.saturate_rows),
               _saturations(oracles.saturation, oracles.saturate_rows))
# the kernel, and whether `oracles.hermite_pivots` finds a canonical Hermite
# basis, a scan without the reduction above the pivots that `hnf_rows` and
# `left_kernel` share
LEFT_KERNEL = (lambda A: (K := la.left_kernel(A), oracles.hermite_pivots(K) is not None),
               lambda A: (oracles.left_kernel(A), True))
# the rows T and column count k that `oracles.suffix_path` walks on a kernel's input
KERNEL_ROWS = functools.partial(oracles.suffix_rows, kernel=True)
SATURATE_ROWS = (lambda x: lat.saturate_rows(*x), lambda x: oracles.saturate_rows(*x))
CONTAINS = (lambda x: x[0].contains(x[1]), lambda x: oracles.contains(*x))
C11 = ((-5, 5),), 20240311

ROWS = (
    Row("factorize.sieve.to2e5", *FACTORIZE, "sieve", 200_000, ((1, 200_000),)),
    Row("factorize.sieve.around2^20", *FACTORIZE, "sieve", 4000, ((2**20 - 2000, 2**20 + 1999),)),
    Row("a2_represents.bruteforce.to800",
        lambda d: (cond.a2_represents(d), cond.a2_represents(d, True)),
        lambda d: (bool(s := a2_bruteforce(d)), any(p for _, _, p in s)), "even", 400, ((2, 800),)),
    Row("a2_represents.known_factorization.to_psi13",
        lambda x: (cond.a2_represents(x[0]), cond.a2_represents(x[0], True)),
        lambda x: _a2_flags_of(x[1]), "known_factorizations", 150, (), "a2-flags"),
    # (**) four ways (its flag, a2_represents, a (**) witness and the genus)
    # against the enumeration of A2, which does not factor
    Row("starstar.a2_norms", _starstar, _starstar_oracle, "special", 3333, ((2, 10_000),),
        ci=((2, 100_000),)),
    Row("witness_ss.scan.to4000", cond.witness_ss, oracles.witness_ss, "even", 2000, ((2, 4000),)),
    Row("witness_ss.oracle_is_complete.to400", oracles.witness_ss, _full_scan_ss,
        "even", 200, ((2, 400),)),
    Row("witnesses.even.to800", _witnesses, _witnesses_oracle, "even", 400, ((2, 800),),
        ci=((2, 8_000),)),
    Row("witness_sss.two_period.to10000", cond.witness_sss, _sss, "even", 5000, ((2, 10_000),)),
    Row("pell_brakkee.two_period.to10000", cond.pell_brakkee, _brakkee,
        "six", 1666, ((2, 10_000),)),
    Row("pell_brakkee.csv_cell.to100000",
        lambda d: (cond.csv_row(cond.condition_flags(d))[11], cond.pell_brakkee(d)),
        _csv_cell, "six", 16_666, ((6, 100_000),)),
    Row("condition_flags.large_special_d", _flags_of_large_d, _flags_of_large_d_oracle,
        "special_d", 60, ((2**15, 2**22 - 1),), 20231),
    Row("pell.two_period.sss_brakkee_D.to10000", pell.least_solution, _two_period,
        "sss_and_brakkee_D", 6666, ((2, 10_000),)),
    Row("pell.two_period.to49", pell.least_solution, _two_period, "integers", 49, ((1, 49),)),
    Row("pell.brute_y.to500", _least_below_20000, lambda D: oracles.brute_least(D, 20_000),
        "integers", 499, ((1, 499),), ci=((1, 4_999),)),
    Row("pell.full_period.to5000", pell.least_solution, _full_period,
        "nonsquare", 4924, ((10, 5000),)),
    Row("pell.full_period.large", pell.least_solution, _full_period,
        "log_uniform_nonsquare", 309, ((24, 32),), "least-even-hit"),
    Row("det.symmetric", *DET, "symmetric", 400, ((0, 8), (-9, 9)), 7),
    Row("det.theory_grams", *DET, "theory_grams", 16, ()),
    Row("signature.theory_grams", lambda A: lat.signature(lat.GramLattice.from_rows(A)),
        oracles.signature, "theory_grams", 16, ()),
    # against Descartes' rule on the characteristic polynomial, which shares
    # no step with an elimination, and the dense Fraction elimination
    Row("signature.by_seed",
        lambda A: (s := lat.signature(L := lat.GramLattice.from_rows(A)), s, L.det),
        lambda A: (oracles.signature_descartes(A), oracles.signature(A), oracles.det_bareiss(A)),
        "symmetric_by_seed", 119, ((1, 8), (-4, 4)), 2),
    # planes and 1x1 blocks in a shuffled basis, sparse Grams, singular ones
    Row("signature.shaped",
        lambda A: (lat.signature(lat.GramLattice.from_rows(A)), len(A) - la.rank_int(A)),
        lambda A: (s := oracles.signature(A), s[2]), "shaped_grams", 300, ((1, 8),),
        "signature-shaped", ci=3_000),
    Row("sparse_products.dense", _sparse_products, _dense_products,
        "gram_products", 100, ((1, 7), (0, 5)), "sparse-products", ci=1_000),
    Row("inertia.to_rank24", lambda A: (lat.signature(L := lat.GramLattice.from_rows(A)), L.det),
        lambda A: (oracles.signature(A), oracles.det_bareiss(A)),
        "symmetric_zero_diagonals", 40, ((1, 24), (-5, 5)), "inertia", ci=2_000),
    Row("echelon_solve.rational", lambda x: la.echelon_solve(*x), _echelon_solve_rational,
        "echelon_systems", 200, ((0, 4), (0, 3)), "echelon-solve"),
    Row("saturation.c11", lambda x: lat.saturation(lat.span_sublattice(*x)),
        lambda x: oracles.saturation(lat.span_sublattice(*x)), "c11", 200, *C11, ci=5_000),
    Row("left_kernel.c11", *LEFT_KERNEL, "c11_pairings", 200, *C11, ci=20_000),
    Row("left_kernel.small_matrices", *LEFT_KERNEL,
        "small_matrices", 400, ((0, 9), (0, 5)), "small-matrices", ci=20_000, paths=KERNEL_ROWS),
    Row("left_kernel.shaped", *LEFT_KERNEL,
        "kernel_shapes", 300, ((0, 9), (0, 5)), "kernel-shapes", ci=3_000, paths=KERNEL_ROWS),
    Row("saturate_rows.c11", *SATURATE_ROWS, "c11", 200, *C11, ci=5_000),
    Row("saturate_rows.c11_dependent", *SATURATE_ROWS, "c11_dependent", 200, *C11, ci=5_000),
    # a saturated canonical Hermite basis, unmarked, runs saturation's
    # echelon and comes back as it is, at index 1
    Row("saturation.rebuilt.c11", lat.saturation, lambda S: (S, 1), "c11_rebuilt", 400, *C11,
        ci=10_000),
    Row("saturation.mixed", *SATURATIONS, "mixed_independent", 60, ((1, 4),), "saturation-mixed"),
    Row("saturation.double_kernel", *SATURATIONS,
        "mixed_generators", 80, ((1, 4),), "double-kernel"),
    # at CI size, 2,060 sparse and 2,023 scaled sets
    Row("saturation.suffix", *SATURATIONS, "suffix_generators", 150, ((1, 4), (0, 20)), "suffix",
        ci=6_200, paths=lambda x: oracles.suffix_rows(x[1], False)),
    Row("saturation.hermite_bases", *SATURATIONS, "hermite_bases", 120, ((1, 4),), "hermite-bases"),
    Row("saturation.on_a_support", *SATURATIONS,
        "generators_on_a_support", 80, ((1, 4),), "support"),
    # both routes on the lattice on the support, padded back to the ambient
    Row("saturation.on_a_support.padded", _on_the_support,
        lambda x: _padded(SATURATIONS[1](x)), "generators_on_a_support", 80, ((1, 4),), "support"),
    Row("complement.double",
        lambda x: lat.orthogonal_complement(x[0], lat.orthogonal_complement(*x).basis.data).basis,
        lambda x: oracles.saturate_rows(*x).basis,
        "alternating_independent", 40, ((1, 3),), 7),
    Row("contains.marked.c11", *CONTAINS, "c11_memberships", 400, *C11),
    Row("contains.hermite_bases", *CONTAINS,
        "hermite_memberships", 480, ((1, 4),), "hermite-bases"),
    Row("contains.spans", *CONTAINS, "span_memberships", 1200, ((1, 6), (-4, 4)), "spans"),
    Row("contains.rank0", *CONTAINS, "rank0_memberships", 40, ((-2, 2),), "rank0"),
    Row("disc_group.c11", _disc_group, _smith_columns_reduced, "c11_lattices", 400, *C11),
    Row("disc_form.gamma_d_lambda_d.to200", disc_form, disc_form_oracle,
        "gamma_d_and_lambda_d", 130, ((8, 200),)),
    Row("disc_form.even_grams", disc_form, disc_form_oracle, "even_grams", 150, ((1, 6),),
        "even-grams", ci=1_500),
    Row("genus.bruteforce.to2000", st.genus_compare, oracles.genus_compare,
        "special", 665, ((8, 2000),)),
    Row("classify_nl_vector.generic", st.classify_nl_vector, oracles.generic_classification,
        "nl_vectors", 150, ((-5, 5),), "nl-vectors", ci=1_500),
    # the case the notes give each special d, and the generic route's
    Row("classify_nl_vector.generic.to2000",
        lambda d: (st.classify_nl_vector(st.nl_vector(d)), _nl_case(d)),
        lambda d: (oracles.generic_classification(st.nl_vector(d)),) * 2,
        "special", 667, ((2, 2000),), ci=((2, 20_000),)),
    Row("euler_line.binomial", euler_line, oracles.euler_line, "integers", 13, ((-6, 6),)),
    Row("series_sqrt.newton", lambda c: (s := series_sqrt(c), s * s),
        lambda c: (oracles.series_sqrt_newton(c), c),
        "series_classes", 200, ((-50, 50), (1, 50)), "series-sqrt"),
)

# The comparisons with an oracle that are not rows, by reason: each file's
# tests and helpers follow its name (`test_differential.py` checks that the
# list is complete).
EXCEPTIONS = {
    "a spy: it counts or forbids the echelons, Hermite forms, transforms, Pell walks or"
    " series inversions a route runs": """
        test_conditions.py: TestPellBrakkee::test_obstruction_never_reaches_the_solver
        test_intlinalg.py: test_left_kernel_suffix_lengths
        test_left_kernel_suffixes_on_c11_sample
        test_lattice.py: test_echelon_coefficients_stay_small_on_c11_sample
        test_saturation_suffix_echelons test_saturate_rows_of_a_dependent_list_echelons_all_rows
        test_mukai.py: test_series_sqrt_runs_no_series_inverse
        test_properties.py: test_complement_saturation_returns_the_complement
        test_saturation_marker""",
    "an opinion of sympy, an external oracle the suite skips without it": """
        test_intlinalg.py: test_smith_against_sympy
        test_conditions.py: TestFactorize::test_matches_sympy_on_a_seeded_sample""",
    "a contract of parts (U A = H, U unimodular; Smith's chain, minors, V; [A | X] -> [H | U X])": """
        test_intlinalg.py: test_row_echelon_transform_properties
        test_riding_columns_come_back_multiplied_by_the_transform check_smith minors_gcd""",
    "a test of the oracle itself": """
        test_conditions.py: TestA2Bruteforce::test_2 TestA2Bruteforce::test_4_empty
        TestA2Bruteforce::test_6_contains_primitive
        test_intlinalg.py: test_frac_inv test_solve_rational_and_rowspace
        test_mukai.py: test_series_helpers
        test_pell.py: test_cf_expansion test_fundamental_units
        test_sieve_classes_are_the_crt_of_the_prime_power_classes
        test_properties.py: test_hermite_pivots_match_bruteforce
        test_hermite_pivots_reject_near_misses
        test_standard.py: TestHyperbolicSearch::test_determinism
        TestHyperbolicSearch::test_bound_zero_exhausts
        test_verify.py: test_genus_search_cap""",
    "written-down inputs, each with an expected value or error of its own": """
        test_conditions.py: TestFactorize::test_small_primes_are_the_sieve_below_2_10
        test_intlinalg.py: test_echelon_solve_pivots_off_the_diagonal
        test_lattice.py: TestDiscGroup::test_a2_generator_and_q
        TestDiscGroup::test_q_two_routes_agree
        TestSaturationAgainstOracles::agree
        test_mukai.py: test_five_classes_independent
        test_pell.py: test_long_period_within_budget test_mirrored_odd_hit
        test_sparse_kernels.py: test_products_of_empty_inputs
        test_standard.py: TestHassettTriple::test_d14
        TestHassettTriple::test_dets_and_disc_over_sweep""",
    "an acceptance claim, whose report line the oracle feeds": """
        test_acceptance.py: row_holds test_c01_table_reproduction test_c05_nl_dichotomy_sweep
        test_c06_oracle_equivalence test_c10_hyperbolic_search test_c11_randomized_property_suite""",
    "a closed form through one of verify's generic checks (`_disc_holds`, `_kdoo_holds`,"
    " `_nl_failures`) on a sweep or a seeded loop, with assertions of its own beside it": """
        test_standard.py: TestGenus::test_disc_groups_match_generic_to_2000
        TestHassettTriple::test_oracle_holds_far_beyond_every_sweep
        TestKdoo::test_index_two TestKdoo::test_index_one""",
    "a wrong witness or report that verify's generic checks refute, or an exception of one"
    " that verify itemizes": """
        test_standard.py: TestKdoo::test_verify_refutes_a_wrong_witness
        test_verify.py: test_sweep_exception_is_itemized
        test_nl_oracle_refutes_a_wrong_disc_group""",
}
