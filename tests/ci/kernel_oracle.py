"""Kernel and saturation against the two-step oracles, on large seeded samples.

    python3 tests/ci/kernel_oracle.py

`left_kernel` reads the kernel off a short suffix of the rows and grows it
on an inexact division; the oracle transforms the whole matrix and runs
`hnf_rows`.  The kernels of 20,000 C11 pairing matrices G * W^T of
Gammabar and LambdaTilde (`oracles.c11_inputs`, on this script's seed) and
of 20,000 random small matrices (zero rows and rank deficiency included)
must equal the oracle's.  `hnf_rows` and `left_kernel` share one reduction
above the pivots, so every kernel is also scanned by
`oracles.hermite_pivots`, which does not use it.

`saturation` and `saturate_rows` are compared with the double-kernel
oracles on the first 5,000 generator sets W, and `saturate_rows` also on W
plus a random combination of its rows (a dependent list).  On the same W
the saturation and the complement, rebuilt from their basis rows without
the saturation marker, must saturate again to an equal basis at index 1.

Saturation echelons a short suffix of the coordinates where some generator
is nonzero.  Two more samples of 2,000 generator sets each take its other
paths, and are compared with `oracles.saturation`: sparse sets, whose few
coordinates often leave no suffix to try or one of rank below k, and dense
sets scaled by 2 or 3 on their last k + 3 coordinates and on one
generator, whose first suffix spans too little.  The run fails unless each
of the four paths (no suffix, the first suffix, a grown suffix, all
coordinates after the suffixes) is taken.

`signature` and `det` read one fraction-free symmetric elimination,
`intlinalg.inertia`.  They are compared with `oracles.signature`, a
`Fraction` elimination, and `oracles.det_bareiss`, which needs no symmetry,
on 2,000 seeded symmetric Grams of rank 1 to 24 (the rank of LambdaTilde,
the largest lattice of the theory) with entries in [-5, 5], and on the
standard lattices.  A third of the Grams have a zero diagonal, where the
first pivot takes a congruence, and a fifth are singular (a repeated row
and column).

Prints one summary line per check and exits nonzero on any difference.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import oracles  # noqa: E402
from cubick3 import intlinalg as la  # noqa: E402
from cubick3 import lattice as lat  # noqa: E402
from cubick3.standard import standard_lattice  # noqa: E402


def suffix_path(W) -> str:
    lengths, accepted = oracles.saturation_suffixes(W)
    if accepted:
        return "first suffix" if len(lengths) == 1 else "grown suffix"
    return "all coordinates" if lengths else "no suffix"


def main() -> int:
    rng = random.Random("left-kernel-ci")
    mats, gens = [], []
    for amb, W in oracles.c11_inputs(20_000, rng):
        gens.append((amb, W))
        cols = [amb.basis_pairings(w) for w in W]
        mats.append([[c[j] for c in cols] for j in range(amb.rank)])
    for _ in range(20_000):
        m, k = rng.randint(0, 9), rng.randint(0, 5)
        entries = rng.choice([(0, 0, 0, 1, -1, 2, 3, -6), range(-4, 5), (0, 2, 4, -6, 12)])
        mats.append([[rng.choice(entries) for _ in range(k)] for _ in range(m)])
    kernels = [la.left_kernel(A) for A in mats]
    bad = [A for A, K in zip(mats, kernels) if K != oracles.left_kernel(A)]
    print(f"{len(bad)} of {len(mats)} kernels differ", bad[:3])
    scan = [A for A, K in zip(mats, kernels) if oracles.hermite_pivots(K) is None]
    print(f"{len(scan)} of {len(mats)} kernels are not canonical Hermite bases", scan[:3])
    sat_bad, idem_bad = [], []
    for amb, W in gens[:5_000]:
        S = lat.Sublattice(amb, lat.IntMatrix.from_rows(W))
        sat = lat.saturation(S)
        if sat != oracles.saturation(S):
            sat_bad.append(W)
        for X in (sat[0], lat.orthogonal_complement(amb, W)):
            if lat.saturation(lat.Sublattice(amb, X.basis)) != (X, 1):
                idem_bad.append(W)
        c = [rng.randint(-3, 3) for _ in W]
        dependent = [*W, [sum(a * w[j] for a, w in zip(c, W)) for j in range(amb.rank)]]
        for rows in (W, dependent):
            if lat.saturate_rows(amb, rows) != oracles.saturate_rows(amb, rows):
                sat_bad.append(rows)
    print(f"{len(sat_bad)} of 15000 saturations differ", sat_bad[:3])
    print(f"{len(idem_bad)} of 10000 re-saturations differ", idem_bad[:3])

    rng = random.Random("saturation-suffix-ci")
    ambients = [standard_lattice("Gammabar"), standard_lattice("LambdaTilde")]
    paths, path_bad = Counter(), []
    for i in range(4_000):
        amb = ambients[i % 2]
        k = rng.randint(1, 4)
        sparse = i < 2_000
        entries = (0,) * 8 + (-2, -1, 1, 2, 3) if sparse else range(-5, 6)
        while True:
            W = [[rng.choice(entries) for _ in range(amb.rank)] for _ in range(k)]
            if la.rank_int(W) == k:
                break
        if not sparse:
            f, tail = rng.choice([2, 3]), amb.rank - k - 3
            for w in W:
                w[tail:] = [f * e for e in w[tail:]]
            g = rng.randrange(k)
            W[g] = [f * e for e in W[g]]
        paths[suffix_path(W)] += 1
        S = lat.Sublattice(amb, lat.IntMatrix.from_rows(W))
        if lat.saturation(S) != oracles.saturation(S):
            path_bad.append(W)
    print(f"{len(path_bad)} of 4000 sparse and scaled saturations differ", path_bad[:3])
    print("saturation paths:", dict(sorted(paths.items())))
    missing = {"no suffix", "first suffix", "grown suffix", "all coordinates"} - set(paths)
    if missing:
        print("paths never taken:", sorted(missing))

    rng = random.Random("inertia-ci")
    names = ("U", "E", "A2", "A2m", "I03", "Gammabar", "Gamma", "Lambda", "LambdaTilde",
             "LambdaD(14)")
    grams = [standard_lattice(name).gram.to_lists() for name in names]
    for i in range(2_000):
        n = rng.randint(1, 24)
        G = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                G[a][b] = G[b][a] = rng.randint(-5, 5)
        if i % 3 == 0:
            for a in range(n):
                G[a][a] = 0
        if i % 5 == 0 and n >= 2:
            a, b = rng.sample(range(n), 2)
            G[a] = list(G[b])
            for row in G:
                row[a] = row[b]
        grams.append(G)
    gram_bad = []
    for G in grams:
        L = lat.GramLattice.from_rows(G)
        if (lat.signature(L), L.det) != (oracles.signature(G), oracles.det_bareiss(G)):
            gram_bad.append(G)
    print(f"{len(gram_bad)} of {len(grams)} signatures and determinants differ", gram_bad[:1])
    return int(bool(bad or scan or sat_bad or idem_bad or path_bad or missing or gram_bad))


if __name__ == "__main__":
    sys.exit(main())
