"""Rows of the differential table on longer prefixes of their pinned samples.

    python3 tests/ci/differential_at_scale.py

`SCALE` names rows of `tests/differential.py` with a CI size, the first N
inputs of the row's own sampler and seed, or, for a sweep, a CI range.  So
the sample `differential_floors.txt` pins is a prefix of the CI sample
(`test_differential.py` checks that each size is at least the row's and
each range contains the row's).  The rows are the kernel, whose fast route
reads a short suffix of the rows, on C11 pairing matrices and small
matrices, each kernel scanned by `oracles.hermite_pivots`; saturation and
saturate_rows against the double-kernel oracles, on C11 sets, C11 sets with
a dependent row appended, saturations and complements rebuilt unmarked, and
sparse, scaled and dense sets; signature and det of Grams of rank 1 to 24;
the four routes to (**) on every special d <= 100,000; and each row that
draws the shapes of a fact, at ten times its Tier-1 sample or range:
signatures of shaped Grams, sparse products, discriminant forms of even
Grams, kernels of four kinds, the classification of NL vectors (drawn, and
nl_vector(d) to 20,000), the witnesses of (**) and (***) to 8,000, and the
Pell solver against the sieved search for D < 5,000.  The paths of the small
and the shaped matrices through `intlinalg.left_kernel`, and of the sparse,
scaled and dense sets through `lattice.saturation`, must each include all
four: no suffix, the first, a grown one, and all rows after them
(`oracles.suffix_path`).

An exception in a route counts as a difference of its row.  Prints one line
per row, with its first difference, and exits nonzero on any difference.
"""

import itertools
import sys
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import differential as dt  # noqa: E402
import oracles  # noqa: E402

SCALE = {
    "left_kernel.c11": 20_000,
    "left_kernel.small_matrices": 20_000,
    "saturation.c11": 5_000,
    "saturate_rows.c11": 5_000,
    "saturate_rows.c11_dependent": 5_000,
    "saturation.rebuilt.c11": 10_000,
    "saturation.suffix": 6_200,  # 2,060 sparse and 2,023 scaled sets
    "inertia.to_rank24": 2_000,
    "starstar.a2_norms": ((2, 100_000),),
    "signature.shaped": 3_000,
    "sparse_products.dense": 1_000,
    "disc_form.even_grams": 1_500,
    "left_kernel.shaped": 3_000,
    "classify_nl_vector.generic": 1_500,
    "classify_nl_vector.generic.to2000": ((2, 20_000),),
    "witnesses.even.to800": ((2, 8_000),),
    "pell.brute_y.to500": ((1, 4_999),),
}
# the rows whose samples must take every path of the suffix routes, and the
# rows T and column count k that `oracles.suffix_path` walks for an input
SUFFIX_ROUTES = {
    "saturation.suffix": lambda x: ([c for c in zip(*x[1]) if any(c)], len(x[1])),
    "left_kernel.small_matrices": lambda A: (A, len(A[0]) if A else 0),
    "left_kernel.shaped": lambda A: (A, len(A[0]) if A else 0),
}


def differs(row, x):
    # whether the routes differ on x, or the exception one of them raised
    try:
        return row.library(x) != row.oracle(x)
    except Exception as e:
        return e


def main() -> int:
    rows = {row.id: row for row in dt.ROWS}
    failed = False
    for name, size in SCALE.items():
        row, start = rows[name], time.perf_counter()
        n, ranges = (size, row.ranges) if isinstance(size, int) else (None, size)
        sample = list(itertools.islice(dt.SAMPLERS[row.sampler](*ranges, seed=row.seed), n))
        bad = [(x, e) for x in sample if (e := differs(row, x))]
        print(f"{name}: {len(bad)} of {len(sample)} differ ({time.perf_counter() - start:.1f} s)")
        if bad:
            x, e = bad[0]
            print("  first:", repr(x)[:300], "" if e is True else f"raised {e!r}")
        if name in SUFFIX_ROUTES:
            paths = Counter(oracles.suffix_path(*SUFFIX_ROUTES[name](x)) for x in sample)
            never = sorted(oracles.PATHS - set(paths))
            print("  paths:", dict(sorted(paths.items())), "never taken:", never)
            failed |= bool(never)
        failed |= bool(bad)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
