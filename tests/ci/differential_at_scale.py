"""Every row of the differential table that has a CI scale, at that scale.

    python3 tests/ci/differential_at_scale.py

A row of `tests/differential.py` with a `ci` runs on the first `ci` inputs
of its own sampler and seed, or, for a sweep, over the `ci` ranges; so the
sample `differential_floors.txt` pins is a prefix of the CI sample
(`test_differential.py` checks that each CI size is at least the row's and
each CI range contains the row's, and the floors pin each `ci`).  A row's
`paths` gives `oracles.suffix_path` the rows and column count its suffix
route walks on an input, and the row's CI sample must take all four paths:
no suffix, the first, a grown one, and all rows after them.

An exception in a route counts as a difference of its row
(`differential.differs`).  Prints one line per row, in table order, with its
first difference, and exits nonzero on any difference or a path never taken.
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


def main() -> int:
    failed = False
    for row in (row for row in dt.ROWS if row.ci):
        start = time.perf_counter()
        n, ranges = (row.ci, row.ranges) if isinstance(row.ci, int) else (None, row.ci)
        sample = list(itertools.islice(dt.SAMPLERS[row.sampler](*ranges, seed=row.seed), n))
        bad = [(x, e) for x in sample if (e := dt.differs(row, x))]
        print(f"{row.id}: {len(bad)} of {len(sample)} differ ({time.perf_counter() - start:.1f} s)")
        if bad:
            x, e = bad[0]
            print("  first:", repr(x)[:300], "" if e is True else f"raised {e!r}")
        if row.paths:
            paths = Counter(oracles.suffix_path(*row.paths(x)) for x in sample)
            never = sorted(oracles.PATHS - set(paths))
            print("  paths:", dict(sorted(paths.items())), "never taken:", never)
            failed |= bool(never)
        failed |= bool(bad)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
