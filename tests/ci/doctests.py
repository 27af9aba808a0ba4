"""The docstring examples of the modules `tests/test_doctests.py` runs, without pytest.

    python3 tests/ci/doctests.py

Runs `doctest.testmod` on each module and prints the results.  Fails on any
failed example, or when fewer than 10 examples ran in all.
"""

import doctest
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import cubick3.conditions  # noqa: E402
import cubick3.intlinalg  # noqa: E402
import cubick3.lattice  # noqa: E402
import cubick3.mukai  # noqa: E402
import cubick3.pell  # noqa: E402
import cubick3.standard  # noqa: E402

MODULES = (cubick3.conditions, cubick3.intlinalg, cubick3.lattice, cubick3.mukai,
           cubick3.pell, cubick3.standard)


def main() -> int:
    results = [doctest.testmod(m) for m in MODULES]
    print(results)
    return int(any(r.failed for r in results) or sum(r.attempted for r in results) < 10)


if __name__ == "__main__":
    sys.exit(main())
