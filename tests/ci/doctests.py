"""The docstring examples of `tests/test_doctests.py`'s `MODULES`, without pytest.

    python3 tests/ci/doctests.py

Runs `doctest.testmod` on each module and prints the results.  Fails on any
failed example, or when fewer than `MIN_EXAMPLES` examples ran in all.
"""

import doctest
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_doctests import MIN_EXAMPLES, MODULES  # noqa: E402


def main() -> int:
    results = [doctest.testmod(m) for m in MODULES]
    print(results)
    return int(any(r.failed for r in results) or sum(r.attempted for r in results) < MIN_EXAMPLES)


if __name__ == "__main__":
    sys.exit(main())
