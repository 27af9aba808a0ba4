"""`genus_compare` and `witness_ss` against the (**) of `condition_flags` to 100,000.

    python3 tests/ci/genus_starstar.py

This is far past the tier-1 sweeps and `verify`'s: on each d, Gamma_d and
Lambda_d share a genus, and a (**) witness exists, exactly where (**)
holds.  Prints the number of disagreements and the first ten, and exits
nonzero on any.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cubick3 import condition_flags, genus_compare, witness_ss  # noqa: E402


def main() -> int:
    bad = []
    for d in range(2, 100_001, 2):
        if d % 6 in (0, 2):
            ss = condition_flags(d).starstar
            if genus_compare(d) != ss or (witness_ss(d) is not None) != ss:
                bad.append(d)
    print(f"{len(bad)} disagreements", bad[:10])
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
