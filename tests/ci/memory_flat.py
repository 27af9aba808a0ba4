"""Verify's memory stays flat over a long sweep, in a fresh interpreter.

    python3 tests/ci/memory_flat.py

The per-d pass of `verify.run_all` keeps at most one `hassett_triple`
report.  Fails unless `run_all(genus_max=20000)` passes under 40 MB of peak
RSS; a cache of every report reads about 71 MB.  Prints one summary line.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cubick3 import verify  # noqa: E402


def main() -> int:
    s = verify.run_all(genus_max=20000)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ok={s.ok}, peak RSS {rss_mb:.1f} MB")
    return int(not (s.ok and rss_mb < 40))


if __name__ == "__main__":
    sys.exit(main())
