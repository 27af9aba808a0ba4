"""`table 1000000 --format csv` against its pinned SHA-256, byte for byte.

    python3 tests/ci/table_digest.py

The CLI runs in a fresh interpreter on the checkout's `src/`, and its
standard output is hashed as it streams.  The pin was taken before the row
path's Pell walk, convergent and factorization pass were rewritten, so it
holds every row of the table to 10^6, 33 times the range of the tier-1
digest to 30,000.  Prints the digest and exits nonzero on a difference or
on a failed run.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PINNED = "34b8d51d0890e5cd5ec2aecb869027c85bee5ae6b529ce0d84b542df7a725808"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "cubick3.cli", "table", "1000000", "--format", "csv"]
    digest = hashlib.sha256()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    got = digest.hexdigest()
    print(f"sha256 {got}, exit {proc.returncode}")
    return int(proc.returncode != 0 or got != PINNED)


if __name__ == "__main__":
    sys.exit(main())
