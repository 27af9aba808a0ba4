"""Every line of the golden corpus through the installed console script.

    python3 tests/ci/golden.py

Runs `cubick3 ARGV` for each line of `tests/golden/manifest.txt` in a fresh
process, under the line's time limit, and checks its exit code, stdout and
stderr with the reader of `tests/test_golden.py`.  Prints each line's wall
time and status, and for a mismatch the line the output would need.  Fails
on any mismatch or missed limit.
"""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import mismatch, read_manifest  # noqa: E402


def main() -> int:
    lines = read_manifest()
    failed = 0
    for line in lines:
        start = time.perf_counter()
        try:
            r = subprocess.run(["cubick3", *line["argv"]], capture_output=True,
                               timeout=line["limit"])
            problem = mismatch(line, r.returncode, r.stdout, r.stderr.decode())
        except subprocess.TimeoutExpired:
            problem = f"no answer within {line['limit']} s"
        print(f"{time.perf_counter() - start:6.2f} s  {'FAIL' if problem else 'ok  '}  "
              f"{' '.join(line['argv'])}")
        if problem:
            print(problem)
            failed += 1
    print(f"{failed} of {len(lines)} lines failed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
