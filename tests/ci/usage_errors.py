"""Out-of-domain input to the installed console script exits 2 with one stderr line.

    python3 tests/ci/usage_errors.py

Each case is the library's typed error, caught in `main`, or one of the
CLI's two 2^63 caps.  Fails unless each exits 2 with exactly this stderr
and no stdout.  Prints the mismatches (or that the errors are as pinned).
"""

import subprocess
import sys

WANT = {
    ("classify", "7"): "d must be even and at least 2, got 7",
    ("classify", "0"): "d must be even and at least 2, got 0",
    ("table", "6"): "max_d must be even and at least 8, got 6",
    ("table", "20", "--from", "9"): "start must be even and at least 2, got 9",
    ("classify", "9223372036854775808"):
        "d must be below 2^63 (the library accepts larger values)",
    ("lattice", "LambdaD(7)"): "LambdaD's d must be even and at least 2, got 7",
}


def main() -> int:
    bad = []
    for args, err in WANT.items():
        r = subprocess.run(["cubick3", *args], capture_output=True, text=True)
        if (r.returncode, r.stdout, r.stderr) != (2, "", f"error: {err}\n"):
            bad.append((args, r.returncode, r.stdout, r.stderr))
    print(bad or "usage errors as pinned")
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
