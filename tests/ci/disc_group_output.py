"""The q values of `cubick3 lattice NAME --disc-group`, in text and JSON, byte for byte.

    python3 tests/ci/disc_group_output.py

Runs the installed console script.  These q values are the one Fraction the
CLI prints; the library keeps them as integer numerators over the invariant
factors.  Prints the mismatches (or that the output is as pinned) and exits
nonzero on any.
"""

import json
import subprocess
import sys

WANT = {
    "A2": ([3], ["2/3"]),
    "Gamma": ([3], ["4/3"]),
    "Gammabar": ([], None),
    "LambdaD(18)": ([18], ["35/18"]),
}


def main() -> int:
    bad = []
    for name, (factors, q) in WANT.items():
        cmd = ["cubick3", "lattice", name, "--disc-group"]
        text = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        js = subprocess.run(cmd + ["--format", "json"], check=True, capture_output=True,
                            text=True).stdout
        q_line = "(odd lattice)" if q is None else str(q)
        if text != f"invariant factors: {factors}\nq values: {q_line}\n":
            bad.append((name, text))
        if js != json.dumps({"invariant_factors": factors, "q_values": q}, indent=2) + "\n":
            bad.append((name, js))
    print(bad or "disc-group output as pinned")
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
