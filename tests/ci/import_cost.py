"""The cost of `import cubick3`: its median wall time and each module's self time.

    python3 tests/ci/import_cost.py

Each of RUNS = 21 rounds starts two fresh `python -I -S`
interpreters that import cubick3 from the package's `src/`.  The first times
the import with `time.perf_counter`; the second runs under `-X importtime`,
which writes the self time of every module that the import loads to stderr
(and slows the import, so its wall time is not used).  Prints the median
wall time, the sums of the median self times over the modules of cubick3
and over those of the standard library, and each module's median self time,
largest first.  One round runs first, uncounted, to write the bytecode
caches.  Uses only the standard library.  Wall time on a shared host varies
from run to run, so this is a report and not a gate: it always exits 0.
"""

import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
RUNS = 21
MARK = "-- import cubick3"
CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    f"print({MARK!r}, file=sys.stderr, flush=True)\n"
    "t0 = time.perf_counter()\n"
    "import cubick3\n"
    "print(time.perf_counter() - t0)\n"
)


def interpreter(*options: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", "-S", *options, "-c", CODE],
                          check=True, capture_output=True, text=True)


def self_times(stderr: str) -> dict[str, int]:
    """{module: self microseconds} of the modules loaded after MARK."""
    out = {}
    for line in stderr.partition(MARK)[2].splitlines():
        # import time:       412 |       1830 |   cubick3.lattice
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0])
    return out


def main() -> int:
    interpreter()
    walls, selfs = [], {}
    for _ in range(RUNS):
        walls.append(float(interpreter().stdout))
        for module, us in self_times(interpreter("-X", "importtime").stderr).items():
            selfs.setdefault(module, []).append(us)
    print(f"import cubick3: {statistics.median(walls) * 1e3:.2f} ms, "
          f"median wall time of {RUNS} fresh interpreters")
    medians = {module: statistics.median(us) for module, us in selfs.items()}
    own = sum(us for module, us in medians.items() if module.partition(".")[0] == "cubick3")
    print(f"self time of each module it loads (us, median): {own:.0f} in cubick3, "
          f"{sum(medians.values()) - own:.0f} in the standard library")
    for module, us in sorted(medians.items(), key=lambda item: -item[1]):
        print(f"{us:8.0f}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
