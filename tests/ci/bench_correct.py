"""Every benchmark workload reports correct = true, run by `perfbench/run.py`.

    python3 tests/ci/bench_correct.py --seed 0 --seconds 1 --trace 0
    python3 tests/ci/bench_correct.py --seed 0 --trace 1

`perfbench/run.py` exits 0 even when an output digest changed.  This runs it
once for each workload of `BENCHMARK.json`, with `--workload` and the given
arguments, and prints its output.  Exits nonzero unless every run exits 0
and its last line is a JSON object with "correct": true.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def correct(stdout: str) -> bool:
    lines = stdout.splitlines()
    try:
        return bool(lines) and json.loads(lines[-1])["correct"] is True
    except (ValueError, TypeError, KeyError):
        return False


def main(args: list[str]) -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    wrong = []
    for name in workloads:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, *args],
                              cwd=ROOT, capture_output=True, text=True)
        print(proc.stdout, end="", flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode or not correct(proc.stdout):
            wrong.append(name)
    print("not correct:" if wrong else "all correct:", ", ".join(wrong or workloads))
    return int(bool(wrong))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
