"""Entry point of the cubick3 benchmark.

    python3 perfbench/run.py --workload sublattices --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` it prints the end-to-end metrics of one workload: a timed
closed-loop run in a fresh interpreter, plus the median set-up time of
several fresh interpreters.  With ``--trace 1`` it prints the per-layer
metrics: the workload's fixed op prefix run once untraced and once traced,
each in a fresh interpreter, with identical output digests required.  The
spans of the traced run are written to ``perfbench/out/``.  ``--workload all``
runs every workload both ways and prints everything.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The run is correct when no op failed and every output digest
agrees with the others and with the digest pinned in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sublattices", "nl-sweep", "discriminants")
SETUP_RUNS = 7  # set-up is short and noisy: report the median of this many
WORKER_TIMEOUT_S = 85  # above worker.MAX_WALL_S plus start-up


def worker(*args) -> dict:
    # -I -S: ignore the environment and site-packages, so the cubick3 under
    # test is the one in this checkout
    proc = subprocess.run(
        [sys.executable, "-I", "-S", str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[:3]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def pinned_digest(workload: str, seed: int) -> str | None:
    return json.loads((HERE / "digests.json").read_text())[workload].get(str(seed))


def digest_problems(workload: str, seed: int, digests: list[str | None]) -> list[str]:
    out = []
    if None in digests:
        out.append("the digest prefix did not complete")
    elif len(set(digests)) > 1:
        out.append(f"output digests differ between runs: {digests}")
    pin = pinned_digest(workload, seed)
    if pin is not None and digests[0] != pin:
        out.append(f"output digest {digests[0]} != pinned {pin}")
    return out


def make_result(attempted: int, failed: int, metrics: dict, problems: list[str], notes: list[str]) -> dict:
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "problems": problems,
        "notes": notes,
    }


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    worker("setup", workload, seed)  # compiles bytecode; not measured
    setups = [worker("setup", workload, seed) for _ in range(SETUP_RUNS)]
    r = worker("timed", workload, seed, seconds)
    metrics = {
        "ops_per_s": (r["attempted"] / r["busy_s"], "1/s"),
        "op_p50_ms": (r["p50_ms"], "ms"),
        "op_p90_ms": (r["p90_ms"], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "ok_frac": (1 - r["failed"] / r["attempted"], "ratio"),
    }
    note = (f"uncalibrated: ops_per_s {r['attempted'] / r['raw_busy_s']:.6g} 1/s, "
            f"setup_s {statistics.median(s['raw_setup_s'] for s in setups):.6g} s; "
            f"calibration scale {r['scale']:.4f}")
    problems = r["reasons"] + digest_problems(workload, seed, [r["digest"]])
    return make_result(r["attempted"], r["failed"], metrics, problems, [note])


def per_layer(workload: str, seed: int) -> dict:
    spans = HERE / "out" / f"{workload}-seed{seed}.spans.tsv"
    spans.parent.mkdir(exist_ok=True)
    plain = worker("fixed", workload, seed)
    traced = worker("traced", workload, seed, spans)
    values = dict(traced["layers"], **{"trace.overhead": plain["busy_s"] / traced["busy_s"]})
    metrics = {name: (values[name], unit) for name, unit, _ in metric_names()}
    problems = plain["reasons"] + traced["reasons"]
    problems += digest_problems(workload, seed, [plain["digest"], traced["digest"]])
    note = f"spans written to {spans.relative_to(ROOT)}"
    return make_result(traced["attempted"], plain["failed"] + traced["failed"], metrics, problems, [note])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return per_layer(workload, seed) if trace else end_to_end(workload, seed, seconds)


def report(workload: str, trace: bool, result: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload} {kind}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for note in result["notes"]:
        print(f"   note: {note}")
    for name, m in result["metrics"].items():
        print(f"   {workload:14} {name:44} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cubick3" / "__init__.py").is_file():
        print(f"cubick3 sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, bool(args.trace), result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace)
            report(workload, trace, result)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
