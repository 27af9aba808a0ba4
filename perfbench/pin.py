"""Recompute the pinned output digests in digests.json.

    python3 perfbench/pin.py

For every workload and for seeds 0 to 20 it runs the workload's fixed op
prefix untraced in a fresh interpreter and records the digest of the
outputs.  Run it only when a change is meant to alter the library's output
bytes, and say so where the change is described.
"""

from __future__ import annotations

import json

from run import HERE, WORKLOADS, worker

SEEDS = range(21)


def main() -> None:
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in SEEDS:
            r = worker("fixed", workload, seed)
            if r["failed"] or r["digest"] is None:
                raise SystemExit(f"{workload} seed {seed}: {r['failed']} ops failed: {r['reasons']}")
            pins[workload][str(seed)] = r["digest"]
            print(workload, seed, r["digest"], flush=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
