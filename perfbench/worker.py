"""One measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py setup  WORKLOAD SEED
    python3 perfbench/worker.py timed  WORKLOAD SEED SECONDS
    python3 perfbench/worker.py fixed  WORKLOAD SEED
    python3 perfbench/worker.py traced WORKLOAD SEED SPANS_PATH

`setup` times the import of cubick3 and the warming of its constant caches.
`timed` runs ops closed-loop, one after another, until their summed time
reaches SECONDS and the digest prefix is done.  `fixed` and `traced` run
exactly the workload's `fixed_ops` ops, untraced and traced.  Every mode
imports and warms first, so no run inherits a cache from another.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# A run stops after this much wall time even if unfinished, so a worker ends in bounded time.
MAX_WALL_S = 75.0
MIN_BEYOND = 10  # samples a percentile needs above it


def percentile(samples, pct: int):
    """Nearest-rank percentile of the samples, refused without MIN_BEYOND samples above it."""
    s = sorted(samples)
    rank = -(-len(s) * pct // 100)
    if rank < 1 or len(s) - rank < MIN_BEYOND:
        raise ValueError(f"p{pct} of {len(s)} samples has fewer than {MIN_BEYOND} samples beyond it")
    return s[rank - 1]


def setup() -> float:
    """Import cubick3 and warm the constant lru caches; returns the seconds taken."""
    t0 = time.perf_counter()
    import cubick3  # noqa: F401
    from cubick3 import mukai, standard

    for name in ("E", "Gamma", "Gammabar", "Lambda", "LambdaTilde"):
        standard.standard_lattice(name)
    standard.canonical_embedding_report()
    mukai.characteristic_classes()
    standard._gamma_disc_generator()
    return time.perf_counter() - t0


# --- calibration -------------------------------------------------------------
# Co-tenants on a shared machine change its speed by 20-40% for tens of
# seconds at a time, and CPU time follows wall time, so raw times of identical
# runs spread by as much.  A fixed pure-Python kernel that does not touch
# cubick3 is timed between ops every CALIBRATE_EVERY_NS of op time, and each
# op's time is scaled by CALIBRATION_NOMINAL_NS / (kernel time near that op):
# times read as on a machine where the kernel takes the nominal time.

CALIBRATE_EVERY_NS = 50_000_000
CALIBRATION_NOMINAL_NS = 200_000  # about the kernel on a 2-CPU x86-64 host, CPython 3.11


def _kernel_matrix(n: int = 14) -> list[list[int]]:
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


_KERNEL = _kernel_matrix()
_KERNEL_DET = -506262975567183


def _kernel() -> int:
    # fraction-free elimination; the constant matrix needs no pivoting
    M = [row[:] for row in _KERNEL]
    n, prev = len(M), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return M[-1][-1]


def calibrate() -> int:
    """Nanoseconds the kernel takes now: the fastest of three runs."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        if _kernel() != _KERNEL_DET:
            raise AssertionError("calibration kernel gave a wrong determinant")
        t = time.perf_counter_ns() - t0
        best = t if best is None or t < best else best
    return best


def calibrated(times, sample_at: list[int], samples: list[int]) -> list[float]:
    """Scale each op time by the nominal over the median of the five kernel
    samples nearest to it.  sample_at[j] is the index of the first op after
    sample j; sample_at[0] == 0."""
    out = []
    j = 0
    for i, t in enumerate(times):
        while j + 1 < len(sample_at) and sample_at[j + 1] <= i:
            j += 1
        near = sorted(samples[max(0, j - 2): j + 3])
        out.append(t * CALIBRATION_NOMINAL_NS / near[len(near) // 2])
    return out


def run_ops(workload, inputs, seconds: float, run_op=None) -> dict:
    """Run ops on `inputs` in order until their summed time reaches `seconds`
    and at least `workload.fixed_ops` ran, or the inputs run out.

    Every op is timed on its own and checked after its timer stops.  An op
    that raises or fails its check counts as failed; none is dropped.  The
    digest covers the outputs of the first `fixed_ops` ops."""
    run_op = run_op or (lambda op, x: op(x))
    clock = time.perf_counter_ns
    times = array("q")
    samples, sample_at = [calibrate()], [0]
    busy = since = 0
    failed = 0
    reasons: list[str] = []
    digest = hashlib.sha256()
    wall_end = time.monotonic() + MAX_WALL_S
    for i, x in enumerate(inputs):
        t0 = clock()
        try:
            out = run_op(workload.op, x)
            err = None
        except Exception as e:  # a raising op is a failed op, and the run goes on
            out, err = None, f"op raised {type(e).__name__}: {e}"
        t = clock() - t0
        times.append(t)
        busy += t
        since += t
        if err is None:
            try:
                err = workload.check(x, out)
            except Exception as e:  # a malformed output can break the check itself
                err = f"check raised {type(e).__name__}: {e}"
        if err is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{x!r:.80}: {err}")
        if i < workload.fixed_ops:
            digest.update(workload.canon(x, out) if err is None else b"failed")
            digest.update(b"\n")
        if since >= CALIBRATE_EVERY_NS:
            since = 0
            samples.append(calibrate())
            sample_at.append(i + 1)
        done = i + 1
        if (busy >= seconds * 1e9 and done >= workload.fixed_ops) or time.monotonic() > wall_end:
            break
    scaled = calibrated(times, sample_at, samples)
    return {
        "attempted": len(times),
        "failed": failed,
        "reasons": reasons,
        "busy_s": sum(scaled) / 1e9,
        "p50_ms": percentile(scaled, 50) / 1e6,
        "p90_ms": percentile(scaled, 90) / 1e6,
        "raw_busy_s": busy / 1e9,
        "scale": CALIBRATION_NOMINAL_NS / statistics.median(samples),
        "digest": digest.hexdigest() if len(times) >= workload.fixed_ops else None,
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if not (SRC / "cubick3" / "__init__.py").is_file():
        print(f"cubick3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s = setup()
    if mode == "setup":
        kernel_ns = statistics.median(calibrate() for _ in range(5))
        print(json.dumps({"setup_s": setup_s * CALIBRATION_NOMINAL_NS / kernel_ns, "raw_setup_s": setup_s}))
        return 0
    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[name]
    if mode == "timed":
        inputs = w.make_inputs(seed, w.max_inputs)
        res = run_ops(w, inputs, float(argv[3]))
    elif mode == "fixed":
        res = run_ops(w, w.make_inputs(seed, w.fixed_ops), 0.0)
    elif mode == "traced":
        tracer = Tracer()
        tracer.install()
        res = run_ops(w, w.make_inputs(seed, w.fixed_ops), 0.0, tracer.run_op)
        res["layers"] = tracer.metrics(res["scale"])
        tracer.write_spans(argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
