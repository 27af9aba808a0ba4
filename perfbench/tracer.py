"""Per-layer tracing of cubick3 from outside the library.

`Tracer.install` replaces the public functions listed in `TRACED` with
wrappers that record one span per call: (name, parent, start, end).  The
replacement is made on every ``cubick3`` module attribute that refers to the
original function, because ``standard``, ``cli`` and the package itself bind
names with ``from .lattice import ...``.  Hot private helpers (``xgcd``,
``_row_combine``) and cheap public ones (``dot``, ``transpose``) stay
unwrapped; their time counts as self time of the wrapped caller.

Spans are kept in flat arrays and written out once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.
The probes that read bit lengths and period lengths off return values run
in spans of their own (layer ``trace``), so they add no self time to the
library layers.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from itertools import chain

LAYERS = ("intlinalg", "lattice", "standard", "conditions", "pell")

TRACED = (
    "intlinalg.row_echelon_transform",
    "intlinalg.hnf_rows",
    "intlinalg.left_kernel",
    "intlinalg.rank_int",
    "intlinalg.smith_normal_form",
    "intlinalg.det_bareiss",
    "intlinalg.hnf_solve",
    "intlinalg.gram_product",
    "intlinalg.matmul",
    "intlinalg.mat_vec",
    "intlinalg.pairing",
    "lattice.span_sublattice",
    "lattice.saturate_rows",
    "lattice.saturation",
    "lattice.orthogonal_complement",
    "lattice.disc_group",
    "lattice.signature",
    "standard.hassett_triple",
    "standard.classify_nl_vector",
    "standard.genus_compare",
    "standard.disc_forms_isomorphic",
    "standard.DiscForm.of",
    "conditions.condition_flags",
    "conditions.csv_row",
    "conditions.a2_represents",
    "conditions.witness_ss",
    "conditions.witness_sss",
    "conditions.pell_brakkee",
    "pell.solve_minus3",
    "pell.sqrt_cf",
)

ROOT = "bench.op"  # one root span per op; its self time is untraced code the op runs
PROBE = "trace.probe"


def _matrix_bits(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


def _echelon_bits(out) -> int:
    H, U, _ = out
    return max(_matrix_bits(H), _matrix_bits(U))


def _pell_bits(out) -> int:
    sol, bound = out
    return max(abs(v).bit_length() for v in (sol or ()) + (bound,))


PROBES = {
    "intlinalg.row_echelon_transform": ("out_bits_max", "bits", _echelon_bits),
    "intlinalg.hnf_rows": ("out_bits_max", "bits", _matrix_bits),
    "pell.solve_minus3": ("out_bits_max", "bits", _pell_bits),
    "pell.sqrt_cf": ("period_len_max", "count", lambda out: len(out[1])),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric `Tracer.metrics` reports, in order."""
    out = []
    for label in TRACED:
        out.append((f"{label}.calls", "count", "lower"))
        out.append((f"{label}.self_s", "s", "lower"))
        if label in PROBES:
            suffix, unit, _ = PROBES[label]
            out.append((f"{label}.{suffix}", unit, "lower"))
    for layer in LAYERS + ("bench", "trace"):
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "ratio", "lower"))
    out.append(("trace.spans", "count", "lower"))
    out.append(("trace.overhead", "ratio", "higher"))
    return out


class Tracer:
    """Span recorder for one process.  Recording is on only inside `run_op`."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.on = False
        self.maxima: dict[str, int] = {}
        self.root_id = self._label_id(ROOT)

    def _label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0)
        self.end.append(0)
        return sid

    def _wrap(self, label, fn):
        nid = self._label_id(label)
        probe = PROBES.get(label)
        probe_id = self._label_id(PROBE)
        clock = time.perf_counter_ns
        stack, start, end = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if probe is not None:
                pid = self._open(probe_id)
                t0 = clock()
                value = probe[2](out)
                end[pid] = clock()
                start[pid] = t0
                if value > self.maxima.get(label, -1):
                    self.maxima[label] = value
            return out

        traced.__name__ = getattr(fn, "__name__", label)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED; a function the library no longer has is skipped."""
        for label in TRACED:
            mod_name, _, path = label.partition(".")
            module = importlib.import_module(f"cubick3.{mod_name}")
            *outer, attr = path.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(label, orig)
            if owner is not module:
                raw = owner.__dict__.get(attr)
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "cubick3" or name.startswith("cubick3."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def run_op(self, op, x):
        sid = self._open(self.root_id)
        self.stack.append(sid)
        self.on = True
        t0 = time.perf_counter_ns()
        try:
            return op(x)
        finally:
            t1 = time.perf_counter_ns()
            self.on = False
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def self_times(self) -> list[int]:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return [dur[i] - covered[i] for i in range(n)]

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Every metric of `metric_names` but ``trace.overhead``, which needs an
        untraced run of the same ops.  Times are multiplied by `scale`."""
        self_ns = self.self_times()
        calls: dict[str, int] = {}
        spent: dict[str, int] = {}
        for nid, s in zip(self.name, self_ns):
            label = self.labels[nid]
            calls[label] = calls.get(label, 0) + 1
            spent[label] = spent.get(label, 0) + s
        total = sum(self_ns) or 1
        layer_ns = {layer: 0 for layer in LAYERS + ("bench", "trace")}
        for label, s in spent.items():
            layer_ns[label.partition(".")[0]] += s
        values: dict[str, float] = {}
        for label in TRACED:
            values[f"{label}.calls"] = calls.get(label, 0)
            values[f"{label}.self_s"] = spent.get(label, 0) * scale / 1e9
            if label in PROBES:
                values[f"{label}.{PROBES[label][0]}"] = self.maxima.get(label, 0)
        for layer, s in layer_ns.items():
            values[f"{layer}.self_s"] = s * scale / 1e9
            values[f"{layer}.share"] = s / total
        values["trace.spans"] = len(self.start)
        return values

    def write_spans(self, path) -> None:
        """One line per span: id, op (id of its root span), parent, name, start_ns, end_ns."""
        root = array("q", [0]) * len(self.start)
        with open(path, "w") as f:
            f.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                f.write(f"{i}\t{root[i]}\t{p}\t{self.labels[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")
