"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import textwrap
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import CALIBRATION_NOMINAL_NS, calibrated, percentile, run_ops  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(range(1, 101), 90), 90)
        with self.assertRaises(ValueError):
            percentile(range(1, 100), 90)

    def test_p50_is_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3] * 4, 50), 3)
        with self.assertRaises(ValueError):
            percentile(range(19), 50)


class Calibration(unittest.TestCase):
    def test_each_op_is_scaled_by_the_kernel_samples_near_it(self):
        # one kernel sample every ten ops; the machine runs at half speed from op 50 on
        samples = [CALIBRATION_NOMINAL_NS] * 5 + [2 * CALIBRATION_NOMINAL_NS] * 5
        scaled = calibrated([1000] * 100, list(range(0, 100, 10)), samples)
        self.assertEqual(scaled[0], 1000)
        self.assertEqual(scaled[99], 500)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS.values():
            with self.subTest(workload=w.name):
                self.assertEqual(w.make_inputs(7, 60), w.make_inputs(7, 60))

    def test_other_seed_other_inputs(self):
        for name in ("sublattices", "discriminants", "nl-sweep"):
            w = workloads.WORKLOADS[name]
            with self.subTest(workload=name):
                self.assertNotEqual(w.make_inputs(7, 60), w.make_inputs(8, 60))

    def test_input_domains(self):
        subs = workloads.sublattice_inputs(3, 16)
        self.assertEqual([len(rows) for _, rows in subs], [1, 1, 2, 2, 3, 3, 4, 4] * 2)
        self.assertTrue(all(-5 <= e <= 5 for _, rows in subs for row in rows for e in row))
        ds = workloads.disc_inputs(3, 500)
        self.assertEqual(len(set(ds)), 500)
        self.assertTrue(all(2**16 <= d < 2**20 and d % 6 in (0, 2) for d in ds))
        nl = workloads.nl_inputs(3, 2 * len(workloads.NL_DS))
        self.assertEqual(sorted(nl[: len(workloads.NL_DS)]), list(workloads.NL_DS))
        self.assertEqual(len(workloads.NL_DS), 198)


class FailedOpsAreCounted(unittest.TestCase):
    def test_corrupted_outputs_and_raising_ops(self):
        base = workloads.WORKLOADS["discriminants"]
        calls = []

        def corrupting_op(d):
            calls.append(d)
            flags, row = base.op(d)
            if len(calls) % 3 == 1:
                row = row[:1] + ["F" if row[1] == "T" else "T"] + row[2:]
            elif len(calls) % 3 == 2:
                raise RuntimeError("injected")
            return flags, row

        w = dataclasses.replace(base, op=corrupting_op, fixed_ops=120)
        res = run_ops(w, base.make_inputs(5, 120), 0.0)
        self.assertEqual(res["attempted"], 120)
        self.assertEqual(res["failed"], 80)
        self.assertIsNotNone(res["digest"])

    def test_sublattice_check_catches_a_wrong_index(self):
        w = workloads.WORKLOADS["sublattices"]
        x = w.make_inputs(1, 8)[7]
        out = w.op(x)
        self.assertIsNone(w.check(x, out))
        bad = out[:2] + (out[2] + 1,) + out[3:]
        self.assertIsNotNone(w.check(x, bad))

    def test_nl_check_catches_a_wrong_genus(self):
        w = workloads.WORKLOADS["nl-sweep"]
        out = w.op(14)
        self.assertIsNone(w.check(14, out))
        self.assertIsNotNone(w.check(14, out[:3] + (not out[3],) + out[4:]))


class Tracing(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        t = tracer.Tracer()
        spans = {}
        for key, parent, start, end in (
            ("root", None, 0, 100), ("child", "root", 10, 40),
            ("grandchild", "child", 20, 30), ("child2", "root", 50, 60),
        ):
            t.stack = [spans[parent] if parent else -1]
            sid = t._open(0)
            t.start[sid], t.end[sid] = start, end
            spans[key] = sid
        self.assertEqual(t.self_times(), [60, 20, 10, 10])

    def test_wrappers_reach_names_bound_by_from_imports(self):
        # in a fresh interpreter: installing wrappers mutates the cubick3 modules
        code = textwrap.dedent("""
            import json, sys
            sys.path[:0] = sys.argv[1:3]
            import tracer, workloads
            from cubick3 import lattice, standard
            t = tracer.Tracer()
            t.install()
            assert standard.saturation is lattice.saturation
            t.run_op(workloads.nl_op, 14)
            print(json.dumps(t.metrics()))
        """)
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, str(HERE.parent / "src"), str(HERE)],
            capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        m = json.loads(proc.stdout)
        self.assertEqual(m["standard.hassett_triple.calls"], 2)  # the op, then genus_compare
        self.assertGreater(m["lattice.saturation.calls"], 0)
        self.assertGreater(m["intlinalg.row_echelon_transform.calls"], 0)


class BenchmarkSpec(unittest.TestCase):
    def test_workload_names_agree(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOADS))

    def test_benchmark_json_lists_every_traced_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(declared, tracer.metric_names())


if __name__ == "__main__":
    unittest.main()
