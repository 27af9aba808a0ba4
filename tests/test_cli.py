"""The command-line interface: exit codes, determinism, large integers.

The outputs themselves are pinned byte for byte by the golden corpus
(`tests/test_golden.py`).
"""

import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from cubick3.cli import main


class TestVerify:
    def test_disc_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--disc-cap", "10000"])
        assert exc.value.code == 2
        assert "--disc-cap" in capsys.readouterr().err

    def test_bound_option_is_gone(self, capsys):
        # the hyperbolic pairs are written down, so verify has no search to bound
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bound", "4"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err

    @staticmethod
    def _force_failure(monkeypatch):
        from cubick3 import verify
        from cubick3.verify import CheckResult, VerifySummary

        bad = VerifySummary((CheckResult("forced", False, "a", "b"),))
        monkeypatch.setattr(verify, "run_all", lambda **kw: bad)

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        self._force_failure(monkeypatch)
        assert main(["verify"]) == 1
        assert capsys.readouterr().out == "FAIL forced: expected a, got b\n1 checks, 1 failures\n"

    def test_verify_json_failure_exits_one(self, capsys, monkeypatch):
        self._force_failure(monkeypatch)
        assert main(["verify", "--json"]) == 1
        assert capsys.readouterr().out == (
            '{\n  "checks_run": 1,\n'
            '  "failures": [\n    {\n      "id": "forced",\n'
            '      "expected": "a",\n      "actual": "b"\n    }\n  ],\n'
            '  "checks": [\n    {\n      "id": "forced",\n      "ok": false\n    }\n  ]\n}\n'
        )


DETERMINISM_ARGV = [
    ["classify", "14"],
    ["classify", "20", "--format", "json"],
    ["table", "30", "--format", "csv"],
    ["table", "42", "--format", "markdown"],
    ["lattice", "Gamma", "--format", "json"],
    ["mukai", "--format", "json"],
    ["verify", "--json", "--genus-max", "30"],
]

# each argv of a JSON list through `main` in turn; prints the (exit code, stdout) pairs
_CHILD = """
import contextlib, io, json, sys
from cubick3.cli import main
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        return main(argv), buf.getvalue()
print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.fixture(scope="module")
def two_interpreters():
    # {argv: (exit code, stdout)} of two child interpreters, one in order with
    # hash seed 0, one in reverse order with hash seed 1: the two sides differ
    # in hash seed and in the cache state each argv meets
    sides = []
    for seed, order in (("0", DETERMINISM_ARGV), ("1", DETERMINISM_ARGV[::-1])):
        r = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(order)], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed})
        sides.append(dict(zip(map(tuple, order), json.loads(r.stdout))))
    return sides


@pytest.mark.parametrize("args", DETERMINISM_ARGV)
def test_byte_determinism(args, two_interpreters):
    (code_a, out_a), (code_b, out_b) = (side[tuple(args)] for side in two_interpreters)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a  # nonempty


def test_usage_error_exit_code():
    # argparse exits 2 from main; its usage text varies across Python
    # versions, so the golden corpus pins only the CLI's own usage errors
    for argv in (["classify"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_closed_pipe_exits_141_without_a_traceback():
    # the reader stops after the first line, as `cubick3 table 100000 | head -1`
    # does; the rows after it (about 1.2 MB) overflow the pipe, so the CLI
    # writes to the closed pipe
    with subprocess.Popen([sys.executable, "-m", "cubick3.cli", "table", "100000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"d,star,")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


class TestLargeIntegers:
    def test_library_json_beyond_the_cli_bound(self):
        # d = 3 * 2^70 is past the CLI's bound of 2^63; d/2 = 3 * 2^69
        # factors at once, with no trial division and so no warning.  Every
        # integer above 64 bits of the three library reports is a decimal
        # string.
        from cubick3 import cli, standard

        d = 3 * 2**70
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cli.build_report(d)

        def ints(x):
            if isinstance(x, dict):
                x = list(x.values())
            if isinstance(x, list):
                return [n for e in x for n in ints(e)]
            return [x] if type(x) is int else []

        nl = standard.hassett_triple(d).to_json()
        flags = report.flags.to_json()
        obj = report.to_json()
        assert obj["nl"] == nl and obj["flags"] == flags
        assert obj["d"] == flags["d"] == nl["d"] == str(d)
        assert nl["v"][standard.F1] == str(-(d // 6))
        assert nl["gramK"] == [[-3, 0], [0, str(-(d // 3))]]
        assert nl["discK"] == nl["discGammaD"] == [str(d)]
        assert all(-(2**63) <= n < 2**63 for n in ints(json.loads(json.dumps(obj))))

    def test_classify_factors_half_d_once(self, monkeypatch):
        # d = 0 (mod 6): the Pell field reads (**) and (**') off the flags
        # instead of factoring d/2 a second time; 24 and 1176 are 8 (mod 16),
        # where the obstruction also factors d/8, and 6, 24 and 42 are solvable
        from cubick3 import cli, conditions

        factorize = conditions._factorize
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(conditions, "_factorize", counted)
        for d in (6, 12, 24, 42, 954, 1176, 1870021348591302594):
            calls.clear()
            report = cli.build_report(d)
            assert calls.count(d // 2) == 1, (d, calls)
            assert report.pell == conditions.pell_brakkee(d)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_witness_with_tens_of_thousands_of_digits(self, capsys, fmt):
        # the (***) witness of this d has about 32,000 digits, beyond the
        # interpreter's default int-str limit; deciding it took over 25 s
        # with the two-period norm-checked Pell scan and the O(d) (**) scan
        start = time.perf_counter()
        assert main(["classify", "200000000006", "--format", fmt]) == 0
        assert time.perf_counter() - start < 30
        out = capsys.readouterr().out
        if fmt == "json":
            n, a = json.loads(out)["flags"]["sss_witness"]
        else:
            line = next(l for l in out.splitlines() if l.startswith("witness (***)"))
            n, a = (part.split("=")[1] for part in line.split(": ")[1].split())
        assert n.isdigit() and len(n) > 30_000
        assert a.isdigit() and len(a) > 30_000

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int-str digit limit")
    def test_library_renders_past_the_default_digit_limit(self, capsys):
        # the CLI lifts the interpreter's int-str limit; the library needs no
        # lift for the same values: the (***) witness of d has about 32,000
        # digits, and the LambdaD degree 5,000
        from cubick3.conditions import condition_flags, csv_row
        from cubick3.standard import standard_lattice

        d = 200000000006
        assert main(["table", str(d), "--from", str(d)]) == 0
        cli_csv = capsys.readouterr().out.splitlines()[-1]
        assert main(["classify", str(d), "--format", "json"]) == 0
        cli_flags = json.loads(capsys.readouterr().out)["flags"]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            flags = condition_flags(d)
            assert ",".join(csv_row(flags)) == cli_csv
            assert flags.to_json() == cli_flags
            twos = "2" * 5000
            lam = standard_lattice(f"LambdaD({twos})")
            assert lam.gram.data[-1][-1] == -2 * (10**5000 - 1) // 9
            assert lam.label == f"LambdaD({twos})"
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int-str digit limit")
    def test_digit_limit_is_restored(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["classify", "14"]) == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(old)
