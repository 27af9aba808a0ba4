"""The command-line interface: exit codes, determinism, large integers.

The outputs themselves are pinned byte for byte by the golden corpus
(`tests/test_golden.py`).
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from cubick3.cli import main
from limits import spy


class TestVerify:
    def test_disc_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--disc-cap", "10000"])
        assert exc.value.code == 2
        assert "--disc-cap" in capsys.readouterr().err

    def test_vectors_option_is_gone(self, capsys):
        # the seven classes are mukai's default output, with no option of their own
        with pytest.raises(SystemExit) as exc:
            main(["mukai", "--vectors"])
        assert exc.value.code == 2
        assert "--vectors" in capsys.readouterr().err

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
    assert code_a == code_b
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
        # where the obstruction also factors d/8, and 6, 24 and 42 are solvable.
        # The last d/2 is 3 * 5 * 268435399 * 268435459: the factorization
        # stops at 5 = 2 (mod 3), so Pollard-Brent never splits the cofactor.
        from cubick3 import cli, conditions

        calls = spy(monkeypatch, conditions, "_factorize", record=int)
        splits = spy(monkeypatch, conditions, "_pollard_brent", record=int)
        for d in (6, 12, 24, 42, 954, 1176, 1870021348591302594, 2161727386272394230):
            calls.clear()
            splits.clear()
            report = cli.build_report(d)
            assert calls.count(d // 2) == 1, (d, calls)
            assert report.pell == conditions.pell_brakkee(d)
        assert splits == []

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int-str digit limit")
    def test_library_renders_past_the_default_digit_limit(self, capsys):
        # the library and the CLI render these values at the interpreter's
        # default int-str limit, the same text in both: the (***) witness of
        # d has about 32,000 digits, and the LambdaD degree 5,000
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
    def test_prints_past_the_digit_limit_without_changing_it(self, capsys, monkeypatch):
        # the sha256 of each stdout, as printed when the CLI still lifted the
        # limit around each command; now no command may change it
        def refuse(n):
            raise AssertionError("the CLI changed the int-str digit limit")

        lam = "LambdaD(" + "2" * 4301 + ")"
        outputs = [
            (["classify", "200000000006"],
             "6c006257f5c0dd720c349c388dfbc93104f1d1ca58baddf749e57fcbb5407465"),
            (["classify", "200000000006", "--format", "json"],
             "a992b0d78d5bb465c6ce89952f9805edf87288ff97310140dfb4f5949bfeb579"),
            (["lattice", lam],
             "94fd95fb20e389b9e7b4f0f66e08493d973df8453da7c377a9f67059e76b248a"),
            (["lattice", lam, "--disc"],
             "21e87ae6ce83ca87075c061b87830341fecbca88f05c6fce9f60b551f551445c"),
            (["lattice", lam, "--disc-group"],
             "d19c7c8ccc1f4f3f71fbaa148c6edc5531fe1235a5b7d6b99e6df3c9401b95ee"),
            (["lattice", lam, "--disc-group", "--format", "json"],
             "e8c112ebf5fedc676d1f48724da733062d6480ca50706f63bc236bf4e0a4bea6"),
            (["lattice", lam, "--format", "json"],
             "0395d45e17bbe8acd2e4d8da72e257e70db9217a182e197a2a4778be7a76e8f1"),
        ]
        old, real_set = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
        real_set(sys.int_info.default_max_str_digits)
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        try:
            for argv, digest in outputs:
                assert main(argv) == 0
                out = capsys.readouterr().out.encode()
                assert hashlib.sha256(out).hexdigest() == digest, argv[:2]
        finally:
            real_set(old)
