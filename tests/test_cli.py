"""The command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from cubick3.cli import main


class TestClassify:
    def test_14_text(self, capsys):
        assert main(["classify", "14"]) == 0
        out = capsys.readouterr().out
        assert "(*)=T (**')=T (**)=T (***)=T" in out
        assert "[[-3, 1], [1, -5]]" in out

    def test_8_json(self, capsys):
        assert main(["classify", "8", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["flags"]["ss_prime"] is True
        assert obj["flags"]["ss"] is False
        assert obj["nl"]["case"] == "index3"
        assert obj["nl"]["discK"] == [8]

    def test_odd_rejected(self, capsys):
        assert main(["classify", "7"]) == 2
        assert "error" in capsys.readouterr().err

    def test_excluded_note(self, capsys):
        assert main(["classify", "2"]) == 0
        assert "excluded from smooth-cubic image" in capsys.readouterr().out

    def test_not_special_still_reports(self, capsys):
        assert main(["classify", "4"]) == 0
        out = capsys.readouterr().out
        assert "not special" in out


class TestTable:
    def test_markdown_first_table(self, capsys):
        assert main(["table", "42", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[2].startswith("|(***)|")
        assert "|14|" in lines[2]
        # (*) row carries every special discriminant
        assert lines[5].count("|") == 14

    def test_csv_row_count(self, capsys):
        assert main(["table", "78", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 24
        assert lines[0].startswith("d,star,ss_prime,ss,sss,case_mod6")

    def test_from_flag(self, capsys):
        assert main(["table", "20", "--from", "12"]) == 0
        out = capsys.readouterr().out
        ds = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ds == ["12", "14", "18", "20"]

    def test_csv_digest_to_30000(self, capsys):
        # every row of d <= 30000, pinned byte for byte; the pell_3p2 column
        # is the one decided by shortcuts in csv_row
        assert main(["table", "30000", "--format", "csv"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "79cc08f25e4348434e6829de6e2086dedf83cca10a3aa3495610aa8b732f8dc1"

    def test_below_minimum(self, capsys):
        assert main(["table", "6"]) == 2

    def test_odd_from(self, capsys):
        assert main(["table", "20", "--from", "9"]) == 2

    def test_input_cap(self, capsys):
        assert main(["classify", str(2**63)]) == 2
        assert main(["table", str(2**63 + 8)]) == 2


class TestLattice:
    def test_exchange_json(self, capsys):
        assert main(["lattice", "U", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"label": "U", "gram": [[0, 1], [1, 0]]}

    def test_signature(self, capsys):
        assert main(["lattice", "Gammabar", "--signature"]) == 0
        assert "(2, 21, 0)" in capsys.readouterr().out

    def test_disc(self, capsys):
        assert main(["lattice", "A2", "--disc"]) == 0
        assert "|det| = 3" in capsys.readouterr().out

    def test_disc_group(self, capsys):
        assert main(["lattice", "LambdaD(12)", "--disc-group", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["invariant_factors"] == [12]

    def test_unknown(self, capsys):
        assert main(["lattice", "Nope"]) == 2


class TestMukai:
    def test_vectors_json(self, capsys):
        assert main(["mukai", "--vectors", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["w1"] == ["1", "7/4", "51/32", "385/384", "2921/6144"]

    def test_gram(self, capsys):
        assert main(["mukai", "--gram"]) == 0
        assert "[[2, -1], [-1, 2]]" in capsys.readouterr().out


class TestVerify:
    def test_verify_passes(self, capsys):
        # modest sweep keeps the unit test quick; acceptance runs the default
        assert main(["verify", "--genus-max", "50"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_verify_json(self, capsys):
        assert main(["verify", "--json", "--genus-max", "50"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["failures"] == []
        assert obj["checks_run"] > 50
        assert all(set(c) == {"id", "ok"} for c in obj["checks"])

    def test_genus_max_below_8_exits_two(self, capsys):
        assert main(["verify", "--genus-max", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no "ok" line for an empty sweep
        assert "genus_max must be at least 8" in captured.err

    def test_disc_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--disc-cap", "10000"])
        assert exc.value.code == 2
        assert "--disc-cap" in capsys.readouterr().err

    def test_bound_option_is_gone(self, capsys):
        # the hyperbolic search bound is fixed: at 0 a correct build fails,
        # and the search grows as (2b+1)^4 in the bound
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bound", "4"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        from cubick3 import cli
        from cubick3.verify import CheckResult, VerifySummary

        bad = VerifySummary((CheckResult("forced", False, "a", "b"),))
        monkeypatch.setattr(cli.vf, "run_all", lambda **kw: bad)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL forced" in out


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
    # argparse exits 2 from main; tests/ci/usage_errors.py runs the console script
    for argv in (["classify"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestLargeIntegers:
    @pytest.mark.parametrize(
        "d, det, abs_det",
        [
            # |det| = d just below 2^63: bare numbers, as before
            (2**63 - 2, -(2**63) + 2, 2**63 - 2),
            # det = -2^63 still fits in 64 bits, |det| = 2^63 does not
            (2**63, -(2**63), str(2**63)),
            (2**71, str(-(2**71)), str(2**71)),
        ],
    )
    def test_lattice_disc_json(self, capsys, d, det, abs_det):
        assert main(["lattice", f"LambdaD({d})", "--disc", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"det": det, "abs_det": abs_det}
        assert main(["lattice", f"LambdaD({d})", "--disc-group", "--format", "json"]) == 0
        factors = json.loads(capsys.readouterr().out)["invariant_factors"]
        assert factors == [abs_det]
        # the text form prints the integers themselves
        assert main(["lattice", f"LambdaD({d})", "--disc-group"]) == 0
        assert f"invariant factors: [{d}]" in capsys.readouterr().out

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

    def test_json_integers_above_64_bits_are_strings(self, capsys):
        assert main(["classify", "1766", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["flags"]["sss_witness"] == ["125761554617450365326", 4232213279242231471]

    def test_pell_bound_searched(self, capsys):
        # a period without an even hit is the proof, so the Pell object
        # holds the equation and the solution and no search bound
        assert main(["classify", "954", "--format", "json"]) == 0
        pell = json.loads(capsys.readouterr().out)["pell"]
        assert "bound_searched" not in pell
        assert pell == {"equation": "3p^2-159q^2=-1", "solution": None}
        assert main(["classify", "42", "--format", "json"]) == 0
        pell = json.loads(capsys.readouterr().out)["pell"]
        assert pell == {"equation": "3p^2-7q^2=-1", "solution": [3, 2]}

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
    def test_digit_limit_is_restored(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["classify", "14"]) == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(old)
