"""The golden corpus: every pinned CLI output, byte for byte.

`tests/golden/manifest.txt` holds one JSON object per line: the `argv` after
`cubick3`, the `exit` code, the `bytes` and `sha256` of stdout, the exact
`stderr`, the time `limit` in seconds and whether `tier1` runs the line.
Lines starting with `#` say what the lines below them pin.  A nonempty
output under `VERBATIM_MAX` bytes is also kept verbatim in `tests/golden/`,
so that a failure shows a diff.

This module is the corpus's one reader.  Its test runs the `tier1` lines in
process through `cli.main`; `tests/ci/golden.py` runs every line through the
installed console script.  On a mismatch both print the line the output
would need: a deliberate output change pastes that line into the manifest
and says why in `CHANGES.md`.
"""

import difflib
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from cubick3.cli import main
from limits import time_limit

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
VERBATIM_MAX = 4096


def read_manifest():
    """The manifest's lines, as dicts, in file order."""
    text = (GOLDEN / "manifest.txt").read_text()
    return [json.loads(s) for s in text.splitlines() if s and not s.startswith("#")]


def verbatim_path(argv):
    """The path of the verbatim copy of the stdout of `argv`."""
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-") + ".out")


def mismatch(line, code, out, err):
    """None when a run of `line` exited `code` with stdout bytes `out` and stderr `err`.

    Otherwise the wanted line, the line the run would need, and a diff
    against the verbatim copy when there is one.
    """
    got = {**line, "exit": code, "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest(),
           "stderr": err}
    if got == line:
        return None
    report = [f"want {json.dumps(line)}", f"got  {json.dumps(got)}"]
    path = verbatim_path(line["argv"])
    if path.exists():
        report += difflib.unified_diff(path.read_text().splitlines(),
                                       out.decode(errors="replace").splitlines(),
                                       str(path.relative_to(ROOT)), "stdout", lineterm="")
    if 0 < len(out) < VERBATIM_MAX:
        report.append(f"verbatim copy: cubick3 {shlex.join(line['argv'])} "
                      f"> {path.relative_to(ROOT)}")
    return "\n".join(report)


LINES = read_manifest()


@pytest.mark.parametrize("line", [pytest.param(line, id=" ".join(line["argv"]))
                                  for line in LINES if line["tier1"]])
def test_line(line, capsys):
    with time_limit(line["limit"]):
        code = main(line["argv"])
    cap = capsys.readouterr()
    problem = mismatch(line, code, cap.out.encode(), cap.err)
    if problem:
        pytest.fail(problem, pytrace=False)


def test_verbatim_copies_are_the_pinned_outputs():
    # one copy for each nonempty output under VERBATIM_MAX bytes, and no other
    kept = [line for line in LINES if 0 < line["bytes"] < VERBATIM_MAX]
    want = {verbatim_path(line["argv"]): line for line in kept}
    assert len(want) == len(kept)
    assert set(GOLDEN.glob("*.out")) == set(want)
    for path, line in want.items():
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (line["bytes"], line["sha256"])


def test_every_readme_example_is_a_corpus_line():
    readme = (ROOT / "README.md").read_text()
    examples = [shlex.split(s, comments=True)[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for s in block.splitlines() if s.startswith("cubick3 ")]
    assert examples
    assert [argv for argv in examples if argv not in [line["argv"] for line in LINES]] == []
