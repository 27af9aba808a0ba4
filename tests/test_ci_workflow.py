"""The CI workflow runs checked-in scripts, not inline Python."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def test_no_heredoc():
    # a here-document starts with << (a here-string, <<<, is one line); a
    # `python -c` one-liner is inline Python too
    assert re.search(r"(?<!<)<<(?!<)", WORKFLOW) is None
    assert re.search(r"\bpython3? +-c\b", WORKFLOW) is None


def test_every_ci_script_exists_and_runs():
    # every script of tests/ci/ is run, and every script the workflow names
    # compiles, so a syntax error in a CI-only script fails here
    named = set(re.findall(r"\bpython3? +([\w/]+\.py)", WORKFLOW))
    present = {f"tests/ci/{p.name}" for p in (ROOT / "tests" / "ci").glob("*.py")}
    assert {n for n in named if n.startswith("tests/ci/")} == present
    for name in sorted(named):
        compile((ROOT / name).read_text(), name, "exec")


def test_every_run_block_is_short():
    # a longer script goes into tests/ci/, where it runs and reads on its own
    blocks = re.findall(r"^( *)run: \|\n((?:\1 +\S.*\n)+)", WORKFLOW, re.M)
    assert len(blocks) == WORKFLOW.count("run: |")
    assert max(body.count("\n") for _, body in blocks) <= 8
