"""The CI workflow runs checked-in scripts, not inline Python."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def test_no_heredoc():
    # a here-document starts with << (a here-string, <<<, is one line)
    assert re.search(r"(?<!<)<<(?!<)", WORKFLOW) is None


def test_every_ci_script_exists_and_runs():
    named = set(re.findall(r"tests/ci/(\w+\.py)", WORKFLOW))
    present = {p.name for p in (ROOT / "tests" / "ci").glob("*.py")}
    assert named == present
