"""The CI workflow runs checked-in scripts, not inline Python, and installs the test extra.

The tests import nothing the test extra does not install.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


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


def test_tier1_installs_the_test_extra():
    # the tier1 job's pip install names exactly the requirements of
    # pyproject's `test` extra; read with re, as tier1 runs on 3.10, which
    # has no tomllib
    extra = re.search(r"^test = \[(.*)\]$", PYPROJECT, re.M).group(1)
    tier1 = WORKFLOW[WORKFLOW.index("\n  tier1:"):WORKFLOW.index("\n  stdlib-newer:")]
    installed = [arg.strip("'\"") for args in re.findall(r"pip install (.+)", tier1)
                 for arg in args.split() if arg != "."]
    assert sorted(installed) == sorted(re.findall(r'"([^"]+)"', extra))


def test_tests_import_only_the_stdlib_pytest_sympy_and_the_package():
    # a module under tests/ imports the standard library, pytest, sympy, the
    # package or a module of tests/, so the suite starts with the test extra
    # installed and nothing else
    modules = sorted((ROOT / "tests").rglob("*.py"))
    allowed = {*sys.stdlib_module_names, "pytest", "sympy", "cubick3", *(p.stem for p in modules)}
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    assert sorted((f, name) for f, name in imported if name.split(".")[0] not in allowed) == []
