"""Every row of the differential table, its floor, and the tests that call `oracles` outside it."""

import ast
import hashlib
from pathlib import Path

import pytest

import differential as dt

TESTS = Path(__file__).parent
FLOORS = TESTS / "differential_floors.txt"


@pytest.mark.parametrize("row", dt.ROWS, ids=lambda row: row.id)
def test_row(row):
    sample = dt.draw(row.sampler, row.size, row.ranges, row.seed)
    assert len(sample) == row.size
    for x in sample:
        assert row.library(x) == row.oracle(x), (row.id, x)


# random.Random and the methods of it whose output is the same on Python 3.10-3.13
STABLE_RANDOM = {"Random", "randint", "randrange", "choice", "sample", "random", "uniform"}


def _digest(sample):
    # 16 hex digits of the sha256 of the sample's items' reprs, one a line
    h = hashlib.sha256()
    for x in sample:
        h.update(repr(x).encode() + b"\n")
    return h.hexdigest()[:16]


def _floor(row):
    ranges = ",".join(f"{lo}..{hi}" for lo, hi in row.ranges) or "-"
    sample = dt.draw(row.sampler, row.size, row.ranges, row.seed)
    return f"{row.id} {row.size} {ranges} {row.seed!r} {_digest(sample)}"


def test_every_row_is_at_its_floor():
    # each row's size, ranges, seed and sample digest are its floor's line: a
    # row below its floor, above it (a change that raises one raises both), on
    # another sample of the same size, or missing fails; the samplers draw
    # only from methods whose output does not change across Python versions
    for path in (TESTS / "differential.py", TESTS / "oracles.py"):
        calls = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") in
                 ("rng", "random")}
        assert calls <= STABLE_RANDOM, (path.name, calls - STABLE_RANDOM)
    floors = [line for line in FLOORS.read_text().splitlines() if line and line[0] != "#"]
    assert len({row.id for row in dt.ROWS}) == len(dt.ROWS), "row ids must be unique"
    rows = sorted(map(_floor, dt.ROWS))
    assert rows == sorted(floors), "a row is below or above its floor line, or one of them is gone"


def test_ci_scale_covers_the_floors():
    # the table of tests/ci/differential_at_scale.py names rows, each CI size
    # at least the row's and each CI range containing the row's, so the
    # pinned sample is a prefix of the one CI runs
    tree = ast.parse((TESTS / "ci" / "differential_at_scale.py").read_text())
    scale = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "SCALE")
    rows = {row.id: row for row in dt.ROWS}
    assert sorted(scale.keys() - rows.keys()) == [], "a CI id is not a row"
    for name, ci in scale.items():
        row = rows[name]
        if isinstance(ci, int):
            assert ci >= row.size, name
        else:
            assert len(ci) == len(row.ranges), name
            assert all(lo <= a and b <= hi for (lo, hi), (a, b) in zip(ci, row.ranges)), name


# verify's reference routes, which a test reaches as an attribute (`vf.a2_bruteforce`)
# or imports from `cubick3.verify`
VERIFY_ROUTES = {"a2_bruteforce", "series_inverse", "series_sqrt"}


def _definitions(path):
    # (key, whether it names `oracles`, a name imported from it or this table
    # imported as `dt`, or one of verify's reference routes) for each test and
    # helper, a module function or a method
    tree = ast.parse(path.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    names = {"oracles", "dt"} | {alias.asname or alias.name for node in imports
                                 if node.module == "oracles" for alias in node.names}
    names |= {alias.asname or alias.name for node in imports if node.module == "cubick3.verify"
              for alias in node.names if alias.name in VERIFY_ROUTES}
    defs = [(path.name, node) for node in tree.body]
    defs += [(f"{path.name}::{cls.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body]
    for where, node in defs:
        if isinstance(node, ast.FunctionDef):
            used = {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
            attrs = {attr.attr for attr in ast.walk(node) if isinstance(attr, ast.Attribute)}
            yield f"{where}::{node.name}", bool(used & names or attrs & VERIFY_ROUTES)


def test_every_other_oracle_call_is_a_listed_exception():
    defs = dict(kv for path in TESTS.glob("test_*.py") if path.name != Path(__file__).name
                for kv in _definitions(path))
    listed = set()
    for names in dt.EXCEPTIONS.values():
        for name in names.split():
            if name.endswith(".py:"):
                path = name[:-1]
            else:
                listed.add(f"{path}::{name}")
    callers = {key for key, calls in defs.items() if calls}
    assert sorted(callers - listed) == [], "an oracle comparison outside the table"
    assert sorted(listed - defs.keys()) == [], "a listed exception does not exist"
