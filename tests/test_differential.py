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


def _ranges(ranges):
    return ",".join(f"{lo}..{hi}" for lo, hi in ranges) or "-"


def _floor(row):
    # the row's line, ending in its CI size or ranges when it has a CI scale
    sample = dt.draw(row.sampler, row.size, row.ranges, row.seed)
    line = f"{row.id} {row.size} {_ranges(row.ranges)} {row.seed!r} {_digest(sample)}"
    if row.ci is None:
        return line
    return f"{line} {row.ci if isinstance(row.ci, int) else _ranges(row.ci)}"


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
    # each CI size is at least the row's and each CI range, a sweep's,
    # contains the row's, so the pinned sample is a prefix of the one
    # tests/ci/differential_at_scale.py runs; only a row CI runs has paths
    for row in dt.ROWS:
        if isinstance(row.ci, int):
            assert row.ci >= row.size, row.id
        elif row.ci:
            assert row.seed is None and len(row.ci) == len(row.ranges), row.id
            assert all(lo <= a and b <= hi for (lo, hi), (a, b) in zip(row.ci, row.ranges)), row.id
        assert row.ci or not row.paths, row.id


# verify's reference and generic routes, which a test reaches as an attribute
# (`vf.a2_bruteforce`) or imports from `cubick3.verify`
VERIFY_ROUTES = {"a2_bruteforce", "series_inverse", "series_sqrt", "_nl_failures", "_kdoo_holds",
                 "_disc_holds"}


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
