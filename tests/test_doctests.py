"""Run the docstring examples.

`MODULES` is the one list of the modules with examples; `tests/ci/doctests.py`
runs the same list without pytest.
"""

import doctest

import cubick3.conditions
import cubick3.intlinalg
import cubick3.lattice
import cubick3.mukai
import cubick3.pell
import cubick3.standard

MODULES = (cubick3.conditions, cubick3.intlinalg, cubick3.lattice, cubick3.mukai,
           cubick3.pell, cubick3.standard)


def test_doctests():
    attempted = 0
    for mod in MODULES:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        attempted += result.attempted
    assert attempted >= 10
