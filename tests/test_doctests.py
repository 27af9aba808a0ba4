"""Run the docstring examples.

`MODULES` is the one list of the modules with examples, and `MIN_EXAMPLES`
the one floor on the number of examples run in all; `tests/ci/doctests.py`
runs the same list against the same floor without pytest.
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
# every example the modules hold, the written-down vlambda1 and A2 Gram among them
MIN_EXAMPLES = 37


def test_doctests():
    attempted = 0
    for mod in MODULES:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        attempted += result.attempted
    assert attempted >= MIN_EXAMPLES
