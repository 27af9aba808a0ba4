"""Hypothesis strategies for vectors and matrices of a drawn shape, each built once.

Hypothesis validates every new strategy object, so a strategy built again
for each example, or a `data.draw` for each entry, was most of the time of
the tests that draw matrices.  These are built once per shape and drawn
whole.
"""

from functools import cache

from hypothesis import strategies as hyp

integers = cache(hyp.integers)
permutations = cache(hyp.permutations)
booleans = hyp.booleans()


@cache
def vectors(n, entries):
    return hyp.lists(entries, min_size=n, max_size=n)


@cache
def matrices(m, n, entries):
    return hyp.lists(vectors(n, entries), min_size=m, max_size=m)
