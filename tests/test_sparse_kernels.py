"""The sparse kernels of the lattice path on empty inputs.

The rows `sparse_products.dense`, `signature.shaped` and
`disc_form.even_grams` of `tests/differential.py` compare them with the
dense Fraction routes in `oracles` on drawn inputs.
"""

from cubick3 import intlinalg as la
import oracles


def test_products_of_empty_inputs():
    assert la.sparse_gram_product([], la.sparse_rows([[2]])) == oracles.gram_product([], [[2]]) == []
    assert la.sparse_rows([[0, 0], [0, 3]]) == [[], [(1, 3)]]
