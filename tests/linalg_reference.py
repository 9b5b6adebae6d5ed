"""The cofactor expansion that ``linalg.lu_det`` is checked against.

Kept as the test oracle, independent of LAPACK: O(n!) work, so only for the
small matrices of the tests.
"""

import numpy as np


def det_cofactor(a):
    """O(n!) cofactor-expansion determinant; test oracle for lu_det."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0j
    rest = np.arange(1, n)
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        total += (-1) ** j * a[0, j] * det_cofactor(a[np.ix_(rest, cols)])
    return total
