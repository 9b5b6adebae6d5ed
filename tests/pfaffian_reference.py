"""The unblocked Pfaffian loop that ``linalg.pfaffian``'s panel form replaces.

Kept as the test oracle: the panel form must agree with it to rounding, and
bitwise on matrices of at most ``linalg._NB`` rows.
"""

import numpy as np


def pfaffian_reference(a):
    """Pfaffian of a real skew-symmetric matrix; 0 for odd size.

    Pivoted Parlett-Reid elimination (Wimmer, arXiv:1102.3440): step k swaps
    the largest entry of column k below the diagonal into row k + 1 (a
    congruence that flips the sign), takes the pivot a[k, k+1] into the
    product, and clears row and column k with a skew rank-2 update of the
    trailing block.  Returns 0 at an exactly zero pivot column.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if p != k + 1:
            a[[k + 1, p], k:] = a[[p, k + 1], k:]
            a[k:, [k + 1, p]] = a[k:, [p, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        if pivot == 0.0:
            return 0.0
        pf *= pivot
        if k + 2 < n:
            upd = np.outer(a[k, k + 2:] / pivot, a[k + 2:, k + 1])
            a[k + 2:, k + 2:] += upd - upd.T
    return float(pf)
