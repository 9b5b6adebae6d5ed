"""The cofactor expansion that ``linalg.lu_det`` is checked against, and
the one-norm form of ``linalg.sparse_max_norms``.

``det_cofactor`` is the test oracle independent of LAPACK: O(n!) work, so
only for the small matrices of the tests.  ``sparse_max_norm`` labels the
slots of one combination's own lists with its own ``np.unique``; each norm
of ``sparse_max_norms`` must be bitwise its value.
"""

import math

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


def sparse_max_norm(*terms):
    """Max-norm of sum_k c_k A_k over (c_k, A_k) pairs of coefficients and
    entry lists, repeated (row, col) pairs summed first; leading axes of the
    values broadcast and give an array of norms."""
    rows = np.concatenate([a[0] for _, a in terms])
    vals = [coef * np.asarray(a[2], dtype=complex) for coef, a in terms]
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in vals))
    if not rows.size:
        return np.zeros(lead) if lead else 0.0
    cols = np.concatenate([a[1] for _, a in terms])
    vals = np.concatenate(
        [np.broadcast_to(v, lead + v.shape[-1:]) for v in vals],
        axis=-1).reshape(math.prod(lead), len(rows))
    _, slot = np.unique(rows * (int(cols.max()) + 1) + cols,
                        return_inverse=True)
    n = int(slot.max()) + 1
    slot = (slot + n * np.arange(len(vals))[:, None]).ravel()
    total = (np.bincount(slot, vals.real.ravel(), minlength=n * len(vals))
             + 1j * np.bincount(slot, vals.imag.ravel(),
                                minlength=n * len(vals)))
    norms = np.max(np.abs(total.reshape(lead + (n,))), axis=-1)
    return norms if lead else float(norms)
