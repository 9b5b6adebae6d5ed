"""Dense complex linear algebra.

Determinants and solves are LAPACK LU with partial pivoting through numpy;
``det_cofactor`` is the independent cofactor oracle the tests check
``lu_det`` against.  Numerical kernels are delegated to numpy's real or
complex SVD, deterministic for fixed input.  ``pfaffian`` is the one routine
numpy lacks, a pivoted Parlett-Reid loop over numpy rank-2 updates.
"""

from __future__ import annotations

import numpy as np

from .surface_graph import GraphError


def lu_det(a):
    """Determinant via LU with partial pivoting; 0 for exactly singular input."""
    return complex(np.linalg.det(np.asarray(a)))


def lu_solve(a, b):
    """Solve a x = b (b may be a matrix of right-hand sides).

    Raises GraphError when the system is exactly singular.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise GraphError("singular system") from exc


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


def pfaffian(a):
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


def null_space(a, tol=1e-8):
    """Orthonormal basis of the numerical right kernel.

    Returns the right-singular vectors whose singular value is below
    ``tol * sigma_max`` (all of them for an exactly zero matrix).  Real input
    stays real: it is factored by the real SVD and gives real vectors.
    """
    a = np.asarray(a)
    a = a if np.iscomplexobj(a) else a.astype(float, copy=False)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return [vh[i].conj() for i in range(vh.shape[0])]
    keep = s < tol * s[0]
    # rows of vh beyond len(s) (wide input) are exact kernel directions
    return [vh[i].conj() for i in range(vh.shape[0])
            if i >= len(s) or keep[i]]


def max_norm(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0
