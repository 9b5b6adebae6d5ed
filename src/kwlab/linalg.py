"""Dense complex linear algebra, and entry lists for the identity checks.

Determinants and solves are LAPACK LU with partial pivoting through numpy;
``det_cofactor`` is the independent cofactor oracle the tests check
``lu_det`` against.  Numerical kernels are delegated to numpy's real or
complex SVD, deterministic for fixed input.  ``pfaffian`` is the one routine
numpy lacks, a pivoted Parlett-Reid loop over numpy rank-2 updates.

An entry list is a plain ``(rows, cols, vals)`` tuple of parallel arrays;
repeated (row, col) pairs add up, as in ``to_dense``'s ``np.add.at``
scatter.  ``sparse_product`` multiplies two lists, ``sparse_max_norm``
measures a linear combination of lists over the union of their supports,
and ``cycle_det`` is det(I - A) for a weighted permutation matrix A.
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


def to_dense(shape, entries):
    """Dense complex matrix of an entry list; repeated entries add up."""
    m = np.zeros(shape, dtype=complex)
    rows, cols, vals = entries
    np.add.at(m, (rows, cols), vals)
    return m


def sparse_product(a, b):
    """Entry list of A B: each entry (i, k) of A meets every entry (k, j) of B.

    The inner index is joined by sorting B's rows; repeated (row, col) pairs
    are kept, to be summed by whatever reads the product.
    """
    ar, ac, av = a
    br, bc, bv = b
    order = np.argsort(br, kind="stable")
    lo = np.searchsorted(br[order], ac, "left")
    count = np.searchsorted(br[order], ac, "right") - lo
    ia = np.repeat(np.arange(len(ac)), count)
    # the k-th match of entry i of A sits at sorted position lo[i] + k
    first = np.cumsum(count) - count
    ib = order[np.arange(len(ia)) + np.repeat(lo - first, count)]
    return ar[ia], bc[ib], av[ia] * bv[ib]


def sparse_max_norm(*terms):
    """Max-norm of sum_k c_k A_k over (c_k, A_k) pairs of coefficients and
    entry lists.

    Repeated (row, col) pairs are summed first, so an entry that only one
    term has still counts, and max_norm(to_dense(A) - to_dense(B)) is
    ``sparse_max_norm((1, A), (-1, B))``.
    """
    rows = np.concatenate([a[0] for _, a in terms])
    if not rows.size:
        return 0.0
    cols = np.concatenate([a[1] for _, a in terms])
    vals = np.concatenate([coef * np.asarray(a[2], dtype=complex)
                           for coef, a in terms])
    _, slot = np.unique(rows * (int(cols.max()) + 1) + cols,
                        return_inverse=True)
    total = (np.bincount(slot, vals.real)
             + 1j * np.bincount(slot, vals.imag))
    return float(np.max(np.abs(total)))


def cycle_det(perm, w):
    """det(I - A) for A[i, perm[i]] = w[i]: the product over the cycles of
    the permutation of 1 - (product of w along the cycle)."""
    perm = np.asarray(perm, dtype=int)
    n = len(perm)
    # label each cycle by its smallest index: after k doublings lab[i] is
    # the minimum over the 2^k successors of i
    lab, step = np.arange(n), perm
    for _ in range((n - 1).bit_length()):
        lab, step = np.minimum(lab, lab[step]), step[step]
    prod = np.ones(n, dtype=complex)
    np.multiply.at(prod, lab, w)
    return complex(np.prod(1.0 - prod[lab == np.arange(n)]))
