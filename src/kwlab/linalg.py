"""Dense complex linear algebra, and entry lists for the identity checks.

Determinants and solves are LAPACK LU with partial pivoting through numpy;
the tests check ``lu_det`` against an independent cofactor expansion.  The
Kac-Ward kernel is decided in ``operators``, by a solve against fixed probe
columns and a Ritz step, with numpy's SVD where that cannot decide; the SVD
null space the tests compare it with lives in the tests.  ``pfaffian`` is
the one routine numpy lacks: pivoted Parlett-Reid in Wimmer's panel
(level-3) form (arXiv:1102.3440), where each panel's skew rank-2 updates
reach the trailing block as one matrix product, and the plain rank-2 loop
finishes the last ``_NB`` rows.

An entry list is a plain ``(rows, cols, vals)`` tuple of parallel arrays;
repeated (row, col) pairs add up, as in ``to_dense``'s ``np.add.at``
scatter.  ``sparse_product`` multiplies two lists, ``sparse_max_norm``
measures a linear combination of lists over the union of their supports,
and ``cycle_det`` is det(I - A) for a weighted permutation matrix A.
Leading axes of ``vals`` (of ``w`` for ``cycle_det``) are a stack of
matrices on one pattern: the pattern's indices are computed once for the
stack, and each matrix's result is bitwise the one it gets alone.
"""

from __future__ import annotations

import math

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


# pivot steps per panel of ``pfaffian``, and the widest trailing block it
# finishes with the unblocked loop
_NB = 32


def pfaffian(a):
    """Pfaffian of a real skew-symmetric matrix; 0 for odd size.

    Pivoted Parlett-Reid elimination in Wimmer's blocked (level-3) form
    (arXiv:1102.3440).  Step k swaps the largest entry of column k below the
    diagonal into row k + 1 (a congruence that flips the sign), takes the
    pivot a[k, k+1] into the product, and clears row and column k with the
    skew rank-2 update A22 += u v^T - v u^T, u = row k / pivot and
    v = column k + 1.  A panel of up to ``_NB`` steps builds each column it
    needs from the stored one plus its pending factors U, V, and the
    trailing block then takes the whole panel at once, A22 += U V^T - V U^T.
    The last ``_NB`` rows, and so every matrix of at most ``_NB`` rows, go
    through the unblocked loop.  Returns 0 at an exactly zero pivot column;
    the input is not modified.

    Leading axes of ``a`` give an array of Pfaffians, each bitwise its own
    matrix's: the panels run matrix by matrix, and the unblocked loop runs
    each step once for the whole stack (``_unblocked``).
    """
    a = np.array(a, dtype=float)
    lead, n = a.shape[:-2], a.shape[-1]
    if n % 2:
        return np.zeros(lead) if lead else 0.0
    stack = a.reshape(math.prod(lead), n, n)
    pf, k0 = np.ones(len(stack)), 0
    for i, a in enumerate(stack if n > _NB else ()):
        k0, u, v = 0, np.empty((n, _NB)), np.empty((n, _NB))
        while n - k0 > _NB:
            m = min(_NB, (n - k0 - _NB) // 2)
            for j in range(m):
                k = k0 + 2 * j
                # column k below the diagonal, with the panel's updates
                c = (a[k + 1:, k] + u[k + 1:, :j] @ v[k, :j]
                     - v[k + 1:, :j] @ u[k, :j])
                p = int(np.argmax(np.abs(c)))
                if p:
                    q = k + 1 + p
                    a[[k + 1, q], k + 1:] = a[[q, k + 1], k + 1:]
                    a[k + 1:, [k + 1, q]] = a[k + 1:, [q, k + 1]]
                    u[[k + 1, q], :j] = u[[q, k + 1], :j]
                    v[[k + 1, q], :j] = v[[q, k + 1], :j]
                    c[[0, p]] = c[[p, 0]]
                    pf[i] = -pf[i]
                pivot = -c[0]       # a[k, k+1]; row k is minus column k
                if pivot == 0.0:    # Pf = 0: the unblocked loop sees zeros
                    a[:], u[:], v[:], pf[i] = 0.0, 0.0, 0.0, 0.0
                    continue
                pf[i] *= pivot
                u[k + 2:, j] = -c[1:] / pivot
                v[k + 2:, j] = (a[k + 2:, k + 1] + u[k + 2:, :j] @ v[k + 1, :j]
                                - v[k + 2:, :j] @ u[k + 1, :j])
            k0 += 2 * m
            w = u[k0:, :m] @ v[k0:, :m].T
            a[k0:, k0:] += w - w.T
    if lead:
        return _unblocked(stack[:, k0:, k0:], pf).reshape(lead)
    # one matrix: the same steps on scalars, which cost less than arrays
    a, n, pf = stack[0, k0:, k0:], n - k0, pf[0]
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


def _unblocked(a, pf):
    """``pfaffian``'s unblocked loop on a stack ``a``, in place, from the
    products ``pf``; a zero pivot column zeroes its matrix and product."""
    n = a.shape[1]
    for k in range(0, n - 1, 2):
        p = np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        for i in np.flatnonzero(p).tolist() if np.count_nonzero(p) else ():
            q, m = k + 1 + int(p[i]), a[i]
            m[[k + 1, q], k:] = m[[q, k + 1], k:]
            m[k:, [k + 1, q]] = m[k:, [q, k + 1]]
            pf[i] = -pf[i]
        pivot = a[:, k, k + 1]
        if np.count_nonzero(pivot) < len(pivot):
            zero = pivot == 0.0
            a[zero], pf[zero] = 0.0, 0.0
            pivot = np.where(zero, 1.0, pivot)
        pf *= pivot
        if k + 2 < n:
            upd = ((a[:, k, k + 2:] / pivot[:, None])[:, :, None]
                   * a[:, None, k + 2:, k + 1])
            a[:, k + 2:, k + 2:] += upd - upd.transpose(0, 2, 1)
    return pf


#: bytes of per-row arrays that a stack holds at once: ``kw_dets``, the
#: seeded suites (``suites.suite_corr``, ``suites.suite_det``,
#: ``sholo.verify_sholo``) and ``oracle._resolve`` evaluate their rows in
#: chunks of at most this many bytes (one row at least), so memory does not
#: grow with the rows
_DRAW_CHUNK_BYTES = 1 << 20


def _draw_chunks(draws, row_bytes):
    """The (start, stop) ranges that cover range(draws) in chunks of at most
    ``_DRAW_CHUNK_BYTES`` at ``row_bytes`` per draw, and one draw at least."""
    step = max(1, _DRAW_CHUNK_BYTES // row_bytes)
    return [(i, min(i + step, draws)) for i in range(0, draws, step)]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    return z ^ (z >> np.uint64(31))


def stream_key(seed):
    """The key of a seed's stream: its 64-bit limbs, low first, each xored in
    and mixed, so nearby seeds get unrelated keys.  GraphError if negative."""
    if seed < 0:
        raise GraphError(f"seed must be non-negative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    for i in range(0, max(seed.bit_length(), 1), 64):
        key = _mix((key ^ np.uint64(seed >> i & 0xFFFFFFFFFFFFFFFF)) + _GOLDEN)
    return key


def uniforms(key, lo, hi):
    """Counters lo..hi-1 of splitmix64 (Steele, Lea and Flood, OOPSLA 2014)
    seeded with ``key``, as uniforms in (0, 1): the top 53 bits plus 1/2 in
    units of 2^-53, the largest capped so that it stays below 1."""
    z = _mix(key + np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN)
    top = np.minimum(z >> np.uint64(11), np.uint64(2 ** 53 - 2))
    return (top.astype(float) + 0.5) * 2.0 ** -53


def normals(key, lo, rows, k):
    """Standard normals (rows, k) by Box-Muller: row i reads the 2k
    ``uniforms`` from counter lo + 2ki, k radii and then k angles."""
    u = uniforms(key, lo, lo + 2 * k * rows).reshape(rows, 2, k)
    return np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])


def max_norm(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _rows(vals, n):
    """``vals`` (..., n) as a 2-d stack of rows, and its leading shape."""
    vals = np.asarray(vals)
    lead = vals.shape[:-1]
    return vals.reshape(math.prod(lead), n), lead


def to_dense(shape, entries):
    """Dense matrix of an entry list, of its values' dtype; repeated entries
    add up.

    Leading axes of the values give a stack of shape (..., *shape).
    """
    rows, cols, vals = entries
    vals = np.asarray(vals)
    lead = vals.shape[:-1]
    if not lead:
        m = np.zeros(shape, dtype=vals.dtype)
        np.add.at(m, (rows, cols), vals)
        return m
    # one scatter for the stack: matrix k fills the k-th block of ``size``
    size = shape[0] * shape[1]
    flat = rows * shape[1] + cols + size * np.arange(math.prod(lead))[:, None]
    m = np.zeros(math.prod(lead) * size, dtype=vals.dtype)
    np.add.at(m, flat.ravel(), vals.ravel())
    return m.reshape(lead + tuple(shape))


def sparse_product(a, b):
    """Entry list of A B: each entry (i, k) of A meets every entry (k, j) of B.

    The inner index is joined by sorting B's rows; repeated (row, col) pairs
    are kept, to be summed by whatever reads the product.  Leading axes of
    the two value arrays broadcast.
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
    return ar[ia], bc[ib], np.asarray(av)[..., ia] * np.asarray(bv)[..., ib]


def sparse_max_norm(*terms):
    """Max-norm of sum_k c_k A_k over (c_k, A_k) pairs of coefficients and
    entry lists.

    Repeated (row, col) pairs are summed first, so an entry that only one
    term has still counts, and max_norm(to_dense(A) - to_dense(B)) is
    ``sparse_max_norm((1, A), (-1, B))``.  Leading axes of the values
    broadcast and give an array of norms; the sums are one ``np.bincount``
    per part, each matrix's slots offset past the previous one's.
    """
    rows = np.concatenate([a[0] for _, a in terms])
    vals = [coef * np.asarray(a[2], dtype=complex) for coef, a in terms]
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in vals))
    if not rows.size:
        return np.zeros(lead) if lead else 0.0
    cols = np.concatenate([a[1] for _, a in terms])
    vals, _ = _rows(np.concatenate(
        [np.broadcast_to(v, lead + v.shape[-1:]) for v in vals], axis=-1),
        len(rows))
    _, slot = np.unique(rows * (int(cols.max()) + 1) + cols,
                        return_inverse=True)
    n = int(slot.max()) + 1
    slot = (slot + n * np.arange(len(vals))[:, None]).ravel()
    total = (np.bincount(slot, vals.real.ravel(), minlength=n * len(vals))
             + 1j * np.bincount(slot, vals.imag.ravel(),
                                minlength=n * len(vals)))
    norms = np.max(np.abs(total.reshape(lead + (n,))), axis=-1)
    return norms if lead else float(norms)


def prod_rows(a):
    """np.prod over the last axis, row by row: each product is bitwise the
    1-d np.prod of its row, which one stacked reduction does not promise
    (numpy may run it across the rows, through another multiply loop)."""
    rows, lead = _rows(a, np.shape(a)[-1])
    return np.array([np.prod(r) for r in rows]).reshape(lead)


def cycle_det(perm, w):
    """det(I - A) for A[i, perm[i]] = w[i]: the product over the cycles of
    the permutation of 1 - (product of w along the cycle).  Leading axes of
    ``w`` give an array of determinants."""
    perm = np.asarray(perm, dtype=int)
    n = len(perm)
    # label each cycle by its smallest index: after k doublings lab[i] is
    # the minimum over the 2^k successors of i
    lab, step = np.arange(n), perm
    for _ in range((n - 1).bit_length()):
        lab, step = np.minimum(lab, lab[step]), step[step]
    w, lead = _rows(w, n)
    prod = np.ones(w.shape, dtype=complex)
    np.multiply.at(prod, (slice(None), lab), w)
    dets = prod_rows(1.0 - prod[:, lab == np.arange(n)])
    return dets.reshape(lead) if lead else complex(dets[0])
