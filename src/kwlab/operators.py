"""The operators: Kac-Ward, Kasteleyn, discrete Laplace and Dirac, and their relations.

Conventions (mirrored throughout the package):

* ``KW[e, e'] = 1_{e=e'} - phi(e) x_e exp(i alpha(e,e')/2)`` for darts e' that
  continue e (same terminus-origin vertex, no backtracking), alpha the
  velocity turning in (-pi, pi); the continuations and their phases are the
  per-graph entry list ``EmbeddedGraph.transition_entries``.
* The Kasteleyn matrix on the rectangle graph is W x B with rows and columns
  in ascending dart order; with the unit cochain orientation its determinant
  times 2^{-V} prod(1 + x^2) equals det KW exactly (no sign ambiguity).
* Laplacian: (L f)(v) = mu_v^{-1} sum tan(theta_e) (f(v) - phi(e) f(w)),
  mu_v = 1/2 sum sin(2 theta_e) over darts at v.
* Dirac: (dbar f)(w) = mu_w^{-1} sum phi(e) exp(i theta_X(e)) sin(theta_e) f(b)
  and its conjugate-phase partner, on the isoradial C and D graphs.

Every builder assembles its operator's entry list, a ``(rows, cols, vals)``
tuple, and its dense matrix is the ``to_dense`` scatter of that list.  The
values of T (KW = I - T) are formed only by ``kw_values`` and those of X T'
(M = I - X T') only by ``_real_entries``, both on the continuations of
``transition_entries``; dense KW is the scatter of I minus the first
(``_eye_minus``) and dense M, a float matrix, that of the second.  The
other builders return their list with ``sparse=True``.  The identity suites
``verify_corr`` and ``verify_dirac_identities`` multiply and compare entry
lists (see ``linalg``), so no check forms a dense product or an LU
determinant.

Determinants and real solves factor an r x r Schur complement, not the
nd x nd KW (the kernel's SVD and ``hessian_tau``'s c-determinant aside).
The darts S leaving an independent vertex set continue only into the
other darts R, so KW_SS = I and det KW = det(KW_RR - KW_RS KW_SR):
``kw_dets``, ``kw_real_det`` and ``_schur_solve`` build and factor that
complement from ``EmbeddedGraph.schur_pattern`` (``_schur_matrices``),
and a solve recovers y_S = b_S + A_SR y_R.  The dense builders stay for
the callers that need a matrix.  The signed root ``sqrt_det_pfaffian``
scatters its real skew matrix on ``EmbeddedGraph.pfaffian_pattern``, for
a stack of rows as ``kw_dets`` does.

One decision says whether KW(1, 1) is singular: ``kac_ward_kernel``, from
one solve against the fixed ``kernel_probes`` columns and a Rayleigh-Ritz
step (``_probed_kernel``), with the full SVD only where the probe cannot
decide.  ``sholo.observable``'s inverse backend asks it too, through
``kac_ward_kernel_solve``, which also returns the column from the same
factorization.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

# lu_det stays bound here: the benchmark's tracer wraps it in every module
# that binds it, and its tests expect this one
from .linalg import (_draw_chunks, cycle_det, lu_det, lu_solve,  # noqa: F401
                     normals, pfaffian, prod_rows, sparse_max_norm,
                     sparse_product, to_dense)
from .surface_graph import (Cochain, GraphError, character_cochain,
                            shift_character)
from .derived import (build_C, build_D, build_M, c_edge_directions,
                      c_face_products, dimer_weights, half_angle_phases,
                      isoradial_data, phi_D_character, q_phases, split_phi_D)

__all__ = [
    "kw_values", "kac_ward", "kac_ward_kernel", "kasteleyn", "laplacian",
    "laplacian_dual", "dirac_C", "dirac_D", "skew_adjacency", "laplacian_M",
    "kw_dets", "sqrt_det_pfaffian", "verify_corr", "verify_dirac_identities",
]


def _phi_values(g, phi):
    if phi is None:
        return np.ones(g.nd, dtype=complex)
    if isinstance(phi, Cochain):
        return phi.values
    return np.asarray(phi, dtype=complex)


def kw_values(g, phi=None, x=None):
    """The values phi(e) x_e exp(i alpha(e,e')/2) of T, KW = I - T, on the
    continuations (e, e') of ``g.transition_entries``.

    ``x`` overrides the graph's edge weights.  Leading axes broadcast:
    ``phi`` of shape (..., nd) and ``x`` of shape (..., ne) give values of
    shape (..., nk).
    """
    pv = _phi_values(g, phi)
    if np.any(np.abs(pv) == 0):
        raise GraphError("cochain values must be nonzero")
    xs = g.x if x is None else np.asarray(x)
    e, _, phase = g.transition_entries
    return (pv * np.repeat(xs, 2, axis=-1))[..., e] * phase


def kac_ward(g, phi=None, x=None):
    """Dart-indexed Kac-Ward operator; identity at x = 0.

    Rows and columns are darts in ascending id order: the dense scatter of
    I minus ``kw_values`` on the continuations, whose leading axes give a
    stack of shape (..., nd, nd).
    """
    e, e2, _ = g.transition_entries
    a = kw_values(g, phi, x)
    return to_dense((g.nd, g.nd), _eye_minus(g.nd, (e, e2, a)))


# the work array of ``kw_dets``, one per thread
_work = threading.local()


def _kw_buffer(size):
    """The reused complex work array of this thread, at least ``size`` long."""
    buf = getattr(_work, "kw", None)
    if buf is None or buf.size < size:
        buf = _work.kw = np.empty(size, dtype=complex)
    return buf[:size]


def _schur_matrices(g, a, out=None):
    """The Schur complements I - A_RR - A_RS A_SR of ``g.schur_pattern``, as
    (..., r, r) matrices, for A with the values ``a`` (..., nk) on the
    continuations of ``g.transition_entries``; leading axes of ``a`` stack.
    ``out``, a flat array of as many entries, takes the matrices in place of
    a new one.  det(I - A) is their determinant: A_SS = 0."""
    p = g.schur_pattern
    r = len(p.rest)
    # the factor 1 of the R -> R entries at index nk
    a1 = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    a1[..., :-1] = a
    a1[..., -1] = 1
    shape = a.shape[:-1] + (r * r,)
    if out is None:
        m = np.zeros(shape, dtype=a.dtype)
    else:
        m = out.reshape(shape)
        m.fill(0)
    if len(p.slots):        # a graph with no continuation has no terms
        m[..., p.slots] = -np.add.reduceat(a1[..., p.first] * a1[..., p.second],
                                           p.starts, axis=-1)
    m[..., ::r + 1] += 1
    return m.reshape(a.shape[:-1] + (r, r))


def kw_dets(g, phi_rows, x_rows):
    """det KW for each row of ``phi_rows`` (..., nd) and ``x_rows`` (..., ne).

    The leading axes broadcast as in ``kw_values``.  Each determinant is
    that of the r x r Schur complement ``_schur_matrices``, not of the
    nd x nd KW.  The rows go through ``_draw_chunks``, each chunk's values
    formed and its matrices built and factored in the same reused work
    array; each determinant is bitwise the one its row gets alone.
    """
    pv, xs = _phi_values(g, phi_rows), np.asarray(x_rows)
    lead = np.broadcast_shapes(pv.shape[:-1], xs.shape[:-1])
    pv, xs = (np.broadcast_to(v, lead + v.shape[-1:]).reshape(-1, v.shape[-1])
              for v in (pv, xs))
    size = len(g.schur_pattern.rest) ** 2
    out = np.empty(len(pv), dtype=complex)
    for lo, hi in _draw_chunks(len(pv), 16 * size):
        a = kw_values(g, pv[lo:hi], xs[lo:hi])
        out[lo:hi] = np.linalg.det(_schur_matrices(
            g, a, _kw_buffer((hi - lo) * size)))
    return out.reshape(lead)


def _real_entries(g, x=None):
    """The values of X T', the A of M = I - X T', on the continuations;
    ``x`` overrides the graph's edge weights."""
    xs = g.x if x is None else np.asarray(x, dtype=float)
    return np.repeat(xs, 2)[g.transition_entries[0]] * g.transition_signs


def kw_real_det(g, x=None):
    """det M for the real M = I - X T' (``kac_ward_real``), from its Schur
    complement."""
    return float(np.linalg.det(_schur_matrices(g, _real_entries(g, x))))


def _schur_solve(g, a, b):
    """(I - A)^-1 b for A with the real values ``a`` on the continuations and
    b of shape (nd, k), through the Schur complement on the darts R:
    B y_R = b_R + A_RS b_S, then y_S = b_S + A_SR y_R.  GraphError at an
    exactly singular pivot of B."""
    p = g.schur_pattern
    e, e2, _ = g.transition_entries
    z = np.array(b, dtype=float)
    np.add.at(z, e[p.into_s], a[p.into_s, None] * b[e2[p.into_s]])
    y = np.array(b, dtype=float)
    y[p.rest] = lu_solve(_schur_matrices(g, a), z[p.rest])
    np.add.at(y, e[p.from_s], a[p.from_s, None] * y[e2[p.from_s]])
    return y


def _minus_apply(g, a, v, transpose=False):
    """(I - A) v, or (I - A)^T v, for A with the values ``a`` on the
    continuations and v of shape (nd, k)."""
    e, e2, _ = g.transition_entries
    dst, src = (e2, e) if transpose else (e, e2)
    out = np.array(v, dtype=np.result_type(a, v))
    np.add.at(out, dst, -a[:, None] * v[src])
    return out


#: relative size of the singular values that span the kernel of KW(1, 1)
KERNEL_TOL = 1e-8
#: probe columns of the kernel test (``_probed_kernel``)
KERNEL_PROBES = 4
#: Ritz values of an exact kernel, in units of sqrt(n) eps sigma_hi: at
#: most 2.8 on the critical square and rectangular tori up to 576 darts
KERNEL_EXACT = 32
#: darts from which ``kac_ward_kernel`` tries one solve and a Ritz step
#: before a full SVD.  On critical tori, both kernel bases included, the SVD
#: takes 0.14 against 0.24 ms at 36 darts, 0.33 against 0.29 ms at 48 and
#: 0.43 against 0.30 ms at 64 (best of 40 on 2 CPUs)
KERNEL_SVD_DARTS = 48


@functools.cache
def kernel_probes(n):
    """The read-only n x ``KERNEL_PROBES`` probes: ``normals`` at key 0."""
    r = normals(0, 0, 1, n * KERNEL_PROBES).reshape(n, KERNEL_PROBES)
    r.flags.writeable = False
    return r


def sigma_hi(g, x=None):
    """sqrt(|M|_1 |M|_inf) >= sigma_1 for M = I - X T', and so for KW(1, 1),
    whose entries have the same moduli; from the entry list.  It is at most
    sqrt(nd) sigma_1."""
    a = _real_entries(g, x)
    e, e2, _ = g.transition_entries
    # a loop edge continues into its own dart: that entry sits on the diagonal
    loop = e == e2
    diag = np.abs(1.0 - np.bincount(e[loop], a[loop], minlength=g.nd))
    off = np.where(loop, 0.0, np.abs(a))
    return math.sqrt((diag + np.bincount(e2, off, minlength=g.nd)).max()
                     * (diag + np.bincount(e, off, minlength=g.nd)).max())


def _rounding_level(n, hi):
    """The residual |m v| of an exact kernel vector v of an n x n matrix m
    with sigma_1 <= hi <= sqrt(n) sigma_1.  It stays below ``KERNEL_TOL``
    sigma_1 up to 10^6 rows, so what it counts the SVD counts too."""
    return KERNEL_EXACT * math.sqrt(n) * np.finfo(float).eps * hi


def kac_ward_real(g, x=None):
    """M = I - X T', KW(1, 1) in the half-angle gauge: the real dense
    scatter of I minus ``_real_entries``."""
    e, e2, _ = g.transition_entries
    return to_dense((g.nd, g.nd),
                    _eye_minus(g.nd, (e, e2, _real_entries(g, x))))


def kac_ward_kernel(g, x=None):
    """(W0, V0, dim): orthonormal bases of the left and right kernels of
    M = I - X T', as nd x dim arrays, and the kernel dimension.

    KW(1, 1) = H^-1 M H with T' the signs ``g.transition_signs`` and
    H = diag(exp(i dirang / 2)) unitary, so ker KW = H^-1 ker M, and both
    have the singular values of M.  From ``KERNEL_SVD_DARTS`` darts the
    kernel is decided by one solve against the probe columns and a Ritz
    step (``_probed_kernel``).  The full SVD runs, and counts the singular
    values below ``KERNEL_TOL * sigma_1``, on smaller graphs and wherever
    the probe cannot decide: at an exactly singular pivot, a Ritz value in
    the band of doubt, all probe Ritz values small, or no left basis (a
    zero weight, no skew signs, a failed check).  Both routes count the
    same dimension and span the same kernels; the bases themselves differ
    by an orthogonal change, and each is deterministic.
    """
    return kac_ward_kernel_solve(g, None, x)[:3]


def kac_ward_kernel_solve(g, rhs, x=None):
    """``kac_ward_kernel``'s (W0, V0, dim), and Y = M^-1 rhs for the columns
    ``rhs`` (nd x k), or None when dim > 0 or ``rhs`` is None.

    Y comes from the factorization that decided the kernel: the probe
    route's solve takes ``rhs`` along with the probe columns, and the SVD
    route reads Y = V diag(1 / sigma) U^T rhs off its factors.
    """
    if g.nd >= KERNEL_SVD_DARTS:
        found = _probed_kernel(g, x, rhs)
        if found is not None:
            return found
    # the null columns of U and V
    u, s, vt = np.linalg.svd(kac_ward_real(g, x))
    n, dim = len(s), int(np.count_nonzero(s < KERNEL_TOL * s[0]))
    y = None if rhs is None or dim else vt.T @ ((u.T @ rhs) / s[:, None])
    return u[:, n - dim:], vt[n - dim:].T, dim, y


def _probed_kernel(g, x, rhs):
    """``kac_ward_kernel_solve`` from one solve and a Ritz step, or None in
    doubt.

    Rayleigh-Ritz on Q = orth(Y), Y = M^-1 R for the probe columns R: the
    Ritz values rho are the singular values of the nd x k matrix M Q, and
    V0, orthonormal, is Q times the right singular vectors of the dim
    smallest.  dim counts the rho at rounding level, at most
    ``KERNEL_EXACT`` sqrt(nd) eps hi, where hi = ``sigma_hi`` bounds
    sigma_1.  One solve can overestimate a small singular value by about
    sqrt(nd) (Dixon's bound), so every other rho must exceed
    100 sqrt(nd) ``KERNEL_TOL`` hi, and dim < k.  A rho in between is a
    near-kernel that one Ritz step resolves only to its own relative size,
    not to the SVD's rounding.  The solve (``_schur_solve``) takes ``rhs``
    along with R, and M Q is formed from the entry list.  The left basis
    is ``_left_basis``.
    """
    hi = sigma_hi(g, x)
    a = _real_entries(g, x)
    probes = kernel_probes(g.nd)
    k = probes.shape[1]
    try:
        y = _schur_solve(g, a, probes if rhs is None
                         else np.concatenate([probes, rhs], axis=1))
    except GraphError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    n = g.nd
    q = np.linalg.qr(y[:, :k])[0]
    _, rho, vh = np.linalg.svd(_minus_apply(g, a, q), full_matrices=False)
    dim = int(np.count_nonzero(rho <= _rounding_level(n, hi)))
    # rho is descending: rho[k - dim - 1] is the smallest one left out
    if dim == k or rho[k - dim - 1] <= 100 * math.sqrt(n) * KERNEL_TOL * hi:
        return None
    v0 = q @ vh[k - dim:].T
    if not dim:
        return v0, v0, 0, None if rhs is None else y[:, k:]
    w0 = _left_basis(g, x, a, v0, hi)
    return None if w0 is None else (w0, v0, dim, None)


def _left_basis(g, x, a, v0, hi):
    """The left kernel basis of M that the right basis V0 gives, or None.

    With D = |X|^1/2 and the signs s of ``sqrt_det_pfaffian``,
    S = diag(s) J D^-1 M D is real skew, so (D^-1 V0)^T S = 0 and
    W0 = D^-1 J diag(s) D^-1 V0 spans the left kernel.  It is
    orthonormalized and must leave |M^T W0| at rounding level, as the right
    basis does; None at a zero weight or where there are no skew signs.
    """
    xd = np.repeat(g.x if x is None else np.asarray(x, dtype=float), 2)
    if np.any(xd == 0):
        return None
    try:
        s = g.skew_signs * np.sign(xd)
    except GraphError:
        return None
    d = np.sqrt(np.abs(xd))
    w0 = ((s / d)[:, None] * v0)[np.arange(g.nd) ^ 1] / d[:, None]
    w0 = np.linalg.qr(w0)[0]
    if not (np.linalg.norm(_minus_apply(g, a, w0, transpose=True))
            <= _rounding_level(g.nd, hi)):
        return None
    return w0


def refined_kernel(g, xs, w0, v0):
    """(W0, V0) of ``kac_ward_kernel`` after one step of inverse iteration,
    V0 <- orth(M^-1 V0) with ``_schur_solve``, and W0 derived from it again
    (``_left_basis``).  From ``KERNEL_SVD_DARTS`` darts only, where the
    probe route decides; the SVD's bases are at rounding already.  At an
    exactly singular pivot, or where no left basis passes its check, the
    bases come back as given."""
    if g.nd < KERNEL_SVD_DARTS:
        return w0, v0
    a = _real_entries(g, xs)
    try:
        y = _schur_solve(g, a, v0)
    except GraphError:
        return w0, v0
    if not np.all(np.isfinite(y)):
        return w0, v0
    v1 = np.linalg.qr(y)[0]
    w1 = _left_basis(g, xs, a, v1, sigma_hi(g, xs))
    return (w0, v0) if w1 is None else (w1, v1)


def _out(shape, entries, sparse):
    """The entry list itself when ``sparse``, else its dense matrix."""
    return entries if sparse else to_dense(shape, entries)


def _eye_minus(n, a):
    """Entry list of I - A for the n x n identity and an entry list A; the
    leading axes of A's values stack."""
    d = np.arange(n)
    rows, cols, vals = a
    return (np.concatenate([d, rows]), np.concatenate([d, cols]),
            np.concatenate([np.ones(vals.shape[:-1] + (n,)), -vals], axis=-1))


def kasteleyn(c, phi=None, orientation="omega", x=None, sparse=False):
    """Kasteleyn operator of the rectangle graph, W x B in ascending dart order.

    ``orientation`` is either the +-1 orientation 'omega' or the unit cochain
    'omega_tilde'; the entry at (w, b) is phi_C(w,b) * orientation(w,b) * y.
    ``x`` overrides the graph's edge weights; the dimer weights y are then
    recomputed from theta = 2 arctan(x).  Leading axes of ``phi`` (..., nd)
    and ``x`` (..., ne) broadcast to a stack of matrices (or of values, with
    ``sparse``) on the one pattern.
    """
    if orientation not in ("omega", "omega_tilde"):
        raise GraphError(f"unknown orientation {orientation!r}")
    nd = c.g.nd
    o = c.omega if orientation == "omega" else c.omega_tilde
    y = c.y if x is None else dimer_weights(
        2.0 * np.arctan(np.asarray(x, dtype=float)))
    vals = o * y * c.phi_values(_phi_values(c.g, phi))
    return _out((nd, nd), (c.w, c.b, vals), sparse)


def _star_operator(src, dst, weight, phase, mu):
    """Entry list of (A f)(u) = mu_u^-1 sum weight (f(u) - phase f(v)),
    summed over the oriented pairs u = src[i] -> v = dst[i]."""
    return (np.concatenate([src, src]), np.concatenate([src, dst]),
            np.concatenate([weight / mu[src], -weight * phase / mu[src]]))


def _star_laplacian(n, star, theta, pv, where, sparse):
    """Laplacian over stars: dart d leaves star[d] toward star[rev d], with
    weight tan(theta) and mu = 1/2 sum sin(2 theta) over each star."""
    th = np.repeat(theta, 2)
    mu = np.bincount(star, 0.5 * np.sin(2 * th), minlength=n)
    bad = np.flatnonzero(mu < 1e-14)
    if bad.size:
        raise GraphError(f"vanishing {where} weight mu at {where} {bad[0]}")
    return _out((n, n), _star_operator(star, star[np.arange(len(star)) ^ 1],
                                       np.tan(th), pv, mu), sparse)


def laplacian(g, phi=None, sparse=False):
    """Discrete Laplace operator on vertices.

    Rejects theta = pi/2 edges (infinite conductance) and vertices with
    vanishing area weight mu.
    """
    if np.any(g.theta >= math.pi / 2 - 1e-12):
        raise GraphError("theta = pi/2 edge: Laplacian weight tan(theta) diverges")
    return _star_laplacian(g.nv, g.origin, g.theta, _phi_values(g, phi),
                           "vertex", sparse)


def laplacian_dual(g, phi_star=None, sparse=False):
    """Laplace operator on the faces of g (the dual graph), weights tan(theta*).

    Assembled directly from the face structure so it works on planar graphs
    too (where the full dual carries no valid angle data).  ``phi_star`` is a
    dart cochain read on the dual dart of each primal dart (right face ->
    left face); the dual dart leaving face f across its boundary dart d is
    (rev d)*.
    """
    theta_star = math.pi / 2 - g.theta
    if np.any(theta_star >= math.pi / 2 - 1e-12):
        raise GraphError("theta* = pi/2 edge: dual Laplacian diverges")
    pv = _phi_values(g, phi_star)[np.arange(g.nd) ^ 1]
    return _star_laplacian(len(g.faces), g.face_of, theta_star, pv, "face",
                           sparse)


# -- Dirac operators ------------------------------------------------------------


def dirac_C(c, phi=None, field="edge", phi_c=None, sparse=False):
    """Discrete dbar and d operators on the rectangle graph (isoradial only).

    ``field='edge'``: the reference vector at each white vertex points toward
    its perpendicular black partner (and conversely at the blacks).
    ``field='constant'``: the horizontal field; requires trivial holonomy.
    ``field=(white_angles, black_angles)``: user-supplied reference angles per
    white/black vertex (indexed by darts).
    ``phi_c`` gives explicit per-C-edge cochain values (e.g. a discrete spin
    structure) and overrides the dart cochain ``phi``.
    Returns the pair (dbar: B -> W, d: W -> B).
    """
    g = c.g
    isoradial_data(g)
    nd = g.nd
    if phi_c is not None:
        pcvals = np.asarray(phi_c, dtype=complex)
    else:
        pcvals = c.phi_values(_phi_values(g, phi))
    if field == "constant":
        ref_w = np.zeros(nd)
        ref_b = np.zeros(nd)
    elif field == "edge":
        ref_w = g.dirang - math.pi / 2   # toward the perpendicular black
        ref_b = g.dirang + math.pi / 2   # toward the perpendicular white
    else:
        try:
            ref_w, ref_b = np.asarray(field, dtype=float)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"unknown field {field!r}") from exc
        if ref_w.shape != (nd,) or ref_b.shape != (nd,):
            raise GraphError("reference angles need one value per dart")
    mu = np.sin(2 * np.repeat(g.theta, 2))
    ang_wb = c_edge_directions(c)
    th_wb = ang_wb - ref_w[c.w]
    th_bw = (ang_wb + math.pi) - ref_b[c.b]
    dbar = (c.w, c.b, pcvals * np.exp(1j * th_wb) * c.y / mu[c.w])
    dop = (c.b, c.w, (1.0 / pcvals) * np.exp(-1j * th_bw) * c.y / mu[c.b])
    return _out((nd, nd), dbar, sparse), _out((nd, nd), dop, sparse)


def dirac_D(dg, phi_d=None, sparse=False):
    """Discrete dbar: Lambda -> Diamond and d: Diamond -> Lambda on the double.

    Constant reference field.  The midpoint weights are sin(theta) cos(theta)
    (star area at half scale), which makes -d dbar = Laplacian + dual
    Laplacian exactly.
    """
    g = dg.g
    isoradial_data(g)
    nl, ne = dg.n_lambda, g.ne
    phi_d = np.ones(len(dg.lam)) if phi_d is None else np.asarray(phi_d)
    # direction stored Lambda -> midpoint; the reverse traversal adds pi
    dbar = (dg.edge, dg.lam,
            (1.0 / phi_d) * np.exp(1j * (dg.direction + math.pi)) * dg.weight
            / dg.mu_diamond[dg.edge])
    dop = (dg.lam, dg.edge,
           phi_d * np.exp(-1j * dg.direction) * dg.weight
           / dg.mu_lambda[dg.lam])
    return _out((ne, nl), dbar, sparse), _out((nl, ne), dop, sparse)


def _m_character(m, phi):
    """Per-M-edge character value of a (z, w) pair (1 without one)."""
    if phi is None:
        return np.ones(len(m.tail))
    return shift_character(m.shift, *phi)


def skew_adjacency(m, phi=None, sparse=False):
    """Normalized twisted skew-adjacency operator on the corner graph M.

    (A f)(v) = mu_v^{-1} sum eps(e) phi(e) f(v'); mu * A is antisymmetric for
    a trivial cochain.
    """
    pv = _m_character(m, phi)
    return _out((m.n, m.n), (np.concatenate([m.tail, m.head]),
                             np.concatenate([m.head, m.tail]),
                             np.concatenate([pv / m.mu[m.tail],
                                             -(1.0 / pv) / m.mu[m.head]])),
                sparse)


def laplacian_M(m, phi=None, sparse=False):
    """Laplace operator on the corner graph M with weights tan(theta_M)."""
    pv = _m_character(m, phi)
    t = np.tan(m.theta_m)
    return _out((m.n, m.n), _star_operator(np.concatenate([m.tail, m.head]),
                                           np.concatenate([m.head, m.tail]),
                                           np.concatenate([t, t]),
                                           np.concatenate([pv, 1.0 / pv]),
                                           m.mu), sparse)


# -- signed square root --------------------------------------------------------


def sqrt_det_pfaffian(g, phi=None, x=None):
    """Square root of det KW with constant coefficient +1, as a Pfaffian.

    In the half-angle gauge the transition is the real +-1 matrix T'
    (``g.transition_signs``), and splitting the weights symmetrically gives
    det KW = det(I - B) with B = |X|^1/2 Phi T' |X|^1/2, where the +-1
    cochain Phi absorbs the signs of the weights.  With the dart reversal J
    and the signs s of ``g.skew_signs`` times Phi, S = diag(s) J (I - B) is
    real skew, and Pf(S) / Pf(diag(s) J) is the root: its square is det KW
    and it is 1 at x = 0 (Cimasoni, "A generalized Kac-Ward formula").
    Requires a +-1-valued cochain (real determinant).

    S is scattered on ``g.pfaffian_pattern``, found once per graph.  Leading
    axes of ``phi`` (..., nd) and ``x`` (..., ne) broadcast, as in
    ``kw_dets``, to an array of roots, one ``pfaffian`` call for the whole
    stack; each root is bitwise the one its row gets alone.
    """
    xs = g.x if x is None else np.asarray(x, dtype=float)
    sign = 1.0
    if phi is not None:
        pv = _phi_values(g, phi)
        if (np.max(np.abs(np.abs(pv.real) - 1.0)) > 1e-12
                or np.max(np.abs(pv.imag)) > 1e-12):
            raise GraphError("the Pfaffian square root needs a +-1-valued "
                             "cochain")
        sign = np.sign(pv.real)
        if np.any(sign[..., np.arange(g.nd) ^ 1] != sign):
            raise GraphError("the Pfaffian square root needs a cochain with "
                             "phi(rev e) = phi(e)")
    p = g.pfaffian_pattern
    s = g.skew_signs * np.where(np.repeat(xs < 0, 2, axis=-1), -sign, sign)
    r = np.sqrt(np.abs(xs))
    lead, n = s.shape[:-1], g.nd
    skew = np.zeros(lead + (n * n,))
    skew[..., p.slots] = p.coef * r[..., p.first] * r[..., p.second]
    # a loop's dart continues into itself: that entry sits on a J slot
    skew[..., p.diag] += s
    den = np.prod(s[..., 0::2], axis=-1)
    if not lead:
        return pfaffian(skew.reshape(n, n)) / float(den)
    return pfaffian(skew.reshape(lead + (n, n))) / den


# -- verification suites -----------------------------------------------------------


def verify_corr(g, phi=None, x=None, c=None):
    """Residuals of the Kac-Ward/Kasteleyn intertwining and its structure factors.

    Checks  KW (I - qR) = (I - i phi x J) M  with M the dart-pulled Kasteleyn
    matrix in the unit-cochain orientation, the gauge-reduced version with the
    diagonal square roots and the +-1 orientation, and the two factor
    determinants 2^V and prod(1 + x^2).  Every operator is an entry list;
    both factors are I minus a weighted permutation (qR and i phi x J), so
    their determinants are cycle products.

    Leading axes of ``phi`` (..., nd) and ``x`` (..., ne) broadcast, as in
    ``kac_ward``, and every residual is then an array over them: the stack
    is evaluated on patterns joined once, and each draw's residuals are
    bitwise those it gets alone.  The stack is held whole, so callers bound
    it (``suites.suite_corr`` does, in chunks of draws).
    """
    if c is None:
        c = build_C(g)
    xs = g.x if x is None else np.asarray(x, dtype=float)
    pv = _phi_values(g, phi)
    lead = np.broadcast_shapes(pv.shape[:-1], xs.shape[:-1])
    pv = np.broadcast_to(pv, lead + pv.shape[-1:])
    xs = np.broadcast_to(xs, lead + xs.shape[-1:])
    d = np.arange(g.nd)
    pxd = pv * np.repeat(xs, 2, axis=-1)
    e, e2, _ = g.transition_entries
    q = q_phases(g)
    kw = _eye_minus(g.nd, (e, e2, kw_values(g, pv, xs)))
    iqr = _eye_minus(g.nd, (d, g.rot, q))
    ixj = _eye_minus(g.nd, (d, d ^ 1, 1j * pxd))
    lhs = sparse_product(kw, iqr)
    scale = np.maximum(1.0, sparse_max_norm((1, lhs)))

    # both orientations on one new leading axis, on the one pattern: the
    # unit cochain, then the +-1 one, where the diagonal gauge exp(-i a/2)
    # enters on both dart-indexed sides as a column scaling
    gauge = half_angle_phases(g) ** -1
    kr, kc, tilde = kasteleyn(c, pv, "omega_tilde", xs, sparse=True)
    omega = kasteleyn(c, pv, "omega", xs, sparse=True)[2]
    rhs = sparse_product(
        (ixj[0], ixj[1], np.stack([ixj[2], ixj[2] * gauge[ixj[1]]])),
        (kr, kc, np.stack([tilde, omega])))
    lhs = (lhs[0], lhs[1], np.stack([lhs[2], lhs[2] * gauge[lhs[1]]]))
    res_tilde, res_omega = sparse_max_norm((1, lhs), (-1, rhs)) / scale

    # the draw-free factor once; the relative errors in Python complex
    # arithmetic, draw by draw (numpy's complex abs rounds differently)
    det_iqr = cycle_det(g.rot, q)
    want_iqr = 2.0 ** g.nv
    det_ixj = np.ravel(cycle_det(d ^ 1, 1j * pxd)).tolist()
    want_ixj = np.ravel(prod_rows(1.0 + xs.astype(complex) ** 2)).tolist()
    rel_ixj = np.reshape([abs(dt - w) / abs(w)
                          for dt, w in zip(det_ixj, want_ixj)], lead)
    rel_iqr = abs(det_iqr - want_iqr) / abs(want_iqr)
    return {
        "residual_omega_tilde": res_tilde,
        "residual_omega": res_omega,
        "det_I_qR_relerr": np.full(lead, rel_iqr) if lead else rel_iqr,
        "det_I_ixJ_relerr": rel_ixj if lead else float(rel_ixj),
    }


def phi_omega(c):
    """Discrete spin structure conjugating the Kasteleyn operator to dbar.

    Per white vertex w[e] with corner partner R(e):
    perp edge: omega; parallel: -i omega; corner: -exp(-i(theta_e+theta_e')/2) omega.
    """
    g = c.g
    th = np.repeat(g.theta, 2)
    return c.omega * np.concatenate([np.ones(g.nd), np.full(g.nd, -1j),
                                     -np.exp(-0.5j * (th + th[g.rot]))])


def verify_dirac_identities(g, phi_char=None):
    """Residuals of the four isoradial operator identities on a torus fixture.

    (a) Kasteleyn vs dbar on C through the diagonal half-angle gauge;
    (b) -d dbar on the double = Laplacian + dual Laplacian;
    (c) the square of the C Dirac operator against the corner Laplacian and
        skew adjacency (both block identities and their sum);
    (d) the C and D Dirac operators intertwined by the corner adjacency maps.

    ``phi_char`` is an optional (z, w) character used in (b) and (c).

    (a), (b) and (d) hold on every trivial-holonomy isoradial torus (verified
    to machine precision on anisotropic honeycombs as well); the corner-graph
    factorization (c) and the spin-structure cocycle property are specific to
    even vertex degrees (the cocycle face product at a vertex of degree d is
    exp(-i d pi / 2)), so the full suite is asserted on square and rhombic
    lattice classes.
    """
    isoradial_data(g)
    c = build_C(g)
    dg = build_D(g)
    report = {}

    # (a) K^omega o exp(-i theta_B / 2) = exp(-i theta_W / 2) o mu_W o dbar^{phi_omega}
    th_d = np.repeat(g.theta, 2)
    mu_c = np.sin(2 * th_d)
    half = np.exp(-0.5j * th_d)
    kr, kc, kv = kasteleyn(c, None, "omega", sparse=True)
    phiom = phi_omega(c)
    (dr, dc, dv), _ = dirac_C(c, field="edge", phi_c=phiom, sparse=True)
    lhs = (kr, kc, kv * half[kc])
    rhs = (dr, dc, dv * (half * mu_c)[dr])
    report["kasteleyn_dbar"] = (sparse_max_norm((1, lhs), (-1, rhs))
                                / max(1.0, sparse_max_norm((1, lhs))))

    # phi_omega is a cocycle whose square inverts the (trivial) holonomy
    report["phi_omega_cocycle"] = float(
        np.max(np.abs(c_face_products(c, phiom)[0] - 1.0)))

    # (b) -d dbar = Laplacian (+) dual Laplacian on the double
    if phi_char is None:
        phid = None
        lap = laplacian(g, sparse=True)
        lap_star = laplacian_dual(g, sparse=True)
    else:
        z, w = phi_char
        phid = phi_D_character(dg, z, w)
        phi_g, phi_star = split_phi_D(dg, phid)
        lap = laplacian(g, phi_g, sparse=True)
        # the dual Laplacian reads the cochain on dual darts: phi*(d*) with
        # d* from right face to left face of d; split_phi_D returns exactly that
        lap_star = laplacian_dual(g, phi_star, sparse=True)
    dbar_d, d_d = dirac_D(dg, phid, sparse=True)
    # the faces follow the vertices on the double
    lap_star = (lap_star[0] + g.nv, lap_star[1] + g.nv, lap_star[2])
    report["double_factorization"] = (
        sparse_max_norm((-1, sparse_product(d_d, dbar_d)), (-1, lap),
                        (-1, lap_star))
        / max(1.0, sparse_max_norm((1, lap), (1, lap_star))))

    # (c) Dirac square on C against the corner graph
    m = build_M(g)
    char = phi_char
    dbar_c, d_c = dirac_C(c, None if char is None else
                          character_cochain(g, *char).values, field="constant",
                          sparse=True)
    lm = laplacian_M(m, char, sparse=True)
    am = skew_adjacency(m, char, sparse=True)
    # the black corner map b[d] -> corner(R^-1 d) is the permutation rot_inv,
    # the white one w[d] -> corner(d) the identity
    br, bc, bv = sparse_product(d_c, dbar_c)
    pb = (g.rot_inv[br], g.rot_inv[bc], -bv)
    pw = sparse_product(dbar_c, d_c)
    scale = max(1.0, sparse_max_norm((1, lm)))
    report["dirac_square_black"] = sparse_max_norm(
        (1, pb), (-0.5, lm), (0.5j, am)) / scale
    report["dirac_square_white"] = sparse_max_norm(
        (-1, pw), (-0.5, lm), (-0.5j, am)) / scale
    report["dirac_square_sum"] = sparse_max_norm(
        (1, pb), (-1, pw), (-1, lm)) / scale

    # (d) corner adjacency intertwiner between the C and D Dirac operators
    report["dirac_cd"] = _dirac_cd_residual(g, c, dg)

    report["pass"] = all(v < 1e-10 for k, v in report.items() if k != "pass")
    return report


def _dirac_cd_residual(g, c, dg):
    """Residual of h_CD o (mu_C Dirac_C) o h_DC = mu_D Dirac_D (trivial cochain).

    The adjacency couples each white w[e] to the midpoint z_e with weight 1/2,
    and each black b[e] to the origin o(e) and the right-face center, weight
    1/2 each.  Both sides only map whites <-> blacks and Lambda <-> diamonds,
    so only those two off-diagonal blocks are compared, as entry lists.
    """
    mu_c = np.sin(2 * np.repeat(g.theta, 2))
    black_ends = (g.origin, g.nv + g.face_of[np.arange(g.nd) ^ 1])
    (wr, bc, wb), (br, wc, bw) = dirac_C(c, None, field="constant", sparse=True)
    dbar_d, d_d = dirac_D(dg, sparse=True)

    # h_CD pushes rows with weight 1 and h_DC pulls columns with weight 1/2;
    # the whites of darts 2k and 2k + 1 share the diamond k
    dia_lam = (np.tile(wr >> 1, 2), np.concatenate([e[bc] for e in black_ends]),
               np.tile(0.5 * (mu_c[wr] * wb), 2))
    lam_dia = (np.concatenate([e[br] for e in black_ends]), np.tile(wc >> 1, 2),
               np.tile(0.5 * (-mu_c[br] * bw), 2))
    want_dl = (dbar_d[0], dbar_d[1], dg.mu_diamond[dbar_d[0]] * dbar_d[2])
    want_ld = (d_d[0], d_d[1], -dg.mu_lambda[d_d[0]] * d_d[2])
    err = max(sparse_max_norm((1, dia_lam), (-1, want_dl)),
              sparse_max_norm((1, lam_dia), (-1, want_ld)))
    return err / max(1.0, sparse_max_norm((1, want_dl)),
                     sparse_max_norm((1, want_ld)))
