"""The operators: Kac-Ward, Kasteleyn, discrete Laplace and Dirac, and their relations.

Conventions (mirrored throughout the package):

* ``KW[e, e'] = 1_{e=e'} - phi(e) x_e exp(i alpha(e,e')/2)`` for darts e' that
  continue e (same terminus-origin vertex, no backtracking), alpha the
  velocity turning in (-pi, pi); the phase pattern is the per-graph
  ``EmbeddedGraph.transition``.
* The Kasteleyn matrix on the rectangle graph is W x B with rows and columns
  in ascending dart order; with the unit cochain orientation its determinant
  times 2^{-V} prod(1 + x^2) equals det KW exactly (no sign ambiguity).
* Laplacian: (L f)(v) = mu_v^{-1} sum tan(theta_e) (f(v) - phi(e) f(w)),
  mu_v = 1/2 sum sin(2 theta_e) over darts at v.
* Dirac: (dbar f)(w) = mu_w^{-1} sum phi(e) exp(i theta_X(e)) sin(theta_e) f(b)
  and its conjugate-phase partner, on the isoradial C and D graphs.

Every builder but ``kac_ward`` assembles its operator's entry list once, a
``(rows, cols, vals)`` tuple with at most four entries per row; with
``sparse=True`` it returns that list, otherwise its dense ``np.add.at``
scatter.  The identity suites ``verify_corr`` and
``verify_dirac_identities`` multiply and compare entry lists (see
``linalg``), so no check forms a dense product or an LU determinant.
"""

from __future__ import annotations

import math

import numpy as np

# lu_det stays bound here: the benchmark's tracer wraps it in every module
# that binds it, and its tests expect this one
from .linalg import (cycle_det, lu_det, null_space, pfaffian,  # noqa: F401
                     sparse_max_norm, sparse_product, to_dense)
from .surface_graph import (Cochain, GraphError, character_cochain,
                            shift_character)
from .derived import (build_C, build_D, build_M, c_edge_directions,
                      dimer_weights, half_angle_phases, isoradial_data,
                      phi_D_character, q_phases, split_phi_D)

__all__ = [
    "kac_ward", "kasteleyn", "laplacian", "laplacian_dual", "dirac_C",
    "dirac_D", "skew_adjacency", "laplacian_M", "null_space", "kw_dets",
    "sqrt_det_pfaffian", "verify_corr", "verify_dirac_identities",
]


def _phi_values(g, phi):
    if phi is None:
        return np.ones(g.nd, dtype=complex)
    if isinstance(phi, Cochain):
        return phi.values
    return np.asarray(phi, dtype=complex)


def kac_ward(g, phi=None, x=None):
    """Dart-indexed Kac-Ward operator; identity at x = 0.

    Rows and columns are darts in ascending id order.  ``x`` overrides the
    graph's edge weights.  Leading axes broadcast: ``phi`` of shape (..., nd)
    and ``x`` of shape (..., ne) give a stack of shape (..., nd, nd).
    """
    pv = _phi_values(g, phi)
    if np.any(np.abs(pv) == 0):
        raise GraphError("cochain values must be nonzero")
    xs = g.x if x is None else np.asarray(x)
    kw = (pv * np.repeat(xs, 2, axis=-1))[..., :, None] * g.transition
    return np.subtract(np.eye(g.nd), kw, out=kw)


#: bytes of complex matrix entries that ``kw_dets`` builds and factors at once;
#: freeing the first chunk lifts glibc's mmap and trim thresholds above the
#: grid's temporaries, so later calls reuse heap pages instead of new ones
KW_CHUNK_BYTES = 512 * 1024


def kw_dets(g, phi_rows, x_rows):
    """det KW for each row of ``phi_rows`` (..., nd) and ``x_rows`` (..., ne).

    The leading axes broadcast as in ``kac_ward``.  The stack is built and
    factored in chunks of at most ``KW_CHUNK_BYTES`` of matrix entries (one
    matrix at a time once a single one exceeds it); each determinant is
    bitwise the one ``lu_det(kac_ward(g, phi, x))`` returns.
    """
    pv = _phi_values(g, phi_rows)
    xs = np.asarray(x_rows)
    lead = np.broadcast_shapes(pv.shape[:-1], xs.shape[:-1])
    pv = np.broadcast_to(pv, lead + pv.shape[-1:]).reshape(-1, g.nd)
    xs = np.broadcast_to(xs, lead + xs.shape[-1:]).reshape(-1, g.ne)
    step = max(1, KW_CHUNK_BYTES // (16 * g.nd * g.nd))
    out = np.empty(len(pv), dtype=complex)
    for i in range(0, len(pv), step):
        out[i:i + step] = np.linalg.det(
            kac_ward(g, pv[i:i + step], xs[i:i + step]))
    return out.reshape(lead)


def _out(shape, entries, sparse):
    """The entry list itself when ``sparse``, else its dense matrix."""
    return entries if sparse else to_dense(shape, entries)


def _eye_minus(n, a):
    """Entry list of I - A for the n x n identity and an entry list A."""
    d = np.arange(n)
    rows, cols, vals = a
    return (np.concatenate([d, rows]), np.concatenate([d, cols]),
            np.concatenate([np.ones(n), -vals]))


def kasteleyn(c, phi=None, orientation="omega", x=None, sparse=False):
    """Kasteleyn operator of the rectangle graph, W x B in ascending dart order.

    ``orientation`` is either the +-1 orientation 'omega' or the unit cochain
    'omega_tilde'; the entry at (w, b) is phi_C(w,b) * orientation(w,b) * y.
    ``x`` overrides the graph's edge weights; the dimer weights y are then
    recomputed from theta = 2 arctan(x).
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
    theta_star = g.theta_dual()
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
    (``g.transition_real``), and splitting the weights symmetrically gives
    det KW = det(I - B) with B = |X|^1/2 Phi T' |X|^1/2, where the +-1
    cochain Phi absorbs the signs of the weights.  With the dart reversal J
    and the signs s of ``g.skew_signs`` times Phi, S = diag(s) J (I - B) is
    real skew, and Pf(S) / Pf(diag(s) J) is the root: its square is det KW
    and it is 1 at x = 0 (Cimasoni, "A generalized Kac-Ward formula").
    Requires a +-1-valued cochain (real determinant).
    """
    pv = _phi_values(g, phi)
    if np.max(np.abs(np.abs(pv.real) - 1.0)) > 1e-12 or np.max(np.abs(pv.imag)) > 1e-12:
        raise GraphError("the Pfaffian square root needs a +-1-valued cochain")
    rev = np.arange(g.nd) ^ 1
    sign = np.sign(pv.real)
    if np.any(sign[rev] != sign):
        raise GraphError("the Pfaffian square root needs a cochain with "
                         "phi(rev e) = phi(e)")
    xd = np.repeat(g.x if x is None else np.asarray(x, dtype=float), 2)
    sign = np.where(xd < 0, -sign, sign)
    s = g.skew_signs * sign
    r = np.sqrt(np.abs(xd))
    # S[e, f] = s(e) (delta(f, rev e) - B[rev e, f]), where B[rev e, f]
    # carries Phi(rev e) = Phi(e), so s(e) Phi(e) is g.skew_signs(e)
    skew = (-(g.skew_signs * r)[:, None] * g.transition_real[rev]) * r
    skew[np.arange(g.nd), rev] += s
    return pfaffian(skew) / float(np.prod(s[0::2]))


# -- verification suites -----------------------------------------------------------


def verify_corr(g, phi=None, x=None, c=None):
    """Residuals of the Kac-Ward/Kasteleyn intertwining and its structure factors.

    Checks  KW (I - qR) = (I - i phi x J) M  with M the dart-pulled Kasteleyn
    matrix in the unit-cochain orientation, the gauge-reduced version with the
    diagonal square roots and the +-1 orientation, and the two factor
    determinants 2^V and prod(1 + x^2).  Every operator is an entry list;
    both factors are I minus a weighted permutation (qR and i phi x J), so
    their determinants are cycle products.
    """
    if c is None:
        c = build_C(g)
    xs = g.x if x is None else np.asarray(x, dtype=float)
    d = np.arange(g.nd)
    pxd = _phi_values(g, phi) * np.repeat(xs, 2)
    e, e2, phase = g.transition_entries
    q = q_phases(g)
    kw = _eye_minus(g.nd, (e, e2, pxd[e] * phase))
    iqr = _eye_minus(g.nd, (d, g.rot, q))
    ixj = _eye_minus(g.nd, (d, d ^ 1, 1j * pxd))
    lhs = sparse_product(kw, iqr)
    rhs = sparse_product(ixj,
                         kasteleyn(c, phi, "omega_tilde", xs, sparse=True))
    scale = max(1.0, sparse_max_norm((1, lhs)))
    res_tilde = sparse_max_norm((1, lhs), (-1, rhs)) / scale

    # the diagonal gauge exp(-i a/2) enters on both dart-indexed sides, as
    # a column scaling
    gauge = half_angle_phases(g) ** -1
    lhs2 = (lhs[0], lhs[1], lhs[2] * gauge[lhs[1]])
    rhs2 = sparse_product((ixj[0], ixj[1], ixj[2] * gauge[ixj[1]]),
                          kasteleyn(c, phi, "omega", xs, sparse=True))
    res_omega = sparse_max_norm((1, lhs2), (-1, rhs2)) / scale

    det_iqr = cycle_det(g.rot, q)
    det_ixj = cycle_det(d ^ 1, 1j * pxd)
    want_iqr = 2.0 ** g.nv
    want_ixj = complex(np.prod(1.0 + xs.astype(complex) ** 2))
    return {
        "residual_omega_tilde": res_tilde,
        "residual_omega": res_omega,
        "det_I_qR_relerr": abs(det_iqr - want_iqr) / abs(want_iqr),
        "det_I_ixJ_relerr": abs(det_ixj - want_ixj) / abs(want_ixj),
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
    coc_err = 0.0
    for cyc in c.faces:
        p = 1.0 + 0j
        for idx, sgn in cyc:
            p *= phiom[idx] if sgn > 0 else 1.0 / phiom[idx]
        coc_err = max(coc_err, abs(p - 1.0))
    report["phi_omega_cocycle"] = coc_err

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
