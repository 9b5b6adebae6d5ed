"""The operators: Kac-Ward, Kasteleyn, discrete Laplace and Dirac, and their relations.

Conventions (mirrored throughout the package):

* ``KW[e, e'] = 1_{e=e'} - phi(e) x_e exp(i alpha(e,e')/2)`` for darts e' that
  continue e (same terminus-origin vertex, no backtracking), alpha the
  velocity turning in (-pi, pi).
* The Kasteleyn matrix on the rectangle graph is W x B with rows and columns
  in ascending dart order; with the unit cochain orientation its determinant
  times 2^{-V} prod(1 + x^2) equals det KW exactly (no sign ambiguity).
* Laplacian: (L f)(v) = mu_v^{-1} sum tan(theta_e) (f(v) - phi(e) f(w)),
  mu_v = 1/2 sum sin(2 theta_e) over darts at v.
* Dirac: (dbar f)(w) = mu_w^{-1} sum phi(e) exp(i theta_X(e)) sin(theta_e) f(b)
  and its conjugate-phase partner, on the isoradial C and D graphs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import lu_det, null_space, max_norm
from .surface_graph import (Cochain, GraphError, character_cochain,
                            principal_angle)
from .derived import (build_C, build_D, build_M, c_edge_direction,
                      half_angle_phases, isoradial_data, phi_D_character,
                      q_phases, split_phi_D)

__all__ = [
    "kac_ward", "kasteleyn", "laplacian", "laplacian_dual", "dirac_C",
    "dirac_D", "skew_adjacency", "laplacian_M", "null_space",
    "sqrt_det_tracked", "verify_corr", "verify_dirac_identities",
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
    graph's edge weights.
    """
    pv = _phi_values(g, phi)
    if np.any(np.abs(pv) == 0):
        raise GraphError("cochain values must be nonzero")
    xs = g.x if x is None else np.asarray(x)
    nd = g.nd
    m = np.eye(nd, dtype=complex)
    for e in range(nd):
        v = g.terminus(e)
        xe = xs[e >> 1]
        for e2 in g.darts_at[v]:
            if e2 == (e ^ 1):
                continue
            alpha = principal_angle(g.dirang[e2] - g.dirang[e])
            m[e, e2] -= pv[e] * xe * cmath.exp(0.5j * alpha)
    return m


def transition_factors(g, phi=None, x=None):
    """The two structural factors of the Kac-Ward/Kasteleyn correspondence.

    Returns (I - qR, I - i phi x J) as dart-indexed matrices; their
    determinants are 2^V and prod_e (1 + x_e^2).
    """
    nd = g.nd
    pv = _phi_values(g, phi)
    xs = g.x if x is None else np.asarray(x)
    q = q_phases(g)
    iqr = np.eye(nd, dtype=complex)
    for d in range(nd):
        iqr[d, g.rot[d]] -= q[d]
    ixj = np.eye(nd, dtype=complex)
    for d in range(nd):
        ixj[d, d ^ 1] -= 1j * pv[d] * xs[d >> 1]
    return iqr, ixj


def kasteleyn(c, phi=None, orientation="omega", x=None):
    """Kasteleyn operator of the rectangle graph, W x B in ascending dart order.

    ``orientation`` is either the +-1 orientation 'omega' or the unit cochain
    'omega_tilde'; the entry at (w, b) is phi_C(w,b) * orientation(w,b) * y.
    ``x`` overrides the graph's edge weights; the dimer weights y are then
    recomputed from theta = 2 arctan(x).
    """
    if orientation not in ("omega", "omega_tilde"):
        raise GraphError(f"unknown orientation {orientation!r}")
    g = c.g
    nd = g.nd
    pv = _phi_values(g, phi)
    theta = g.theta if x is None else 2.0 * np.arctan(np.asarray(x, dtype=float))
    k = np.zeros((nd, nd), dtype=complex)
    for i, ce in enumerate(c.edges):
        o = complex(c.omega[i]) if orientation == "omega" else ce.omega_tilde
        if ce.kind == "perp":
            val = o * math.cos(theta[ce.dart >> 1])
        elif ce.kind == "par":
            val = o * math.sin(theta[ce.dart >> 1]) * pv[ce.dart]
        else:
            val = o
        k[ce.w, ce.b] += val
    return k


def laplacian(g, phi=None, dual_weights=False):
    """Discrete Laplace operator on vertices.

    Rejects theta = pi/2 edges (infinite conductance) and vertices with
    vanishing area weight mu.  With ``dual_weights`` the roles of theta and
    theta* swap (used for the Laplacian on the dual through its own builder).
    """
    pv = _phi_values(g, phi)
    theta = g.theta_dual() if dual_weights else g.theta
    if np.any(theta >= math.pi / 2 - 1e-12):
        raise GraphError("theta = pi/2 edge: Laplacian weight tan(theta) diverges")
    n = g.nv
    m = np.zeros((n, n), dtype=complex)
    for v in range(n):
        mu = 0.5 * sum(math.sin(2 * theta[d >> 1]) for d in g.darts_at[v])
        if mu < 1e-14:
            raise GraphError(f"vanishing vertex weight mu at vertex {v}")
        for d in g.darts_at[v]:
            t = math.tan(theta[d >> 1])
            w = g.terminus(d)
            m[v, v] += t / mu
            m[v, w] -= t * pv[d] / mu
    return m


def laplacian_dual(g, phi_star=None):
    """Laplace operator on the faces of g (the dual graph), weights tan(theta*).

    Assembled directly from the face structure so it works on planar graphs
    too (where the full dual carries no valid angle data).  ``phi_star`` is a
    dart cochain read on the dual dart of each primal dart (right face ->
    left face).
    """
    theta_star = g.theta_dual()
    if np.any(theta_star >= math.pi / 2 - 1e-12):
        raise GraphError("theta* = pi/2 edge: dual Laplacian diverges")
    nf = len(g.faces)
    pv = (np.ones(g.nd, dtype=complex) if phi_star is None
          else _phi_values(g, phi_star))
    m = np.zeros((nf, nf), dtype=complex)
    mu = np.zeros(nf)
    for f in range(nf):
        for d in g.faces[f]:
            mu[f] += 0.5 * math.sin(2 * theta_star[d >> 1])
    if np.any(mu < 1e-14):
        raise GraphError("vanishing face weight mu in the dual Laplacian")
    for f in range(nf):
        # dual darts leaving f cross each boundary dart d of f toward face_of(rev d);
        # the crossing dual dart is (rev d)* which runs f -> face_of(rev d).
        for d in g.faces[f]:
            t = math.tan(theta_star[d >> 1])
            f2 = int(g.face_of[d ^ 1])
            m[f, f] += t / mu[f]
            m[f, f2] -= t * pv[d ^ 1] / mu[f]
    return m


# -- Dirac operators ------------------------------------------------------------


def dirac_C(c, phi=None, field="edge", phi_c=None):
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
        pcvals = c.phi_values(_phi_values(g, phi) if phi is not None else None)
    if field == "constant":
        ref_w = np.zeros(nd)
        ref_b = np.zeros(nd)
    elif field == "edge":
        ref_w = g.dirang - math.pi / 2   # toward the perpendicular black
        ref_b = g.dirang + math.pi / 2   # toward the perpendicular white
    else:
        try:
            ref_w, ref_b = (np.asarray(a, dtype=float) for a in field)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"unknown field {field!r}") from exc
        if ref_w.shape != (nd,) or ref_b.shape != (nd,):
            raise GraphError("reference angles need one value per dart")
    mu = np.array([math.sin(2 * g.theta[d >> 1]) for d in range(nd)])
    dbar = np.zeros((nd, nd), dtype=complex)
    dop = np.zeros((nd, nd), dtype=complex)
    for i, ce in enumerate(c.edges):
        y = ce.y
        pc = pcvals[i]
        ang_wb = c_edge_direction(c, ce)
        th_wb = ang_wb - ref_w[ce.w]
        th_bw = (ang_wb + math.pi) - ref_b[ce.b]
        dbar[ce.w, ce.b] += pc * cmath.exp(1j * th_wb) * y / mu[ce.w]
        dop[ce.b, ce.w] += (1.0 / pc) * cmath.exp(-1j * th_bw) * y / mu[ce.b]
    return dbar, dop


def dirac_D(dg, phi_d=None):
    """Discrete dbar: Lambda -> Diamond and d: Diamond -> Lambda on the double.

    Constant reference field.  The midpoint weights are sin(theta) cos(theta)
    (star area at half scale), which makes -d dbar = Laplacian + dual
    Laplacian exactly.
    """
    g = dg.g
    isoradial_data(g)
    nl, ne = dg.n_lambda, g.ne
    if phi_d is None:
        phi_d = np.ones(len(dg.halves), dtype=complex)
    dbar = np.zeros((ne, nl), dtype=complex)
    dop = np.zeros((nl, ne), dtype=complex)
    for i, h in enumerate(dg.halves):
        # direction stored Lambda -> midpoint; the reverse traversal adds pi
        ph_from_mid = cmath.exp(1j * (h.direction + math.pi))
        ph_from_lam = cmath.exp(-1j * h.direction)
        dbar[h.edge, h.lam] += (1.0 / phi_d[i]) * ph_from_mid * h.weight \
            / dg.mu_diamond[h.edge]
        dop[h.lam, h.edge] += phi_d[i] * ph_from_lam * h.weight \
            / dg.mu_lambda[h.lam]
    return dbar, dop


def skew_adjacency(m, phi=None):
    """Normalized twisted skew-adjacency operator on the corner graph M.

    (A f)(v) = mu_v^{-1} sum eps(e) phi(e) f(v'); mu * A is antisymmetric for
    a trivial cochain.
    """
    g = m.g
    n = m.n
    a = np.zeros((n, n), dtype=complex)
    for me in m.edges:
        pv = 1.0 + 0j
        if phi is not None:
            pv = complex(phi[0]) ** me.shift[0] * complex(phi[1]) ** me.shift[1]
        a[me.tail, me.head] += pv / m.mu[me.tail]
        a[me.head, me.tail] -= (1.0 / pv) / m.mu[me.head]
    return a


def laplacian_M(m, phi=None):
    """Laplace operator on the corner graph M with weights tan(theta_M)."""
    n = m.n
    a = np.zeros((n, n), dtype=complex)
    for me in m.edges:
        t = math.tan(me.theta_m)
        pv = 1.0 + 0j
        if phi is not None:
            pv = complex(phi[0]) ** me.shift[0] * complex(phi[1]) ** me.shift[1]
        a[me.tail, me.tail] += t / m.mu[me.tail]
        a[me.tail, me.head] -= t * pv / m.mu[me.tail]
        a[me.head, me.head] += t / m.mu[me.head]
        a[me.head, me.tail] -= t * (1.0 / pv) / m.mu[me.head]
    return a


# -- tracked square root ---------------------------------------------------------


def sqrt_det_tracked(g, phi=None, x=None, max_steps=2 ** 14):
    """Square root of det KW with constant coefficient +1, tracked from x = 0.

    The weights are scaled by t along a contour from 0 to 1 lifted slightly
    off the real axis; the square root is continued by principal-branch
    ratios with adaptive refinement until consecutive determinant phase steps
    stay below pi/2.  Requires a +-1-valued cochain (real determinant), and
    reports sign ambiguity if refinement hits the step cap.
    """
    pv = _phi_values(g, phi)
    if np.max(np.abs(np.abs(pv.real) - 1.0)) > 1e-12 or np.max(np.abs(pv.imag)) > 1e-12:
        raise GraphError("tracked square root needs a +-1-valued cochain")
    xs = g.x if x is None else np.asarray(x, dtype=float)

    def det_at(t):
        return lu_det(kac_ward(g, pv, xs * t))

    # Lift the contour off the real axis (real zeros of the square root are
    # then passed at distance >= bump) and keep it lifted all the way to
    # Re t = 1; a geometric vertical descent closes the path at t = 1.
    bump = 0.05
    n = 64
    while True:
        ts = np.linspace(0.0, 1.0, n + 1)
        lift = bump * np.minimum(1.0, np.sin(math.pi * np.minimum(ts, 0.5)) )
        lift = np.where(ts >= 0.5, bump, lift)
        ts = ts + 1j * lift
        vals = [det_at(t) for t in ts]
        ok = True
        for k in range(n):
            if vals[k] == 0 or vals[k + 1] == 0:
                ok = False
                break
            ratio = vals[k + 1] / vals[k]
            if abs(cmath.phase(ratio)) >= math.pi / 2:
                ok = False
                break
            if not 0.2 < abs(ratio) < 5.0:
                ok = False
                break
        if ok:
            break
        n *= 2
        if n > max_steps:
            raise GraphError("tracked square root is sign-ambiguous "
                             "(determinant vanishes along the homotopy)")
    r = 1.0 + 0j
    for k in range(n):
        r *= cmath.sqrt(vals[k + 1] / vals[k])
    # vertical descent from 1 + i bump to 1.  Halving the height concentrates
    # the steps where the phase of the determinant turns fastest (near a zero
    # just off the endpoint), keeping every ratio principal.
    d1 = det_at(1.0 + 0j)
    if d1 == 0:
        return 0.0
    seq = [vals[-1]]
    sigma = bump
    while abs(seq[-1] - d1) > 0.25 * abs(d1):
        sigma *= 0.5
        if sigma < 1e-30:
            raise GraphError("tracked square root is sign-ambiguous at the "
                             "endpoint of the homotopy")
        seq.append(det_at(1.0 + 1j * sigma))
    seq.append(d1)
    for v, b in zip(seq, seq[1:]):
        if v == 0 or b == 0 or abs(cmath.phase(b / v)) >= 0.9 * math.pi:
            raise GraphError("tracked square root is sign-ambiguous at the "
                             "endpoint of the homotopy")
        r *= cmath.sqrt(b / v)
    mag = math.sqrt(abs(d1))
    if abs(r) > 0 and abs(r.imag) > 1e-6 * abs(r) + 1e-12:
        raise GraphError("tracked square root did not return to the real axis")
    return mag if r.real >= 0 else -mag


# -- verification suites -----------------------------------------------------------


def verify_corr(g, phi=None, x=None, c=None):
    """Residuals of the Kac-Ward/Kasteleyn intertwining and its structure factors.

    Checks  KW (I - qR) = (I - i phi x J) M  with M the dart-pulled Kasteleyn
    matrix in the unit-cochain orientation, the gauge-reduced version with the
    diagonal square roots and the +-1 orientation, and the two factor
    determinants 2^V and prod(1 + x^2).
    """
    if c is None:
        c = build_C(g)
    xs = g.x if x is None else np.asarray(x, dtype=float)
    kw = kac_ward(g, phi, xs)
    iqr, ixj = transition_factors(g, phi, xs)
    ktil = kasteleyn(c, phi, "omega_tilde", xs)
    lhs = kw @ iqr
    rhs = ixj @ ktil
    scale = max(1.0, max_norm(lhs))
    res_tilde = max_norm(lhs - rhs) / scale

    kom = kasteleyn(c, phi, "omega", xs)
    dh = half_angle_phases(g)
    # the diagonal gauge exp(-i a/2) enters on both dart-indexed sides
    lhs2 = kw @ iqr @ np.diag(dh ** -1)
    rhs2 = ixj @ np.diag(dh ** -1) @ kom
    res_omega = max_norm(lhs2 - rhs2) / scale

    det_iqr = lu_det(iqr)
    det_ixj = lu_det(ixj)
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
    vals = np.ones(len(c.edges), dtype=complex)
    for i, ce in enumerate(c.edges):
        om = complex(c.omega[i])
        if ce.kind == "perp":
            vals[i] = om
        elif ce.kind == "par":
            vals[i] = -1j * om
        else:
            th = g.theta[ce.dart >> 1]
            th2 = g.theta[int(g.rot[ce.dart]) >> 1]
            vals[i] = -cmath.exp(-0.5j * (th + th2)) * om
    return vals


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
    nd = g.nd
    th_d = g.theta[np.arange(nd) >> 1]
    mu_c = np.array([math.sin(2 * t) for t in th_d])
    kom = kasteleyn(c, None, "omega")
    phiom = phi_omega(c)
    dbar_tw, _ = dirac_C(c, field="edge", phi_c=phiom)
    lhs = kom @ np.diag(np.exp(-0.5j * th_d))
    rhs = np.diag(np.exp(-0.5j * th_d) * mu_c) @ dbar_tw
    report["kasteleyn_dbar"] = max_norm(lhs - rhs) / max(1.0, max_norm(lhs))

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
        lap = laplacian(g)
        lap_star = laplacian_dual(g)
    else:
        z, w = phi_char
        phid = phi_D_character(dg, z, w)
        phi_g, phi_star = split_phi_D(dg, phid)
        lap = laplacian(g, phi_g)
        # the dual Laplacian reads the cochain on dual darts: phi*(d*) with
        # d* from right face to left face of d; split_phi_D returns exactly that
        lap_star = laplacian_dual(g, phi_star)
    dbar_d, d_d = dirac_D(dg, phid)
    prod = -(d_d @ dbar_d)
    block = np.zeros_like(prod)
    block[: g.nv, : g.nv] = lap
    block[g.nv:, g.nv:] = lap_star
    report["double_factorization"] = max_norm(prod - block) / max(1.0, max_norm(block))

    # (c) Dirac square on C against the corner graph
    m = build_M(g)
    char = phi_char
    dbar_c, d_c = dirac_C(c, None if char is None else
                          character_cochain(g, *char).values, field="constant")
    lm = laplacian_M(m, char)
    am = skew_adjacency(m, char)
    corner_of_b = np.array([int(g.rot_inv[d]) for d in range(nd)])
    corner_of_w = np.arange(nd)
    bb = -(d_c @ dbar_c)
    ww = -(dbar_c @ d_c)
    pb = np.zeros_like(bb)
    pw = np.zeros_like(ww)
    for i in range(nd):
        for j in range(nd):
            pb[corner_of_b[i], corner_of_b[j]] += bb[i, j]
            pw[corner_of_w[i], corner_of_w[j]] += ww[i, j]
    tgt_b = 0.5 * (lm - 1j * am)
    tgt_w = 0.5 * (lm + 1j * am)
    scale = max(1.0, max_norm(lm))
    report["dirac_square_black"] = max_norm(pb - tgt_b) / scale
    report["dirac_square_white"] = max_norm(pw - tgt_w) / scale
    report["dirac_square_sum"] = max_norm((pb + pw) - lm) / scale

    # (d) corner adjacency intertwiner between the C and D Dirac operators
    report["dirac_cd"] = _dirac_cd_residual(g, c, dg)

    report["pass"] = all(v < 1e-10 for k, v in report.items() if k != "pass")
    return report


def _dirac_cd_residual(g, c, dg):
    """Residual of h_CD o (mu_C Dirac_C) o h_DC = mu_D Dirac_D (trivial cochain).

    The adjacency couples each white w[e] to the midpoint z_e with weight 1/2,
    and each black b[e] to the origin o(e) and the right-face center, weight
    1/2 each.
    """
    nd, nv, ne = g.nd, g.nv, g.ne
    nl = dg.n_lambda
    n_d = nl + ne           # Lambda then diamonds
    n_c = 2 * nd            # whites then blacks

    h_dc = np.zeros((n_c, n_d))     # pull with weight 1/2 per adjacency
    h_cd = np.zeros((n_d, n_c))     # push with weight 1
    for d in range(nd):
        pairs = [(d, nl + (d >> 1)),                      # white ~ midpoint
                 (nd + d, int(g.origin[d])),              # black ~ origin
                 (nd + d, nv + int(g.face_of[d ^ 1]))]    # black ~ right face
        for (cv, dv) in pairs:
            h_dc[cv, dv] += 0.5
            h_cd[dv, cv] += 1.0

    mu_c = np.array([math.sin(2 * g.theta[d >> 1]) for d in range(nd)])
    dbar_c, d_c = dirac_C(c, None, field="constant")
    dir_c = np.zeros((n_c, n_c), dtype=complex)
    dir_c[:nd, nd:] = np.diag(mu_c) @ dbar_c
    dir_c[nd:, :nd] = -np.diag(mu_c) @ d_c

    dbar_d, d_d = dirac_D(dg)
    dir_d = np.zeros((n_d, n_d), dtype=complex)
    dir_d[nl:, :nl] = np.diag(dg.mu_diamond) @ dbar_d
    dir_d[:nl, nl:] = -np.diag(dg.mu_lambda) @ d_d

    lhs = h_cd @ dir_c @ h_dc
    return max_norm(lhs - dir_d) / max(1.0, max_norm(dir_d))
