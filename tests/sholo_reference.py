"""Per-vertex loop forms of the s-holomorphicity routines, kept as test oracles.

``sholo_residual_reference`` is the scalar loop over the darts of one vertex
that ``sholo.vertex_residuals`` replaces with one pass over all darts, and
``map_S_reference`` / ``map_S_inverse_reference`` are the per-dart and
per-edge loops of ``sholo.map_S`` / ``sholo.map_S_inverse``.
``spinor_maps_reference`` walks each dart's vertex star and
``star_identity_residual_reference`` each dart in turn, where
``sholo.spinor_maps`` advances all stars together over the maximum degree
and ``star_identity_residual`` (here, as no library flow reads it) is one
pass over the darts.  ``sholo_residual_all`` (the largest dart residual)
and ``edge_increments`` (the primal and dual increments of H per dart) are
here for the same reason.
``kernel_observables_reference`` takes the complex SVD of KW itself and
projects each kernel vector u, and i u, onto the dart lines; the library
instead reads the real kernel basis of I - X T' in the half-angle gauge.
``integrate_square_reference`` keys H by ('v', i) / ('f', j) tuples and
solves the corner relations by fixed-point sweeps (trusted relations first,
then all); ``laplacian_of_H_reference`` loops over vertices and faces with
per-dart increment methods.  The library solves the same relations on one
trusted-first spanning tree over the Lambda arrays; ``laplacian_of_H``
(here, as no library flow reads it either) sums the Laplacians with
``np.bincount``.
``verify_sholo_reference`` is the ``sholo`` suite as a loop of single
draws, each criterion norm from the loop forms above and one dense
matrix-vector product; ``sholo.verify_sholo`` maps and multiplies chunks of
draws as stacks.
"""

import cmath
import itertools
import math

import numpy as np

from kwlab import sholo
from kwlab.derived import build_C, half_angle_phases, isoradial_data
from kwlab.linalg import max_norm
from kwlab.operators import dirac_C, kac_ward, kasteleyn, phi_omega
from kwlab.sholo import (_dart_residuals, map_S_inverse, primal_increments,
                         vertex_residuals)
from kwlab.surface_graph import GraphError, cycle_with_winding

from identity_reference import SeedStream
from kernel_reference import null_space


def _proj(z, angle):
    u = cmath.exp(1j * angle)
    return u * (z * u.conjugate()).real


def sholo_residual_reference(g, F, v, branch=0.0):
    """Projection-matching defect at v, one dart at a time."""
    F = np.asarray(F, dtype=complex)
    beta = g.beta()
    worst = 0.0
    for d in g.darts_at[v]:
        d2 = int(g.rot[d])
        th1 = g.theta[d >> 1]
        th2 = g.theta[d2 >> 1]
        line_plus = -0.5 * (math.pi / 2 + g.dirang[d] + th1)
        line_minus = -0.5 * (math.pi / 2 + g.dirang[d2] - th2)
        lhs = _proj(F[d >> 1], line_plus + branch)
        rhs = _proj(F[d2 >> 1], line_minus + branch)
        rhs *= cmath.exp(0.5j * (beta[d] - th1 - th2))
        worst = max(worst, abs(lhs - rhs))
    return worst


def map_S_reference(g, F):
    a = g.a_angles()
    out = np.empty(g.nd, dtype=complex)
    for d in range(g.nd):
        out[d] = math.sin(0.5 * g.theta[d >> 1]) * _proj(F[d >> 1], -0.5 * a[d])
    return out


def map_S_inverse_reference(g, f):
    out = np.empty(g.ne, dtype=complex)
    for k in range(g.ne):
        out[k] = (f[2 * k] + f[2 * k + 1]) / math.sin(0.5 * g.theta[k])
    return out


def spinor_maps_reference(g, F, c=None):
    """The four real spinor maps on black corner vertices.

    Returns a dict with 'T' (gauge-summed pullback of map_S), 'T_tilde' (its
    pointwise form, equal to T on s-holomorphic input), and the rotated
    variants 'T_prime', 'T_tilde_prime' = exp(i theta/2) times the former.
    """
    if c is None:
        c = build_C(g)
    F = np.asarray(F, dtype=complex)
    dh = half_angle_phases(g)
    nd = g.nd
    t = np.zeros(nd)
    t_tilde = np.zeros(nd)
    for b in range(nd):
        v = int(g.origin[b])
        sign = 1.0
        d = b
        acc = 0.0
        for _ in range(len(g.darts_at[v])):
            acc += (sign * dh[d] * math.sin(0.5 * g.theta[d >> 1])
                    * F[d >> 1]).real
            sign *= c.epsilon[d]
            d = int(g.rot[d])
        t[b] = acc
        t_tilde[b] = (1j * dh[b] * cmath.exp(-0.5j * g.theta[b >> 1])
                      * F[b >> 1]).real
    rot = np.exp(0.5j * g.theta[np.arange(nd) >> 1])
    return {"T": t, "T_tilde": t_tilde,
            "T_prime": rot * t, "T_tilde_prime": rot * t_tilde}


def sholo_residual_all(g, F, branch=0.0):
    return float(np.max(_dart_residuals(g, F, branch), initial=0.0))


def edge_increments(g, F):
    """Per dart, the ``primal_increments`` and H(left face) - H(right face)
    = Im(2 cos(pi/2 - theta) i D F^2)."""
    d = np.arange(g.nd)
    k = d >> 1
    theta_dual = math.pi / 2 - g.theta
    dual = (2.0 * np.cos(theta_dual[k]) * (1j * np.exp(1j * g.dirang))
            * np.asarray(F, dtype=complex)[k] ** 2).imag
    return primal_increments(g, F, d), dual


def star_identity_residual(g, F, c=None):
    """Pointwise reformulation of the kernel condition through corner signs.

    For s-holomorphic exp(i pi/4) F the quantity Re(i D^{1/2} e^{i theta/2} F)
    propagates to the rotated dart with the corner sign epsilon.
    """
    if c is None:
        c = build_C(g)
    F = np.asarray(F, dtype=complex)
    dh = half_angle_phases(g)
    k = np.arange(g.nd) >> 1
    k2 = g.rot >> 1
    lhs = (1j * dh * np.exp(0.5j * g.theta[k]) * F[k]).real
    rhs = c.epsilon * (1j * dh[g.rot] * np.exp(-0.5j * g.theta[k2])
                       * F[k2]).real
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def star_identity_residual_reference(g, F, c=None):
    """Pointwise reformulation of the kernel condition through corner signs.

    For s-holomorphic exp(i pi/4) F the quantity Re(i D^{1/2} e^{i theta/2} F)
    propagates to the rotated dart with the corner sign epsilon.
    """
    if c is None:
        c = build_C(g)
    F = np.asarray(F, dtype=complex)
    dh = half_angle_phases(g)
    worst = 0.0
    for d in range(g.nd):
        d2 = int(g.rot[d])
        lhs = (1j * dh[d] * cmath.exp(0.5j * g.theta[d >> 1]) * F[d >> 1]).real
        rhs = c.epsilon[d] * (1j * dh[d2] * cmath.exp(-0.5j * g.theta[d2 >> 1])
                              * F[d2 >> 1]).real
        worst = max(worst, abs(lhs - rhs))
    return worst


def kernel_observables_reference(g, tol=1e-7):
    """Kernel functions from the complex SVD of KW, projected on the lines.

    The list may hold R-linearly dependent functions (up to two per complex
    kernel direction); only exact +-duplicates are dropped.
    """
    kw = kac_ward(g)
    a = g.a_angles()
    found = []
    for u in null_space(kw, tol=1e-8):  # complex input: complex SVD
        for cand_src in (u, 1j * u):
            cand = np.array([_proj(cand_src[d], -0.5 * a[d])
                             for d in range(g.nd)], dtype=complex)
            norm = max_norm(cand)
            if norm < 1e-8 * max_norm(cand_src):
                continue
            if max_norm(kw @ cand) > tol * norm:
                continue
            F = cmath.exp(0.25j * math.pi) * map_S_inverse(g, cand)
            if any(max_norm(F - f2) < 1e-6 * max_norm(F)
                   or max_norm(F + f2) < 1e-6 * max_norm(F) for f2 in found):
                continue
            found.append(F)
    return found


class HFunctionReference:
    """H keyed by Lambda node tuples, with per-dart increment methods."""

    def __init__(self, g, F, values, loop_residual, periods, sholo_defect):
        self.g = g
        self.F = np.asarray(F, dtype=complex)
        self.values = values
        self.loop_residual = loop_residual
        self.periods = periods
        self.sholo_defect = sholo_defect

    def edge_increment(self, d):
        """H(terminus) - H(origin) across a primal dart: Im(2 cos(theta) D F^2)."""
        g = self.g
        th = g.theta[d >> 1]
        dd = cmath.exp(1j * g.dirang[d])
        return (2.0 * math.cos(th) * dd * self.F[d >> 1] ** 2).imag

    def dual_edge_increment(self, d):
        """H(left face) - H(right face) across the dual of a primal dart."""
        g = self.g
        th = math.pi / 2 - g.theta[d >> 1]
        dd = 1j * cmath.exp(1j * g.dirang[d])
        return (2.0 * math.cos(th) * dd * self.F[d >> 1] ** 2).imag


def integrate_square_reference(g, F, warn_tol=1e-6, star_tol=1e-8):
    """Corner relations solved by fixed-point sweeps from ('v', 0)."""
    F = np.asarray(F, dtype=complex)
    fscale = max(1.0, float(np.max(np.abs(F))))
    vertex_res = vertex_residuals(g, F)
    defect = float(np.max(vertex_res, initial=0.0))
    reliable_v = [r < star_tol * fscale for r in vertex_res]

    nodes = [("v", i) for i in range(g.nv)] + [("f", j) for j in range(len(g.faces))]
    index = {nid: i for i, nid in enumerate(nodes)}
    darts = np.arange(g.nd)
    a = g.dirang[darts]
    th = g.theta[darts >> 1]
    line_plus = -0.5 * (math.pi / 2 + a + th)
    line_minus = -0.5 * (math.pi / 2 + a - th)
    u_l, u_r = np.exp(1j * line_plus), np.exp(1j * line_minus)
    inc_l = 2.0 * np.abs(u_l * (F[darts >> 1] * u_l.conj()).real) ** 2
    inc_r = 2.0 * np.abs(u_r * (F[darts >> 1] * u_r.conj()).real) ** 2
    rels = []  # (primal node, face node, H(v) - H(f), reliable)
    for d in range(g.nd):
        vid = int(g.origin[d])
        v = index[("v", vid)]
        fl = index[("f", int(g.face_of[d]))]
        fr = index[("f", int(g.face_of[d ^ 1]))]
        ok = reliable_v[vid]
        rels.append((v, fl, inc_l[d], ok))
        rels.append((v, fr, inc_r[d], ok))

    h = np.full(len(nodes), np.nan)
    h[index[("v", 0)]] = 0.0
    for trusted_only in (True, False):
        changed = True
        while changed:
            changed = False
            for (v, f, inc, ok) in rels:
                if trusted_only and not ok:
                    continue
                if math.isnan(h[v]) and not math.isnan(h[f]):
                    h[v] = h[f] + inc
                    changed = True
                elif math.isnan(h[f]) and not math.isnan(h[v]):
                    h[f] = h[v] - inc
                    changed = True
    if np.any(np.isnan(h)):
        raise GraphError("increment graph is disconnected")

    loop_residual = 0.0
    if g.surface == "planar":
        for (v, f, inc, ok) in rels:
            if ok:
                loop_residual = max(loop_residual, abs((h[v] - h[f]) - inc))

    periods = None
    if g.genus == 1:
        periods = []
        hf = HFunctionReference(g, F, {}, 0.0, None, defect)
        adj = [[(g.terminus(d), d, tuple(g.shift[d].tolist()))
                for d in g.darts_at[u]] for u in range(g.nv)]
        for target in ((1, 0), (0, 1)):
            cyc = cycle_with_winding(adj, target)
            periods.append(float(sum(hf.edge_increment(d) for d in cyc)))

    values = {nid: float(h[index[nid]]) for nid in nodes}
    return HFunctionReference(g, F, values, loop_residual, periods, defect)


def laplacian_of_H_reference(g, h):
    """Primal and dual Laplacians of H, one vertex and one face at a time."""
    theta = g.theta
    primal = np.zeros(g.nv)
    for v in range(g.nv):
        mu = 0.5 * sum(math.sin(2 * theta[d >> 1]) for d in g.darts_at[v])
        acc = 0.0
        for d in g.darts_at[v]:
            # H(v) - H(terminus) = -increment along d
            acc += math.tan(theta[d >> 1]) * (-h.edge_increment(d))
        primal[v] = acc / mu
    dual = np.zeros(len(g.faces))
    for f in range(len(g.faces)):
        mu = 0.5 * sum(math.sin(2 * (math.pi / 2 - theta[d >> 1]))
                       for d in g.faces[f])
        acc = 0.0
        for d in g.faces[f]:
            # the dual dart from f crosses d toward the face right of d
            acc += math.tan(math.pi / 2 - theta[d >> 1]) * (
                h.dual_edge_increment(d ^ 1))
        dual[f] = acc / mu
    return primal, dual


def laplacian_of_H(g, h):
    """Laplacians of the primitive on both vertex classes, from the increments.

    Uses the local increment formulas, so the values are meaningful on the
    torus as well (where H itself is multivalued).  Returns (primal, dual)
    arrays; on critical isoradial data the primal values are <= 0 and the dual
    values >= 0 wherever F is s-holomorphic.  Each sum runs over the darts in
    the order of their star (primal) or face walk (dual).
    """
    primal_inc, dual_inc = edge_increments(g, h.F)
    th = g.theta[np.arange(g.nd) >> 1]
    # H(v) - H(terminus) = -increment along d
    primal = (np.bincount(g.origin, np.tan(th) * -primal_inc, minlength=g.nv)
              / (0.5 * np.bincount(g.origin, np.sin(2 * th), minlength=g.nv)))
    nf = len(g.faces)
    walk = np.fromiter(itertools.chain.from_iterable(g.faces), int, g.nd)
    face = g.face_of[walk]
    th = (math.pi / 2 - g.theta)[walk >> 1]
    # the dual dart from a face crosses d toward the face right of d
    dual = (np.bincount(face, np.tan(th) * dual_inc[walk ^ 1], minlength=nf)
            / (0.5 * np.bincount(face, np.sin(2 * th), minlength=nf)))
    return primal, dual


def verify_sholo_reference(g, draws=50, seed=0):
    """``sholo.verify_sholo``, one draw at a time; the kernel functions are
    read through ``sholo.kernel_observables`` as the library reads them."""
    rng = SeedStream(seed)
    c = build_C(g)
    kw = kac_ward(g)
    kom_real = kasteleyn(c, None, "omega").real
    try:
        isoradial_data(g)
    except GraphError:
        dbar = None
    else:
        dbar, _ = dirac_C(c, field="edge", phi_c=phi_omega(c))

    rotF = cmath.exp(0.25j * math.pi)

    def norms(F):
        F = np.asarray(F, dtype=complex)
        scale = max(np.max(np.abs(F)), 1e-30)
        sp = spinor_maps_reference(g, F, c)
        out = {
            "sholo": max(sholo_residual_reference(g, rotF * F, v)
                         for v in range(g.nv)) / scale,
            "kw_S": max_norm(kw @ map_S_reference(g, F)) / scale,
            "kasteleyn_T": max_norm(kom_real @ sp["T"]) / scale,
        }
        if dbar is not None:
            out["dbar_Tprime"] = max_norm(dbar @ sp["T_tilde_prime"]) / scale
        return out

    checks = []
    agree = True
    for t in range(draws):
        F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
        ns = norms(F)
        big = all(v > 1e-3 for v in ns.values())
        small = all(v < 1e-8 for v in ns.values())
        agree = agree and (big or small)
        checks.append({"draw": t, **ns, "verdict_agrees": big or small})

    kernel_funcs = sholo.kernel_observables(g)
    for i, F in enumerate(kernel_funcs):
        ns = norms(np.asarray(F) / rotF)
        small = all(v < 1e-7 for v in ns.values())
        agree = agree and small
        checks.append({"kernel_function": i, **ns, "verdict_agrees": small})

    return {"draws": checks, "n_kernel_functions": len(kernel_funcs),
            "pass": agree}
