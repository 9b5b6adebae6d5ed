"""s-holomorphic functions on edge midpoints: residuals, spinor maps, observables.

A midpoint function F is s-holomorphic around a vertex when its projections
onto the rotating half-angle lines match across consecutive darts; the module
provides the defining residual, the real-linear maps S (into dart functions)
and T, T', and their pointwise variants (into corner spinors), fermionic
observables built either from the inverse Kac-Ward operator or from marked
two-leg configurations, kernel-derived globally s-holomorphic functions, and
the discrete primitive H of Im(F^2 dz) with its Laplacians.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .linalg import lu_det, lu_solve, max_norm, null_space
from .surface_graph import GraphError, cycle_with_winding
from .derived import build_C, half_angle_phases
from .operators import (dirac_C, kac_ward, kasteleyn, phi_omega,
                        sqrt_det_pfaffian)
from .oracle import _entry_terms, _sum_terms, inverse_coefficient


def _proj(z, angle):
    """Orthogonal projection of z onto the real line through exp(i angle)."""
    u = np.exp(1j * angle)
    return u * (z * u.conj()).real


def _line_plus(g, d):
    """Angle of the line [i exp(i(a + theta))]^(-1/2) for a dart."""
    return -0.5 * (math.pi / 2 + g.dirang[d] + g.theta[d >> 1])


def _line_minus(g, d):
    """Angle of the line [i exp(i(a - theta))]^(-1/2) for a dart."""
    return -0.5 * (math.pi / 2 + g.dirang[d] - g.theta[d >> 1])


def _dart_residuals(g, F, branch=0.0, d=None):
    """Projection-matching defect of each dart in ``d`` (default: all)."""
    F = np.asarray(F, dtype=complex)
    d = np.arange(g.nd) if d is None else np.asarray(d, dtype=int)
    d2 = g.rot[d]
    lhs = _proj(F[d >> 1], _line_plus(g, d) + branch)
    rhs = _proj(F[d2 >> 1], _line_minus(g, d2) + branch)
    rhs *= np.exp(0.5j * (g.beta()[d] - g.theta[d >> 1] - g.theta[d2 >> 1]))
    return np.abs(lhs - rhs)


def vertex_residuals(g, F, branch=0.0):
    """``sholo_residual`` at every vertex, from one pass over the darts."""
    res = np.zeros(g.nv)
    np.maximum.at(res, g.origin, _dart_residuals(g, F, branch))
    return res


def sholo_residual(g, F, v, branch=0.0):
    """Defect of the projection-matching condition at a vertex.

    Zero exactly when F is s-holomorphic around v.  ``branch`` adds pi to the
    square-root angles; the result is branch independent (lines are).
    """
    return float(np.max(_dart_residuals(g, F, branch, g.darts_at[v]),
                        initial=0.0))


def sholo_residual_all(g, F, branch=0.0):
    return float(np.max(_dart_residuals(g, F, branch), initial=0.0))


def map_S(g, F):
    """Real-linear map into dart functions: sin(theta/2) times the projection
    of F(z_e) onto the line exp(-i a_e / 2) R."""
    k = np.arange(g.nd) >> 1
    return np.sin(0.5 * g.theta[k]) * _proj(np.asarray(F, dtype=complex)[k],
                                            -0.5 * g.a_angles())


def map_S_inverse(g, f):
    """Inverse of map_S on its image: F(z_e) = (f(e) + f(rev e)) / sin(theta/2)."""
    f = np.asarray(f, dtype=complex)
    s = np.sin(0.5 * g.theta)
    if np.any(s < 1e-14):
        raise GraphError("map_S is not invertible on zero-weight edges")
    return (f[0::2] + f[1::2]) / s


def spinor_maps(g, F, c=None):
    """The four real spinor maps on black corner vertices.

    Returns a dict with 'T' (gauge-summed pullback of map_S), 'T_tilde' (its
    pointwise form, equal to T on s-holomorphic input), and the rotated
    variants 'T_prime', 'T_tilde_prime' = exp(i theta/2) times the former.
    """
    if c is None:
        c = build_C(g)
    F = np.asarray(F, dtype=complex)
    dh = half_angle_phases(g)
    k = np.arange(g.nd) >> 1
    term = (dh * np.sin(0.5 * g.theta[k]) * F[k]).real
    # T[b] sums the terms around the star of o(b), from b counterclockwise,
    # each signed by the corner signs passed so far; all stars advance
    # together, those of smaller degree adding nothing once closed
    deg = np.bincount(g.origin)[g.origin]
    d = np.arange(g.nd)
    sign = np.ones(g.nd)
    t = np.zeros(g.nd)
    for step in range(int(deg.max(initial=0))):
        t += np.where(step < deg, sign * term[d], 0.0)
        sign *= c.epsilon[d]
        d = g.rot[d]
    t_tilde = (1j * dh * np.exp(-0.5j * g.theta[k]) * F[k]).real
    rot = np.exp(0.5j * g.theta[k])
    return {"T": t, "T_tilde": t_tilde,
            "T_prime": rot * t, "T_tilde_prime": rot * t_tilde}


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


# -- fermionic observables -------------------------------------------------------


def observable(g, e0, backend="auto", x=None):
    """Two-point fermionic observable pinned at the dart e0.

    ``backend='inverse'`` reads the column of sqrt(det KW) KW^{-1} at rev(e0)
    and assembles F through the inverse of map_S (needs det KW != 0 and all
    weights positive).  ``backend='combinatorial'`` sums marked two-leg
    configurations with rotation phases (size-guarded, works at x = 0).  The
    result is s-holomorphic around every vertex not touching e0.
    """
    if not 0 <= e0 < g.nd:
        raise GraphError(f"dart {e0} is out of range 0..{g.nd - 1}")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    if backend == "auto":
        if np.all(xs > 1e-12):
            try:
                return observable(g, e0, "inverse", x)
            except GraphError:
                pass
        return observable(g, e0, "combinatorial", x)

    # the quarter turn of the kernel criterion combined with the half-angle
    # gauge of the pinned dart; this lands the assembled column in the real
    # dart-line structure, making the result s-holomorphic away from e0
    pref = cmath.exp(0.25j * math.pi - 0.5j * g.a_angles()[e0 ^ 1])
    if backend == "inverse":
        kw = kac_ward(g, None, xs)
        d = lu_det(kw)
        if abs(d) < 1e-12:
            raise GraphError("Kac-Ward operator is singular; use the "
                             "combinatorial backend")
        s = sqrt_det_pfaffian(g, None, xs)
        col = np.zeros(g.nd, dtype=complex)
        col[e0 ^ 1] = 1.0
        f = s * lu_solve(kw, col)
        theta = 2.0 * np.arctan(xs)
        out = np.empty(g.ne, dtype=complex)
        for k in range(g.ne):
            sn = math.sin(0.5 * theta[k])
            if sn < 1e-14:
                raise GraphError("inverse backend needs positive weights")
            out[k] = pref * (f[2 * k] + f[2 * k + 1]) / sn
        return out

    if backend != "combinatorial":
        raise GraphError(f"unknown backend {backend!r}")
    from .oracle import INV_GUARD
    if g.ne > INV_GUARD:
        from .surface_graph import SizeGuardError
        raise SizeGuardError("combinatorial observable capped at "
                             f"{INV_GUARD} edges")
    theta = 2.0 * np.arctan(np.asarray(xs, dtype=float))
    k0 = e0 >> 1
    out = np.zeros(g.ne, dtype=complex)
    bases = {}
    for k in range(g.ne):
        if k == k0:
            # midpoint of the pinned edge: diagonal (even-subgraph) term
            sn = math.sin(0.5 * theta[k0])
            if sn < 1e-14:
                out[k] = 0.0  # convention: the pinned midpoint of a
                # zero-weight edge carries no value
                continue
            out[k] = pref * inverse_coefficient(g, e0 ^ 1, e0 ^ 1, x=xs) / sn
            continue
        # the configurations of the inverse coefficients (e0, e_in), without
        # the weight x_{e0} and with the walk phase conjugated
        total = 0.0 + 0j
        for e_in in (2 * k, 2 * k + 1):
            masks, factors = _entry_terms(g, e0, e_in, bases=bases)
            total += _sum_terms(g, [m ^ 1 << k0 for m in masks],
                                np.conj(factors), xs)
        out[k] = pref * total / math.cos(0.5 * theta[k])
    return out


def kernel_observables(g, tol=1e-7):
    """Globally s-holomorphic functions pulled back from the Kac-Ward kernel.

    KW = H^-1 (I - X T') H with H = diag(exp(i dirang / 2)) and T' =
    ``g.transition_real`` real, so the real null space of I - X T' (singular
    values below 1e-8 sigma_max) spans ker KW on the dart lines.  Each basis
    vector r, signed so that its largest entry is positive and checked against
    the complex KW, gives exp(i pi/4) S^-1(H^-1 r): a deterministic real basis
    of the s-holomorphic functions, empty when KW is invertible.
    """
    kw = kac_ward(g)
    m = np.eye(g.nd) - np.repeat(g.x, 2)[:, None] * g.transition_real
    h_inv = np.exp(-0.5j * g.dirang)
    found = []
    for r in null_space(m, tol=1e-8):
        cand = h_inv * r * np.sign(r[np.argmax(np.abs(r))])
        if max_norm(kw @ cand) <= tol * max_norm(cand):
            found.append(cmath.exp(0.25j * math.pi) * map_S_inverse(g, cand))
    return found


# -- the integral of F^2 ------------------------------------------------------------


class HFunction:
    """Discrete primitive of Im(F^2 dz) on primal and dual vertices.

    ``values`` maps Lambda nodes ('v', i) and ('f', j) to reals; increments
    across each midpoint corner are squared moduli of line projections of F.
    On the torus the two homology periods are reported, never forced to zero.
    """

    def __init__(self, g, F, values, base_point, loop_residual, periods,
                 sholo_defect):
        self.g = g
        self.F = np.asarray(F, dtype=complex)
        self.values = values
        self.base_point = base_point
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


def integrate_square(g, F, base_point=None, warn_tol=1e-6, star_tol=1e-8):
    """Integrate the corner increments of an s-holomorphic F into H.

    Every dart contributes two corner relations H(origin) - H(face) given by
    squared projections of F(z); a breadth-first tree from the base point
    (lowest primal vertex by default) fixes the representative.  The four
    relations around one midpoint close identically; closure around a vertex
    star requires s-holomorphicity there, so relations at vertices violating
    it (e.g. patch boundaries, observable pinning points) are used for
    reachability but excluded from the reported planar loop defect.  On the
    torus the primal homology periods are returned instead of a defect.
    """
    F = np.asarray(F, dtype=complex)
    fscale = max(1.0, float(np.max(np.abs(F))))
    vertex_res = vertex_residuals(g, F)
    defect = float(np.max(vertex_res, initial=0.0))
    reliable_v = [r < star_tol * fscale for r in vertex_res]
    if defect > warn_tol * fscale and not all(reliable_v):
        bad = sum(1 for r in reliable_v if not r)
        warnings.warn(
            f"F is not s-holomorphic at {bad} vertices (worst residual "
            f"{defect:.2e}); their corner relations are excluded from the "
            "loop defect", stacklevel=2)

    nodes = [("v", i) for i in range(g.nv)] + [("f", j) for j in range(len(g.faces))]
    index = {nid: i for i, nid in enumerate(nodes)}
    darts = np.arange(g.nd)
    inc_l = 2.0 * np.abs(_proj(F[darts >> 1], _line_plus(g, darts))) ** 2
    inc_r = 2.0 * np.abs(_proj(F[darts >> 1], _line_minus(g, darts))) ** 2
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
    if base_point is None:
        base_point = ("v", 0)
    h[index[base_point]] = 0.0
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
        hf = HFunction(g, F, {}, base_point, 0.0, None, defect)
        adj = [[(g.terminus(d), d, tuple(g.shift[d].tolist()))
                for d in g.darts_at[u]] for u in range(g.nv)]
        for target in ((1, 0), (0, 1)):
            cyc = cycle_with_winding(adj, target)
            periods.append(float(sum(hf.edge_increment(d) for d in cyc)))

    values = {nid: float(h[index[nid]]) for nid in nodes}
    return HFunction(g, F, values, base_point, loop_residual, periods, defect)


def laplacian_of_H(g, h):
    """Laplacians of the primitive on both vertex classes, from the increments.

    Uses the local increment formulas, so the values are meaningful on the
    torus as well (where H itself is multivalued).  Returns (primal, dual)
    arrays; on critical isoradial data the primal values are <= 0 and the dual
    values >= 0 wherever F is s-holomorphic.
    """
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
            # dual dart from f crosses d toward face_of(rev d);
            # H(f) - H(other) = -(H(left of rev d) - H(right of rev d)) ...
            # the dual increment of dart (rev d) runs face(rev d) <- face(d)=f
            acc += math.tan(math.pi / 2 - theta[d >> 1]) * (
                h.dual_edge_increment(d ^ 1))
        dual[f] = acc / mu
    return primal, dual


# -- the equivalence suite ------------------------------------------------------


def verify_sholo(g, draws=50, seed=0, include_dbar=None):
    """Verdict agreement of the kernel characterizations of s-holomorphicity.

    For random midpoint functions all the normalized kernel norms must be
    large; for kernel-derived functions (when the operator is singular) all
    must be small.  ``include_dbar`` adds the isoradial dbar criterion
    (default: when the data is isoradial).
    """
    from .derived import isoradial_data

    rng = np.random.default_rng(seed)
    c = build_C(g)
    kw = kac_ward(g)
    kom_real = kasteleyn(c, None, "omega").real
    if include_dbar is None:
        try:
            isoradial_data(g)
            include_dbar = True
        except GraphError:
            include_dbar = False
    dbar = None
    if include_dbar:
        dbar, _ = dirac_C(c, field="edge", phi_c=phi_omega(c))

    rotF = cmath.exp(0.25j * math.pi)

    def norms(F):
        F = np.asarray(F, dtype=complex)
        scale = max(np.max(np.abs(F)), 1e-30)
        sp = spinor_maps(g, F, c)
        out = {
            "sholo": sholo_residual_all(g, rotF * F) / scale,
            "kw_S": max_norm(kw @ map_S(g, F)) / scale,
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

    kernel_funcs = kernel_observables(g)
    for i, F in enumerate(kernel_funcs):
        # kernel functions carry the exp(i pi/4) factor already; undo it for
        # the map-based norms
        ns = norms(np.asarray(F) / rotF)
        small = all(v < 1e-7 for v in ns.values())
        agree = agree and small
        checks.append({"kernel_function": i, **ns, "verdict_agrees": small})

    return {"draws": checks, "n_kernel_functions": len(kernel_funcs),
            "pass": agree}
