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
from .surface_graph import GraphError
from .derived import build_C, half_angle_phases
from .operators import dirac_C, kac_ward, kasteleyn, phi_omega, sqrt_det_tracked
from .oracle import (_config_weight, enumerate_parity, inverse_coefficient,
                     q_sign, resolve, rot_of_path)


def _proj(z, angle):
    """Orthogonal projection of z onto the real line through exp(i angle)."""
    u = cmath.exp(1j * angle)
    return u * (z * u.conjugate()).real


def _line_plus(g, d):
    """Angle of the line [i exp(i(a + theta))]^(-1/2) for a dart."""
    return -0.5 * (math.pi / 2 + g.dirang[d] + g.theta[d >> 1])


def _line_minus(g, d):
    """Angle of the line [i exp(i(a - theta))]^(-1/2) for a dart."""
    return -0.5 * (math.pi / 2 + g.dirang[d] - g.theta[d >> 1])


def sholo_residual(g, F, v, branch=0.0):
    """Defect of the projection-matching condition at a vertex.

    Zero exactly when F is s-holomorphic around v.  ``branch`` adds pi to the
    square-root angles; the result is branch independent (lines are).
    """
    F = np.asarray(F, dtype=complex)
    beta = g.beta()
    worst = 0.0
    for d in g.darts_at[v]:
        d2 = int(g.rot[d])
        th1 = g.theta[d >> 1]
        th2 = g.theta[d2 >> 1]
        lhs = _proj(F[d >> 1], _line_plus(g, d) + branch)
        rhs = _proj(F[d2 >> 1], _line_minus(g, d2) + branch)
        rhs *= cmath.exp(0.5j * (beta[d] - th1 - th2))
        worst = max(worst, abs(lhs - rhs))
    return worst


def sholo_residual_all(g, F, branch=0.0):
    return max(sholo_residual(g, F, v, branch) for v in range(g.nv))


def map_S(g, F):
    """Real-linear map into dart functions: sin(theta/2) times the projection
    of F(z_e) onto the line exp(-i a_e / 2) R."""
    F = np.asarray(F, dtype=complex)
    a = g.a_angles()
    out = np.empty(g.nd, dtype=complex)
    for d in range(g.nd):
        out[d] = math.sin(0.5 * g.theta[d >> 1]) * _proj(F[d >> 1], -0.5 * a[d])
    return out


def map_S_inverse(g, f):
    """Inverse of map_S on its image: F(z_e) = (f(e) + f(rev e)) / sin(theta/2)."""
    f = np.asarray(f, dtype=complex)
    out = np.empty(g.ne, dtype=complex)
    for k in range(g.ne):
        s = math.sin(0.5 * g.theta[k])
        if s < 1e-14:
            raise GraphError("map_S is not invertible on zero-weight edges")
        out[k] = (f[2 * k] + f[2 * k + 1]) / s
    return out


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


def star_identity_residual(g, F, c=None):
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


# -- fermionic observables -------------------------------------------------------


def observable(g, e0, backend="auto", x=None):
    """Two-point fermionic observable pinned at the dart e0.

    ``backend='inverse'`` reads the column of sqrt(det KW) KW^{-1} at rev(e0)
    and assembles F through the inverse of map_S (needs det KW != 0 and all
    weights positive).  ``backend='combinatorial'`` sums marked two-leg
    configurations with rotation phases (size-guarded, works at x = 0).  The
    result is s-holomorphic around every vertex not touching e0.
    """
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
        s = sqrt_det_tracked(g, None, xs)
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
        total = 0.0 + 0j
        for e_in in (2 * k, 2 * k + 1):
            t1, o2 = g.terminus(e0), int(g.origin[e_in])
            odd = [] if t1 == o2 else [t1, o2]
            for mask in enumerate_parity(g, odd, excluded=[k0, k]):
                res = resolve(g, mask, marks=(e0, e_in))
                sgn = q_sign(g, res)
                ro = rot_of_path(g, res.path, res.path_start, res.path_end)
                total += sgn * cmath.exp(-0.5j * ro) * _config_weight(g, mask, xs)
        out[k] = pref * total / math.cos(0.5 * theta[k])
    return out


def kernel_observables(g, tol=1e-7):
    """Globally s-holomorphic functions pulled back from the Kac-Ward kernel.

    Numerical kernel vectors need not respect the real dart-line structure, so
    each is projected onto it (both for the vector and i times it) and kept
    only if the projection stays in the kernel.  Returns a list of midpoint
    functions F with the projection matching condition holding at every
    vertex; empty when the operator is invertible.
    """
    kw = kac_ward(g)
    kern = null_space(kw, tol=1e-8)
    a = g.a_angles()
    found = []
    for u in kern:
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
    vertex_res = [sholo_residual(g, F, v) for v in range(g.nv)]
    defect = max(vertex_res)
    reliable_v = [r < star_tol * fscale for r in vertex_res]
    if defect > warn_tol * fscale and not all(reliable_v):
        bad = sum(1 for r in reliable_v if not r)
        warnings.warn(
            f"F is not s-holomorphic at {bad} vertices (worst residual "
            f"{defect:.2e}); their corner relations are excluded from the "
            "loop defect", stacklevel=2)

    nodes = [("v", i) for i in range(g.nv)] + [("f", j) for j in range(len(g.faces))]
    index = {nid: i for i, nid in enumerate(nodes)}
    rels = []  # (primal node, face node, H(v) - H(f), reliable)
    for d in range(g.nd):
        vid = int(g.origin[d])
        v = index[("v", vid)]
        fl = index[("f", int(g.face_of[d]))]
        fr = index[("f", int(g.face_of[d ^ 1]))]
        ok = reliable_v[vid]
        rels.append((v, fl, 2.0 * abs(_proj(F[d >> 1], _line_plus(g, d))) ** 2, ok))
        rels.append((v, fr, 2.0 * abs(_proj(F[d >> 1], _line_minus(g, d))) ** 2, ok))

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
        for target in ((1, 0), (0, 1)):
            cyc = _primal_cycle_with_winding(g, target)
            periods.append(float(sum(hf.edge_increment(d) for d in cyc)))

    values = {nid: float(h[index[nid]]) for nid in nodes}
    return HFunction(g, F, values, base_point, loop_residual, periods, defect)


def _primal_cycle_with_winding(g, target):
    """Dart cycle in the graph with the given homology winding (lift BFS)."""
    start = (0, 0, 0)
    goal = (0, target[0], target[1])
    prev = {start: None}
    frontier = [start]
    bound = abs(target[0]) + abs(target[1]) + 2
    while frontier and goal not in prev:
        nxt = []
        for state in frontier:
            u, s1, s2 = state
            for d in g.darts_at[u]:
                t = (g.terminus(d), s1 + int(g.shift[d][0]), s2 + int(g.shift[d][1]))
                if abs(t[1]) > bound or abs(t[2]) > bound:
                    continue
                if t not in prev:
                    prev[t] = (state, d)
                    nxt.append(t)
        frontier = nxt
    if goal not in prev:
        raise GraphError(f"no primal cycle with winding {target}")
    cyc = []
    state = goal
    while prev[state] is not None:
        state, d = prev[state]
        cyc.append(d)
    cyc.reverse()
    return cyc


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
