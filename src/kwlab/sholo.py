"""s-holomorphic functions on edge midpoints: residuals, spinor maps, observables.

A midpoint function F is s-holomorphic around a vertex when its projections
onto the rotating half-angle lines match across consecutive darts; the module
provides the defining residual, the real-linear maps S (into dart functions)
and T, T', and their pointwise variants (into corner spinors), fermionic
observables built either from the inverse Kac-Ward operator or from marked
two-leg configurations, kernel-derived globally s-holomorphic functions, and
the discrete primitive H of Im(F^2 dz).

H lives on Lambda as ``derived.DGraph.lam`` numbers it (vertices 0..V-1, then
faces V..V+F-1); its corner relations are dart arrays solved along one
spanning tree that crosses the relations at s-holomorphic vertices first.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import _draw_chunks, max_norm, normals, stream_key
from .surface_graph import GraphError, SizeGuardError, generator_cycles
from .derived import build_C, half_angle_phases, isoradial_data
from .operators import (dirac_C, kac_ward, kac_ward_kernel,
                        kac_ward_kernel_solve, kasteleyn, phi_omega,
                        sqrt_det_pfaffian)
from .oracle import INV_GUARD, _entry_terms, _sum_terms


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
    """Projection-matching defect of each dart in ``d`` (default: all);
    leading axes of ``F`` stack."""
    F = np.asarray(F, dtype=complex)
    d = np.arange(g.nd) if d is None else np.asarray(d, dtype=int)
    d2 = g.rot[d]
    lhs = _proj(F[..., d >> 1], _line_plus(g, d) + branch)
    rhs = _proj(F[..., d2 >> 1], _line_minus(g, d2) + branch)
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


def map_S(g, F):
    """Real-linear map into dart functions: sin(theta/2) times the projection
    of F(z_e) onto the line exp(-i a_e / 2) R; leading axes of F stack."""
    k = np.arange(g.nd) >> 1
    return np.sin(0.5 * g.theta[k]) * _proj(
        np.asarray(F, dtype=complex)[..., k], -0.5 * g.a_angles())


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
    Leading axes of F stack.
    """
    if c is None:
        c = build_C(g)
    F = np.asarray(F, dtype=complex)
    dh = half_angle_phases(g)
    k = np.arange(g.nd) >> 1
    term = (dh * np.sin(0.5 * g.theta[k]) * F[..., k]).real
    # T[b] sums the terms around the star of o(b), from b counterclockwise,
    # each signed by the corner signs passed so far; all stars advance
    # together, those of smaller degree adding nothing once closed
    deg = np.bincount(g.origin)[g.origin]
    d = np.arange(g.nd)
    sign = np.ones(g.nd)
    t = np.zeros(term.shape)
    for step in range(int(deg.max(initial=0))):
        t += np.where(step < deg, sign * term[..., d], 0.0)
        sign *= c.epsilon[d]
        d = g.rot[d]
    t_tilde = (1j * dh * np.exp(-0.5j * g.theta[k]) * F[..., k]).real
    rot = np.exp(0.5j * g.theta[k])
    return {"T": t, "T_tilde": t_tilde,
            "T_prime": rot * t, "T_tilde_prime": rot * t_tilde}


# -- fermionic observables -------------------------------------------------------


def observable(g, e0, backend="auto", x=None):
    """Two-point fermionic observable pinned at the dart e0.

    ``backend='inverse'`` reads the column of sqrt(det KW) KW^{-1} at rev(e0)
    and assembles F through the inverse of map_S.  It needs all weights
    positive and KW regular, as ``kac_ward_kernel`` decides, and takes the
    column of the half-angle M = I - X T' from the factorization that
    decides it (``kac_ward_kernel_solve``).
    ``backend='combinatorial'`` sums marked two-leg
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
        sn = np.sin(np.arctan(xs))      # sin(theta / 2), theta = 2 arctan x
        if np.any(sn < 1e-14):
            raise GraphError("inverse backend needs positive weights")
        # the signed root squares to det KW, so no LU determinant is needed
        s = sqrt_det_pfaffian(g, None, xs)
        # KW(1, 1) = H^-1 M H with H = diag(h), h = exp(i dirang / 2), so
        # KW^-1 e_r = h_r conj(h) M^-1 e_r: the real column comes from the
        # factorization that decides the kernel
        rhs = np.zeros((g.nd, 1))
        rhs[e0 ^ 1] = 1.0
        dim, y = kac_ward_kernel_solve(g, rhs, xs)[2:]
        if dim:
            raise GraphError("Kac-Ward operator is singular; use the "
                             "combinatorial backend")
        h = np.exp(0.5j * g.dirang)
        f = s * h[e0 ^ 1] * h.conj() * y[:, 0]
        return pref * (f[0::2] + f[1::2]) / sn

    if backend != "combinatorial":
        raise GraphError(f"unknown backend {backend!r}")
    if g.ne > INV_GUARD:
        raise SizeGuardError("combinatorial observable capped at "
                             f"{INV_GUARD} edges")
    theta = 2.0 * np.arctan(np.asarray(xs, dtype=float))
    k0 = e0 >> 1
    rest = np.arange(g.ne) != k0
    # the configurations of the inverse coefficients (e0, e_in) for the two
    # darts e_in of every other edge, without the weight x_{e0} and with the
    # walk phase conjugated, then the diagonal (even-subgraph) term at the
    # pinned midpoint
    terms = _entry_terms(g, [(e0, d) for d in range(g.nd) if rest[d >> 1]]
                         + [(e0 ^ 1, e0 ^ 1)])
    sums = _sum_terms(g, [(m ^ 1 << k0, np.conj(f)) for m, f in terms[:-1]]
                      + terms[-1:], xs)
    out = np.zeros(g.ne, dtype=complex)
    out[rest] = pref * sums[:-1].reshape(-1, 2).sum(axis=-1) / np.cos(
        0.5 * theta[rest])
    sn = math.sin(0.5 * theta[k0])
    # convention: the pinned midpoint of a zero-weight edge carries no value
    if sn >= 1e-14:
        out[k0] = pref * sums[-1] / sn
    return out


#: a null vector r is kept when max|KW H^-1 r| <= KERNEL_CHECK_TOL max|r|
KERNEL_CHECK_TOL = 1e-7


def kernel_observables(g):
    """Globally s-holomorphic functions pulled back from the Kac-Ward kernel.

    The kernel is the one ``kac_ward_kernel`` decides: its right basis
    vectors r of the real I - X T' span ker KW on the dart lines as H^-1 r.
    Each r, signed so that its largest entry is positive and checked against
    the complex KW, gives exp(i pi/4) S^-1(H^-1 r): a deterministic real
    basis of the s-holomorphic functions, two on a critical torus and none
    when KW is invertible.
    """
    # the kernel's temporaries are freed before the dense KW is built, so
    # the two never hold heap pages at once
    _, v0, _ = kac_ward_kernel(g)
    kw = kac_ward(g)
    h_inv = np.exp(-0.5j * g.dirang)
    found = []
    for r in v0.T:
        cand = h_inv * r * np.sign(r[np.argmax(np.abs(r))])
        if max_norm(kw @ cand) <= KERNEL_CHECK_TOL * max_norm(cand):
            found.append(cmath.exp(0.25j * math.pi) * map_S_inverse(g, cand))
    return found


# -- the integral of F^2 ------------------------------------------------------------

#: the Lambda node where H = 0: vertex 0
BASE_POINT = 0
#: vertex residuals, relative to max(1, max|F|), above which F draws a
#: warning and below which the corner relations of a vertex are trusted
WARN_TOL, STAR_TOL = 1e-6, 1e-8


@dataclass
class HFunction:
    """Discrete primitive of Im(F^2 dz): ``values[i]`` is H at Lambda node i.

    On the torus H is multivalued: ``periods`` are its increments along the
    two homology generators, never forced to zero (None where F is not
    s-holomorphic on their walks), and ``loop_residual`` is 0.
    """

    F: np.ndarray
    values: np.ndarray
    loop_residual: float
    periods: list | None
    sholo_defect: float


def primal_increments(g, F, darts):
    """H(terminus) - H(origin) = Im(2 cos(theta) D F^2) along each dart of
    ``darts``, with D = exp(i dirang) and F at the dart's midpoint."""
    darts = np.asarray(darts)
    k = darts >> 1
    return (2.0 * np.cos(g.theta[k]) * np.exp(1j * g.dirang[darts])
            * np.asarray(F, dtype=complex)[k] ** 2).imag


def _tree_solve(head, tail, inc, trusted, n):
    """H over n nodes from relations H[head] - H[tail] = inc, along one tree.

    From BASE_POINT the tree crosses, level by level, every trusted relation
    that leaves the reached set; when none is left it crosses the
    lowest-numbered relation that does, and repeats.  Within a level the
    lowest-numbered relation to a node wins.  Unreached nodes stay NaN.
    """
    h = np.full(n, np.nan)
    h[BASE_POINT] = 0.0
    reached = np.zeros(n, dtype=bool)
    reached[BASE_POINT] = True
    while not reached.all():
        leaving = reached[head] != reached[tail]
        rel = np.flatnonzero(leaving & trusted)
        if rel.size == 0:
            rel = np.flatnonzero(leaving)[:1]
            if rel.size == 0:
                break
        from_head = reached[head[rel]]
        node, first = np.unique(np.where(from_head, tail[rel], head[rel]),
                                return_index=True)
        rel, from_head = rel[first], from_head[first]
        h[node] = np.where(from_head, h[head[rel]] - inc[rel],
                           h[tail[rel]] + inc[rel])
        reached[node] = True
    return h


def _homology_walks(g):
    """Dart walks from vertex 0 winding once around each torus generator."""
    term = g.origin[np.arange(g.nd) ^ 1].tolist()
    shift = [tuple(s) for s in g.shift.tolist()]
    adj = [[(term[d], d, shift[d]) for d in darts] for darts in g.darts_at]
    return generator_cycles(adj)


def integrate_square(g, F):
    """Integrate the corner increments of an s-holomorphic F into H.

    Dart d gives relations 2d and 2d + 1 at its origin v:
    H(v) - H(face left of d) and H(v) - H(face right of d) are twice the
    squared projections of F(z) onto the lines ``_line_plus(d)`` and
    ``_line_minus(d)``.  The four relations around one midpoint close
    identically; those around a vertex star close where F is s-holomorphic,
    and only there are they trusted.  H is solved along the trusted-first
    spanning tree of ``_tree_solve`` from vertex 0, so untrusted relations
    (patch boundaries, observable pinning points) only reach nodes that
    trusted ones cannot.  ``loop_residual`` is the worst defect of a trusted
    relation on the plane; on the torus the primal homology periods are
    returned instead, or None when a vertex on either homology walk is
    untrusted.
    """
    F = np.asarray(F, dtype=complex)
    fscale = max(1.0, float(np.max(np.abs(F))))
    vertex_res = vertex_residuals(g, F)
    defect = float(np.max(vertex_res, initial=0.0))
    trusted_v = vertex_res < STAR_TOL * fscale
    bad = np.flatnonzero(~trusted_v)
    if defect > WARN_TOL * fscale and bad.size:
        # the first few ids, and the worst vertex
        more = ", ..." if bad.size > 5 else ""
        ids = ", ".join(map(str, bad[:5].tolist())) + more
        warnings.warn(
            f"F is not s-holomorphic at {bad.size} vertices ({ids}); the "
            f"worst is vertex {int(np.argmax(vertex_res))}, residual "
            f"{defect:.2e}; their corner relations are excluded from the "
            "loop defect", stacklevel=2)

    d = np.arange(g.nd)
    head = np.repeat(g.origin, 2)
    tail = g.nv + np.column_stack([g.face_of, g.face_of[d ^ 1]]).ravel()
    proj = np.column_stack([_proj(F[d >> 1], _line_plus(g, d)),
                            _proj(F[d >> 1], _line_minus(g, d))])
    inc = 2.0 * np.abs(proj.ravel()) ** 2
    trusted = np.repeat(trusted_v[g.origin], 2)
    h = _tree_solve(head, tail, inc, trusted, g.nv + len(g.faces))
    if np.isnan(h).any():
        raise GraphError("increment graph is disconnected")

    loop_residual = 0.0
    if g.surface == "planar":
        loop_residual = float(np.max(np.abs(h[head] - h[tail] - inc)[trusted],
                                     initial=0.0))
    periods = None
    if g.genus == 1:
        walks = _homology_walks(g)
        # a walk through a vertex where F is not s-holomorphic sums no period
        if all(trusted_v[g.origin[w]].all() for w in walks):
            periods = [float(sum(primal_increments(g, F, w).tolist()))
                       for w in walks]
    return HFunction(F, h, loop_residual, periods, defect)


# -- the equivalence suite ------------------------------------------------------


def verify_sholo(g, draws=50, seed=0):
    """Verdict agreement of the kernel characterizations of s-holomorphicity.

    For random midpoint functions all the normalized kernel norms must be
    large; for kernel-derived functions (when the operator is singular) all
    must be small.  Isoradial data adds the dbar criterion.  Draw t is the
    ``linalg.normals`` rows 2t, 2t + 1 from counter 4 ne t (real, imaginary);
    the draws run as stacks of at most ``linalg._DRAW_CHUNK_BYTES``, each
    criterion norm one matrix product against a chunk's mapped draws.
    S drops an edge with sin(theta/2) = 0, so, as in ``map_S_inverse``,
    such an edge is a GraphError.
    """
    bad = np.flatnonzero(np.sin(0.5 * g.theta) < 1e-14)
    if bad.size:
        raise GraphError("the s-holomorphicity criteria need positive "
                         f"weights; edge {bad[0]} has sin(theta/2) < 1e-14")
    key = stream_key(seed)
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
        """Each criterion's norm for every row of the stack F, as a list."""
        scale = np.maximum(_max_rows(F), 1e-30)
        sp = spinor_maps(g, F, c)
        crit = {"sholo": _max_rows(_dart_residuals(g, rotF * F)),
                "kw_S": _max_rows(map_S(g, F) @ kw.T),
                "kasteleyn_T": _max_rows(sp["T"] @ kom_real.T)}
        if dbar is not None:
            crit["dbar_Tprime"] = _max_rows(sp["T_tilde_prime"] @ dbar.T)
        return {k: (v / scale).tolist() for k, v in crit.items()}

    checks = []
    agree = True
    # the draws, their S, T, T~ and T~' maps and three products
    for lo, hi in _draw_chunks(draws, 16 * 12 * g.nd):
        z = normals(key, 4 * g.ne * lo, 2 * (hi - lo), g.ne)
        ns = norms(z[0::2] + 1j * z[1::2])
        for t, vals in zip(range(lo, hi), zip(*ns.values())):
            big = all(v > 1e-3 for v in vals)
            small = all(v < 1e-8 for v in vals)
            agree = agree and (big or small)
            checks.append({"draw": t, **dict(zip(ns, vals)),
                           "verdict_agrees": big or small})

    kernel_funcs = kernel_observables(g)
    if kernel_funcs:
        # kernel functions carry the exp(i pi/4) factor already; undo it for
        # the map-based norms
        ns = norms(np.asarray(kernel_funcs) / rotF)
        for i, vals in enumerate(zip(*ns.values())):
            small = all(v < 1e-7 for v in vals)
            agree = agree and small
            checks.append({"kernel_function": i, **dict(zip(ns, vals)),
                           "verdict_agrees": small})

    return {"draws": checks, "n_kernel_functions": len(kernel_funcs),
            "pass": agree}


def _max_rows(a):
    """The max-norm of each row of a stack (0 for an empty row)."""
    return np.max(np.abs(a), axis=-1, initial=0.0)
