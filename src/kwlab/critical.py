"""Toric criticality: spectral curve, critical temperature, modular parameter,
free energy, and the generalized Kramers-Wannier duality checks."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import lu_det
from .surface_graph import GraphError, character_cochain, dual, shift_character
from .operators import kac_ward, kw_dets, sqrt_det_pfaffian
from .oracle import ARF_SIGNS_GENUS1

#: the initial root bracket of ``critical_beta``, widened if it has no sign change
ROOT_BRACKET_LO = 1e-6
ROOT_BRACKET_HI = 50.0
BRENT_MAX_ITER = 200


def spectral_curve(g, z, w, x=None):
    """det KW at the character (z, w); a Laurent polynomial on the torus."""
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    phi = character_cochain(g, z, w)
    return lu_det(kac_ward(g, phi, x))


def spectral_grid(g, n, x=None):
    """Sample the curve on the half-offset n x n grid over the unit torus.

    Returns (phi1, phi2, P) arrays; the offset avoids the (1, 1) zero at
    criticality.  All n^2 determinants are one ``kw_dets`` stack.
    """
    if n < 1:
        raise GraphError(f"grid size must be at least 1, got {n}")
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    units = np.array([cmath.exp(1j * a) for a in angles])
    # every node is bitwise the spectral_curve value there
    phi = shift_character(g.shift, units[:, None], units[None, :])
    vals = kw_dets(g, phi, g.x if x is None else x)
    return angles, angles.copy(), vals


def critical_beta(g, j=None, tol=1e-12, trace=None):
    """Inverse temperature at which the signed square root at (1, 1) vanishes.

    The Pfaffian signed root (``sqrt_det_pfaffian``) is positive below and
    negative above the critical point; Brent's method finds its sign change
    in [1e-6, 50], with automatic bracket expansion, to within ``tol`` (plus
    a few ulps of beta).  ``j`` defaults to couplings with tanh(j) equal to
    the stored weights.  ``trace``, if a list, collects the evaluated (beta,
    signed root) pairs.  A failed evaluation is re-raised with its beta.
    """
    if g.genus != 1:
        raise GraphError("criticality search needs a genus-1 graph")
    if j is None:
        if np.any(g.x <= 0.0) or np.any(g.x >= 1.0):
            raise GraphError("weights must be in (0,1) to infer couplings")
        j = np.arctanh(g.x)
    j = np.asarray(j, dtype=float)
    if np.any(j <= 0):
        raise GraphError("couplings must be positive")

    def s(beta):
        try:
            val = sqrt_det_pfaffian(g, None, np.tanh(beta * j))
        except GraphError as exc:
            raise GraphError(f"{exc} at beta = {beta:.17g}") from exc
        if trace is not None:
            trace.append((beta, val))
        return val

    lo, hi = ROOT_BRACKET_LO, ROOT_BRACKET_HI
    s_lo, s_hi = s(lo), s(hi)
    grow = 0
    while s_lo * s_hi > 0 and grow < 8:
        lo /= 10.0
        hi *= 2.0
        s_lo, s_hi = s(lo), s(hi)
        grow += 1
    if s_lo * s_hi > 0:
        raise GraphError("no sign change of the signed square root in the "
                         "root bracket; weights look pathological")
    beta_c = _brent(s, lo, hi, s_lo, s_hi, tol)
    p11 = spectral_curve(g, 1.0, 1.0, np.tanh(beta_c * j))
    return {"beta_c": beta_c, "P11": abs(p11)}


def _brent(f, a, b, fa, fb, tol):
    """Zero of f in [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Brent's zeroin: inverse quadratic or secant steps while they stay inside
    the bracket and shrink it fast enough, bisection otherwise.  b is the best
    iterate and c the other end of the bracket; the loop stops once the
    bracket is at most tol + 4 eps |b| wide.
    """
    eps = np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    for _ in range(BRENT_MAX_ITER):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    return b


def criticality_report(g, j=None, n=32):
    """Full criticality summary: beta_c with its root-finder trace, the Hessian
    and modular parameter at the critical weights, and the free energy there.

    Invariants: Im(tau) > 0 and a symmetric Hessian (both guaranteed by the
    constituent routines).
    """
    if j is None:
        if np.any(g.x <= 0.0) or np.any(g.x >= 1.0):
            raise GraphError("weights must be in (0,1) to infer couplings")
        j = np.arctanh(g.x)
    j = np.asarray(j, dtype=float)
    trace = []
    root = critical_beta(g, j, trace=trace)
    xc = np.tanh(root["beta_c"] * j)
    hess = hessian_tau(g, x=xc)
    fe = free_energy(g, x=xc, n=n)
    return {
        "beta_c": root["beta_c"],
        "P11": root["P11"],
        "P11_trace": trace,
        "tau": hess["tau"],
        "hessian": hess["hessian"],
        "A_z": hess["A_z"],
        "A_w": hess["A_w"],
        "B": hess["B"],
        "free_energy": fe["free_energy"],
        "quadrature_size": 2 * n,
    }


def hessian_tau(g, x=None, h=1e-4):
    """Hessian of the spectral curve at (1, 1) and the modular parameter.

    Central differences in the real (z, w) coordinates with one Richardson
    extrapolation step; tau is the root of A_w t^2 + 2 B t + A_z in the upper
    half plane.  Requires (approximately) critical weights so that the
    discriminant A_z A_w - B^2 is positive.  The 17 distinct stencil points
    are one ``kw_dets`` stack, bitwise the ``spectral_curve`` values there.
    """
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    points = list(dict.fromkeys(
        (1 + a * step, 1 + b * step) for step in (h, h / 2)
        for a in (-1, 0, 1) for b in (-1, 0, 1)))
    z, w = np.array(points).T
    vals = kw_dets(g, shift_character(g.shift, z, w), g.x if x is None else x)
    p = dict(zip(points, vals.real))

    def stencil(step):
        azz = (p[1 + step, 1] - 2 * p[1, 1] + p[1 - step, 1]) / step ** 2
        aww = (p[1, 1 + step] - 2 * p[1, 1] + p[1, 1 - step]) / step ** 2
        b = (p[1 + step, 1 + step] - p[1 + step, 1 - step]
             - p[1 - step, 1 + step] + p[1 - step, 1 - step]) / (4 * step ** 2)
        return np.array([azz, aww, b])

    coarse = stencil(h)
    fine = stencil(h / 2)
    azz, aww, b = (4.0 * fine - coarse) / 3.0
    disc = azz * aww - b * b
    if disc <= 0:
        raise GraphError("Hessian discriminant is not positive; the weights "
                         "are not critical")
    root = (-b + 1j * math.sqrt(disc)) / aww
    tau = root if root.imag > 0 else root.conjugate()
    hessian = np.array([[azz, b], [b, aww]])
    return {"hessian": hessian, "A_z": azz, "A_w": aww, "B": b, "tau": tau}


def free_energy(g, j=None, beta=None, n=64, x=None):
    """Free energy per fundamental domain via the log-integral of the curve.

    f = V log 2 + sum_e log cosh(beta J_e) + (1 / 8 pi^2) Int log P.  The
    integral is a tensor trapezoid on half-offset n x n and 2n x 2n grids (the
    offset keeps the integrable zero at (1,1) off the grid at criticality);
    both values are returned as a self-convergence estimate.
    """
    if g.genus != 1:
        raise GraphError("free energy needs a genus-1 graph")
    if x is None:
        if beta is None:
            xs = g.x
            if np.any(xs <= 0) or np.any(xs >= 1):
                raise GraphError("weights must be in (0,1)")
            coupling_term = float(np.sum(np.log(np.cosh(np.arctanh(xs)))))
        else:
            if j is None:
                j = np.arctanh(g.x)
            j = np.asarray(j, dtype=float)
            xs = np.tanh(beta * j)
            coupling_term = float(np.sum(np.log(np.cosh(beta * j))))
    else:
        xs = np.asarray(x, dtype=float)
        coupling_term = float(np.sum(np.log(np.cosh(np.arctanh(xs)))))

    def log_integral(nn):
        _, _, vals = spectral_grid(g, nn, xs)
        if np.max(np.abs(vals.imag)) > 1e-8 * max(1.0, np.max(np.abs(vals))):
            raise GraphError("spectral curve is not real on the unit torus")
        re = vals.real
        if np.any(re <= 0):
            raise GraphError("log of a nonpositive curve value on the grid")
        return float(np.sum(np.log(re))) / nn ** 2

    i_n = log_integral(n)
    i_2n = log_integral(2 * n)
    base = g.nv * math.log(2.0) + coupling_term
    return {
        "free_energy": base + 0.5 * i_2n,
        "free_energy_coarse": base + 0.5 * i_n,
        "grid": n,
        "convergence_estimate": abs(i_2n - i_n) / 2.0,
    }


def duality_check(g, draws=10, seed=0):
    """Kramers-Wannier duality of the Kac-Ward determinants against the dual graph.

    Checks 2^V prod(1+x)^-1 det KW^phi(G, x) = 2^V* prod(1+x*)^-1
    det KW^phi(G*, x*) over random unitary characters, and the square-root
    version with Arf signs at the four +-1 characters (minus exactly at the
    trivial one), from the Pfaffian signed roots.  Torus graphs only: the
    planar dual has no valid angle data for the constant reference field.
    """
    if g.genus != 1:
        raise GraphError("duality check supports genus-1 graphs (the planar "
                         "dual needs user-supplied angle data)")
    gd = dual(g)
    rng = np.random.default_rng(seed)
    pref = 2.0 ** g.nv / np.prod(1.0 + g.x)
    pref_d = 2.0 ** gd.nv / np.prod(1.0 + gd.x)
    checks = []
    worst = 0.0
    for t in range(draws):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        lhs = pref * lu_det(kac_ward(g, character_cochain(g, z, w)))
        rhs = pref_d * lu_det(kac_ward(gd, character_cochain(gd, z, w)))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, rel)
        checks.append({"z": z, "w": w, "rel_residual": rel})

    sign_pattern = {}
    pref_h = 2.0 ** (g.nv / 2.0) / math.sqrt(float(np.prod(1.0 + g.x)))
    pref_hd = 2.0 ** (gd.nv / 2.0) / math.sqrt(float(np.prod(1.0 + gd.x)))
    for zw in ARF_SIGNS_GENUS1:
        s = pref_h * sqrt_det_pfaffian(g, character_cochain(g, *zw).values)
        sd = pref_hd * sqrt_det_pfaffian(gd, character_cochain(gd, *zw).values)
        if abs(sd) < 1e-12:
            sign_pattern[zw] = 0.0
        else:
            sign_pattern[zw] = s / sd
    return {
        "unitary_residual_max": worst,
        "unitary_checks": checks,
        "sqrt_sign_pattern": sign_pattern,
        "pass": worst < 1e-9 and _sign_pattern_ok(sign_pattern),
    }


def _sign_pattern_ok(pattern):
    for zw, val in pattern.items():
        want = -1.0 if zw == (1, 1) else 1.0
        if val == 0.0:
            continue  # degenerate (critical) point; no sign information
        if abs(val - want) > 1e-6:
            return False
    return True
