"""Toric criticality: spectral curve, critical temperature, modular parameter,
free energy, and the generalized Kramers-Wannier duality checks."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import lu_det
from .surface_graph import GraphError, character_cochain, dual, shift_character
from .operators import (KERNEL_TOL, kac_ward, kac_ward_kernel, kw_dets,
                        sqrt_det_pfaffian)
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
    return {**root, "P11_trace": trace, **hessian_tau(g, x=xc),
            "free_energy": free_energy(g, x=xc, n=n)["free_energy"],
            "quadrature_size": 2 * n}


def hessian_tau(g, x=None):
    """Hessian of the spectral curve at (1, 1) and the modular parameter.

    Exact, from the kernel of M = KW(1, 1) (``kac_ward_kernel``); GraphError
    unless it is 2-dimensional, that is unless the weights are critical.
    For M = U diag(sigma) V^T with null columns W0 of U and V0 of V, first-
    order perturbation of the corank-2 determinant gives P(1 + a t, 1 + b t)
    = c t^2 det(a Mz + b Mw) + O(t^3), with Mz = W0^T Dz V0 for the
    z-derivative Dz = -diag(s1) X T' of M (Mw with s2) and c = det U det V^T
    prod(nonzero sigma).  As X T' = I - M and M V0 = W0 diag(sigma_n-1,
    sigma_n), Mz = -W0^T diag(s1) V0 up to the two kernel singular values,
    so no transition is read.  tau is the root of A_w t^2 + 2 B t + A_z in
    the upper half plane.
    """
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    u, sig, vt, dim = kac_ward_kernel(g, xs)
    if dim != 2:
        raise GraphError(
            f"weights are not critical: KW(1, 1) has a {dim}-dimensional "
            f"kernel (sigma_n-1 / sigma_1 = {sig[-2] / sig[0]:.3g}), not 2")
    w0, v0 = u[:, -2:], vt[-2:].T
    mz, mw = (-(w0 * s[:, None]).T @ v0 for s in g.shift.T)
    c = np.linalg.det(u) * np.linalg.det(vt) * np.prod(sig[:-2])
    det_z, det_w, det_zw = np.linalg.det(np.array([mz, mw, mz + mw]))
    azz, aww, b = 2.0 * c * det_z, 2.0 * c * det_w, c * (det_zw - det_z - det_w)
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
    if beta is not None and not math.isfinite(beta):
        raise GraphError(f"beta must be finite, got {beta}")
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
    trivial one), from the Pfaffian signed roots.  A root on G* at most
    ``KERNEL_TOL`` times the largest one at the other characters is rounding
    noise (the kernel of KW(1, 1) at criticality): its sign is reported as 0.
    Torus graphs only: the planar dual has no valid angle data for the
    constant reference field.
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

    def root(h, zw):
        pref = 2.0 ** (h.nv / 2.0) / math.sqrt(float(np.prod(1.0 + h.x)))
        return pref * sqrt_det_pfaffian(h, character_cochain(h, *zw).values)

    s = {zw: root(g, zw) for zw in ARF_SIGNS_GENUS1}
    sd = {zw: root(gd, zw) for zw in ARF_SIGNS_GENUS1}
    sign_pattern = {}
    for zw in ARF_SIGNS_GENUS1:
        scale = max(abs(v) for k, v in sd.items() if k != zw)
        degenerate = abs(sd[zw]) <= KERNEL_TOL * scale
        sign_pattern[zw] = 0.0 if degenerate else s[zw] / sd[zw]
    return {
        "unitary_residual_max": worst,
        "unitary_checks": checks,
        "sqrt_sign_pattern": sign_pattern,
        # a degenerate point (0) carries no sign information
        "pass": worst < 1e-9 and all(
            v == 0.0 or abs(v - (-1.0 if zw == (1, 1) else 1.0)) <= 1e-6
            for zw, v in sign_pattern.items()),
    }

