"""Toric criticality: spectral curve, critical temperature, modular parameter,
free energy, and the two generalized Kramers-Wannier duality identities."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import stream_key, uniforms
from .surface_graph import (GraphError, SizeGuardError, character_cochain,
                            shift_character)
from .operators import (KERNEL_TOL, kac_ward_kernel, kac_ward_real, kw_dets,
                        kw_real_det, refined_kernel, sqrt_det_pfaffian)
from .oracle import ARF_SIGNS_GENUS1, arf_characters

#: the initial root bracket of ``critical_beta``, widened if it has no sign change
ROOT_BRACKET_LO = 1e-6
ROOT_BRACKET_HI = 50.0
BRENT_MAX_ITER = 200
#: character entries (grid points times darts) a spectral grid may hold;
#: 2^22 complex entries take 64 MiB
GRID_GUARD = 1 << 22


def _couplings(g):
    """Couplings J = arctanh(x) from the weights, which must lie in (0, 1)."""
    if np.any(g.x <= 0.0) or np.any(g.x >= 1.0):
        raise GraphError("weights must be in (0,1) to infer couplings")
    return np.arctanh(g.x)


def spectral_curve(g, z, w, x=None):
    """det KW at the character (z, w); a Laurent polynomial on the torus."""
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    phi = character_cochain(g, z, w)
    return complex(kw_dets(g, phi.values, g.x if x is None else x))


def _exponents(g):
    """z- and w-exponents det KW^(z, w) can carry, as two ``range``s, which
    allocate nothing before the size guards.

    Row d of KW carries z^s1_d w^s2_d off its diagonal, so every term of the
    determinant has z-exponent in [-sum max(-s1, 0), sum max(s1, 0)] (and
    likewise in w); float sums are exact below 2^53, far past GRID_GUARD.
    """
    return tuple(range(-int(np.maximum(-s, 0).sum(dtype=float)),
                       int(np.maximum(s, 0).sum(dtype=float)) + 1)
                 for s in g.shift.T)


def _unit_powers(k, m, exps):
    """exp(2 pi i k e / m) for the integers k (rows) and exps (columns),
    with k e reduced mod m so each phase is exact before the exponential."""
    return np.exp((2j * math.pi / m) * (np.outer(k, exps) % m))


def spectral_coefficients(g, x=None):
    """The spectral curve as its Laurent coefficients.

    Returns (a, b, c) with P(z, w) = sum c[i, k] z^a[i] w^b[k]: a and b are
    the exponent ranges of ``_exponents`` (lengths L1, L2) and c comes from
    the curve at the L1 x L2 roots of unity and one ``fft2``.  The ranges are
    bounds, so outer coefficients may be rounding noise.

    In the half-angle gauge KW(z, w) = H^-1 (I - diag(phi x) T') H, with
    H = diag(exp(i dirang / 2)) and T' the +-1 ``g.transition_signs``, so
    for real weights P(conj z, conj w) = conj P(z, w).  Root j pairs with
    root -j mod L, and L1 and L2 are odd (each edge's winding enters both
    ranges with both signs): one ``kw_dets`` stack factors the columns
    k <= L2 // 2 of row 0 and the rows 0 < j <= L1 // 2, the rest of row 0
    are the conjugates of its columns L2 - k, and each later row is the
    conjugate of row L1 - j read at the columns -k.
    """
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    a, b = _exponents(g)
    l1, l2 = a.stop - a.start, b.stop - b.start     # len stops at 2^63
    if l1 * l2 * g.nd > GRID_GUARD:
        raise SizeGuardError(f"the {l1} x {l2} coefficients on {g.nd} darts "
                             f"exceed GRID_GUARD ({GRID_GUARD} entries)")
    a, b = np.array(a), np.array(b)
    # the roots (j, k) of row 0 up to k = L2 // 2, then the rows j > 0
    j = np.repeat(np.arange(l1 // 2 + 1), [l2 // 2 + 1] + [l2] * (l1 // 2))
    k = np.concatenate([np.arange(l2 // 2 + 1), np.tile(np.arange(l2), l1 // 2)])
    dets = kw_dets(g, shift_character(g.shift, np.exp(2j * math.pi * j / l1),
                                      np.exp(2j * math.pi * k / l2)),
                   g.x if x is None else x)
    row0 = dets[:l2 // 2 + 1]
    half = np.concatenate([[np.concatenate([row0, row0[:0:-1].conj()])],
                           dets[l2 // 2 + 1:].reshape(l1 // 2, l2)])
    vals = np.concatenate(
        [half, half[l1 - l1 // 2 - 1:0:-1, -np.arange(l2) % l2].conj()])
    # vals[j, k] = sum c[a, b] exp(2 pi i (j a / l1 + k b / l2)), an inverse
    # DFT of c indexed by the exponents mod L; none alias, as L spans them
    c = np.fft.fft2(vals) / (l1 * l2)
    return a, b, np.roll(c, (-a[0], -b[0]), axis=(0, 1))


def _grid_guard(g, n):
    """GraphError or SizeGuardError unless an n x n spectral grid may run."""
    if n < 1:
        raise GraphError(f"grid size must be at least 1, got {n}")
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    if n * n * g.nd > GRID_GUARD:
        raise SizeGuardError(f"a {n} x {n} spectral grid on {g.nd} darts "
                             f"exceeds GRID_GUARD ({GRID_GUARD} entries)")


def _from_coefficients(g, n):
    """Whether ``spectral_grid`` evaluates an n x n grid from the Laurent
    coefficients: when the curve has fewer of them than the grid has nodes."""
    a, b = _exponents(g)
    return (a.stop - a.start) * (b.stop - b.start) < n * n


def spectral_grid(g, n, x=None):
    """Sample the curve on the half-offset n x n grid over the unit torus.

    Returns (phi1, phi2, P) arrays; the offset avoids the (1, 1) zero at
    criticality.  When the curve has fewer coefficients than the grid has
    nodes (L1 L2 < n^2), the grid is ``spectral_coefficients`` evaluated as
    E_z C E_w^T with E = units^exponents (``_coefficient_grid``), which
    agrees with ``spectral_curve`` to rounding (about 1e-15 max|P| on the
    small tori, 1e-14 at 256 darts).  Otherwise the nodes are determinants;
    both routes factor the same r x r Schur complements (``kw_dets``), so
    the rule takes the fewer.

    The direct grid is closed under conjugation: node k of the flattened
    grid sits at the conjugate of node n^2 - 1 - k.  In the half-angle gauge
    KW(z, w) = H^-1 (I - diag(phi x) T') H, with H = diag(exp(i dirang / 2))
    and T' the +-1 ``g.transition_signs``, so for real weights
    P(conj z, conj w) = conj P(z, w).  One ``kw_dets`` stack factors the
    first n^2 // 2 nodes, the last ones are their conjugates, and the middle
    node of an odd grid, (-1, -1), is the real determinant ``kw_real_det``
    at the weights signed by the windings' parity.
    """
    _grid_guard(g, n)
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    if _from_coefficients(g, n):
        return angles, angles.copy(), _coefficient_grid(
            spectral_coefficients(g, x), n)
    xs = g.x if x is None else x
    units = np.array([cmath.exp(1j * a) for a in angles])
    k = np.arange(n * n // 2)
    half = kw_dets(g, shift_character(g.shift, units[k // n], units[k % n]),
                   xs)
    # both darts of an edge carry (-1)^(s1 + s2) at (-1, -1), as a reversed
    # dart has the opposite shift: the sign folds into the edge weights
    sign = 1.0 - 2.0 * (np.sum(g.shift[0::2], axis=1) % 2)
    mid = [kw_real_det(g, sign * xs)] if n % 2 else []
    vals = np.concatenate([half, mid, half[::-1].conj()])
    return angles, angles.copy(), vals.reshape(n, n)


def _coefficient_grid(coefficients, n):
    """The half-offset n x n grid of ``spectral_grid`` from the curve's
    Laurent coefficients (a, b, c)."""
    a, b, c = coefficients
    # node k sits at the angle 2 pi (2k + 1) / 2n
    odd = 2 * np.arange(n) + 1
    return _unit_powers(odd, 2 * n, a) @ c @ _unit_powers(odd, 2 * n, b).T


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
    j = _couplings(g) if j is None else np.asarray(j, dtype=float)
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
    # P(1, 1) = det KW(1, 1) is the real det(I - X T')
    p11 = kw_real_det(g, np.tanh(beta_c * j))
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


def hessian_tau(g, x=None):
    """Hessian of the spectral curve at (1, 1) and the modular parameter.

    Exact, from the kernel of M = KW(1, 1) (``kac_ward_kernel``); GraphError
    unless it is 2-dimensional, that is unless the weights are critical.
    For orthonormal bases W0 of the left and V0 of the right kernel,
    first-order perturbation of the corank-2 determinant gives
    P(1 + a t, 1 + b t) = c t^2 det(a Mz + b Mw) + O(t^3), with
    Mz = W0^T Dz V0 for the z-derivative Dz = -diag(s1) X T' of M (Mw with
    s2) and c = det(M (I - V0 V0^T) + W0 V0^T), which is det U det V^T
    prod(nonzero sigma) for the SVD's bases.  As X T' = I - M and M V0 is
    at the size of the kernel singular values, Mz = -W0^T diag(s1) V0 up to
    them, so no transition is read.  An orthogonal change of either basis
    multiplies c and det(a Mz + b Mw) by the same sign.  tau is the root of
    A_w t^2 + 2 B t + A_z in the upper half plane.

    The bases first take one step of inverse iteration
    (``operators.refined_kernel``): after the probe route's one solve
    |M V0| sits near 1e-14 at 576 darts, and the step takes it to rounding.
    """
    if g.genus != 1:
        raise GraphError("the spectral curve needs a genus-1 graph")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    w0, v0, dim = kac_ward_kernel(g, xs)
    m = kac_ward_real(g, xs)
    if dim != 2:
        sig = np.linalg.svd(m, compute_uv=False)
        raise GraphError(
            f"weights are not critical: KW(1, 1) has a {dim}-dimensional "
            f"kernel (sigma_n-1 / sigma_1 = {sig[-2] / sig[0]:.3g}), not 2")
    w0, v0 = refined_kernel(g, xs, w0, v0)
    mz, mw = (-(w0 * s[:, None]).T @ v0 for s in g.shift.T)
    c = np.linalg.det(m - (m @ v0 - w0) @ v0.T)
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
    if n < 1:
        raise GraphError(f"grid size must be at least 1, got {n}")
    if x is None:
        if beta is None:
            xs = g.x
            coupling_term = float(np.sum(np.log(np.cosh(_couplings(g)))))
        else:
            j = _couplings(g) if j is None else np.asarray(j, dtype=float)
            xs = np.tanh(beta * j)
            coupling_term = float(np.sum(np.log(np.cosh(beta * j))))
    else:
        xs = np.asarray(x, dtype=float)
        coupling_term = float(np.sum(np.log(np.cosh(np.arctanh(xs)))))

    def log_integral(vals):
        def node(flat):
            m = len(vals)
            i, k = divmod(int(flat), m)
            return (f"on the {m} x {m} grid at (phi1, phi2) = "
                    f"({2 * math.pi * (i + 0.5) / m:.6g}, "
                    f"{2 * math.pi * (k + 0.5) / m:.6g})")

        imag = np.abs(vals.imag)
        if np.max(imag) > 1e-8 * max(1.0, np.max(np.abs(vals))):
            raise GraphError("spectral curve is not real "
                             + node(np.argmax(imag)))
        re = vals.real
        if np.any(re <= 0):
            raise GraphError("log of a nonpositive curve value "
                             + node(np.argmin(re)))
        return float(np.sum(np.log(re))) / re.size

    # the finer grid first: a grid guard stops the command before any work.
    # A coarse grid from the Laurent coefficients implies a fine one from
    # them, and both then evaluate the one coefficient stack
    if _from_coefficients(g, n):
        _grid_guard(g, 2 * n)
        coefficients = spectral_coefficients(g, xs)
        i_2n = log_integral(_coefficient_grid(coefficients, 2 * n))
        i_n = log_integral(_coefficient_grid(coefficients, n))
    else:
        i_2n = log_integral(spectral_grid(g, 2 * n, xs)[2])
        i_n = log_integral(spectral_grid(g, n, xs)[2])
    base = g.nv * math.log(2.0) + coupling_term
    return {
        "free_energy": base + 0.5 * i_2n,
        "free_energy_coarse": base + 0.5 * i_n,
        "grid": n,
        "convergence_estimate": abs(i_2n - i_n) / 2.0,
    }


def _torus_dual(g):
    """The dual of a torus graph (``dual_graph``); GraphError on the plane,
    whose dual has no valid angle data for the constant reference field."""
    if g.genus != 1:
        raise GraphError("duality check supports genus-1 graphs (the planar "
                         "dual needs user-supplied angle data)")
    return g.dual_graph


def duality_residuals(g, draws=10, seed=0):
    """Kramers-Wannier duality of the Kac-Ward determinants against the dual
    graph at random characters, draw t's from ``uniforms`` counters 2t, 2t+1.

    The relative residuals of 2^V prod(1+x)^-1 det KW^phi(G, x) =
    2^V* prod(1+x*)^-1 det KW^phi(G*, x*), one per draw: one ``kw_dets``
    stack per graph, at the same characters.  Torus graphs only.
    """
    gd = _torus_dual(g)
    pref = 2.0 ** g.nv / np.prod(1.0 + g.x)
    pref_d = 2.0 ** gd.nv / np.prod(1.0 + gd.x)
    u = uniforms(stream_key(seed), 0, 2 * draws).reshape(-1, 2)
    zs, ws = np.exp(2j * math.pi * u).T
    lhs = pref * kw_dets(g, shift_character(g.shift, zs, ws), g.x)
    rhs = pref_d * kw_dets(gd, shift_character(gd.shift, zs, ws), gd.x)
    return [abs(l - r) / max(abs(l), abs(r), 1e-30)
            for l, r in zip(lhs.tolist(), rhs.tolist())]


def duality_sign_pattern(g):
    """The square-root version of ``duality_residuals``: the ratio of the
    Pfaffian signed roots on G and G* at each +-1 character, by
    ``ARF_SIGNS_GENUS1`` key, which duality makes -1 at the trivial one and
    +1 at the others.

    Each graph's four roots are one ``sqrt_det_pfaffian`` stack over
    ``arf_characters``.  A root on G* at most ``KERNEL_TOL`` times the
    largest one at the other characters is rounding noise (the kernel of
    KW(1, 1) at criticality): its ratio is reported as 0.  The rule is
    relative, not ``kac_ward_kernel``'s, because next to criticality
    (x_c + 1e-9 on the 12x12 square torus) the kernel rule already finds
    dim 2 where the root still carries its sign to 1e-7.  Torus graphs only.
    """
    gd = _torus_dual(g)

    def roots(h):
        pref = 2.0 ** (h.nv / 2.0) / math.sqrt(float(np.prod(1.0 + h.x)))
        return dict(zip(ARF_SIGNS_GENUS1, (pref * sqrt_det_pfaffian(
            h, arf_characters(h))).tolist()))

    s, sd = roots(g), roots(gd)
    sign_pattern = {}
    for zw in ARF_SIGNS_GENUS1:
        scale = max(abs(v) for k, v in sd.items() if k != zw)
        degenerate = abs(sd[zw]) <= KERNEL_TOL * scale
        sign_pattern[zw] = 0.0 if degenerate else s[zw] / sd[zw]
    return sign_pattern
