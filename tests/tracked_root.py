"""The homotopy-tracked square root of det KW, kept as a test oracle.

``sqrt_det_tracked`` continues the square root of det KW(t x) from t = 0
along a contour in the complex t plane.  The library computes the signed root
as a Pfaffian (``operators.sqrt_det_pfaffian``); this independent route checks
it on the small fixtures where tracking is reliable.  On large tori at low
temperature the tracker can return the wrong sign without an error.
"""

import math

import numpy as np

from kwlab.operators import _phi_values, kw_dets
from kwlab.surface_graph import GraphError


def sqrt_det_tracked(g, phi=None, x=None, max_steps=2 ** 14):
    """Square root of det KW with constant coefficient +1, tracked from x = 0.

    The weights are scaled by t along a contour from 0 to 1 lifted slightly
    off the real axis; the square root is continued by principal-branch
    ratios with adaptive refinement until consecutive determinant phase steps
    stay below pi/2.  Requires a +-1-valued cochain (real determinant), and
    reports sign ambiguity, with the contour point t or the descent height
    sigma where tracking failed, if refinement hits the step cap.

    Determinants are evaluated as ``kw_dets`` stacks: the whole contour at
    once, each doubling at its new odd points only (the old points are
    bitwise the same, since n is a power of two) and the vertical descent in
    batches of 8 heights.
    """
    pv = _phi_values(g, phi)
    if np.max(np.abs(np.abs(pv.real) - 1.0)) > 1e-12 or np.max(np.abs(pv.imag)) > 1e-12:
        raise GraphError("tracked square root needs a +-1-valued cochain")
    xs = g.x if x is None else np.asarray(x, dtype=float)

    def dets(ts):
        return kw_dets(g, pv, xs * ts[:, None])

    # Lift the contour off the real axis (real zeros of the square root are
    # then passed at distance >= bump) and keep it lifted all the way to
    # Re t = 1; a geometric vertical descent closes the path at t = 1.
    bump = 0.05

    def contour(n):
        ts = np.linspace(0.0, 1.0, n + 1)
        lift = bump * np.minimum(1.0, np.sin(math.pi * np.minimum(ts, 0.5)))
        return ts + 1j * np.where(ts >= 0.5, bump, lift)

    n = 64
    ts = contour(n)
    vals = dets(np.append(ts, 1.0))   # the contour, then the endpoint t = 1
    vals, d1 = vals[:-1], complex(vals[-1])
    while True:
        ratio, ok = _phase_steps(vals, math.pi / 2)
        ok &= (0.2 < np.abs(ratio)) & (np.abs(ratio) < 5.0)
        if ok.all():
            break
        n *= 2
        if n > max_steps:
            raise GraphError("tracked square root is sign-ambiguous "
                             "(determinant vanishes along the homotopy near "
                             f"t = {complex(ts[np.argmin(ok)]):.6g})")
        ts = contour(n)
        vals = np.insert(vals, np.arange(1, len(vals)), dets(ts[1::2]))
    r = complex(np.prod(np.sqrt(ratio)))
    # vertical descent from 1 + i bump to 1.  Halving the height concentrates
    # the steps where the phase of the determinant turns fastest (near a zero
    # just off the endpoint), keeping every ratio principal.
    if d1 == 0:
        return 0.0
    sigma = bump * 0.5 ** np.arange(128)
    sigma = sigma[sigma >= 1e-30]   # the descent heights, from sigma[0] = bump
    seq = vals[-1:]
    while abs(seq[-1] - d1) > 0.25 * abs(d1):
        if len(seq) == len(sigma):
            raise GraphError("tracked square root is sign-ambiguous at the "
                             "endpoint of the homotopy (descent height "
                             f"sigma = {sigma[-1]:.6g})")
        got = dets(1.0 + 1j * sigma[len(seq):len(seq) + 8])
        near = np.abs(got - d1) <= 0.25 * abs(d1)
        seq = np.append(seq, got[:np.argmax(near) + 1] if near.any() else got)
    ratio, ok = _phase_steps(np.append(seq, d1), 0.9 * math.pi)
    if not ok.all():
        where = np.append(sigma[:len(seq)], 0.0)[np.argmin(ok) + 1]
        raise GraphError("tracked square root is sign-ambiguous at the "
                         "endpoint of the homotopy (descent height sigma = "
                         f"{where:.6g})")
    r *= complex(np.prod(np.sqrt(ratio)))
    mag = math.sqrt(abs(d1))
    if abs(r) > 0 and abs(r.imag) > 1e-6 * abs(r) + 1e-12:
        raise GraphError("tracked square root did not return to the real "
                         "axis at t = 1")
    return mag if r.real >= 0 else -mag


def _phase_steps(vals, max_phase):
    """Consecutive ratios of a determinant sequence, and the mask of the steps
    with nonzero ends whose phase turns by less than ``max_phase``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = vals[1:] / vals[:-1]
    return ratio, ((vals[:-1] != 0) & (vals[1:] != 0)
                   & (np.abs(np.angle(ratio)) < max_phase))

