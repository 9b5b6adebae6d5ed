"""The one-root-at-a-time forms that the character stacks replaced.

``sqrt_det_pfaffian_reference`` builds the skew matrix S of
``operators.sqrt_det_pfaffian`` for one cochain and one weight row, from
the transition entries on every call; the three loops build one
``Cochain``, one matrix and one root or determinant per +-1 character, as
``oracle.ising_partition``, ``oracle.dimer_partition`` and the duality sign
pattern did.  The stacked forms must give bitwise the same values.

``arf_characters_reference`` is the (4, nd) character stack as complex
powers z^s1 w^s2 checked by the ``Cochain`` rules (``character_values``);
``oracle.arf_characters`` reads it off the shift parities and must give the
same values.  ``skew_signs_reference`` is the depth-first search that
``EmbeddedGraph.skew_signs`` replaced by its closed form: it solves the
skewness conditions dart by dart from dart 0 and must find the same signs,
or fail with the same message.
"""

import math

import numpy as np

from kwlab.critical import KERNEL_TOL
from kwlab.linalg import lu_det, pfaffian
from kwlab.operators import _phi_values, kasteleyn
from kwlab.oracle import ARF_SIGNS_GENUS1
from kwlab.surface_graph import (GraphError, character_cochain,
                                 character_values, dual)


def sqrt_det_pfaffian_reference(g, phi=None, x=None):
    """Square root of det KW with constant coefficient +1, as a Pfaffian.

    In the half-angle gauge the transition is the real +-1 matrix T'
    (``g.transition_signs``), and splitting the weights symmetrically gives
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
    e, f, _ = g.transition_entries
    skew = np.zeros((g.nd, g.nd))
    skew[e ^ 1, f] = (-(g.skew_signs * r)[e ^ 1] * g.transition_signs) * r[f]
    skew[np.arange(g.nd), rev] += s
    return pfaffian(skew) / float(np.prod(s[0::2]))


def ising_combo_reference(g, xs):
    """The Arf-signed sum of the roots at the four +-1 characters, one
    ``Cochain`` and one root at a time; ``oracle.ising_partition``'s
    Kac-Ward value on the torus is prefac * 0.5 times it."""
    combo = 0.0
    for (z, w), sgn in ARF_SIGNS_GENUS1.items():
        phi = character_cochain(g, z, w)
        combo += sgn * sqrt_det_pfaffian_reference(g, phi.values, xs)
    return combo


def kasteleyn_combo_reference(c):
    """``oracle.dimer_partition``'s determinant combination on the torus,
    one Kasteleyn matrix and one determinant per character."""
    g = c.g
    combo = 0.0 + 0j
    for (z, w), sgn in ARF_SIGNS_GENUS1.items():
        phi = character_cochain(g, z, w)
        combo += sgn * lu_det(kasteleyn(c, phi.values, "omega"))
    combo *= 0.5
    return combo


def sign_pattern_reference(g):
    """The duality sign pattern, one root per graph and character."""
    gd = dual(g)

    def root(h, zw):
        pref = 2.0 ** (h.nv / 2.0) / math.sqrt(float(np.prod(1.0 + h.x)))
        return pref * sqrt_det_pfaffian_reference(
            h, character_cochain(h, *zw).values)

    s = {zw: root(g, zw) for zw in ARF_SIGNS_GENUS1}
    sd = {zw: root(gd, zw) for zw in ARF_SIGNS_GENUS1}
    sign_pattern = {}
    for zw in ARF_SIGNS_GENUS1:
        scale = max(abs(v) for k, v in sd.items() if k != zw)
        degenerate = abs(sd[zw]) <= KERNEL_TOL * scale
        sign_pattern[zw] = 0.0 if degenerate else s[zw] / sd[zw]
    return sign_pattern


def arf_characters_reference(g):
    """The four +-1 characters of ``ARF_SIGNS_GENUS1`` as complex powers."""
    z, w = np.array(list(ARF_SIGNS_GENUS1)).T
    return character_values(g, z, w)


def skew_signs_reference(g):
    """Signs s with s(rev e) = -s(e) and s(e) T'[rev e, f] = -s(f)
    T'[rev f, e], by a search over the darts from each unsigned root (dart
    0 first), then checked; GraphError names the first pair that fails."""
    nd = g.nd
    rev = np.arange(nd) ^ 1
    e, e2, _ = g.transition_entries
    r, c = e ^ 1, e2
    jt = g.transition_signs
    jt_t = jt[np.searchsorted(e * nd + e2, (c ^ 1) * nd + r)]
    links = [[(d ^ 1, -1.0)] for d in range(nd)]
    for a, b, p in zip(r.tolist(), c.tolist(), (-jt * jt_t).tolist()):
        links[a].append((b, p))
    s = np.zeros(nd)
    for root in range(nd):
        if s[root]:
            continue
        s[root] = 1.0
        stack = [root]
        while stack:
            a = stack.pop()
            for b, p in links[a]:
                if not s[b] and p:
                    s[b] = p * s[a]
                    stack.append(b)
    bad = np.flatnonzero(s[rev] != -s)
    bad_t = s[r] * jt != -s[c] * jt_t
    pairs = np.concatenate([r[bad_t] * nd + c[bad_t],
                            c[bad_t] * nd + r[bad_t]])
    if bad.size or pairs.size:
        a, b = ((bad[0], bad[0] ^ 1) if bad.size
                else divmod(int(pairs.min()), nd))
        raise GraphError("no signs make the Kac-Ward Pfaffian matrix "
                         f"skew: darts {a} and {b} conflict")
    return s
