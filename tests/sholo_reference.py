"""Per-vertex loop forms of the s-holomorphicity routines, kept as test oracles.

``sholo_residual_reference`` is the scalar loop over the darts of one vertex
that ``sholo.vertex_residuals`` replaces with one pass over all darts, and
``map_S_reference`` / ``map_S_inverse_reference`` are the per-dart and
per-edge loops of ``sholo.map_S`` / ``sholo.map_S_inverse``.
``kernel_observables_reference`` takes the complex SVD of KW itself and
projects each kernel vector u, and i u, onto the dart lines; the library
instead takes the real null space of I - X T' in the half-angle gauge.
"""

import cmath
import math

import numpy as np

from kwlab.linalg import max_norm, null_space
from kwlab.operators import kac_ward
from kwlab.sholo import map_S_inverse


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
