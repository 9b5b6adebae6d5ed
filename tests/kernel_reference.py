"""SVD forms of the Kac-Ward kernel, kept as test oracles.

``null_space`` is the numerical right kernel of any matrix from one full
SVD.  ``kac_ward_kernel_reference`` is the full real SVD of M = I - X T'
with the kernel dimension counted on its singular values, and
``hessian_tau_svd_reference`` is the exact Hessian of the spectral curve at
(1, 1) on those singular bases, c = det U det V^T prod(nonzero sigma).  The
library decides the kernel by one solve against probe columns and a Ritz
step, falling back to the SVD only where that cannot decide.
"""

import math

import numpy as np

from kwlab.operators import KERNEL_TOL, kac_ward_real


def null_space(a, tol=1e-8):
    """Orthonormal basis of the numerical right kernel.

    Returns the right-singular vectors whose singular value is below
    ``tol * sigma_max`` (all of them for an exactly zero matrix).  Real input
    stays real: it is factored by the real SVD and gives real vectors.
    """
    a = np.asarray(a)
    a = a if np.iscomplexobj(a) else a.astype(float, copy=False)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return [vh[i].conj() for i in range(vh.shape[0])]
    keep = s < tol * s[0]
    # rows of vh beyond len(s) (wide input) are exact kernel directions
    return [vh[i].conj() for i in range(vh.shape[0])
            if i >= len(s) or keep[i]]


def kac_ward_kernel_reference(g, x=None):
    """(U, sigma, V^T, dim): the real SVD of M = I - X T' and the number of
    singular values below ``KERNEL_TOL * sigma[0]``."""
    u, s, vt = np.linalg.svd(kac_ward_real(g, x))
    return u, s, vt, int(np.count_nonzero(s < KERNEL_TOL * s[0]))


def hessian_tau_svd_reference(g, x=None):
    """(hessian, tau) from the SVD's kernel bases, or None off criticality.

    Mz = -W0^T diag(s1) V0 and Mw likewise with s2, for the null columns W0
    of U and V0 of V, and c = det U det V^T prod(sigma_1..sigma_n-2).
    """
    u, sig, vt, dim = kac_ward_kernel_reference(g, x)
    if dim != 2:
        return None
    w0, v0 = u[:, -2:], vt[-2:].T
    mz, mw = (-(w0 * s[:, None]).T @ v0 for s in g.shift.T)
    c = np.linalg.det(u) * np.linalg.det(vt) * np.prod(sig[:-2])
    det_z, det_w, det_zw = (np.linalg.det(a) for a in (mz, mw, mz + mw))
    azz, aww, b = 2.0 * c * det_z, 2.0 * c * det_w, c * (det_zw - det_z - det_w)
    root = (-b + 1j * math.sqrt(azz * aww - b * b)) / aww
    return (np.array([[azz, b], [b, aww]]),
            root if root.imag > 0 else root.conjugate())
