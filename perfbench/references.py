"""Independent reference answers for the benchmarked kwlab commands.

Each check takes the command's parsed JSON output and returns
``(ok, residual)``.  The closed forms come from the parameters the benchmark
generated, not from the program's own parse of the fixture: Onsager's
integrand for the square-lattice free energy and spectral curve, the
Kramers-Wannier / star-triangle criticality conditions, and tau = i on the
isotropic square lattice.  The s-holomorphicity residual of an observable is
the one check that reads a kwlab function (``sholo_residual``, the defining
condition itself).
"""

from __future__ import annotations

import math

import numpy as np

CRITICAL_TOL = 1e-10
FREE_ENERGY_TOL = 1e-12
SPECTRAL_TOL = 1e-9
TAU_TOL = 1e-6
SHOLO_TOL = 1e-9


def half_offset(n):
    return 2.0 * math.pi * (np.arange(n) + 0.5) / n


def onsager(k1, k2, t1, t2):
    """Onsager's integrand on the square lattice with couplings k1, k2."""
    return (math.cosh(2 * k1) * math.cosh(2 * k2)
            - math.sinh(2 * k1) * np.cos(t1) - math.sinh(2 * k2) * np.cos(t2))


def square_free_energy(k1, k2, m, n):
    """log Z per m x m fundamental domain on the program's n x n character grid.

    A character grid point phi of the m x m domain stands for the m^2 single
    site momenta (phi + 2 pi a) / m, which together form the half-offset grid
    of size n m.
    """
    t = half_offset(n * m)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    return m * m * (math.log(2.0)
                    + 0.5 * float(np.mean(np.log(onsager(k1, k2, t1, t2)))))


def square_spectral_min(k1, k2, m, n):
    """Minimum of det KW over the program's half-offset n x n character grid.

    det KW(phi) of the m x m domain is the product over its m^2 momenta of
    Onsager's integrand divided by cosh^2(k1) cosh^2(k2).
    """
    phi = half_offset(n)
    scale = (math.cosh(k1) * math.cosh(k2)) ** 2
    vals = np.ones((n, n))
    for a in range(m):
        for b in range(m):
            t1, t2 = np.meshgrid((phi + 2 * math.pi * a) / m,
                                 (phi + 2 * math.pi * b) / m, indexing="ij")
            vals = vals * onsager(k1, k2, t1, t2) / scale
    return float(vals.min())


def check_square_critical(out, j1, j2):
    """sinh(2 beta J1) sinh(2 beta J2) = 1 (Kramers-Wannier)."""
    b = out["beta_c"]
    res = abs(math.sinh(2 * b * j1) * math.sinh(2 * b * j2) - 1.0)
    return res <= CRITICAL_TOL, res


def check_honeycomb_critical(out, j1, j2, j3):
    """x1 x2 + x2 x3 + x3 x1 = 1 with x = tanh(beta J) (star-triangle)."""
    x1, x2, x3 = (math.tanh(out["beta_c"] * j) for j in (j1, j2, j3))
    res = abs(x1 * x2 + x2 * x3 + x3 * x1 - 1.0)
    return res <= CRITICAL_TOL, res


def check_free_energy(out, k1, k2, m, n):
    """Both grid levels against Onsager's integrand on the same nodes."""
    fine = square_free_energy(k1, k2, m, 2 * n)
    coarse = square_free_energy(k1, k2, m, n)
    res = max(abs(out["free_energy"] - fine) / abs(fine),
              abs(out["free_energy_coarse"] - coarse) / abs(coarse))
    return res <= FREE_ENERGY_TOL, res


def check_spectral(out, k1, k2, m, n):
    """The curve is real on the unit torus and its grid minimum is Onsager's."""
    want = square_spectral_min(k1, k2, m, n)
    res = max(abs(out["min_real"] - want) / abs(want), out["max_imag_abs"])
    return res <= SPECTRAL_TOL, res


def check_tau_is_i(out):
    re, im = out["tau"]
    res = abs(complex(re, im) - 1j)
    return res <= TAU_TOL, res


def check_observable(out, g, dart):
    """s-holomorphic at every vertex away from the pinned edge."""
    from kwlab.sholo import sholo_residual

    F = np.array([complex(re, im) for re, im in out["values"]])
    pinned = {int(g.origin[dart]), int(g.origin[dart ^ 1])}
    scale = max(1.0, float(np.max(np.abs(F))))
    res = max(sholo_residual(g, F, v) for v in range(g.nv) if v not in pinned)
    res /= scale
    return res <= SHOLO_TOL and out["dart"] == dart, res


def check_h_function(out):
    res = max(out["loop_residual"], out["sholo_defect"])
    return res <= SHOLO_TOL, res


def check_pass_field(out):
    """verify, z-ising and z-dimer certify themselves: read their verdict."""
    return bool(out["pass"]), 0.0 if out["pass"] else 1.0
