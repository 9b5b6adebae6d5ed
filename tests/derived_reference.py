"""The rectangle graph C as ``derived.build_C`` built it before it read its
signs off integer phase counts.

Kept as the test oracle: ``build_C_reference`` gauge-reduces the unit
cochain omega_tilde by the diagonal square roots and snaps each quotient to
+-1 (``snap_sign_reference``), as ``epsilon_signs_reference`` does for the
corner signs.  ``build_C`` must give bitwise the same arrays.
"""

import numpy as np

from kwlab.derived import (CGraph, dimer_weights, half_angle_phases,
                           q_phases)
from kwlab.surface_graph import GraphError

SNAP_TOL = 1e-9


def snap_sign_reference(vals, message):
    """Round values within SNAP_TOL of +-1 to signs; GraphError otherwise."""
    if (np.any(np.abs(np.abs(vals.real) - 1.0) > SNAP_TOL)
            or np.any(np.abs(vals.imag) > SNAP_TOL)):
        raise GraphError(message)
    return np.where(vals.real > 0, 1, -1)


def epsilon_signs_reference(g):
    """Per-dart sign q_e D_e^{1/2} D_{R(e)}^{-1/2}, snapped to +-1."""
    dh = half_angle_phases(g)
    return snap_sign_reference(q_phases(g) * dh / dh[g.rot],
                               "square-root branch mismatch at a corner")


def build_C_reference(g):
    """The rectangle graph, omega the snapped quotients
    dh[w] omega_tilde / dh[b]."""
    nd = g.nd
    d = np.arange(nd)
    dh = half_angle_phases(g)
    w = np.tile(d, 3)
    b = np.concatenate([d, d ^ 1, g.rot])
    omega_tilde = np.concatenate([np.ones(nd), np.full(nd, 1j), -q_phases(g)])
    no_shift = np.zeros_like(g.shift)
    shift = np.concatenate([no_shift, g.shift, no_shift])
    omega = snap_sign_reference(dh[w] * omega_tilde / dh[b],
                                "Kasteleyn gauge reduction failed to reach "
                                "+-1")
    return CGraph(g, w, b, dimer_weights(g.theta), omega_tilde, shift, omega,
                  epsilon_signs_reference(g))
