"""Derived graphs: the bipartite rectangle graph C, the double D, and M = D*.

C replaces each edge by a weighted rectangle (long sides sin(theta), short
sides cos(theta)) plus unit corner edges; its white/black vertices are indexed
by darts (white immediately left of the dart, black immediately right).  D is
the union of the graph and its dual, with a degree-4 midpoint vertex on each
edge.  M is the dual of D; its vertices are the corners of the original
embedding and its edges cross the half-edges of D.

Each derived graph stores its edges as parallel arrays in fixed dart-indexed
blocks of length nd (the number of darts), entry d of a block belonging to
dart d:

* C: ``w``, ``b``, ``y``, ``omega_tilde``, ``shift``, ``omega`` over the perp
  block [0, nd) (w[d] - b[d]), the par block [nd, 2 nd) (w[d] - b[rev d]) and
  the corner block [2 nd, 3 nd) (w[d] - b[R d]);
* D: ``lam``, ``edge``, ``weight``, ``direction``, ``shift`` over the primal
  halves [0, nd) (from o(d)) and the dual halves [nd, 2 nd) (from the face
  right of d);
* M: ``tail``, ``head``, ``theta_m``, ``shift`` over the edges crossing the
  primal halves [0, nd) and the dual halves [nd, 2 nd).

All constructions are combinatorial; the isoradial geometry needed by the
Dirac operators is validated separately by :func:`isoradial_data`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .surface_graph import GraphError, EmbeddedGraph, TWO_PI, \
    cycle_with_winding, edge_vectors, face_offsets, \
    lattice_shifts, reduce_to_domain, shift_character

SNAP_TOL = 1e-9


def half_angle_phases(g):
    """exp(i a_e / 2) per dart, with a_e the direction reduced to (-pi, pi]."""
    a = g.a_angles()
    return np.exp(0.5j * a)


def q_phases(g):
    """exp(i beta_e / 2) per dart."""
    return np.exp(0.5j * g.beta())


def _snap_sign(vals, message):
    """Round values within SNAP_TOL of +-1 to signs; GraphError otherwise."""
    if (np.any(np.abs(np.abs(vals.real) - 1.0) > SNAP_TOL)
            or np.any(np.abs(vals.imag) > SNAP_TOL)):
        raise GraphError(message)
    return np.where(vals.real > 0, 1, -1)


def epsilon_signs(g):
    """Per-dart sign q_e D_e^{1/2} D_{R(e)}^{-1/2}, snapped to +-1."""
    dh = half_angle_phases(g)
    return _snap_sign(q_phases(g) * dh / dh[g.rot],
                      "square-root branch mismatch at a corner")


def dimer_weights(theta):
    """C-edge weights: cos(theta) on perp, sin(theta) on par, 1 on corners."""
    th = np.repeat(theta, 2)
    return np.concatenate([np.cos(th), np.sin(th), np.ones(len(th))])


@dataclass
class CGraph:
    """Bipartite rectangle graph with Kasteleyn data (per-C-edge arrays)."""

    g: EmbeddedGraph
    w: np.ndarray              # white endpoint, labeled by its dart
    b: np.ndarray              # black endpoint, labeled by its dart
    y: np.ndarray              # dimer weight
    omega_tilde: np.ndarray    # unit-complex orientation cochain
    shift: np.ndarray          # (3 nd, 2) homology winding carried by the edge
    omega: np.ndarray          # +-1 per C-edge (gauge-reduced orientation)
    epsilon: np.ndarray        # +-1 per dart
    faces: list = field(default=())   # C-faces as lists of (edge index, +-1 orientation)

    @property
    def n_black(self):
        return self.g.nd

    @property
    def n_white(self):
        return self.g.nd

    def edge_index(self, kind, dart):
        base = {"perp": 0, "par": 1, "corner": 2}[kind]
        return base * self.g.nd + dart

    def phi_values(self, phi):
        """Lift a dart cochain to the C-edges (parallel edges carry phi(e))."""
        nd = self.g.nd
        vals = np.ones(3 * nd, dtype=complex)
        vals[nd:2 * nd] = phi
        return vals


def build_C(g):
    """Construct the rectangle graph of an embedded graph.

    The unit-complex cochain ``omega_tilde`` (1 on short sides, i on long
    sides, -exp(i beta/2) on corners) is gauge-reduced to a +-1 Kasteleyn
    orientation ``omega`` by the diagonal square roots exp(-i a_e / 2) on both
    vertex classes; the per-dart corner signs ``epsilon`` record the branch
    mismatches q_e D_e^{1/2} D_{R(e)}^{-1/2}.
    """
    nd = g.nd
    d = np.arange(nd)
    dh = half_angle_phases(g)
    w = np.tile(d, 3)
    b = np.concatenate([d, d ^ 1, g.rot])
    omega_tilde = np.concatenate([np.ones(nd), np.full(nd, 1j), -q_phases(g)])
    no_shift = np.zeros_like(g.shift)
    shift = np.concatenate([no_shift, g.shift, no_shift])
    omega = _snap_sign(dh[w] * omega_tilde / dh[b],
                       "Kasteleyn gauge reduction failed to reach +-1")
    c = CGraph(g, w, b, dimer_weights(g.theta), omega_tilde, shift, omega,
               epsilon_signs(g))
    c.faces = _c_faces(c)
    return c


def _c_faces(c):
    """Faces of the rectangle graph as (C-edge index, orientation) cycles.

    Orientation +1 means the boundary traverses the edge white-to-black.
    Faces: one rectangle per edge, one 2 deg(v)-gon per vertex, one
    2 |boundary|-gon per face of the original graph.
    """
    g = c.g
    faces = []
    for k in range(g.ne):
        d, r = 2 * k, 2 * k + 1
        faces.append([
            (c.edge_index("par", d), +1),    # w[d] -> b[rev d]
            (c.edge_index("perp", r), -1),   # b[rev d] -> w[rev d]
            (c.edge_index("par", r), +1),    # w[rev d] -> b[d]
            (c.edge_index("perp", d), -1),   # b[d] -> w[d]
        ])
    for v in range(g.nv):
        cyc = []
        d0 = g.darts_at[v][0]
        d = d0
        while True:
            cyc.append((c.edge_index("corner", d), +1))  # w[d] -> b[R d]
            d = int(g.rot[d])
            cyc.append((c.edge_index("perp", d), -1))    # b[d] -> w[d]
            if d == d0:
                break
        faces.append(cyc)
    for f in g.faces:
        cyc = []
        for d in f:
            nxt = int(g.rot_inv[d ^ 1])  # face successor
            cyc.append((c.edge_index("par", d), +1))       # w[d] -> b[rev d]
            cyc.append((c.edge_index("corner", nxt), -1))  # b[rev d] -> w[nxt]
            # rev d = R(nxt), so the corner edge of nxt ends at b[rev d]
        faces.append(cyc)
    return faces


def validate_kasteleyn(c, orientation=None):
    """Face products of a +-1 orientation against (-1)^(|f|/2 + 1).

    Also checks, on the torus, that the unit cochain omega_tilde squares to 1
    around both homology generators.  Returns a report dictionary.
    """
    omega = c.omega if orientation is None else np.asarray(orientation)
    face_results = []
    ok = True
    for i, cyc in enumerate(c.faces):
        prod = 1
        for idx, _sgn in cyc:
            prod *= int(omega[idx])
        want = (-1) ** (len(cyc) // 2 + 1)
        good = prod == want
        ok = ok and good
        face_results.append({"face": i, "product": prod, "expected": want,
                             "pass": good})
    report = {"faces": face_results, "pass": ok}
    if c.g.genus == 1 and orientation is None:
        # C as a graph on whites [0, nd) and blacks [nd, 2 nd)
        nd = c.g.nd
        adj = [[] for _ in range(2 * nd)]
        for i, (w, b, s) in enumerate(zip(c.w.tolist(), c.b.tolist(),
                                          c.shift.tolist())):
            adj[w].append((nd + b, (i, +1), (s[0], s[1])))
            adj[nd + b].append((w, (i, -1), (-s[0], -s[1])))
        gens = []
        for target in ((1, 0), (0, 1)):
            val = 1.0 + 0j
            for idx, sgn in cycle_with_winding(adj, target):
                ot = c.omega_tilde[idx]
                val *= ot if sgn > 0 else 1.0 / ot
            gens.append({"winding": list(target),
                         "omega_tilde_sq_err": abs(val * val - 1.0)})
            ok = ok and abs(val * val - 1.0) < 1e-9
        report["generators"] = gens
        report["pass"] = ok
    return report


# -- the double ---------------------------------------------------------------


@dataclass
class DGraph:
    """The double: Lambda = V(G) + faces, Diamond = edge midpoints.

    Per half-edge arrays (primal halves, then dual halves): ``lam`` the Lambda
    endpoint, ``edge`` the midpoint (edge id), ``weight`` sin(theta) on primal
    and cos(theta) on dual halves, ``direction`` the angle leaving the Lambda
    vertex, ``shift`` the homology winding.
    """

    g: EmbeddedGraph
    n_lambda: int
    lam: np.ndarray
    edge: np.ndarray
    weight: np.ndarray
    direction: np.ndarray
    shift: np.ndarray
    mu_lambda: np.ndarray
    mu_diamond: np.ndarray


def build_D(g):
    nv, nd = g.nv, g.nd
    d = np.arange(nd)
    th = np.repeat(g.theta, 2)
    n_lambda = nv + len(g.faces)
    lam = np.concatenate([g.origin, nv + g.face_of[d ^ 1]])
    edge = np.tile(d >> 1, 2)
    weight = np.concatenate([np.sin(th), np.cos(th)])
    direction = np.concatenate([g.dirang, (g.dirang + math.pi / 2) % TWO_PI])
    shift = _half_shifts(g)
    # primal stars carry 1/2 sum sin(2 theta), dual stars 1/2 sum sin(2 theta*);
    # sin(2 theta*) = sin(2 theta), so one accumulation covers both classes
    mu_lambda = np.bincount(lam, 0.5 * np.sin(2.0 * g.theta[edge]),
                            minlength=n_lambda)
    mu_diamond = np.sin(g.theta) * np.cos(g.theta)
    return DGraph(g, n_lambda, lam, edge, weight, direction, shift,
                  mu_lambda, mu_diamond)


def _half_shifts(g):
    """Homology windings of the primal, then the dual half-edges of the double,
    against the midpoints and face centres reduced to the fundamental domain."""
    nd = g.nd
    if g.surface != "torus":
        return np.zeros((2 * nd, 2), dtype=int)
    rev = np.arange(nd) ^ 1
    half = 0.5 * edge_vectors(g)
    mid = np.repeat(reduce_to_domain(g, g.vcoords[g.origin[::2]] + half[::2]),
                    2, axis=0)
    off = face_offsets(g)
    # each face's centroid, seen from the origin of its first dart
    first = np.array([f[0] for f in g.faces])
    centre = reduce_to_domain(g, g.vcoords[g.origin[first]]
                              + off[first])[g.face_of[rev]]
    primal = lattice_shifts(g, half - (mid - g.vcoords[g.origin]),
                            "midpoint shift")
    dual = lattice_shifts(g, -half - off[rev] - (mid - centre),
                          "dual half shift")
    return np.concatenate([primal, dual])


def phi_D_character(dg, z, w):
    """Cocycle on the double representing the class (z, w)."""
    if dg.g.genus != 1:
        raise GraphError("characters require a genus-1 graph")
    return shift_character(dg.shift, z, w)


def split_phi_D(dg, phi_d):
    """Induced dart cochains on the graph and its dual.

    The value on a dart is the product of the two half-edge values along it
    (Lambda -> midpoint -> Lambda).  The dual dart d* runs right face -> left
    face, i.e. from the dual half of d to the one of rev d.
    """
    phi_d = np.asarray(phi_d, dtype=complex)
    nd = dg.g.nd
    rev = np.arange(nd) ^ 1
    primal, dualv = phi_d[:nd], phi_d[nd:]
    return primal / primal[rev], dualv / dualv[rev]


# -- M = dual of the double ----------------------------------------------------


@dataclass
class MGraph:
    """Corner graph; per M-edge arrays ``tail``, ``head`` (corners labeled by
    darts, oriented by eps), ``theta_m`` and ``shift``; ``mu`` per corner."""

    g: EmbeddedGraph
    tail: np.ndarray
    head: np.ndarray
    theta_m: np.ndarray
    shift: np.ndarray
    mu: np.ndarray

    @property
    def n(self):
        return self.g.nd


def build_M(g):
    """Dual of the double; vertices are corners (labeled by darts).

    The corner of dart d sits between d and R(d) at the origin of d.  Each
    half-edge of the double (a Lambda vertex joined to a midpoint) is crossed
    by one M-edge; the positive direction of the orientation ``eps`` keeps the
    Lambda endpoint on the left and the midpoint on the right.  Concretely:
    the M-dart corner(R^-1 d) -> corner(d) crossing the primal half at o(d)
    is positive (counterclockwise around the vertex), and so is the M-dart
    corner(d) -> corner(R^-1(rev d)) crossing the dual half on the left of d.
    The rule is validated against the Dirac-Laplace factorization by the
    verification suite.
    """
    d = np.arange(g.nd)
    th = np.repeat(g.theta, 2)
    tail = np.concatenate([g.rot_inv, d])
    head = np.concatenate([d, g.rot_inv[d ^ 1]])
    theta_m = np.concatenate([math.pi / 2 - th, th])
    shift = np.concatenate([np.zeros_like(g.shift), g.shift])
    mu = 0.5 * (np.sin(2 * th) + np.sin(2 * th[g.rot]))
    return MGraph(g, tail, head, theta_m, shift, mu)


# -- isoradial geometry --------------------------------------------------------


ISORADIAL_TOL = 1e-9


def isoradial_data(g, tol=ISORADIAL_TOL):
    """Validate that the weights define an isoradial embedding; return delta.

    Requires every theta in (0, pi/2), a common circumradius delta with
    |e| = 2 delta sin(theta_e), and for every face a consistent circumcenter at
    distance delta from all its corners.

    The default-tolerance result is cached on the graph, as
    ``EmbeddedGraph.transition`` is (graphs are not mutated after
    construction); a failed check is not cached, so it raises on every call.
    """
    default = tol == ISORADIAL_TOL
    if default and "isoradial_delta" in vars(g):
        return g.isoradial_delta
    if np.any(g.theta <= 1e-12) or np.any(g.theta >= math.pi / 2 - 1e-12):
        raise GraphError("isoradial data needs theta strictly inside (0, pi/2)")
    v = edge_vectors(g)[::2]
    deltas = np.hypot(v[:, 0], v[:, 1]) / (2.0 * np.sin(g.theta))
    delta = float(np.mean(deltas))
    if np.max(np.abs(deltas - delta)) > tol * max(delta, 1.0):
        raise GraphError("edge lengths are inconsistent with a common radius")
    # face circumcenter seen from each corner, relative to the face centroid
    ang = g.dirang + math.pi / 2 - np.repeat(g.theta, 2)
    centers = (delta * np.stack([np.cos(ang), np.sin(ang)], axis=1)
               - face_offsets(g))
    for f in g.faces:
        c = centers[list(f)]
        if np.max(np.abs(c - c.mean(axis=0))) > tol * max(delta, 1.0):
            raise GraphError("face circumcenters disagree; not isoradial")
    if default:
        g.isoradial_delta = delta
    return delta


def c_edge_directions(c):
    """Absolute direction of each C-edge traversed white to black (isoradial)."""
    g = c.g
    a = g.dirang
    th = np.repeat(g.theta, 2)
    return np.concatenate([(a - math.pi / 2) % TWO_PI, a % TWO_PI,
                           (a + th + math.pi / 2) % TWO_PI])
