"""Derived graphs: the bipartite rectangle graph C, the double D, and M = D*.

C replaces each edge by a weighted rectangle (long sides sin(theta), short
sides cos(theta)) plus unit corner edges; its white/black vertices are indexed
by darts (white immediately left of the dart, black immediately right).  D is
the union of the graph and its dual, with a degree-4 midpoint vertex on each
edge.  M is the dual of D; its vertices are the corners of the original
embedding and its edges cross the half-edges of D.

All constructions are combinatorial; isoradial positions (needed by the Dirac
operators) are attached separately by :func:`isoradial_data`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .surface_graph import GraphError, EmbeddedGraph, TWO_PI, face_centroid, \
    _face_trace_positions

SNAP_TOL = 1e-9


def half_angle_phases(g):
    """exp(i a_e / 2) per dart, with a_e the direction reduced to (-pi, pi]."""
    a = g.a_angles()
    return np.exp(0.5j * a)


def q_phases(g):
    """exp(i beta_e / 2) per dart."""
    return np.exp(0.5j * g.beta())


def epsilon_signs(g):
    """Per-dart sign q_e D_e^{1/2} D_{R(e)}^{-1/2}, snapped to +-1."""
    dh = half_angle_phases(g)
    q = q_phases(g)
    raw = q * dh / dh[g.rot]
    eps = np.empty(g.nd, dtype=int)
    for d in range(g.nd):
        s = raw[d].real
        if abs(abs(s) - 1.0) > SNAP_TOL or abs(raw[d].imag) > SNAP_TOL:
            raise GraphError("square-root branch mismatch at a corner")
        eps[d] = 1 if s > 0 else -1
    return eps


@dataclass
class CEdge:
    kind: str          # 'perp' | 'par' | 'corner'
    dart: int          # defining dart of the underlying graph
    w: int             # white endpoint, labeled by its dart
    b: int             # black endpoint, labeled by its dart
    y: float           # dimer weight
    omega_tilde: complex
    shift: tuple       # homology winding carried by the edge


@dataclass
class CGraph:
    """Bipartite rectangle graph with Kasteleyn data."""

    g: EmbeddedGraph
    edges: list
    omega: np.ndarray          # +-1 per C-edge (gauge-reduced orientation)
    epsilon: np.ndarray        # +-1 per dart
    d_half: np.ndarray         # exp(i a_e / 2) per dart
    faces: list = field(default=())   # C-faces as lists of (edge index, +-1 orientation)

    @property
    def n_black(self):
        return self.g.nd

    @property
    def n_white(self):
        return self.g.nd

    def edge_index(self, kind, dart):
        # layout: perp edges [0, nd), par [nd, 2 nd), corner [2 nd, 3 nd)
        base = {"perp": 0, "par": 1, "corner": 2}[kind]
        return base * self.g.nd + dart

    def phi_values(self, phi):
        """Lift a dart cochain to the C-edges (parallel edges carry phi(e))."""
        vals = np.ones(len(self.edges), dtype=complex)
        if phi is not None:
            for i, ce in enumerate(self.edges):
                if ce.kind == "par":
                    vals[i] = phi[ce.dart]
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
    dh = half_angle_phases(g)
    q = q_phases(g)
    eps = epsilon_signs(g)
    theta_d = g.theta[np.arange(nd) >> 1]

    edges = []
    for d in range(nd):  # perp block
        edges.append(CEdge("perp", d, d, d, math.cos(theta_d[d]), 1.0 + 0j,
                           (0, 0)))
    for d in range(nd):  # par block
        edges.append(CEdge("par", d, d, d ^ 1, math.sin(theta_d[d]), 1j,
                           tuple(int(s) for s in g.shift[d])))
    for d in range(nd):  # corner block
        edges.append(CEdge("corner", d, d, int(g.rot[d]), 1.0, -q[d], (0, 0)))

    omega = np.empty(len(edges), dtype=int)
    for i, ce in enumerate(edges):
        val = dh[ce.w] * ce.omega_tilde / dh[ce.b]
        if abs(abs(val.real) - 1.0) > SNAP_TOL or abs(val.imag) > SNAP_TOL:
            raise GraphError("Kasteleyn gauge reduction failed to reach +-1")
        omega[i] = 1 if val.real > 0 else -1

    c = CGraph(g, edges, omega, eps, dh)
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
        gens = []
        for target in ((1, 0), (0, 1)):
            cyc = _c_cycle_with_winding(c, target)
            val = 1.0 + 0j
            for idx, sgn in cyc:
                ot = c.edges[idx].omega_tilde
                val *= ot if sgn > 0 else 1.0 / ot
            gens.append({"winding": list(target),
                         "omega_tilde_sq_err": abs(val * val - 1.0)})
            ok = ok and abs(val * val - 1.0) < 1e-9
        report["generators"] = gens
        report["pass"] = ok
    return report


def _c_cycle_with_winding(c, target):
    """A closed walk in C whose total homology shift is ``target``.

    Breadth-first search in the lift of C by the winding degrees, from
    (vertex 0, (0,0)) to (vertex 0, target).
    """
    nd = c.g.nd
    adj = [[] for _ in range(2 * nd)]
    for i, ce in enumerate(c.edges):
        wi, bi = ce.w, nd + ce.b
        adj[wi].append((bi, i, +1))
        adj[bi].append((wi, i, -1))
    start = (0, 0, 0)
    goal = (0, target[0], target[1])
    prev = {start: None}
    frontier = [start]
    bound = abs(target[0]) + abs(target[1]) + 2
    while frontier and goal not in prev:
        nxt = []
        for state in frontier:
            u, s1, s2 = state
            for (v, i, sgn) in adj[u]:
                sh = c.edges[i].shift
                t = (v, s1 + sgn * sh[0], s2 + sgn * sh[1])
                if abs(t[1]) > bound or abs(t[2]) > bound:
                    continue
                if t not in prev:
                    prev[t] = (state, i, sgn)
                    nxt.append(t)
        frontier = nxt
    if goal not in prev:
        raise GraphError(f"no cycle with winding {target} found")
    walk = []
    state = goal
    while prev[state] is not None:
        state, i, sgn = prev[state]
        walk.append((i, sgn))
    walk.reverse()
    return walk


# -- the double ---------------------------------------------------------------


@dataclass
class DHalf:
    lam: int           # index into the Lambda vertex list
    edge: int          # midpoint (diamond) index = edge id
    kind: str          # 'primal' | 'dual'
    dart: int          # defining dart
    weight: float      # sin(theta) on primal halves, cos(theta) on dual halves
    direction: float   # angle of the half-edge leaving the Lambda vertex
    shift: tuple


@dataclass
class DGraph:
    """The double: Lambda = V(G) + faces, Diamond = edge midpoints, degree-4 stars."""

    g: EmbeddedGraph
    n_lambda: int
    halves: list
    mu_lambda: np.ndarray
    mu_diamond: np.ndarray


def build_D(g):
    nv, nf, ne = g.nv, len(g.faces), g.ne
    halves = []
    for d in range(g.nd):
        k = d >> 1
        th = g.theta[k]
        halves.append(DHalf(int(g.origin[d]), k, "primal", d,
                            math.sin(th), float(g.dirang[d]),
                            _primal_half_shift(g, d)))
    for d in range(g.nd):
        k = d >> 1
        th = g.theta[k]
        f = int(g.face_of[d ^ 1])  # face to the right of d
        halves.append(DHalf(nv + f, k, "dual", d,
                            math.cos(th), float((g.dirang[d] + math.pi / 2) % TWO_PI),
                            _dual_half_shift(g, d)))
    # primal stars carry 1/2 sum sin(2 theta), dual stars 1/2 sum sin(2 theta*);
    # sin(2 theta*) = sin(2 theta), so one accumulation covers both classes
    mu_lambda = np.zeros(nv + nf)
    for h in halves:
        mu_lambda[h.lam] += 0.5 * math.sin(2.0 * g.theta[h.edge])
    mu_diamond = np.array([math.sin(t) * math.cos(t) for t in g.theta])
    return DGraph(g, nv + nf, halves, mu_lambda, mu_diamond)


def _reduced_midpoint(g, k):
    p = g.vcoords[g.origin[2 * k]] + 0.5 * g.edge_vec(2 * k)
    if g.surface == "torus":
        li = np.linalg.inv(g.lattice)
        r = p @ li
        r -= np.floor(r)
        return r @ g.lattice
    return p


def _primal_half_shift(g, d):
    if g.surface != "torus":
        return (0, 0)
    k = d >> 1
    disp = 0.5 * g.edge_vec(d)
    stored = _reduced_midpoint(g, k) - g.vcoords[g.origin[d]]
    s = (disp - stored) @ np.linalg.inv(g.lattice)
    si = np.round(s).astype(int)
    if np.max(np.abs(s - si)) > 1e-6:
        raise GraphError("midpoint shift did not land on the lattice")
    return (int(si[0]), int(si[1]))


def _dual_half_shift(g, d):
    if g.surface != "torus":
        return (0, 0)
    k = d >> 1
    f = int(g.face_of[d ^ 1])
    anchor = g.vcoords[g.origin[d]]
    center_chart = _face_trace_positions(g, d ^ 1, anchor + g.edge_vec(d)).mean(axis=0)
    mid_chart = anchor + 0.5 * g.edge_vec(d)
    disp = mid_chart - center_chart
    li = np.linalg.inv(g.lattice)
    cf = face_centroid(g, f) @ li
    cf -= np.floor(cf)
    stored = _reduced_midpoint(g, k) - cf @ g.lattice
    s = (disp - stored) @ li
    si = np.round(s).astype(int)
    if np.max(np.abs(s - si)) > 1e-6:
        raise GraphError("dual half shift did not land on the lattice")
    return (int(si[0]), int(si[1]))


def phi_D_character(dg, z, w):
    """Cocycle on the double representing the class (z, w)."""
    if dg.g.genus != 1:
        raise GraphError("characters require a genus-1 graph")
    vals = []
    for h in dg.halves:
        vals.append(complex(z) ** h.shift[0] * complex(w) ** h.shift[1])
    return np.asarray(vals, dtype=complex)


def split_phi_D(dg, phi_d):
    """Induced dart cochains on the graph and its dual.

    The value on a dart is the product of the two half-edge values along it
    (Lambda -> midpoint -> Lambda).
    """
    g = dg.g
    primal = {h.dart: phi_d[i] for i, h in enumerate(dg.halves)
              if h.kind == "primal"}
    dualv = {h.dart: phi_d[i] for i, h in enumerate(dg.halves)
             if h.kind == "dual"}
    phi = np.array([primal[d] / primal[d ^ 1] for d in range(g.nd)],
                   dtype=complex)
    phi_star = np.array([dualv[d] / dualv[d ^ 1] for d in range(g.nd)],
                        dtype=complex)
    # dual dart d* runs right face -> left face, i.e. from the star of
    # dualv[d] (anchored at the right face) to the one of dualv[rev d].
    return phi, phi_star


# -- M = dual of the double ----------------------------------------------------


@dataclass
class MEdge:
    kind: str      # 'primal_cross' | 'dual_cross'
    dart: int      # crossed half-edge's defining dart
    tail: int      # corner vertex (labeled by its dart) where eps = +1 leaves
    head: int
    theta_m: float
    shift: tuple


@dataclass
class MGraph:
    g: EmbeddedGraph
    edges: list
    mu: np.ndarray  # per corner vertex

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
    edges = []
    for d in range(g.nd):
        k = d >> 1
        edges.append(MEdge("primal_cross", d,
                           int(g.rot_inv[d]), d,
                           math.pi / 2 - g.theta[k], (0, 0)))
    for d in range(g.nd):
        k = d >> 1
        edges.append(MEdge("dual_cross", d, d, int(g.rot_inv[d ^ 1]),
                           g.theta[k], tuple(int(s) for s in g.shift[d])))
    mu = np.zeros(g.nd)
    for d in range(g.nd):
        mu[d] = 0.5 * (math.sin(2 * g.theta[d >> 1])
                       + math.sin(2 * g.theta[int(g.rot[d]) >> 1]))
    return MGraph(g, edges, mu)


# -- isoradial geometry --------------------------------------------------------


@dataclass
class IsoradialData:
    g: EmbeddedGraph
    delta: float


def isoradial_data(g, tol=1e-9):
    """Validate that the weights define an isoradial embedding; return geometry.

    Requires every theta in (0, pi/2), a common circumradius delta with
    |e| = 2 delta sin(theta_e), and for every face a consistent circumcenter at
    distance delta from all its corners.
    """
    if np.any(g.theta <= 1e-12) or np.any(g.theta >= math.pi / 2 - 1e-12):
        raise GraphError("isoradial data needs theta strictly inside (0, pi/2)")
    deltas = []
    for k in range(g.ne):
        v = g.edge_vec(2 * k)
        deltas.append(np.hypot(v[0], v[1]) / (2.0 * math.sin(g.theta[k])))
    delta = float(np.mean(deltas))
    if max(abs(d - delta) for d in deltas) > tol * max(delta, 1.0):
        raise GraphError("edge lengths are inconsistent with a common radius")
    # face circumcenter consistency, checked in the walk chart of each face
    for f in range(len(g.faces)):
        d0 = g.faces[f][0]
        pts = _face_trace_positions(g, d0, g.vcoords[g.origin[d0]])
        centers = []
        for j, d in enumerate(g.faces[f]):
            a = g.dirang[d]
            th = g.theta[d >> 1]
            off = delta * np.array([math.cos(a + math.pi / 2 - th),
                                    math.sin(a + math.pi / 2 - th)])
            centers.append(pts[j] + off)
        centers = np.array(centers)
        if np.max(np.abs(centers - centers.mean(axis=0))) > tol * max(delta, 1.0):
            raise GraphError("face circumcenters disagree; not isoradial")
    return IsoradialData(g, delta)


def c_edge_direction(c, ce):
    """Absolute direction of a C-edge traversed white to black (isoradial)."""
    g = c.g
    a = g.dirang[ce.dart]
    th = g.theta[ce.dart >> 1]
    if ce.kind == "perp":
        return (a - math.pi / 2) % TWO_PI
    if ce.kind == "par":
        return a % TWO_PI
    return (a + th + math.pi / 2) % TWO_PI
