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

The faces of C are not stored.  :func:`c_face_products` alone fixes their
order (one rectangle per edge, one 2 deg(v)-gon per vertex, one 2 |f|-gon
per face of the graph) and reduces any C-edge values over them.

All constructions are combinatorial; the isoradial geometry needed by the
Dirac operators is validated separately by :func:`isoradial_data`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface_graph import GraphError, EmbeddedGraph, TWO_PI, \
    cycle_with_winding, edge_vectors, face_centroids, face_offsets, \
    lattice_shifts, reduce_to_domain, shift_character


def half_angle_phases(g):
    """exp(i a_e / 2) per dart, with a_e the direction reduced to (-pi, pi]."""
    a = g.a_angles()
    return np.exp(0.5j * a)


def q_phases(g):
    """exp(i beta_e / 2) per dart."""
    return np.exp(0.5j * g.beta())


def dimer_weights(theta):
    """C-edge weights: cos(theta) on perp, sin(theta) on par, 1 on corners.
    Leading axes of ``theta`` stack."""
    th = np.repeat(theta, 2, axis=-1)
    return np.concatenate([np.cos(th), np.sin(th), np.ones(th.shape)], axis=-1)


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

    def phi_values(self, phi):
        """Lift a dart cochain to the C-edges (parallel edges carry phi(e));
        leading axes of ``phi`` stack."""
        nd = self.g.nd
        vals = np.ones(np.shape(phi)[:-1] + (3 * nd,), dtype=complex)
        vals[..., nd:2 * nd] = phi
        return vals


def build_C(g):
    """Construct the rectangle graph of an embedded graph.

    The unit-complex cochain ``omega_tilde`` (1 on short sides, i on long
    sides, -exp(i beta/2) on corners) is gauge-reduced to a +-1 Kasteleyn
    orientation ``omega`` by the diagonal square roots exp(-i a_e / 2) on both
    vertex classes; the per-dart corner signs ``epsilon`` record the branch
    mismatches q_e D_e^{1/2} D_{R(e)}^{-1/2}.  Both are read off integer
    phase counts: epsilon is (-1)^k with k = rint((beta_e + a_e - a_R(e)) /
    2pi), and omega is +1 on perp, (-1)^k with k = rint((pi + a_e -
    a_rev e) / 2pi) on par and -epsilon on corners.
    """
    nd = g.nd
    d = np.arange(nd)
    a, beta = g.a_angles(), g.beta()
    # the phase counts k of epsilon and of omega's par block, signs (-1)^k
    k = np.rint(np.concatenate([beta + a - a[g.rot], math.pi + a - a[d ^ 1]])
                / TWO_PI).astype(int)
    eps, par = np.split(1 - 2 * (k & 1), 2)
    w = np.tile(d, 3)
    b = np.concatenate([d, d ^ 1, g.rot])
    omega_tilde = np.concatenate([np.ones(nd), np.full(nd, 1j),
                                  -np.exp(0.5j * beta)])
    no_shift = np.zeros_like(g.shift)
    shift = np.concatenate([no_shift, g.shift, no_shift])
    omega = np.concatenate([np.ones(nd, dtype=int), par, -eps])
    return CGraph(g, w, b, dimer_weights(g.theta), omega_tilde, shift, omega,
                  eps)


def c_face_products(c, vals):
    """Product of vals ** orientation around every face of C, and the sizes.

    ``vals`` holds one value per C-edge; orientation +1 traverses an edge
    white to black.  The faces are one rectangle per edge
    (w[d] -> b[rev d] -> w[rev d] -> b[d] -> w[d] for d = 2k), then one
    2 deg(v)-gon per vertex (corner d, then perp R(d), around v), then one
    2 |f|-gon per face f (par d, then the corner of the face successor of d,
    which ends at b[rev d]).
    """
    g = c.g
    nd = g.nd
    perp, par, corner = vals[:nd], vals[nd:2 * nd], vals[2 * nd:]
    rect = par[0::2] * par[1::2] / (perp[0::2] * perp[1::2])
    star = np.ones(g.nv, dtype=rect.dtype)
    np.multiply.at(star, g.origin, corner / perp[g.rot])
    face = np.ones(len(g.faces), dtype=rect.dtype)
    np.multiply.at(face, g.face_of, par / corner[g.rot_inv[np.arange(nd) ^ 1]])
    sizes = np.concatenate([np.full(g.ne, 4), 2 * np.bincount(g.origin),
                            2 * np.bincount(g.face_of)])
    return np.concatenate([rect, star, face]), sizes


def validate_kasteleyn(c, orientation=None):
    """Face products of a +-1 orientation against (-1)^(|f|/2 + 1).

    Also checks, on the torus, that the unit cochain omega_tilde squares to 1
    around both homology generators.  Returns a report dictionary.
    """
    omega = c.omega if orientation is None else np.asarray(orientation)
    prods, sizes = c_face_products(c, omega)
    prods = np.rint(prods).astype(int)
    want = (-1) ** (sizes // 2 + 1)
    good = prods == want
    ok = bool(good.all())
    report = {"faces": [{"face": i, "product": p, "expected": e, "pass": k}
                        for i, (p, e, k) in enumerate(zip(
                            prods.tolist(), want.tolist(), good.tolist()))],
              "pass": ok}
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
    if g.surface != "torus":
        return np.zeros((2 * g.nd, 2), dtype=int)
    rev = np.arange(g.nd) ^ 1
    half = 0.5 * edge_vectors(g)
    mid = np.repeat(reduce_to_domain(g, g.vcoords[g.origin[::2]] + half[::2]),
                    2, axis=0)
    off = face_offsets(g)
    centre = reduce_to_domain(g, face_centroids(g, off))[g.face_of[rev]]
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
    ``EmbeddedGraph.transition_entries`` are (graphs are not mutated after
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
    mean = np.zeros((len(g.faces), 2))
    np.add.at(mean, g.face_of, centers)
    mean /= np.bincount(g.face_of)[:, None]
    if np.max(np.abs(centers - mean[g.face_of])) > tol * max(delta, 1.0):
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
