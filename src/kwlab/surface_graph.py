"""Combinatorial maps with angle data: embedded weighted graphs on the plane and flat torus.

A graph with E edges is stored as 2E darts (oriented edges).  Dart 2k is edge k
traversed from its first endpoint, dart 2k+1 is the reversal; ``d ^ 1`` flips a
dart.  The rotation ``rot[d]`` is the next dart counterclockwise with the same
origin, faces are the orbits of ``d -> rot_inv[d ^ 1]`` (each face lies to the
left of its darts), and every dart carries a direction angle measured against
the constant horizontal vector field.  The direction angles are the only
geometric input the operator modules consume.

Edge weights live in [0, 1] and are parametrized by ``x = tan(theta / 2)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

ANGLE_TIE_TOL = 1e-12
ANGLE_SUM_TOL = 1e-9


class GraphError(ValueError):
    """Invalid graph data (bad weights, coincident darts, broken invariants)."""


class SizeGuardError(RuntimeError):
    """An exact-enumeration size guard was exceeded."""


def principal_angle(a):
    """Reduce an angle to the open-ish interval (-pi, pi]."""
    a = (a + math.pi) % TWO_PI - math.pi
    if a <= -math.pi:
        a += TWO_PI
    return a


class Weights:
    """Edge weight system x in [0,1]^E with the half-angle parametrization.

    ``x = tan(theta/2)`` with theta in [0, pi/2]; the dual weights solve
    x + x* + x x* = 1, equivalently theta + theta* = pi/2.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise GraphError("weights must be a flat array")
        if not np.all(np.isfinite(x)):
            raise GraphError("edge weights must be finite")
        if np.any(x < -1e-15) or np.any(x > 1.0 + 1e-15):
            raise GraphError("edge weights must lie in [0, 1]")
        self.x = np.clip(x, 0.0, 1.0)
        self.theta = 2.0 * np.arctan(self.x)

    @classmethod
    def from_couplings(cls, j, beta):
        j = np.asarray(j, dtype=float)
        if np.any(j <= 0):
            raise GraphError("couplings J must be positive")
        if beta < 0:
            raise GraphError("inverse temperature must be nonnegative")
        return cls(np.tanh(beta * j))

    def dual(self):
        return Weights((1.0 - self.x) / (1.0 + self.x))

    def __len__(self):
        return len(self.x)


@dataclass
class EmbeddedGraph:
    """A weighted graph embedded in the plane (genus 0) or a flat torus (genus 1).

    Attributes
    ----------
    surface : 'planar' or 'torus'
    lattice : 2x2 array, rows are the torus generators (None on the plane)
    vcoords : (V, 2) vertex coordinates (fundamental-domain representatives)
    origin  : (2E,) origin vertex of each dart
    dirang  : (2E,) direction angle of each dart in [0, 2pi)
    shift   : (2E, 2) integer homology winding of each dart
    rot     : (2E,) rotation system, next counterclockwise dart at the origin
    x, theta: (E,) edge weights
    """

    surface: str
    lattice: np.ndarray | None
    vcoords: np.ndarray
    origin: np.ndarray
    dirang: np.ndarray
    shift: np.ndarray
    rot: np.ndarray
    x: np.ndarray
    theta: np.ndarray
    faces: tuple = field(default=())
    face_of: np.ndarray = field(default=None)
    rot_inv: np.ndarray = field(default=None)
    genus: int = 0
    darts_at: tuple = field(default=())

    # -- basic accessors ---------------------------------------------------

    @property
    def nv(self):
        return len(self.vcoords)

    @property
    def ne(self):
        return len(self.x)

    @property
    def nd(self):
        return 2 * len(self.x)

    def rev(self, d):
        return d ^ 1

    def terminus(self, d):
        return int(self.origin[d ^ 1])

    def edge_vec(self, d):
        """Displacement vector of a dart, lattice shifts included."""
        v = self.vcoords[self.origin[d ^ 1]] - self.vcoords[self.origin[d]]
        if self.lattice is not None:
            v = v + self.shift[d] @ self.lattice
        return v

    def a_angles(self):
        """Direction angles reduced to (-pi, pi] (the branch used for square roots)."""
        a = self.dirang.copy()
        a[a > math.pi] -= TWO_PI
        return a

    def beta(self):
        """Per-dart counterclockwise gap to the next dart at the same origin, in (0, 2pi]."""
        b = (self.dirang[self.rot] - self.dirang) % TWO_PI
        b[b < 1e-13] = TWO_PI
        return b

    def face_rotation(self, f):
        """Total turning of the velocity along a face boundary (odd multiple of 2pi)."""
        darts = self.faces[f]
        b = self.beta()
        return math.pi * len(darts) - float(sum(b[d] for d in darts))

    def x_dual(self):
        return (1.0 - self.x) / (1.0 + self.x)

    def theta_dual(self):
        return math.pi / 2 - self.theta

    # -- validation --------------------------------------------------------

    def validate(self, check_angle_sums=True):
        nd = self.nd
        if self.rot.shape != (nd,):
            raise GraphError("rotation permutation has wrong size")
        if sorted(self.rot.tolist()) != list(range(nd)):
            raise GraphError("rotation is not a permutation of the darts")
        for d in range(nd):
            if self.origin[self.rot[d]] != self.origin[d]:
                raise GraphError("rotation moves a dart to a different vertex")
            delta = principal_angle(self.dirang[d ^ 1] - self.dirang[d] - math.pi)
            if abs(delta) > ANGLE_TIE_TOL:
                raise GraphError("reversed dart is not rotated by pi")
        if np.any(self.x < -1e-15) or np.any(self.x > 1 + 1e-15):
            raise GraphError("edge weights outside [0, 1]")
        if np.max(np.abs(self.theta - 2.0 * np.arctan(self.x))) > 1e-14:
            raise GraphError("theta and x are inconsistent")
        chi = self.nv - self.ne + len(self.faces)
        if chi != 2 - 2 * self.genus:
            raise GraphError("Euler characteristic does not match the genus")
        if self.surface == "planar" and np.any(self.shift != 0):
            raise GraphError("planar graphs cannot wind around a lattice")
        if check_angle_sums:
            b = self.beta()
            for v in range(self.nv):
                s = float(sum(b[d] for d in self.darts_at[v]))
                if abs(s - TWO_PI) > ANGLE_SUM_TOL:
                    raise GraphError(
                        f"angle gaps at vertex {v} sum to {s}, expected 2pi"
                    )
            for f in range(len(self.faces)):
                r = self.face_rotation(f) / TWO_PI
                if abs(r - round(r)) > ANGLE_SUM_TOL or round(r) % 2 == 0:
                    raise GraphError(
                        f"face {f} boundary rotation {r} (x 2pi) is not an odd integer"
                    )
        return self

    # -- io ------------------------------------------------------------------

    def to_json(self):
        edges = []
        for k in range(self.ne):
            e = {
                "id": k,
                "u": int(self.origin[2 * k]),
                "v": int(self.origin[2 * k + 1]),
                "x": float(self.x[k]),
            }
            if self.surface == "torus":
                e["shift"] = [int(self.shift[2 * k, 0]), int(self.shift[2 * k, 1])]
            edges.append(e)
        obj = {
            "surface": self.surface,
            "vertices": [
                {"id": i, "x": float(p[0]), "y": float(p[1])}
                for i, p in enumerate(self.vcoords)
            ],
            "edges": edges,
        }
        if self.lattice is not None:
            obj["lattice"] = [[float(a) for a in row] for row in self.lattice]
        return obj


def _close_graph(surface, lattice, vcoords, origin, dirang, shift, weights,
                 rot=None):
    """Fill in rotation (by angle sorting unless given), faces, genus; validate."""
    nd = len(origin)
    nv = len(vcoords)
    darts_at = [[] for _ in range(nv)]
    for d in range(nd):
        darts_at[origin[d]].append(d)
    if rot is None:
        rot = np.empty(nd, dtype=int)
        for v in range(nv):
            ds = sorted(darts_at[v], key=lambda d: dirang[d])
            for i in range(len(ds) - 1):
                if dirang[ds[i + 1]] - dirang[ds[i]] < ANGLE_TIE_TOL:
                    raise GraphError(
                        f"coincident dart directions at vertex {v}"
                    )
            if len(ds) >= 2 and (dirang[ds[0]] + TWO_PI - dirang[ds[-1]]) < ANGLE_TIE_TOL:
                raise GraphError(f"coincident dart directions at vertex {v}")
            for i, d in enumerate(ds):
                rot[d] = ds[(i + 1) % len(ds)]
    rot_inv = np.empty(nd, dtype=int)
    rot_inv[rot] = np.arange(nd)

    face_of = np.full(nd, -1, dtype=int)
    faces = []
    for d0 in range(nd):
        if face_of[d0] >= 0:
            continue
        cyc = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = len(faces)
            cyc.append(d)
            d = int(rot_inv[d ^ 1])
        faces.append(tuple(cyc))

    chi = nv - nd // 2 + len(faces)
    if chi % 2 != 0 or chi > 2:
        raise GraphError(f"Euler characteristic {chi} is not realizable")
    genus = (2 - chi) // 2

    g = EmbeddedGraph(
        surface=surface,
        lattice=None if lattice is None else np.asarray(lattice, dtype=float),
        vcoords=np.asarray(vcoords, dtype=float),
        origin=np.asarray(origin, dtype=int),
        dirang=np.asarray(dirang, dtype=float),
        shift=np.asarray(shift, dtype=int),
        rot=rot,
        x=weights.x,
        theta=weights.theta,
        faces=tuple(faces),
        face_of=face_of,
        rot_inv=rot_inv,
        genus=genus,
        darts_at=tuple(tuple(ds) for ds in darts_at),
    )
    return g


def _paired_angles(raw):
    """Map raw per-canonical-dart angles into [0, 2pi) with exact pi reversal."""
    nd = 2 * len(raw)
    dirang = np.empty(nd)
    for k, a in enumerate(raw):
        a = a % TWO_PI
        dirang[2 * k] = a
        dirang[2 * k + 1] = a + math.pi if a < math.pi else a - math.pi
    return dirang


def build_planar(vertex_coords, edge_list, weights, dart_angles=None):
    """Straight-line planar embedded graph.

    ``edge_list`` is a list of vertex-id pairs; the rotation at each vertex is
    the counterclockwise order of the edge direction angles, which must be
    pairwise distinct (parallel edges and loops are rejected).
    """
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if len(weights) != len(edge_list):
        raise GraphError("one weight per edge required")
    ne = len(edge_list)
    origin = np.empty(2 * ne, dtype=int)
    raw = np.empty(ne)
    for k, (u, v) in enumerate(edge_list):
        if u == v:
            raise GraphError("planar loops are not embeddable with straight edges")
        origin[2 * k] = u
        origin[2 * k + 1] = v
        d = vcoords[v] - vcoords[u]
        if np.hypot(d[0], d[1]) < 1e-14:
            raise GraphError("zero-length edge")
        raw[k] = math.atan2(d[1], d[0])
    dirang = _paired_angles(raw)
    if dart_angles:
        for d, a in dart_angles.items():
            dirang[int(d)] = float(a) % TWO_PI
    shift = np.zeros((2 * ne, 2), dtype=int)
    g = _close_graph("planar", None, vcoords, origin, dirang, shift, weights)
    if g.genus != 0:
        raise GraphError("planar constructor produced nonzero genus")
    return g.validate()


def build_torus(lattice, vertex_coords, edge_list, weights, dart_angles=None):
    """Graph on a flat torus R^2 / (Z L1 + Z L2).

    ``edge_list`` entries are ``(u, v)`` or ``(u, v, (s1, s2))``; the edge runs
    from u to the copy of v displaced by ``s1 L1 + s2 L2``.  Parallel edges and
    loops are fine as long as their direction angles differ.
    """
    lattice = np.asarray(lattice, dtype=float)
    if lattice.shape != (2, 2) or abs(np.linalg.det(lattice)) < 1e-12:
        raise GraphError("lattice must be an invertible 2x2 matrix")
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if len(weights) != len(edge_list):
        raise GraphError("one weight per edge required")
    ne = len(edge_list)
    origin = np.empty(2 * ne, dtype=int)
    shift = np.zeros((2 * ne, 2), dtype=int)
    raw = np.empty(ne)
    for k, spec in enumerate(edge_list):
        if len(spec) == 2:
            u, v = spec
            s = (0, 0)
        else:
            u, v, s = spec
        origin[2 * k] = u
        origin[2 * k + 1] = v
        shift[2 * k] = s
        shift[2 * k + 1] = (-s[0], -s[1])
        d = vcoords[v] - vcoords[u] + np.array(s, dtype=float) @ lattice
        if np.hypot(d[0], d[1]) < 1e-14:
            raise GraphError("zero-length displacement on the torus")
        raw[k] = math.atan2(d[1], d[0])
    dirang = _paired_angles(raw)
    if dart_angles:
        for d, a in dart_angles.items():
            dirang[int(d)] = float(a) % TWO_PI
    g = _close_graph("torus", lattice, vcoords, origin, dirang, shift, weights)
    if g.genus != 1:
        raise GraphError(f"torus data has genus {g.genus}, expected 1")
    return g.validate()


# -- cochains ----------------------------------------------------------------


class Cochain:
    """Multiplicative nonzero complex function on darts with phi(rev e) = phi(e)^-1."""

    def __init__(self, g, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (g.nd,):
            raise GraphError("one value per dart required")
        if np.any(np.abs(values) < 1e-300):
            raise GraphError("cochain values must be nonzero")
        prod = values * values[np.arange(g.nd) ^ 1]
        if np.max(np.abs(prod - 1.0)) > 1e-12:
            raise GraphError("cochain must invert under dart reversal")
        self.g = g
        self.values = values

    @classmethod
    def trivial(cls, g):
        return cls(g, np.ones(g.nd, dtype=complex))

    def __getitem__(self, d):
        return self.values[d]

    def is_cocycle(self, tol=1e-9):
        for f in self.g.faces:
            p = complex(np.prod([self.values[d] for d in f]))
            if abs(p - 1.0) > tol:
                return False
        return True

    def gauge(self, vertex, c):
        """Multiply every dart leaving ``vertex`` by c (and entering by 1/c)."""
        vals = self.values.copy()
        for d in self.g.darts_at[vertex]:
            vals[d] *= c
            vals[d ^ 1] /= c
        return Cochain(self.g, vals)


def character_cochain(g, z, w):
    """Cocycle z^s1 w^s2 read off the homology winding of each dart (torus only)."""
    if g.genus != 1:
        raise GraphError("characters require a genus-1 graph")
    z = complex(z)
    w = complex(w)
    if z == 0 or w == 0:
        raise GraphError("character components must be nonzero")
    vals = np.array(
        [z ** int(s1) * w ** int(s2) for s1, s2 in g.shift], dtype=complex
    )
    return Cochain(g, vals)


def turning(g, d1, d2):
    """Velocity rotation from dart d1 to a successor dart d2, in (-pi, pi).

    Requires terminus(d1) = origin(d2) and forbids backtracking d2 = rev(d1).
    """
    if g.origin[d2] != g.terminus(d1):
        raise GraphError("darts are not consecutive")
    if d2 == (d1 ^ 1):
        raise GraphError("backtracking turn is excluded")
    return principal_angle(g.dirang[d2] - g.dirang[d1])


# -- dual graph ---------------------------------------------------------------


def _face_trace_positions(g, d0, anchor):
    """Corner positions of the face left of d0, walked from ``anchor`` at o(d0)."""
    pos = np.asarray(anchor, dtype=float)
    pts = []
    d = d0
    while True:
        pts.append(pos)
        pos = pos + g.edge_vec(d)
        d = int(g.rot_inv[d ^ 1])
        if d == d0:
            break
    return np.array(pts)


def face_centroid(g, f):
    """Centroid of a face walked from its first recorded dart (torus lift local)."""
    d0 = g.faces[f][0]
    pts = _face_trace_positions(g, d0, g.vcoords[g.origin[d0]])
    return pts.mean(axis=0)


def dual(g):
    """Dual embedded graph: vertices are faces, dart d* is d turned by +pi/2.

    The dual rotation is derived combinatorially from the face structure
    (rot* = reversal o rot^-1), so the dual of a dual is canonically the
    original graph.  Dual weights solve x + x* + x x* = 1.  On the torus the
    homology shifts of the dual darts are recovered from face-centroid lifts.
    Planar duals carry valid combinatorics and weights, but the angle-sum
    invariant necessarily fails at the outer-face vertex under the constant
    reference field, so it is not re-checked here.
    """
    nf = len(g.faces)
    nd = g.nd
    origin = np.empty(nd, dtype=int)
    for d in range(nd):
        origin[d] = g.face_of[d ^ 1]
    dirang = (g.dirang + math.pi / 2) % TWO_PI
    rot = np.empty(nd, dtype=int)
    for d in range(nd):
        rot[d] = int(g.rot_inv[d]) ^ 1

    vstar = np.array([face_centroid(g, f) for f in range(nf)])
    shift = np.zeros((nd, 2), dtype=int)
    if g.surface == "torus":
        lat_inv = np.linalg.inv(g.lattice)
        red = vstar @ lat_inv
        red -= np.floor(red)
        vstar = red @ g.lattice
        for k in range(g.ne):
            d = 2 * k
            anchor = g.vcoords[g.origin[d]]
            c_left = _face_trace_positions(g, d, anchor).mean(axis=0)
            c_right = _face_trace_positions(
                g, d ^ 1, anchor + g.edge_vec(d)
            ).mean(axis=0)
            vec = c_left - c_right
            stored = vstar[g.face_of[d]] - vstar[g.face_of[d ^ 1]]
            s = (vec - stored) @ lat_inv
            s_int = np.round(s).astype(int)
            if np.max(np.abs(s - s_int)) > 1e-6:
                raise GraphError("dual shift did not land on the lattice")
            shift[d] = s_int
            shift[d ^ 1] = -s_int

    weights = Weights(g.x_dual())
    gd = _close_graph(
        g.surface,
        g.lattice,
        vstar,
        origin,
        dirang,
        shift,
        weights,
        rot=rot,
    )
    if gd.genus != g.genus:
        raise GraphError("dual changed the genus")
    gd.validate(check_angle_sums=(g.surface == "torus"))
    return gd


# -- json interchange ---------------------------------------------------------


def graph_from_json(obj):
    """Build a graph from the interchange dictionary (or JSON text).

    Exactly one of ``x``, ``theta``, ``J`` per edge; ``J`` requires a top-level
    ``beta`` and sets x = tanh(beta J).  Optional ``dart_angles`` overrides the
    computed direction angles (validated, not recomputed).
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    try:
        surface = obj["surface"]
        verts = sorted(obj["vertices"], key=lambda r: r["id"])
        if [r["id"] for r in verts] != list(range(len(verts))):
            raise GraphError("vertex ids must be 0..V-1")
        coords = [(r["x"], r["y"]) for r in verts]
        edges = sorted(obj["edges"], key=lambda r: r["id"])
        if [r["id"] for r in edges] != list(range(len(edges))):
            raise GraphError("edge ids must be 0..E-1")
    except KeyError as exc:
        raise GraphError(f"missing graph field: {exc}") from exc

    xs = np.empty(len(edges))
    for r in edges:
        given = [k for k in ("x", "theta", "J") if k in r]
        if len(given) != 1:
            raise GraphError("each edge needs exactly one of x, theta, J")
        if "x" in r:
            xs[r["id"]] = r["x"]
        elif "theta" in r:
            xs[r["id"]] = math.tan(float(r["theta"]) / 2.0)
        else:
            if "beta" not in obj:
                raise GraphError("J weights require a top-level beta")
            xs[r["id"]] = math.tanh(float(obj["beta"]) * float(r["J"]))
    weights = Weights(xs)
    angles = obj.get("dart_angles")
    if angles is not None:
        angles = {int(k): float(v) for k, v in angles.items()}

    if surface == "planar":
        pairs = [(r["u"], r["v"]) for r in edges]
        return build_planar(coords, pairs, weights, dart_angles=angles)
    if surface == "torus":
        if "lattice" not in obj:
            raise GraphError("torus graphs need a lattice")
        triples = [
            (r["u"], r["v"], tuple(r.get("shift", (0, 0)))) for r in edges
        ]
        return build_torus(obj["lattice"], coords, triples, weights,
                           dart_angles=angles)
    raise GraphError(f"unknown surface {surface!r}")
