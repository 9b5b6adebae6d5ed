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

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

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
        if not np.isfinite(x).all():
            raise GraphError("edge weights must be finite")
        if (x < -1e-15).any() or (x > 1.0 + 1e-15).any():
            raise GraphError("edge weights must lie in [0, 1]")
        self.x = np.clip(x, 0.0, 1.0)
        self.theta = 2.0 * np.arctan(self.x)

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

    def terminus(self, d):
        return int(self.origin[d ^ 1])

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

    def face_rotation(self, f, beta=None):
        """Total turning of the velocity along a face boundary (odd multiple of 2pi)."""
        darts = self.faces[f]
        b = self.beta() if beta is None else beta
        return math.pi * len(darts) - float(sum(b[d] for d in darts))

    @cached_property
    def transition_entries(self):
        """Dart transitions as (e, e', exp(i alpha(e, e') / 2)) triples, one
        per non-backtracking continuation e -> e' (o(e') = t(e), e' != rev e),
        in row-major order.

        They depend only on the embedding; graphs are not mutated after
        construction, so they are found once per graph.
        """
        nd = self.nd
        e, e2 = np.nonzero(self.origin[np.arange(nd) ^ 1][:, None]
                           == self.origin[None, :])
        keep = e2 != (e ^ 1)
        e, e2 = e[keep], e2[keep]
        # principal_angle, elementwise
        alpha = (self.dirang[e2] - self.dirang[e] + math.pi) % TWO_PI - math.pi
        alpha[alpha <= -math.pi] += TWO_PI
        return e, e2, np.exp(0.5j * alpha)

    @cached_property
    def transition_signs(self):
        """The ``transition_entries`` values in the half-angle gauge,
        exp(i a(e)/2) exp(i alpha(e, e')/2) exp(-i a(e')/2) with a = dirang:
        exactly +-1, since a(e) - a(e') + alpha(e, e') is a multiple of 2 pi.
        Dense, they are the +-1 transition T'."""
        e, e2, phase = self.transition_entries
        h = np.exp(0.5j * self.dirang)
        return np.rint((h[e] * phase * h[e2].conj()).real)

    @cached_property
    def skew_signs(self):
        """Signs s making diag(s) J (I - T'[phi]) skew-symmetric, for the
        trivial cochain; J is the dart reversal and T' the +-1 transition of
        ``transition_signs``.

        Skewness asks s(rev e) = -s(e) and s(e) T'[rev e, f] = -s(f)
        T'[rev f, e], where the reversal rev f -> e of a continuation
        rev e -> f is a continuation too, found by its row-major key.  The
        system is solved by a search over the darts and checked.  A +-1
        cochain phi multiplies both sides of the second condition by
        phi(e) phi(f), so s * phi solves it for phi.
        """
        nd = self.nd
        rev = np.arange(nd) ^ 1
        e, e2, _ = self.transition_entries
        # the entries (r, c) of J T', (J T')[r, c] = T'[rev r, c], and their
        # transposes (J T')[c, r] = T'[rev c, r], the continuation rev e2 ->
        # rev e read at its row-major key
        r, c = e ^ 1, e2
        jt = self.transition_signs
        jt_t = jt[np.searchsorted(e * nd + e2, (c ^ 1) * nd + r)]
        links = [[(e ^ 1, -1.0)] for e in range(nd)]
        for e, f, p in zip(r.tolist(), c.tolist(), (-jt * jt_t).tolist()):
            links[e].append((f, p))
        s = np.zeros(nd)
        for root in range(nd):
            if s[root]:
                continue
            s[root] = 1.0
            stack = [root]
            while stack:
                e = stack.pop()
                for f, p in links[e]:
                    if not s[f] and p:
                        s[f] = p * s[e]
                        stack.append(f)
        # the first pair (e, f), row-major, where diag(s) J or diag(s) J T'
        # is not skew; (f, e) fails with it
        bad = np.flatnonzero(s[rev] != -s)
        bad_t = s[r] * jt != -s[c] * jt_t
        pairs = np.concatenate([r[bad_t] * nd + c[bad_t],
                                c[bad_t] * nd + r[bad_t]])
        if bad.size or pairs.size:
            e, f = ((bad[0], bad[0] ^ 1) if bad.size
                    else divmod(int(pairs.min()), nd))
            raise GraphError("no signs make the Kac-Ward Pfaffian matrix "
                             f"skew: darts {e} and {f} conflict")
        return s

    def theta_dual(self):
        return math.pi / 2 - self.theta

    # -- validation --------------------------------------------------------

    def validate(self, check_angle_sums=True):
        nd = self.nd
        if self.rot.shape != (nd,):
            raise GraphError("rotation permutation has wrong size")
        if sorted(self.rot.tolist()) != list(range(nd)):
            raise GraphError("rotation is not a permutation of the darts")
        if (self.origin[self.rot] != self.origin).any():
            raise GraphError("rotation moves a dart to a different vertex")
        turn = (self.dirang[np.arange(nd) ^ 1] - self.dirang) % TWO_PI
        if (np.abs(turn - math.pi) > ANGLE_TIE_TOL).any():
            raise GraphError("reversed dart is not rotated by pi")
        if (self.x < -1e-15).any() or (self.x > 1 + 1e-15).any():
            raise GraphError("edge weights outside [0, 1]")
        if np.abs(self.theta - 2.0 * np.arctan(self.x)).max() > 1e-14:
            raise GraphError("theta and x are inconsistent")
        chi = self.nv - self.ne + len(self.faces)
        if chi != 2 - 2 * self.genus:
            raise GraphError("Euler characteristic does not match the genus")
        if self.surface == "planar" and self.shift.any():
            raise GraphError("planar graphs cannot wind around a lattice")
        if check_angle_sums:
            b = self.beta()
            sums = np.bincount(self.origin, weights=b, minlength=self.nv)
            bad = np.flatnonzero(np.abs(sums - TWO_PI) > ANGLE_SUM_TOL)
            if bad.size:
                raise GraphError(f"angle gaps at vertex {bad[0]} sum to "
                                 f"{float(sums[bad[0]])}, expected 2pi")
            # face_rotation of every face: each face's gaps summed in walk order
            size = np.fromiter(map(len, self.faces), dtype=int)
            darts = np.fromiter(itertools.chain(*self.faces), dtype=int)
            gaps = np.bincount(np.repeat(np.arange(len(size)), size),
                               weights=b[darts], minlength=len(size))
            r = (math.pi * size - gaps) / TWO_PI
            k = np.round(r)
            bad = np.flatnonzero((np.abs(r - k) > ANGLE_SUM_TOL) | (k % 2 == 0))
            if bad.size:
                raise GraphError(f"face {bad[0]} boundary rotation "
                                 f"{float(r[bad[0]])} (x 2pi) is not an odd "
                                 "integer")
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
    """Fill in rotation (by angle sorting unless given), faces and genus."""
    nd = len(origin)
    nv = len(vcoords)
    by_origin = np.argsort(origin, kind="stable").tolist()
    ends = np.cumsum(np.bincount(origin, minlength=nv)).tolist()
    darts_at = tuple(tuple(by_origin[i:j]) for i, j in zip([0] + ends, ends))
    if rot is None:
        # each vertex's darts by angle; rot is the next one, cyclically
        order = np.lexsort((dirang, origin))
        o, a = origin[order], dirang[order]
        new = o[1:] != o[:-1]
        first = np.concatenate(([True], new))
        last = np.concatenate((new, [True]))
        nxt = np.arange(1, nd + 1)
        nxt[last] = np.flatnonzero(first)
        # the last dart's gap wraps across 2pi; a lone dart's gap is 2pi
        tie = a[nxt] + TWO_PI * last - a < ANGLE_TIE_TOL
        if tie.any():
            raise GraphError(
                f"coincident dart directions at vertex {o[tie].min()}")
        rot = np.empty(nd, dtype=int)
        rot[order] = order[nxt]
    rot_inv = np.empty(nd, dtype=int)
    rot_inv[rot] = np.arange(nd)

    step = rot_inv[np.arange(nd) ^ 1].tolist()
    face_of = [-1] * nd
    faces = []
    for d0 in range(nd):
        if face_of[d0] >= 0:
            continue
        cyc = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = len(faces)
            cyc.append(d)
            d = step[d]
        faces.append(tuple(cyc))

    chi = nv - nd // 2 + len(faces)
    if chi % 2 != 0 or chi > 2:
        raise GraphError(f"Euler characteristic {chi} is not realizable")
    genus = (2 - chi) // 2

    return EmbeddedGraph(
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
        face_of=np.array(face_of),
        rot_inv=rot_inv,
        genus=genus,
        darts_at=darts_at,
    )


def _build(surface, lattice, vertex_coords, edge_list, weights, dart_angles):
    """Darts, shifts and straight-line direction angles of ``edge_list``
    ((u, v) or (u, v, (s1, s2)) entries), with exact pi reversal and the
    ``dart_angles`` overrides {dart: angle}, closed into a graph."""
    if len(edge_list) == 0:
        raise GraphError("a graph needs at least one edge")
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if len(weights) != len(edge_list):
        raise GraphError("one weight per edge required")
    nd = 2 * len(edge_list)
    # one row (u, v, s1, s2) per edge
    uvs = np.array([(*e[:2], *(e[2] if len(e) == 3 else (0, 0)))
                    for e in edge_list], dtype=int)
    origin, s = uvs[:, :2].ravel(), uvs[:, 2:]
    if origin.min() < 0 or origin.max() >= len(vcoords):
        raise GraphError("edge endpoints must be vertex ids 0..V-1")
    if lattice is None and (uvs[:, 0] == uvs[:, 1]).any():
        raise GraphError("planar loops are not embeddable with straight edges")
    shift = np.concatenate([s, -s], axis=1).reshape(nd, 2)
    uv = vcoords[origin].reshape(-1, 2, 2)
    d = uv[:, 1] - uv[:, 0]
    if lattice is not None:
        d = d + s @ lattice
    if (np.hypot(d[:, 0], d[:, 1]) < 1e-14).any():
        raise GraphError("zero-length edge" if lattice is None else
                         "zero-length displacement on the torus")
    # math.atan2, not np.arctan2: they differ in the last bit
    a = np.array([math.atan2(y, x) for x, y in d.tolist()]) % TWO_PI
    dirang = np.array([a, np.where(a < math.pi, a + math.pi, a - math.pi)]
                      ).T.ravel()
    for dart, ang in (dart_angles or {}).items():
        if not 0 <= int(dart) < nd:
            raise GraphError(f"dart_angles: {dart} is not a dart id 0..2E-1")
        if not math.isfinite(float(ang)):
            raise GraphError(f"dart_angles: the angle of dart {dart} is not "
                             "finite")
        dirang[int(dart)] = float(ang) % TWO_PI
    return _close_graph(surface, lattice, vcoords, origin, dirang, shift,
                        weights)


def build_planar(vertex_coords, edge_list, weights, dart_angles=None):
    """Straight-line planar embedded graph.

    ``edge_list`` is a list of vertex-id pairs; the rotation at each vertex is
    the counterclockwise order of the edge direction angles, which must be
    pairwise distinct (parallel edges and loops are rejected).
    """
    g = _build("planar", None, vertex_coords, edge_list, weights, dart_angles)
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
    if not np.isfinite(lattice).all():
        raise GraphError("lattice entries must be finite")
    if lattice.shape != (2, 2) or abs(np.linalg.det(lattice)) < 1e-12:
        raise GraphError("lattice must be an invertible 2x2 matrix")
    g = _build("torus", lattice, vertex_coords, edge_list, weights,
               dart_angles)
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

    def is_cocycle(self, tol=1e-9):
        p = np.ones(len(self.g.faces), dtype=complex)
        np.multiply.at(p, self.g.face_of, self.values)
        return not np.any(np.abs(p - 1.0) > tol)

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
    if complex(z) == 0 or complex(w) == 0:
        raise GraphError("character components must be nonzero")
    return Cochain(g, shift_character(g.shift, z, w))


def shift_character(shift, z, w):
    """z^s1 w^s2 for each row (s1, s2) of an integer winding array; array
    ``z`` and ``w`` broadcast as leading axes of the result."""
    z = np.asarray(z, dtype=complex)[..., None]
    w = np.asarray(w, dtype=complex)[..., None]
    return z ** shift[:, 0] * w ** shift[:, 1]


def cycle_with_winding(adj, target):
    """A closed walk from node 0 whose windings sum to ``target``.

    ``adj[u]`` lists the (neighbour, label, shift) triples leaving node u.
    Breadth-first search in the Z^2 lift, from (0, (0, 0)) to (0, target);
    returns the labels along the walk.
    """
    start = (0, 0, 0)
    goal = (0, target[0], target[1])
    prev = {start: None}
    frontier = [start]
    bound = abs(target[0]) + abs(target[1]) + 2
    while frontier and goal not in prev:
        nxt = []
        for state in frontier:
            u, s1, s2 = state
            for v, label, (t1, t2) in adj[u]:
                t = (v, s1 + t1, s2 + t2)
                if abs(t[1]) > bound or abs(t[2]) > bound:
                    continue
                if t not in prev:
                    prev[t] = (state, label)
                    nxt.append(t)
        frontier = nxt
    if goal not in prev:
        raise GraphError(f"no cycle with winding {target} found")
    walk = []
    state = goal
    while prev[state] is not None:
        state, label = prev[state]
        walk.append(label)
    walk.reverse()
    return walk


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


def edge_vectors(g):
    """Displacement vectors of all darts (rows), lattice shifts included."""
    v = g.vcoords[g.origin[np.arange(g.nd) ^ 1]] - g.vcoords[g.origin]
    return v if g.lattice is None else v + g.shift @ g.lattice


def face_offsets(g):
    """Per dart d, the vector from o(d) to the centroid of the face left of d,
    both read along one walk of the face boundary from its first dart.

    The faces are padded to the longest one; the corners of each face are the
    running sums of its dart displacements, taken in walk order.
    """
    size = np.array([len(f) for f in g.faces])
    valid = np.arange(size.max()) < size[:, None]
    idx = np.zeros(valid.shape, dtype=int)
    darts = np.concatenate(g.faces)
    idx[valid] = darts
    # the padding sits after each face's darts, so no corner sums it
    pts = np.zeros((*idx.shape, 2))
    np.cumsum(edge_vectors(g)[idx[:, :-1]], axis=1, out=pts[:, 1:])
    centroid = pts.sum(axis=1, where=valid[..., None]) / size[:, None]
    off = np.empty((g.nd, 2))
    off[darts] = (centroid[:, None] - pts)[valid]
    return off


def face_centroids(g):
    """Centroid of every face, lifted from the origin of its first dart."""
    first = np.array([f[0] for f in g.faces])
    return g.vcoords[g.origin[first]] + face_offsets(g)[first]


def reduce_to_domain(g, pts):
    """Representatives of torus points (rows) in the fundamental domain."""
    r = pts @ np.linalg.inv(g.lattice)
    return (r - np.floor(r)) @ g.lattice


def lattice_shifts(g, disp, what):
    """Integer lattice coordinates of displacements (rows) that must be
    lattice vectors; GraphError names ``what`` otherwise."""
    s = disp @ np.linalg.inv(g.lattice)
    si = np.round(s).astype(int)
    if np.max(np.abs(s - si), initial=0.0) > 1e-6:
        raise GraphError(f"{what} did not land on the lattice")
    return si


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
    nd = g.nd
    rev = np.arange(nd) ^ 1
    origin = g.face_of[rev]
    dirang = (g.dirang + math.pi / 2) % TWO_PI
    rot = g.rot_inv ^ 1

    vstar = face_centroids(g)
    shift = np.zeros((nd, 2), dtype=int)
    if g.surface == "torus":
        vstar = reduce_to_domain(g, vstar)
        # left-face centroid minus right-face centroid, in the chart of d
        off = face_offsets(g)
        chart = off - edge_vectors(g) - off[rev]
        shift = lattice_shifts(g, chart - (vstar[g.face_of] - vstar[origin]),
                               "dual shift")

    weights = Weights(g.x).dual()
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
    computed direction angles (validated, not recomputed).  Malformed data
    (missing fields, wrong types, non-numeric or non-finite numbers, edge
    endpoints outside 0..V-1) raises GraphError.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    try:
        surface = obj["surface"]
        verts = sorted(obj["vertices"], key=lambda r: r["id"])
        if [r["id"] for r in verts] != list(range(len(verts))):
            raise GraphError("vertex ids must be 0..V-1")
        coords = np.array([(float(r["x"]), float(r["y"])) for r in verts])
        if not np.isfinite(coords).all():
            raise GraphError("vertex coordinates must be finite")
        edges = sorted(obj["edges"], key=lambda r: r["id"])
        if [r["id"] for r in edges] != list(range(len(edges))):
            raise GraphError("edge ids must be 0..E-1")
        if any(type(r[k]) is not int for r in edges for k in ("u", "v")):
            raise GraphError("edge endpoints must be vertex ids 0..V-1")

        xs = np.empty(len(edges))
        for r in edges:
            given = [k for k in ("x", "theta", "J") if k in r]
            if len(given) != 1:
                raise GraphError("each edge needs exactly one of x, theta, J")
            if "x" in r:
                xs[r["id"]] = float(r["x"])
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
            triples = [(r["u"], r["v"], tuple(int(s) for s in
                                              r.get("shift", (0, 0))))
                       for r in edges]
            return build_torus(obj["lattice"], coords, triples, weights,
                               dart_angles=angles)
    except GraphError:
        raise
    except KeyError as exc:
        raise GraphError(f"missing graph field: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise GraphError(f"malformed graph data: {exc}") from exc
    raise GraphError(f"unknown surface {surface!r}")
