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
import operator
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
    """Reduce an angle, or an array of them, to the interval (-pi, pi]."""
    a = (a + math.pi) % TWO_PI - math.pi
    return a + TWO_PI * (a <= -math.pi)


class Weights:
    """Edge weight system x in [0,1]^E with the half-angle parametrization.

    ``x = tan(theta/2)`` with theta in [0, pi/2]; the dual weights solve
    x + x* + x x* = 1, equivalently theta + theta* = pi/2.
    """

    def __init__(self, x):
        x = np.array(x, dtype=float)
        if x.ndim != 1:
            raise GraphError("weights must be a flat array")
        vals = x.tolist()
        if not all(map(math.isfinite, vals)):
            raise GraphError("edge weights must be finite")
        lo, hi = min(vals, default=0.0), max(vals, default=0.0)
        if lo < -1e-15 or hi > 1.0 + 1e-15:
            raise GraphError("edge weights must lie in [0, 1]")
        self.x = np.clip(x, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else x
        self.theta = 2.0 * np.arctan(self.x)

    def dual(self):
        return Weights((1.0 - self.x) / (1.0 + self.x))


@dataclass(frozen=True)
class SchurPattern:
    """Where the Schur complement of I - A on the darts ``rest`` takes its
    entries, for A supported on the continuations (``schur_pattern``).

    Index k < nk points into ``EmbeddedGraph.transition_entries``, and
    k = nk stands for a factor 1.  The darts S, all but ``rest``, leave an
    independent vertex set, so A_SS = 0 and the complement is
    I - A_RR - A_RS A_SR, r x r for r = len(rest).  Its terms are the
    entries R -> R and the two-step paths R -> S -> R, term t being
    A[first[t]] A[second[t]] (second = nk for an entry).  They are sorted
    by their flat row-major slot in the r x r matrix; ``starts`` are the
    first terms of each run of equal slots and ``slots`` the slots of the
    runs.  ``into_s`` and ``from_s`` are the entries R -> S and S -> R,
    which carry a right-hand side into R and the solution back out to S.
    """

    rest: np.ndarray
    first: np.ndarray
    second: np.ndarray
    starts: np.ndarray
    slots: np.ndarray
    into_s: np.ndarray
    from_s: np.ndarray


@dataclass(frozen=True)
class PfaffianPattern:
    """Where the real skew S of ``operators.sqrt_det_pfaffian`` takes its
    entries, and their graph-only factors (``pfaffian_pattern``).

    S = diag(s) J (I - B), B = |X|^1/2 Phi T' |X|^1/2, holds s(d) at
    (d, rev d), the flat row-major ``diag`` slots, and -s(rev e) B[e, f] at
    (rev e, f) for each continuation (e, f) of ``transition_entries``, the
    ``slots``.  With s = ``skew_signs`` Phi the latter is
    coef r(first) r(second): coef = -skew_signs(rev e) T'(e, f) is exactly
    +-1, and r = |x|^1/2 is read at the edges ``first`` and ``second`` of e
    and f.
    """

    slots: np.ndarray
    coef: np.ndarray
    first: np.ndarray
    second: np.ndarray
    diag: np.ndarray


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

    @cached_property
    def transition_entries(self):
        """Dart transitions as (e, e', exp(i alpha(e, e') / 2)) triples, one
        per non-backtracking continuation e -> e' (o(e') = t(e), e' != rev e),
        in row-major order.

        The continuations of e are the darts at t(e) but rev e (a loop's dart
        continues into itself); ``darts_at`` lists them in ascending order.
        They depend only on the embedding; graphs are not mutated after
        construction, so they are found once per graph.
        """
        # darts_at as a table, its short rows padded with -1
        width = max(map(len, self.darts_at))
        table = np.array([d + (-1,) * (width - len(d)) for d in self.darts_at])
        rev = np.arange(self.nd) ^ 1
        cand = table[self.origin[rev]]
        e, j = np.nonzero((cand >= 0) & (cand != rev[:, None]))
        e2 = cand[e, j]
        alpha = principal_angle(self.dirang[e2] - self.dirang[e])
        return e, e2, np.exp(0.5j * alpha)

    @cached_property
    def schur_pattern(self):
        """The ``SchurPattern`` of the Kac-Ward operators of this graph.

        S is the set of darts leaving an independent vertex set, chosen
        greedily by vertex id; a vertex with a loop never joins.  A dart of
        S ends at a vertex outside the set, so it continues into no dart of
        S, and det KW is the determinant of the complement on the other
        darts R.  On the square tori of even side S is one colour class of
        the checkerboard, so r = nd / 2; where every vertex carries a loop
        (the one-vertex tori) S is empty and the complement is I - A
        itself.  Found once per graph, like ``transition_entries``.
        """
        origin = self.origin.tolist()
        free = [True] * self.nv
        inside = [False] * self.nv
        for v, darts in enumerate(self.darts_at):
            ends = [origin[d ^ 1] for d in darts]
            if free[v] and v not in ends:
                inside[v] = True
                for w in ends:
                    free[w] = False
        e, e2, _ = self.transition_entries
        # numpy's method forms: the function wrappers cost more than the
        # work on a small graph
        in_s = np.array(inside)[self.origin]
        keep = ~in_s
        rest = keep.nonzero()[0]
        r = len(rest)
        pos = keep.cumsum() - 1         # the index in rest of each dart of R
        leaves, enters = in_s[e], in_s[e2]
        into_s = enters.nonzero()[0]
        # each row's entries are contiguous: the path through s = e2[k]
        # meets the n entries of row s from lo on
        s_rows = e2[into_s]
        lo = e.searchsorted(s_rows)
        n = e.searchsorted(s_rows, "right") - lo
        path = np.arange(n.sum()) + (lo - n.cumsum() + n).repeat(n)
        direct = (keep[e] & ~enters).nonzero()[0]
        first = np.concatenate([direct, into_s.repeat(n)])
        second = np.concatenate([np.full(len(direct), len(e)), path])
        slot = pos[e[first]] * r + pos[np.concatenate([e2[direct], e2[path]])]
        order = slot.argsort(kind="stable")
        slot = slot[order]
        new = np.ones(len(slot), dtype=bool)
        new[1:] = slot[1:] != slot[:-1]
        starts = new.nonzero()[0]
        return SchurPattern(rest, first[order], second[order], starts,
                            slot[starts], into_s, leaves.nonzero()[0])

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
        rev e -> f is a continuation too, found by its row-major key.  In the
        half-angle gauge s = c c(0) solves it, c(e) = +1 where rev e points
        pi above e and -1 where below (e below pi or not, on a built graph);
        it is checked.  A +-1 cochain phi multiplies both sides of the second
        condition by phi(e) phi(f), so s * phi solves it for phi.
        """
        nd = self.nd
        e, e2, _ = self.transition_entries
        # the entries (r, c) of J T', (J T')[r, c] = T'[rev r, c], and their
        # transposes (J T')[c, r] = T'[rev c, r], the continuation rev e2 ->
        # rev e read at its row-major key
        r, c = e ^ 1, e2
        jt = self.transition_signs
        jt_t = jt[np.searchsorted(e * nd + e2, (c ^ 1) * nd + r)]
        rev = np.arange(nd) ^ 1
        s = np.where(self.dirang[rev] > self.dirang, 1.0, -1.0)
        s *= s[0]
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

    @cached_property
    def pfaffian_pattern(self):
        """The ``PfaffianPattern`` of this graph, found once like
        ``schur_pattern``; GraphError where there are no ``skew_signs``."""
        nd = self.nd
        e, f, _ = self.transition_entries
        d = np.arange(nd)
        return PfaffianPattern((e ^ 1) * nd + f,
                               -self.skew_signs[e ^ 1] * self.transition_signs,
                               e >> 1, f >> 1, d * nd + (d ^ 1))

    @cached_property
    def lattice_inv(self):
        """The inverse of ``lattice``, found once per graph."""
        return np.linalg.inv(self.lattice)

    @cached_property
    def dual_graph(self):
        """The ``dual`` of this graph, built once per graph."""
        return dual(self)

    # -- io ------------------------------------------------------------------

    def to_json(self):
        """The interchange dictionary that ``graph_from_json`` reads."""
        edges = [{"id": k, "u": u, "v": v, "x": x} for k, ((u, v), x) in
                 enumerate(zip(self.origin.reshape(-1, 2).tolist(),
                               self.x.tolist()))]
        for e, s in zip(edges if self.surface == "torus" else (),
                        self.shift[::2].tolist()):
            e["shift"] = s
        obj = {"surface": self.surface,
               "vertices": [{"id": i, "x": x, "y": y}
                            for i, (x, y) in enumerate(self.vcoords.tolist())],
               "edges": edges}
        if self.lattice is not None:
            obj["lattice"] = self.lattice.tolist()
        return obj


def _close(surface, lattice, vcoords, origin, dirang, shift, weights, genus,
           rot=None, angle_sums=True, reversal=False):
    """The graph of genus ``genus`` on the darts ``origin``, ``dirang``
    (lists): the rotation by angle unless ``rot`` is given, ``darts_at``,
    and the faces along d -> rot^-1(rev d).  GraphError, in this order, on
    coincident directions, an Euler characteristic or genus that does not
    fit, a dart not reversed by pi (only if ``reversal``: the builders
    reverse exactly), a planar winding, and if ``angle_sums`` vertex gaps
    off 2pi (only a given ``rot`` can) or a face turning by 2pi k, k even."""
    nd, nv = len(origin), len(vcoords)
    darts_at = [[] for _ in range(nv)]
    for d, o in enumerate(origin):
        darts_at[o].append(d)
    given = rot is not None
    angles = np.array(dirang)
    if not given:
        # the darts by origin, then by angle (both sorts are stable); rot
        # is the next dart at the same origin, cyclically
        at = sorted(range(nd), key=dirang.__getitem__)
        at.sort(key=origin.__getitem__)
        nxt = at[1:] + at[:1]
        end = 0
        for ds in darts_at:
            if ds:
                end += len(ds)
                nxt[end - 1] = at[end - len(ds)]
        rot = np.empty(nd, dtype=int)
        rot[at] = nxt
    darts = np.arange(nd)
    rot_inv = np.empty(nd, dtype=int)
    rot_inv[rot] = darts
    # the gap to the next dart, in (0, 2pi] (``EmbeddedGraph.beta``): a
    # lone dart's is 2pi, and others below ANGLE_TIE_TOL are coincident
    gap = (angles[rot] - angles) % TWO_PI
    tie = (gap < ANGLE_TIE_TOL) & (rot != darts)
    if not given and tie.any():
        raise GraphError("coincident dart directions at vertex "
                         f"{np.array(origin)[tie].min()}")
    gap[gap < 1e-13] = TWO_PI
    gap = gap.tolist()

    # the faces by least dart, each walked from it, and their gaps' sums
    step = rot_inv[darts ^ 1].tolist()
    face_of = [-1] * nd
    faces, turned = [], []
    for d in range(nd):
        if face_of[d] < 0:
            f, walk, gaps = len(faces), [], 0.0
            while face_of[d] < 0:
                face_of[d] = f
                walk.append(d)
                gaps += gap[d]
                d = step[d]
            faces.append(tuple(walk))
            turned.append((math.pi * len(walk) - gaps) / TWO_PI)

    chi = nv - nd // 2 + len(faces)
    if chi % 2 != 0 or chi > 2:
        raise GraphError(f"Euler characteristic {chi} is not realizable")
    if (2 - chi) // 2 != genus:
        raise GraphError("planar constructor produced nonzero genus"
                         if surface == "planar" else
                         f"torus data has genus {(2 - chi) // 2}, expected 1")
    if reversal and any(abs((dirang[d ^ 1] - a) % TWO_PI - math.pi)
                        > ANGLE_TIE_TOL for d, a in enumerate(dirang)):
        raise GraphError("reversed dart is not rotated by pi")
    if surface == "planar" and shift.any():
        raise GraphError("planar graphs cannot wind around a lattice")
    if angle_sums and given:
        sums = np.bincount(origin, gap, nv)
        bad = np.flatnonzero(np.abs(sums - TWO_PI) > ANGLE_SUM_TOL)
        if bad.size:
            raise GraphError(f"angle gaps at vertex {bad[0]} sum to "
                             f"{float(sums[bad[0]])}, expected 2pi")
    for f, r in enumerate(turned if angle_sums else ()):
        k = round(r)
        if abs(r - k) > ANGLE_SUM_TOL or k % 2 == 0:
            raise GraphError(f"face {f} boundary rotation {r} (x 2pi) is not "
                             "an odd integer")
    return EmbeddedGraph(surface=surface, lattice=lattice, vcoords=vcoords,
                         origin=np.array(origin), dirang=angles, shift=shift,
                         rot=rot, x=weights.x, theta=weights.theta,
                         faces=tuple(faces), face_of=np.array(face_of),
                         rot_inv=rot_inv, genus=genus,
                         darts_at=tuple(map(tuple, darts_at)))


def _build(surface, lattice, vertex_coords, edge_list, weights, dart_angles):
    """Darts, shifts and straight-line direction angles of ``edge_list``
    ((u, v) or (u, v, (s1, s2)) entries) edge by edge, exactly pi reversed,
    with the ``dart_angles`` overrides {dart: angle}, closed by ``_close``."""
    if len(edge_list) == 0:
        raise GraphError("a graph needs at least one edge")
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if len(weights.x) != len(edge_list):
        raise GraphError("one weight per edge required")
    pts, nv = vcoords.tolist(), len(vcoords)
    (l1x, l1y), (l2x, l2y) = ((0.0, 0.0), (0.0, 0.0)) if lattice is None \
        else lattice.tolist()
    origin, dirang, shift = [], [], []
    loop, short, reach = False, False, 0.0
    # math.atan2, not np.arctan2: they differ in the last bit
    atan2, hypot, pi = math.atan2, math.hypot, math.pi
    for e in edge_list:
        u, v = e[0], e[1]
        s1, s2 = e[2] if len(e) == 3 else (0, 0)
        if not (0 <= u < nv and 0 <= v < nv):
            raise GraphError("edge endpoints must be vertex ids 0..V-1")
        (xu, yu), (xv, yv) = pts[u], pts[v]
        dx, dy = xv - xu, yv - yu
        if lattice is None:
            loop = loop or u == v
        else:
            dx, dy = dx + (s1 * l1x + s2 * l2x), dy + (s1 * l1y + s2 * l2y)
        length = hypot(dx, dy)
        reach += length
        short = short or length < 1e-14
        a = atan2(dy, dx) % TWO_PI
        origin += (u, v)
        dirang += (a, a + pi if a < pi else a - pi)
        shift += (s1, s2, -s1, -s2)
    # so that the faces' corners and centroids, and the dual's, stay finite
    if not (max(map(abs, itertools.chain(*pts)), default=0.0)
            + 4 * len(dirang) * reach) < math.inf:
        raise GraphError("edge displacements exceed the float range")
    # a winding is a float in the displacements and the dual's shifts
    if max(map(abs, shift)) > 2 ** 53:
        raise GraphError("edge shifts must not exceed 2^53 in size")
    if loop:
        raise GraphError("planar loops are not embeddable with straight edges")
    if short:
        raise GraphError("zero-length edge" if lattice is None else
                         "zero-length displacement on the torus")
    for dart, ang in (dart_angles or {}).items():
        if not 0 <= int(dart) < len(dirang):
            raise GraphError(f"dart_angles: {dart} is not a dart id 0..2E-1")
        if not math.isfinite(float(ang)):
            raise GraphError(f"dart_angles: the angle of dart {dart} is not "
                             "finite")
        dirang[int(dart)] = float(ang) % TWO_PI
    return _close(surface, lattice, vcoords, origin, dirang,
                  np.array(shift, dtype=int).reshape(-1, 2), weights,
                  0 if lattice is None else 1, reversal=bool(dart_angles))


def build_planar(vertex_coords, edge_list, weights, dart_angles=None):
    """Straight-line planar embedded graph.

    ``edge_list`` is a list of vertex-id pairs; the rotation at each vertex is
    the counterclockwise order of the edge direction angles, which must be
    pairwise distinct (parallel edges and loops are rejected).
    """
    return _build("planar", None, vertex_coords, edge_list, weights,
                  dart_angles)


def build_torus(lattice, vertex_coords, edge_list, weights, dart_angles=None):
    """Graph on a flat torus R^2 / (Z L1 + Z L2).

    ``edge_list`` entries are ``(u, v)`` or ``(u, v, (s1, s2))``; the edge runs
    from u to the copy of v displaced by ``s1 L1 + s2 L2``.  Parallel edges and
    loops are fine as long as their direction angles differ.
    """
    lattice = np.asarray(lattice, dtype=float)
    vals = lattice.ravel().tolist()
    if not all(map(math.isfinite, vals)):
        raise GraphError("lattice entries must be finite")
    if lattice.shape != (2, 2) or abs(vals[0] * vals[3]
                                      - vals[1] * vals[2]) < 1e-12:
        raise GraphError("lattice must be an invertible 2x2 matrix")
    return _build("torus", lattice, vertex_coords, edge_list, weights,
                  dart_angles)


# -- cochains ----------------------------------------------------------------


class Cochain:
    """Multiplicative nonzero complex function on darts with phi(rev e) = phi(e)^-1."""

    def __init__(self, g, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (g.nd,):
            raise GraphError("one value per dart required")
        check_cochains(g, values)
        self.g = g
        self.values = values

    @classmethod
    def trivial(cls, g):
        return cls(g, np.ones(g.nd, dtype=complex))

    def gauge(self, vertex, c):
        """Multiply every dart leaving ``vertex`` by c (and entering by 1/c)."""
        vals = self.values.copy()
        for d in self.g.darts_at[vertex]:
            vals[d] *= c
            vals[d ^ 1] /= c
        return Cochain(self.g, vals)


def check_cochains(g, values):
    """GraphError unless every row of ``values`` (..., nd) keeps the
    ``Cochain`` rules: nonzero, and phi(rev e) = phi(e)^-1."""
    if np.any(np.abs(values) < 1e-300):
        raise GraphError("cochain values must be nonzero")
    prod = values * values[..., np.arange(g.nd) ^ 1]
    if np.max(np.abs(prod - 1.0)) > 1e-12:
        raise GraphError("cochain must invert under dart reversal")


def character_values(g, z, w):
    """The values of ``character_cochain`` at (z, w), each row checked by
    the ``Cochain`` rules; array ``z`` and ``w`` broadcast as leading axes."""
    if g.genus != 1:
        raise GraphError("characters require a genus-1 graph")
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    if np.any(z == 0) or np.any(w == 0):
        raise GraphError("character components must be nonzero")
    values = shift_character(g.shift, z, w)
    check_cochains(g, values)
    return values


def character_cochain(g, z, w):
    """Cocycle z^s1 w^s2 read off the homology winding of each dart (torus only)."""
    return Cochain(g, character_values(g, z, w))


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


def face_centroids(g, off=None):
    """Each face's centroid: its first dart's origin plus ``face_offsets``."""
    first = np.array([f[0] for f in g.faces])
    off = face_offsets(g) if off is None else off
    return g.vcoords[g.origin[first]] + off[first]


def reduce_to_domain(g, pts):
    """Representatives of torus points (rows) in the fundamental domain."""
    r = pts @ g.lattice_inv
    return (r - np.floor(r)) @ g.lattice


def lattice_shifts(g, disp, what):
    """Integer lattice coordinates of displacements (rows) that must be
    lattice vectors; GraphError names ``what`` otherwise, or int64 overflow."""
    s = disp @ g.lattice_inv
    if not (np.abs(s) < 2.0 ** 63).all():
        raise GraphError(f"{what} overflows int64")
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
    off = face_offsets(g)
    vstar = face_centroids(g, off)
    shift = np.zeros((nd, 2), dtype=int)
    if g.surface == "torus":
        vstar = reduce_to_domain(g, vstar)
        # left-face centroid minus right-face centroid, in the chart of d
        chart = off - edge_vectors(g) - off[rev]
        shift = lattice_shifts(g, chart - (vstar[g.face_of] - vstar[origin]),
                               "dual shift")
    return _close(g.surface, g.lattice, vstar, origin.tolist(),
                  ((g.dirang + math.pi / 2) % TWO_PI).tolist(), shift,
                  Weights((1.0 - g.x) / (1.0 + g.x)), g.genus,
                  rot=g.rot_inv ^ 1,
                  angle_sums=g.surface == "torus")


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
        ident = operator.itemgetter("id")
        verts = sorted(obj["vertices"], key=ident)
        if list(map(ident, verts)) != list(range(len(verts))):
            raise GraphError("vertex ids must be 0..V-1")
        coords = [(float(r["x"]), float(r["y"])) for r in verts]
        if not all(map(math.isfinite, itertools.chain(*coords))):
            raise GraphError("vertex coordinates must be finite")
        edges = sorted(obj["edges"], key=ident)
        if list(map(ident, edges)) != list(range(len(edges))):
            raise GraphError("edge ids must be 0..E-1")
        ends = itertools.chain(*map(operator.itemgetter("u", "v"), edges))
        if not {int}.issuperset(map(type, ends)):
            raise GraphError("edge endpoints must be vertex ids 0..V-1")

        xs, triples = [], []
        for r in edges:
            if ("x" in r) + ("theta" in r) + ("J" in r) != 1:
                raise GraphError("each edge needs exactly one of x, theta, J")
            if "x" in r:
                xs.append(float(r["x"]))
            elif "theta" in r:
                xs.append(math.tan(float(r["theta"]) / 2.0))
            elif "beta" not in obj:
                raise GraphError("J weights require a top-level beta")
            else:
                xs.append(math.tanh(float(obj["beta"]) * float(r["J"])))
            s1, s2 = map(int, r.get("shift", (0, 0)))
            triples.append((r["u"], r["v"], (s1, s2)))
        weights = Weights(xs)
        angles = obj.get("dart_angles")
        if angles is not None:
            angles = {int(k): float(v) for k, v in angles.items()}

        if surface == "planar":
            return build_planar(coords, triples, weights, dart_angles=angles)
        if surface == "torus":
            if "lattice" not in obj:
                raise GraphError("torus graphs need a lattice")
            return build_torus(obj["lattice"], coords, triples, weights,
                               dart_angles=angles)
    except GraphError:
        raise
    except KeyError as exc:
        raise GraphError(f"missing graph field: {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError,
            AttributeError) as exc:
        raise GraphError(f"malformed graph data: {exc}") from exc
    raise GraphError(f"unknown surface {surface!r}")
