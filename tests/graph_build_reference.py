"""The reference graph build that ``surface_graph``'s one-pass build replaces.

Kept as the test oracle: ``build_planar_reference`` and
``build_torus_reference`` take the arguments of ``build_planar`` and
``build_torus``, ``close_graph_reference`` closes darts into a graph given
as arrays (by sorting each vertex's darts, unless a rotation is given), and
``dual_reference`` is the dual built through it, face offsets, lattice
inverse and weights computed as often as they used to be.  Each walks the
edges, the vertices and the faces one at a time and then re-checks every
invariant (``validate_reference``).  The one-pass build must give bitwise
the same arrays and the same GraphError messages.
``transition_entries_reference`` finds the dart transitions by comparing
every terminus with every origin, where the graph reads them off
``darts_at``; the arrays must be bitwise the same.
"""

import math

import numpy as np

from kwlab.surface_graph import (ANGLE_SUM_TOL, ANGLE_TIE_TOL, TWO_PI,
                                 EmbeddedGraph, GraphError, Weights,
                                 edge_vectors, face_centroids, lattice_shifts,
                                 reduce_to_domain)


def running_sum(vals):
    """The floats added one at a time from 0.0, in order, as ``np.bincount``
    adds them (Python 3.12's ``sum`` compensates its rounding)."""
    total = 0.0
    for v in vals:
        total += float(v)
    return total


def face_rotation_reference(g, f, beta=None):
    """Total turning of the velocity along the boundary of face f, an odd
    multiple of 2pi on a valid graph."""
    darts = g.faces[f]
    b = g.beta() if beta is None else beta
    return math.pi * len(darts) - running_sum(b[d] for d in darts)


def validate_reference(g, check_angle_sums=True):
    """Every invariant of a graph, with per-vertex and per-face loops: the
    checks the build runs, and the ones its construction guarantees (the
    rotation's size, its being a permutation and its keeping each dart's
    origin, pi reversal without ``dart_angles``, x in [0, 1] with
    theta = 2 arctan x, and chi = 2 - 2g)."""
    nd = g.nd
    if g.rot.shape != (nd,):
        raise GraphError("rotation permutation has wrong size")
    if sorted(g.rot.tolist()) != list(range(nd)):
        raise GraphError("rotation is not a permutation of the darts")
    if np.any(g.origin[g.rot] != g.origin):
        raise GraphError("rotation moves a dart to a different vertex")
    turn = (g.dirang[np.arange(nd) ^ 1] - g.dirang) % TWO_PI
    if np.any(np.abs(turn - math.pi) > ANGLE_TIE_TOL):
        raise GraphError("reversed dart is not rotated by pi")
    if np.any(g.x < -1e-15) or np.any(g.x > 1 + 1e-15):
        raise GraphError("edge weights outside [0, 1]")
    if np.max(np.abs(g.theta - 2.0 * np.arctan(g.x))) > 1e-14:
        raise GraphError("theta and x are inconsistent")
    chi = g.nv - g.ne + len(g.faces)
    if chi != 2 - 2 * g.genus:
        raise GraphError("Euler characteristic does not match the genus")
    if g.surface == "planar" and np.any(g.shift != 0):
        raise GraphError("planar graphs cannot wind around a lattice")
    if check_angle_sums:
        b = g.beta()
        for v in range(g.nv):
            s = running_sum(b[d] for d in g.darts_at[v])
            if abs(s - TWO_PI) > ANGLE_SUM_TOL:
                raise GraphError(
                    f"angle gaps at vertex {v} sum to {s}, expected 2pi"
                )
        for f in range(len(g.faces)):
            darts = g.faces[f]
            rot = math.pi * len(darts) - running_sum(b[d] for d in darts)
            r = rot / TWO_PI
            if abs(r - round(r)) > ANGLE_SUM_TOL or round(r) % 2 == 0:
                raise GraphError(
                    f"face {f} boundary rotation {r} (x 2pi) is not an odd "
                    "integer"
                )
    return g


def close_graph_reference(surface, lattice, vcoords, origin, dirang, shift,
                          weights, rot=None):
    """Rotation by sorting each vertex's darts, faces by walking each orbit."""
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
            if len(ds) >= 2 and (dirang[ds[0]] + TWO_PI
                                 - dirang[ds[-1]]) < ANGLE_TIE_TOL:
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
        face_of=face_of,
        rot_inv=rot_inv,
        genus=genus,
        darts_at=tuple(tuple(ds) for ds in darts_at),
    )


def build_reference(surface, lattice, vertex_coords, edge_list, weights,
                    dart_angles):
    """Darts, shifts and angles edge by edge, then ``close_graph_reference``."""
    if len(edge_list) == 0:
        raise GraphError("a graph needs at least one edge")
    vcoords = np.asarray(vertex_coords, dtype=float)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if len(weights.x) != len(edge_list):
        raise GraphError("one weight per edge required")
    nd = 2 * len(edge_list)
    origin = np.empty(nd, dtype=int)
    shift = np.zeros((nd, 2), dtype=int)
    raw = np.empty(nd // 2)
    for k, spec in enumerate(edge_list):
        u, v, s = spec if len(spec) == 3 else (*spec, (0, 0))
        if not (0 <= u < len(vcoords) and 0 <= v < len(vcoords)):
            raise GraphError("edge endpoints must be vertex ids 0..V-1")
        if lattice is None and u == v:
            raise GraphError("planar loops are not embeddable with straight "
                             "edges")
        origin[2 * k:2 * k + 2] = u, v
        shift[2 * k:2 * k + 2] = s, (-s[0], -s[1])
        d = vcoords[v] - vcoords[u]
        if lattice is not None:
            d = d + np.array(s, dtype=float) @ lattice
        if np.hypot(d[0], d[1]) < 1e-14:
            raise GraphError("zero-length edge" if lattice is None else
                             "zero-length displacement on the torus")
        raw[k] = math.atan2(d[1], d[0])
    a = raw % TWO_PI
    dirang = np.stack([a, np.where(a < math.pi, a + math.pi, a - math.pi)],
                      axis=1).ravel()
    for dart, ang in (dart_angles or {}).items():
        if not 0 <= int(dart) < nd:
            raise GraphError(f"dart_angles: {dart} is not a dart id 0..2E-1")
        if not math.isfinite(float(ang)):
            raise GraphError(f"dart_angles: the angle of dart {dart} is not "
                             "finite")
        dirang[int(dart)] = float(ang) % TWO_PI
    return close_graph_reference(surface, lattice, vcoords, origin, dirang,
                                 shift, weights)


def build_planar_reference(vertex_coords, edge_list, weights,
                           dart_angles=None):
    g = build_reference("planar", None, vertex_coords, edge_list, weights,
                        dart_angles)
    if g.genus != 0:
        raise GraphError("planar constructor produced nonzero genus")
    return validate_reference(g)


def build_torus_reference(lattice, vertex_coords, edge_list, weights,
                          dart_angles=None):
    lattice = np.asarray(lattice, dtype=float)
    if not np.all(np.isfinite(lattice)):
        raise GraphError("lattice entries must be finite")
    if lattice.shape != (2, 2) or abs(np.linalg.det(lattice)) < 1e-12:
        raise GraphError("lattice must be an invertible 2x2 matrix")
    g = build_reference("torus", lattice, vertex_coords, edge_list, weights,
                        dart_angles)
    if g.genus != 1:
        raise GraphError(f"torus data has genus {g.genus}, expected 1")
    return validate_reference(g)


def transition_entries_reference(g):
    """``EmbeddedGraph.transition_entries`` from the nd x nd comparison of
    every dart's terminus with every dart's origin."""
    nd = g.nd
    e, e2 = np.nonzero(g.origin[np.arange(nd) ^ 1][:, None]
                       == g.origin[None, :])
    keep = e2 != (e ^ 1)
    e, e2 = e[keep], e2[keep]
    # principal_angle, elementwise
    alpha = (g.dirang[e2] - g.dirang[e] + math.pi) % TWO_PI - math.pi
    alpha[alpha <= -math.pi] += TWO_PI
    return e, e2, np.exp(0.5j * alpha)


def dual_reference(g):
    """``surface_graph.dual`` as it was: Weights built twice, and the face
    offsets read twice on the torus."""
    nd = g.nd
    rev = np.arange(nd) ^ 1
    origin = g.face_of[rev]
    dirang = (g.dirang + math.pi / 2) % TWO_PI
    rot = g.rot_inv ^ 1
    vstar = face_centroids(g)
    shift = np.zeros((nd, 2), dtype=int)
    if g.surface == "torus":
        vstar = reduce_to_domain(g, vstar)
        off = g.face_offsets
        chart = off - edge_vectors(g) - off[rev]
        shift = lattice_shifts(g, chart - (vstar[g.face_of] - vstar[origin]),
                               "dual shift")
    gd = close_graph_reference(g.surface, g.lattice, vstar, origin, dirang,
                               shift, Weights(g.x).dual(), rot=rot)
    if gd.genus != g.genus:
        raise GraphError("dual changed the genus")
    return validate_reference(gd, check_angle_sums=(g.surface == "torus"))
