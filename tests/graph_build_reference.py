"""The loop-based graph build that ``surface_graph``'s array build replaces.

Kept as the test oracle: ``build_planar_reference``, ``build_torus_reference``
and ``close_graph_reference`` take the arguments of ``build_planar``,
``build_torus`` and ``surface_graph._close_graph`` and walk the edges, the
vertices and the faces one at a time.  The array build must give bitwise the
same arrays and the same GraphError messages.
"""

import math

import numpy as np

from kwlab.surface_graph import (ANGLE_SUM_TOL, ANGLE_TIE_TOL, TWO_PI,
                                 EmbeddedGraph, GraphError, Weights)


def validate_reference(g, check_angle_sums=True):
    """``EmbeddedGraph.validate`` with per-vertex and per-face loops."""
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
            s = float(sum(b[d] for d in g.darts_at[v]))
            if abs(s - TWO_PI) > ANGLE_SUM_TOL:
                raise GraphError(
                    f"angle gaps at vertex {v} sum to {s}, expected 2pi"
                )
        for f in range(len(g.faces)):
            darts = g.faces[f]
            rot = math.pi * len(darts) - float(sum(b[d] for d in darts))
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
    if len(weights) != len(edge_list):
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
