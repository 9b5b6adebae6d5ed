"""Reference graphs used by the verification suites and the command line."""

from __future__ import annotations

import math

import numpy as np

from .surface_graph import GraphError, Weights, build_planar, build_torus

SQRT2 = math.sqrt(2.0)
X_CRITICAL_SQUARE = SQRT2 - 1.0


def triangle(x=0.5):
    """Three vertices, three edges, one inner and one outer face."""
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    edges = [(0, 1), (1, 2), (2, 0)]
    xs = np.full(3, x) if np.isscalar(x) else np.asarray(x, dtype=float)
    return build_planar(coords, edges, Weights(xs))


def single_edge(x=0.5):
    return build_planar([(0.0, 0.0), (1.0, 0.0)], [(0, 1)], Weights([x]))


def path_graph(n=3, x=0.5):
    """A path on n vertices along the horizontal axis, bent to avoid angle ties."""
    coords = [(i, 0.25 * (i % 2)) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_planar(coords, edges, Weights(np.full(n - 1, x)))


def cycle4(x=0.5):
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    xs = np.full(4, x) if np.isscalar(x) else np.asarray(x, dtype=float)
    return build_planar(coords, edges, Weights(xs))


def square_torus(n=1, x=X_CRITICAL_SQUARE, y=None):
    """n x n square lattice on the torus; x horizontal, y vertical weights."""
    return rect_torus_mn(n, n, x, x if y is None else y)


def rect_torus(x=0.3, y=0.4):
    """One vertex, one horizontal and one vertical loop (the 1x1 lattice)."""
    return square_torus(1, x, y)


def rect_torus_mn(m, n, x, y):
    """m x n rectangular lattice on the torus (m columns, n rows)."""
    for k in (m, n):
        if k < 1:
            raise GraphError(f"lattice size must be at least 1, got {k}")
    lattice = [[float(m), 0.0], [0.0, float(n)]]
    coords = [(float(i), float(j)) for j in range(n) for i in range(m)]

    def vid(i, j):
        return (j % n) * m + (i % m)

    edges = []
    xs = []
    for j in range(n):
        for i in range(m):
            sh = (1, 0) if i + 1 == m else (0, 0)
            edges.append((vid(i, j), vid(i + 1, j), sh))
            xs.append(x)
            sv = (0, 1) if j + 1 == n else (0, 0)
            edges.append((vid(i, j), vid(i, j + 1), sv))
            xs.append(y)
    return build_torus(lattice, coords, edges, Weights(np.array(xs)))


def rect_torus_iso(theta):
    """Critical rectangular lattice embedded isoradially (radius 1).

    Horizontal edges subtend half-angle theta, vertical ones pi/2 - theta;
    the lattice spacings are the corresponding chord lengths.
    """
    lattice = [[2.0 * math.sin(theta), 0.0], [0.0, 2.0 * math.cos(theta)]]
    x = math.tan(theta / 2.0)
    y = math.tan((math.pi / 2.0 - theta) / 2.0)
    edges = [(0, 0, (1, 0)), (0, 0, (0, 1))]
    return build_torus(lattice, [(0.0, 0.0)], edges, Weights(np.array([x, y])))


def honeycomb_torus(x=(0.5, 0.5, 0.5)):
    """Two vertices and three edges in a hexagonal fundamental domain."""
    lattice = [[1.5, math.sqrt(3.0) / 2], [1.5, -math.sqrt(3.0) / 2]]
    coords = [(0.0, 0.0), (1.0, 0.0)]
    edges = [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1))]
    return build_torus(lattice, coords, edges, Weights(np.asarray(x, dtype=float)))


def honeycomb_torus_iso(thetas=(math.pi / 6,) * 3, delta=1.0):
    """Isoradially embedded honeycomb with prescribed half-angles.

    The three half-angles must sum to pi/2 (flat cone angles); the edge
    directions and the lattice are then forced by the rhombus corners.
    """
    t0, t1, t2 = thetas
    if abs(t0 + t1 + t2 - math.pi / 2) > 1e-12:
        raise ValueError("honeycomb half-angles must sum to pi/2")
    phi = [0.0, math.pi - t0 - t1, 2 * math.pi - t0 - 2 * t1 - t2]
    vecs = [2 * delta * math.sin(t) * np.array([math.cos(p), math.sin(p)])
            for t, p in zip(thetas, phi)]
    lattice = [vecs[0] - vecs[1], vecs[0] - vecs[2]]
    coords = [(0.0, 0.0), tuple(vecs[0])]
    edges = [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1))]
    xs = np.array([math.tan(t / 2.0) for t in thetas])
    return build_torus(lattice, coords, edges, Weights(xs))


def square_patch(m=3, n=3, x=X_CRITICAL_SQUARE):
    """(m+1) x (n+1) grid of vertices in the plane, square-lattice edges."""
    coords = [(float(i), float(j)) for j in range(n + 1) for i in range(m + 1)]

    def vid(i, j):
        return j * (m + 1) + i

    edges = []
    for j in range(n + 1):
        for i in range(m + 1):
            if i < m:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j < n:
                edges.append((vid(i, j), vid(i, j + 1)))
    return build_planar(coords, edges, Weights(np.full(len(edges), x)))
