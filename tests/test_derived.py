import cmath
import math

import numpy as np
import pytest

from identity_reference import SeedStream, c_faces_reference
from kwlab import fixtures as fx
from kwlab import suites
from kwlab.linalg import stream_key
from kwlab.operators import phi_omega
from kwlab.surface_graph import (Cochain, GraphError, character_cochain, dual,
                                 edge_vectors, face_centroids, face_offsets,
                                 lattice_shifts, reduce_to_domain)
from kwlab.derived import (build_C, build_D, build_M, c_face_products,
                           half_angle_phases, isoradial_data,
                           phi_D_character, split_phi_D, validate_kasteleyn)


def test_c_counts_triangle():
    c = build_C(fx.triangle(0.5))
    # one white and one black vertex per dart
    assert set(c.w.tolist()) == set(c.b.tolist()) == set(range(6))
    # perp, par and corner blocks of one edge per dart each
    for arr in (c.w, c.b, c.y, c.omega_tilde, c.omega):
        assert arr.shape == (18,)
    assert c.shift.shape == (18, 2)
    d = np.arange(6)
    for block, partner in enumerate((d, d ^ 1, c.g.rot)):
        idx = slice(6 * block, 6 * block + 6)
        assert np.array_equal(c.w[idx], d)
        assert np.array_equal(c.b[idx], partner)


def test_rectangle_face_products_minus_one():
    g = fx.cycle4(0.3)
    c = build_C(g)
    prods, sizes = c_face_products(c, c.omega)
    # rectangles are listed first
    assert np.array_equal(prods[:g.ne], np.full(g.ne, -1.0))
    assert np.array_equal(sizes[:g.ne], np.full(g.ne, 4))


def test_kasteleyn_validation_and_flip():
    for g in (fx.triangle(0.5), fx.rect_torus(0.3, 0.4),
              fx.honeycomb_torus((0.3, 0.4, 0.5))):
        c = build_C(g)
        assert validate_kasteleyn(c)["pass"]
        # flipping one edge breaks exactly its two adjacent faces
        flipped = c.omega.copy()
        flipped[0] *= -1
        rep = validate_kasteleyn(c, flipped)
        bad = [r for r in rep["faces"] if not r["pass"]]
        assert len(bad) == 2
        # an equivalence move (flip all edges at one vertex) still passes
        moved = c.omega.copy()
        moved[c.w == c.w[0]] *= -1
        assert validate_kasteleyn(c, moved)["pass"]


def test_epsilon_signs_pm_one():
    for g in (fx.triangle(0.5), fx.square_torus(2, 0.4)):
        eps = build_C(g).epsilon
        assert set(np.unique(eps)) <= {-1, 1}
        # the corner signs multiply to -1 around every vertex
        for v in range(g.nv):
            prod = 1
            for d in g.darts_at[v]:
                prod *= int(eps[d])
            assert prod == -1


def test_gauge_relation():
    g = fx.square_torus(2, 0.37)
    dh = half_angle_phases(g)
    a = g.a_angles()
    # the diagonal gauge squares to the inverse direction phase on both sides
    assert np.max(np.abs(dh ** -2 - np.exp(-1j * a))) < 1e-12


def test_c_of_dual_equals_c():
    g = fx.rect_torus(0.3, 0.45)
    c = build_C(g)
    cd = build_C(dual(g))
    # whites of C(dual) are blacks of C and conversely:
    # w*[d] = b[d], b*[d] = w[rev d]; weights match edge by edge
    edges = {}
    for w, b, y in zip(c.w, c.b, c.y):
        key = ("w", w, "b", b)
        edges[key] = edges.get(key, 0.0) + y
    for w, b, y in zip(cd.w, cd.b, cd.y):
        key = ("w", b, "b", w ^ 1)
        assert key in edges
        assert edges[key] == pytest.approx(y, abs=1e-14)


def test_double_counts_and_weights():
    g = fx.rect_torus(0.3, 0.4)
    dg = build_D(g)
    assert dg.n_lambda == 2
    assert len(set(dg.edge.tolist())) == 2
    for arr in (dg.lam, dg.edge, dg.weight, dg.direction):
        assert arr.shape == (8,)
    assert dg.shift.shape == (8, 2)
    g2 = fx.square_torus(2)  # theta = pi/4
    dg2 = build_D(g2)
    assert np.allclose(dg2.weight, math.sqrt(2) / 2)


def test_phi_D_split():
    g = fx.square_torus(2, 0.4)
    dg = build_D(g)
    phid = phi_D_character(dg, 1.0, 1.0)
    phi, phi_star = split_phi_D(dg, phid)
    assert np.allclose(phi, 1.0) and np.allclose(phi_star, 1.0)
    z, w = 0.7 + 0.2j, 1.5
    phid = phi_D_character(dg, z, w)
    phi, _ = split_phi_D(dg, phid)
    want = np.array([complex(z) ** s1 * complex(w) ** s2 for s1, s2 in g.shift])
    assert np.max(np.abs(phi - want)) < 1e-12


def test_m_graph_structure():
    g = fx.square_torus(2)
    m = build_M(g)
    assert m.n == 16  # one corner per dart
    for arr in (m.tail, m.head, m.theta_m):
        assert arr.shape == (2 * g.nd,)
    assert m.shift.shape == (2 * g.nd, 2)
    # antisymmetry of the orientation is structural: each edge is stored once
    # with a tail and head; exercised through the skew adjacency matrix
    from kwlab.operators import skew_adjacency
    a = skew_adjacency(m)
    mu = np.diag(m.mu)
    assert np.max(np.abs((mu @ a) + (mu @ a).T)) < 1e-12
    assert np.max(np.abs(np.diag(a))) == 0.0


def test_isoradial_validation():
    isoradial_data(fx.square_torus(2))
    isoradial_data(fx.rect_torus_iso(math.pi / 3))
    with pytest.raises(GraphError):
        # lattice spacing inconsistent with the weights: no common radius
        isoradial_data(fx.rect_torus(math.tan(math.pi / 6), math.tan(math.pi / 12)))
    with pytest.raises(GraphError):
        isoradial_data(fx.triangle(0.0))  # zero-weight edges
    with pytest.raises(GraphError, match="circumcenters"):
        # unit squares are inscribed, the outer face of the patch is not
        isoradial_data(fx.square_patch(2, 2, math.tan(math.pi / 8)))


def face_walk(g, d0, anchor):
    """Corner positions of the face left of d0, walked dart by dart from
    ``anchor`` at o(d0)."""
    pos = np.asarray(anchor, dtype=float)
    pts = []
    d = d0
    while True:
        pts.append(pos)
        step = g.vcoords[g.origin[d ^ 1]] - g.vcoords[g.origin[d]]
        if g.lattice is not None:
            step = step + g.shift[d] @ g.lattice
        pos = pos + step
        d = int(g.rot_inv[d ^ 1])
        if d == d0:
            break
    return np.array(pts)


def face_centroid_walk(g, f):
    """Centroid of a face walked from its first recorded dart."""
    d0 = g.faces[f][0]
    return face_walk(g, d0, g.vcoords[g.origin[d0]]).mean(axis=0)


def face_offsets_walk(g):
    """``face_offsets`` as one walk per face."""
    off = np.empty((g.nd, 2))
    for f in g.faces:
        pts = face_walk(g, f[0], np.zeros(2))
        off[list(f)] = pts.mean(axis=0) - pts
    return off


def half_shifts_reference(g):
    """Half-edge windings of the double with each face centre taken from a
    second walk of the face boundary (``face_centroid_walk``)."""
    nd = g.nd
    if g.surface != "torus":
        return np.zeros((2 * nd, 2), dtype=int)
    rev = np.arange(nd) ^ 1
    half = 0.5 * edge_vectors(g)
    mid = np.repeat(reduce_to_domain(g, g.vcoords[g.origin[::2]] + half[::2]),
                    2, axis=0)
    centre = reduce_to_domain(g, np.array(
        [face_centroid_walk(g, f) for f in range(len(g.faces))]))[g.face_of[rev]]
    primal = lattice_shifts(g, half - (mid - g.vcoords[g.origin]),
                            "midpoint shift")
    dual_half = lattice_shifts(g, -half - face_offsets_walk(g)[rev]
                               - (mid - centre), "dual half shift")
    return np.concatenate([primal, dual_half])


@pytest.mark.parametrize("mk", (
    lambda: fx.triangle(0.5), lambda: fx.cycle4(0.3),
    lambda: fx.square_patch(3, 3), lambda: fx.square_torus(2),
    lambda: fx.square_torus(5, 0.3), lambda: fx.rect_torus(0.3, 0.4),
    lambda: fx.rect_torus_mn(2, 3, 0.3, 0.4),
    lambda: fx.honeycomb_torus((0.3, 0.4, 0.5)),
    lambda: fx.honeycomb_torus_iso((0.3, 0.5, math.pi / 2 - 0.8))))
def test_double_shifts_match_face_centroid_walk(mk):
    g = mk()
    assert np.array_equal(build_D(g).shift, half_shifts_reference(g))


# -- face and star reductions against the walked forms -------------------------

TORI = {
    "square2": lambda: fx.square_torus(2),
    "square5": lambda: fx.square_torus(5, 0.3),
    "square12": lambda: fx.square_torus(12),
    "rect": lambda: fx.rect_torus(0.3, 0.4),
    "rect2x3": lambda: fx.rect_torus_mn(2, 3, 0.3, 0.4),
    "honeycomb": lambda: fx.honeycomb_torus((0.3, 0.4, 0.5)),
    "honeycomb_iso": lambda: fx.honeycomb_torus_iso(
        (0.3, 0.5, math.pi / 2 - 0.8)),
}
FACE_FIXTURES = {
    "triangle": lambda: fx.triangle(0.5),
    "cycle4": lambda: fx.cycle4(0.3),
    "patch3x3": lambda: fx.square_patch(3, 3),
    **TORI,
    **{f"dual_{k}": (lambda mk=mk: dual(mk())) for k, mk in TORI.items()},
}
faces_param = pytest.mark.parametrize("name", list(FACE_FIXTURES))


def walked_products(cycles, vals):
    out = []
    for cyc in cycles:
        p = 1.0 + 0j
        for idx, sgn in cyc:
            p *= vals[idx] if sgn > 0 else 1.0 / vals[idx]
        out.append(p)
    return np.array(out)


@faces_param
def test_c_face_products_match_walk(name):
    c = build_C(FACE_FIXTURES[name]())
    cycles = c_faces_reference(c)
    prods, sizes = c_face_products(c, c.omega)
    assert np.array_equal(sizes, [len(cyc) for cyc in cycles])
    assert np.array_equal(prods, walked_products(cycles, c.omega))
    phiom = phi_omega(c)
    got = c_face_products(c, phiom)[0]
    assert np.max(np.abs(got - walked_products(cycles, phiom))) <= 1e-15
    # unit values with no structure also pin each edge's orientation
    vals = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * math.pi,
                                                        3 * c.g.nd))
    got = c_face_products(c, vals)[0]
    assert np.max(np.abs(got - walked_products(cycles, vals))) <= 1e-13


@faces_param
def test_face_offsets_match_walk(name):
    g = FACE_FIXTURES[name]()
    assert np.array_equal(face_offsets(g), face_offsets_walk(g))


@faces_param
def test_face_centroids_match_walk(name):
    g = FACE_FIXTURES[name]()
    want = [face_centroid_walk(g, f) for f in range(len(g.faces))]
    assert np.max(np.abs(face_centroids(g) - want)) <= 1e-15


def chained_unitary_cochain(g, rng):
    """A random unitary cochain gauged one vertex at a time."""
    vals = np.ones(g.nd, dtype=complex)
    if g.genus == 1:
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        vals = character_cochain(g, z, w).values
    phi = Cochain(g, vals)
    for v in range(g.nv):
        phi = phi.gauge(v, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    return phi


@faces_param
def test_one_step_gauge_matches_chained(name):
    g = FACE_FIXTURES[name]()
    rng_ref = SeedStream(5)
    xs, phi = suites._draw_inputs(g, stream_key(5), 0, 2)
    for t in range(2):
        # each draw takes its weights, then its cochain
        assert np.array_equal(xs[t], rng_ref.uniform(0.02, 0.98, g.ne))
        want = chained_unitary_cochain(g, rng_ref).values
        assert np.max(np.abs(phi[t] - want)) <= 1e-15
    # both forms consume the same random stream: draw 2 starts where the
    # chained form stopped
    xs, _ = suites._draw_inputs(g, stream_key(5), 2, 3)
    assert np.array_equal(xs[0], rng_ref.uniform(0.02, 0.98, g.ne))
