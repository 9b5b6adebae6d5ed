import json
import math

import numpy as np
import pytest

from graph_build_reference import face_rotation_reference, validate_reference
from kwlab import fixtures as fx
from kwlab.surface_graph import (Cochain, GraphError, Weights, build_planar,
                                 build_torus, character_cochain, dual,
                                 graph_from_json, principal_angle)

TWO_PI = 2 * math.pi


def face_defect(phi):
    """Largest |product of phi around a face - 1|; 0 on a cocycle."""
    p = np.ones(len(phi.g.faces), dtype=complex)
    np.multiply.at(p, phi.g.face_of, phi.values)
    return np.max(np.abs(p - 1.0))


def test_triangle_counts():
    g = fx.triangle(0.5)
    assert (g.nv, g.ne, len(g.faces), g.genus) == (3, 3, 2, 0)


def test_single_edge_counts():
    g = fx.single_edge(0.5)
    assert (g.nv, g.ne, len(g.faces), g.genus) == (2, 1, 1, 0)


def test_square_cycle_beta_values():
    g = fx.cycle4(0.5)
    b = g.beta()
    vals = sorted(b[d] for d in g.darts_at[0])
    assert vals == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    for v in range(g.nv):
        assert sum(b[d] for d in g.darts_at[v]) == pytest.approx(TWO_PI)


def test_torus_1x1_counts():
    g = fx.rect_torus(0.3, 0.4)
    assert (g.nv, g.ne, len(g.faces), g.genus) == (1, 2, 1, 1)


def test_torus_2x2_counts():
    g = fx.square_torus(2, 0.3)
    assert (g.nv, g.ne, len(g.faces), g.genus) == (4, 8, 4, 1)


def test_honeycomb_counts():
    g = fx.honeycomb_torus((0.3, 0.4, 0.5))
    assert (g.nv, g.ne, len(g.faces), g.genus) == (2, 3, 1, 1)


def test_face_rotation_odd_multiple():
    for g in (fx.triangle(0.5), fx.cycle4(0.2), fx.square_patch(2, 2),
              fx.rect_torus(0.3, 0.4), fx.honeycomb_torus((0.3, 0.4, 0.5))):
        for f in range(len(g.faces)):
            r = face_rotation_reference(g, f) / TWO_PI
            assert abs(r - round(r)) < 1e-9
            assert round(r) % 2 == 1


def test_weights_dual_identity():
    w = Weights(np.array([0.0, 0.3, math.sqrt(2) - 1, 1.0]))
    wd = w.dual()
    assert np.max(np.abs(w.x + wd.x + w.x * wd.x - 1.0)) < 1e-14
    assert np.max(np.abs(w.theta + wd.theta - math.pi / 2)) < 1e-12
    assert wd.x[0] == pytest.approx(1.0)          # x = 0 -> x* = 1
    assert wd.x[2] == pytest.approx(math.sqrt(2) - 1)  # self-dual point


def test_weight_rejections():
    with pytest.raises(GraphError):
        Weights(np.array([1.2]))
    with pytest.raises(GraphError):
        fx.triangle(-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GraphError):
            Weights(np.array([0.3, bad]))


def test_planar_rejects_parallel_edges():
    coords = [(0, 0), (1, 0)]
    with pytest.raises(GraphError):
        build_planar(coords, [(0, 1), (0, 1)], Weights([0.5, 0.5]))


def test_torus_rejects_zero_displacement():
    with pytest.raises(GraphError):
        build_torus([[1, 0], [0, 1]], [(0.0, 0.0)], [(0, 0, (0, 0))],
                    Weights([0.5]))


@pytest.mark.parametrize("bad", [(2, -1), (0, 3)])
def test_planar_rejects_endpoints_outside_the_vertices(bad):
    # a negative id would wrap around to the last vertex
    coords = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(GraphError, match=r"vertex ids 0\.\.V-1"):
        build_planar(coords, [(0, 1), (1, 2), bad], Weights([0.5] * 3))


@pytest.mark.parametrize("bad", [(0, -1, (1, 0)), (0, 1, (1, 0))])
def test_torus_rejects_endpoints_outside_the_vertices(bad):
    with pytest.raises(GraphError, match=r"vertex ids 0\.\.V-1"):
        build_torus(np.eye(2), [(0.0, 0.0)], [bad, (0, 0, (0, 1))],
                    Weights([0.5, 0.5]))


@pytest.mark.parametrize("angles, what", [
    ({4: 0.5}, "dart id"), ({-1: 0.5}, "dart id"), ({0: math.nan}, "finite"),
    ({1: math.inf}, "finite")])
def test_builders_reject_bad_dart_angles(angles, what):
    with pytest.raises(GraphError, match=f"dart_angles: .*{what}"):
        build_torus(np.eye(2), [(0.0, 0.0)], [(0, 0, (1, 0)), (0, 0, (0, 1))],
                    Weights([0.5, 0.5]), dart_angles=angles)
    with pytest.raises(GraphError, match=f"dart_angles: .*{what}"):
        build_planar([(0, 0), (1, 0)], [(0, 1)], Weights([0.5]),
                     dart_angles=angles)


def test_planar_rejects_a_winding_edge():
    with pytest.raises(GraphError,
                       match="planar graphs cannot wind around a lattice"):
        build_planar([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0, (1, 0))],
                     Weights([0.5] * 3))


def test_torus_rejects_non_finite_lattice():
    for bad in (math.nan, math.inf):
        with pytest.raises(GraphError, match="lattice entries must be finite"):
            build_torus([[1, 0], [bad, 1]], [(0.0, 0.0)],
                        [(0, 0, (1, 0)), (0, 0, (0, 1))], Weights([0.5, 0.5]))


def test_dual_1x1_square_weights():
    x, y = 0.3, 0.45
    g = fx.rect_torus(x, y)
    gd = dual(g)
    assert (gd.nv, gd.ne, gd.genus) == (1, 2, 1)
    want = sorted([(1 - x) / (1 + x), (1 - y) / (1 + y)])
    assert sorted(gd.x) == pytest.approx(want)


def test_double_dual_roundtrip():
    for g in (fx.rect_torus(0.3, 0.45), fx.square_torus(2, 0.37),
              fx.honeycomb_torus((0.3, 0.4, 0.5))):
        gdd = dual(dual(g))
        assert np.max(np.abs(gdd.x - g.x)) < 1e-14
        # the double dual reverses every dart, and the rotation conjugates
        # accordingly: rot**(d) = rev(rot(rev d))
        for d in range(g.nd):
            assert gdd.origin[d] == g.origin[d ^ 1]
            assert gdd.rot[d] == int(g.rot[d ^ 1]) ^ 1
        validate_reference(gdd)


def test_dual_of_planar_keeps_combinatorics():
    g = fx.triangle(0.4)
    gd = dual(g)
    assert (gd.nv, gd.ne, len(gd.faces)) == (2, 3, 3)
    assert gd.genus == 0


def test_character_cochain_basics():
    g = fx.rect_torus(0.3, 0.4)
    phi = character_cochain(g, 1, 1)
    assert np.allclose(phi.values, 1.0)
    phi = character_cochain(g, -1, 1)
    # the horizontal loop carries -1, the vertical one +1
    hor = [d for d in range(g.nd) if abs(g.shift[d][0]) == 1]
    ver = [d for d in range(g.nd) if abs(g.shift[d][1]) == 1]
    assert all(phi.values[d] == -1 for d in hor)
    assert all(phi.values[d] == 1 for d in ver)
    phi = character_cochain(g, 2j, 1.0)
    assert phi.values[0] * phi.values[1] == pytest.approx(1.0)
    assert face_defect(phi) <= 1e-9


def test_character_multiplicative():
    g = fx.honeycomb_torus((0.3, 0.4, 0.5))
    z1, w1, z2, w2 = 1.5, 0.7 - 0.1j, -0.4 + 2j, 3.0
    a = character_cochain(g, z1, w1).values
    b = character_cochain(g, z2, w2).values
    ab = character_cochain(g, z1 * z2, w1 * w2).values
    assert np.max(np.abs(a * b - ab)) < 1e-12


def test_character_rejects_zero_and_planar():
    with pytest.raises(GraphError):
        character_cochain(fx.rect_torus(0.3, 0.4), 0, 1)
    with pytest.raises(GraphError):
        character_cochain(fx.triangle(0.5), 1, 1)


def test_cochain_rejections():
    g = fx.triangle(0.5)
    with pytest.raises(GraphError):
        Cochain(g, np.full(g.nd, 2.0))  # does not invert under reversal


def turn(g, d1, d2):
    """The velocity turn from dart d1 into dart d2, in (-pi, pi)."""
    return principal_angle(g.dirang[d2] - g.dirang[d1])


def test_turning():
    g = fx.cycle4(0.5)
    # dart 0 runs (0,0)->(1,0); dart 2 runs (1,0)->(1,1): a left turn
    assert turn(g, 0, 2) == pytest.approx(math.pi / 2)
    gt = fx.rect_torus(0.3, 0.4)
    assert turn(gt, 0, 0) == pytest.approx(0.0)  # collinear continuation


def test_turning_beta_consistency():
    for g in (fx.triangle(0.5), fx.cycle4(0.3), fx.rect_torus(0.3, 0.4),
              fx.square_torus(2, 0.4), fx.honeycomb_torus((0.3, 0.4, 0.5))):
        b = g.beta()
        for d in range(g.nd):
            r = int(g.rot[d])
            if r == d:
                continue
            assert b[d] == pytest.approx(
                math.pi + turn(g, d ^ 1, r), abs=1e-12)


def test_json_roundtrip_and_forms():
    g = fx.square_torus(2, 0.37)
    g2 = graph_from_json(json.dumps(g.to_json()))
    assert np.allclose(g2.x, g.x)
    assert np.array_equal(g2.origin, g.origin)

    obj = fx.triangle(0.5).to_json()
    for e in obj["edges"]:
        del e["x"]
        e["theta"] = 2 * math.atan(0.5)
    g3 = graph_from_json(obj)
    assert np.allclose(g3.x, 0.5)

    obj = fx.triangle(0.5).to_json()
    for e in obj["edges"]:
        del e["x"]
        e["J"] = 1.0
    with pytest.raises(GraphError):
        graph_from_json(obj)  # J without beta
    obj["beta"] = 0.7
    g4 = graph_from_json(obj)
    assert np.allclose(g4.x, math.tanh(0.7))


def test_json_rejects_mixed_weight_forms():
    obj = fx.triangle(0.5).to_json()
    obj["edges"][0]["theta"] = 0.5
    with pytest.raises(GraphError):
        graph_from_json(obj)


def test_dart_angle_override():
    obj = fx.triangle(0.5).to_json()
    base = graph_from_json(obj)
    # rotate one edge's angle data slightly; reversal pairing must follow
    a = float(base.dirang[0])
    obj["dart_angles"] = {0: a + 0.05, 1: a + 0.05 + math.pi}
    g = graph_from_json(obj)
    assert g.dirang[0] == pytest.approx(a + 0.05)
    # inconsistent override breaks the reversal invariant
    obj["dart_angles"] = {0: a + 0.05}
    with pytest.raises(GraphError):
        graph_from_json(obj)


def test_gauge_preserves_cocycle():
    g = fx.rect_torus(0.3, 0.4)
    phi = character_cochain(g, 0.8 + 0.1j, 1.2)
    assert face_defect(phi.gauge(0, 2.0 + 1.0j)) <= 1e-9
    # a phase on one edge of the triangle is not closed around either face
    assert face_defect(Cochain(fx.triangle(0.5), [1j, -1j, 1, 1, 1, 1])) > 1e-9


def test_even_face_rotation_message():
    from graph_build_reference import build_reference

    # the second edge turned: the faces turn by 0 and 4pi, even multiples
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    edges = [(0, 1), (1, 2), (2, 0)]
    angles = {2: 0.7409050663476744, 3: 3.8824977199374677}
    bad = build_reference("planar", None, coords, edges, [0.5] * 3, angles)
    r = face_rotation_reference(bad, 0) / TWO_PI
    assert round(r) % 2 == 0
    with pytest.raises(GraphError) as err:
        build_planar(coords, edges, Weights([0.5] * 3), dart_angles=angles)
    assert str(err.value) == (
        f"face 0 boundary rotation {r} (x 2pi) is not an odd integer")