"""The array graph build against the loop build it replaced
(``tests/graph_build_reference.py``): bitwise the same arrays on every
fixture and on random tori, and the same GraphError on each broken input."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graph_build_reference import (build_planar_reference,
                                   build_torus_reference,
                                   close_graph_reference, validate_reference)
from kwlab import fixtures as fx
from kwlab import surface_graph as sg
from kwlab.surface_graph import GraphError, Weights, build_planar, build_torus

ARRAYS = ("origin", "dirang", "shift", "rot", "rot_inv", "face_of")

FIXTURES = [
    ("triangle", ()), ("triangle", ([0.2, 0.5, 0.9],)), ("single_edge", ()),
    ("path_graph", (5,)), ("cycle4", (0.3,)), ("square_torus", (1,)),
    ("square_torus", (3, 0.3, 0.6)), ("square_torus", (8,)),
    ("rect_torus", ()), ("rect_torus_mn", (3, 2, 0.2, 0.7)),
    ("rect_torus_iso", (1.1,)), ("honeycomb_torus", ()),
    ("honeycomb_torus_iso", ()),
    ("honeycomb_torus_iso", ((0.3, 0.5, math.pi / 2 - 0.8), 1.7)),
    ("square_patch", ()), ("square_patch", (4, 2, 0.6)),
]


def assert_same_graph(g, h):
    for name in ARRAYS:
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("faces", "darts_at"):
        a, b = getattr(g, name), getattr(h, name)
        assert a == b, name
        assert all(type(d) is int for t in a for d in t), name
    assert g.genus == h.genus


def built_both_ways(monkeypatch, make):
    g = make()
    with monkeypatch.context() as m:
        m.setattr(fx, "build_planar", build_planar_reference)
        m.setattr(fx, "build_torus", build_torus_reference)
        m.setattr(sg, "build_planar", build_planar_reference)
        m.setattr(sg, "build_torus", build_torus_reference)
        return g, make()


@pytest.mark.parametrize("name, args", FIXTURES,
                         ids=[f"{n}{a}" for n, a in FIXTURES])
def test_fixtures_build_bitwise_as_the_loops(monkeypatch, name, args):
    g, ref = built_both_ways(monkeypatch, lambda: getattr(fx, name)(*args))
    assert_same_graph(g, ref)
    # the JSON load goes through the same builders
    obj = g.to_json()
    assert_same_graph(*built_both_ways(monkeypatch,
                                       lambda: sg.graph_from_json(obj)))
    # the dual closes a given rotation
    if g.surface == "torus":
        gd = sg.dual(g)
        monkeypatch.setattr(sg, "_close_graph", close_graph_reference)
        assert_same_graph(gd, sg.dual(g))


@st.composite
def random_rect_tori(draw):
    """m x n rectangular tori with random spacings and jittered vertices."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a, b = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    jitter = draw(st.lists(st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
                           min_size=m * n, max_size=m * n))
    coords = [((i + jitter[j * m + i][0]) * a / m,
               (j + jitter[j * m + i][1]) * b / n)
              for j in range(n) for i in range(m)]
    edges = []
    for j in range(n):
        for i in range(m):
            edges.append((j * m + i, j * m + (i + 1) % m,
                          (1, 0) if i + 1 == m else (0, 0)))
            edges.append((j * m + i, ((j + 1) % n) * m + i,
                          (0, 1) if j + 1 == n else (0, 0)))
    x = draw(st.floats(0.05, 0.95))
    return [[a, 0.0], [0.0, b]], coords, edges, Weights(np.full(len(edges), x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_rect_tori())
def test_random_rect_tori_build_bitwise_as_the_loops(data):
    assert_same_graph(build_torus(*data), build_torus_reference(*data))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.05, math.pi / 2 - 0.1), st.floats(0.0, 1.0),
       st.floats(0.2, 3.0))
def test_random_honeycombs_build_bitwise_as_the_loops(t0, share, delta):
    t1 = share * (math.pi / 2 - t0 - 0.05) + 0.025
    thetas = (t0, t1, math.pi / 2 - t0 - t1)
    g = fx.honeycomb_torus_iso(thetas, delta)
    fx_build = fx.build_torus
    try:
        fx.build_torus = build_torus_reference
        ref = fx.honeycomb_torus_iso(thetas, delta)
    finally:
        fx.build_torus = fx_build
    assert_same_graph(g, ref)


def _message(fn, *args, **kwargs):
    with pytest.raises(GraphError) as err:
        fn(*args, **kwargs)
    return str(err.value)


W2 = Weights([0.5, 0.5])

PLANAR_FAULTS = {
    "bad endpoint": ([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (2, 3)],
                     Weights([0.5] * 3)),
    "negative endpoint": ([(0, 0), (1, 0)], [(0, -1)], Weights([0.5])),
    "planar loop": ([(0, 0), (1, 0)], [(0, 1), (1, 1)], W2),
    "zero-length edge": ([(0, 0), (0, 0)], [(0, 1)], Weights([0.5])),
    # darts 2 -> 3 and 2 -> 4 leave vertex 2 along the same ray, and so do
    # 5 -> 6 and 5 -> 7 at vertex 5
    "coincident directions": (
        [(0, 0), (5, 5), (1, 0), (2, 0), (3, 0), (10, 10), (11, 11),
         (12, 12)], [(5, 6), (2, 3), (0, 1), (5, 7), (2, 4)],
        Weights([0.5] * 5)),
    # at vertex 1 the darts at angles 0 and 2pi - 1e-13 meet across 2pi
    "coincident across 2pi": ([(5, 5), (0, 0), (1, 0), (1, -1e-13)],
                              [(1, 2), (1, 3), (0, 1)], Weights([0.5] * 3)),
    "dart not reversed": ([(0, 0), (1, 0)], [(0, 1)], Weights([0.5]),
                          {0: 0.3}),
}

TORUS_FAULTS = {
    "bad endpoint": (np.eye(2), [(0.0, 0.0)], [(0, 0, (1, 0)), (0, 1, (0, 1))],
                     W2),
    "zero-length displacement": (np.eye(2), [(0.0, 0.0)],
                                 [(0, 0, (1, 0)), (0, 0, (0, 0))], W2),
    "coincident directions": (np.eye(2), [(0.0, 0.0)],
                              [(0, 0, (1, 0)), (0, 0, (2, 0))], W2),
}


@pytest.mark.parametrize("fault", PLANAR_FAULTS)
def test_planar_faults_raise_as_the_loops(fault):
    args = PLANAR_FAULTS[fault]
    want = _message(build_planar_reference, *args)
    assert _message(build_planar, *args) == want


@pytest.mark.parametrize("fault", TORUS_FAULTS)
def test_torus_faults_raise_as_the_loops(fault):
    args = TORUS_FAULTS[fault]
    want = _message(build_torus_reference, *args)
    assert _message(build_torus, *args) == want


def test_coincident_directions_name_the_first_vertex():
    assert _message(build_planar, *PLANAR_FAULTS["coincident directions"]) == (
        "coincident dart directions at vertex 2")


def _reversed_rotation(g, vertices):
    rot = g.rot.copy()
    for v in vertices:
        ds = list(g.darts_at[v])
        rot[ds] = g.rot_inv[ds]
    return dataclasses.replace(g, rot=rot)


@pytest.mark.parametrize("broken", ["angle gaps", "even face"])
def test_validate_faults_raise_as_the_loops(broken):
    g = fx.square_torus(3, 0.3)
    if broken == "angle gaps":
        # clockwise at vertices 2 and 5: their gaps sum to 3 x 2pi
        bad = _reversed_rotation(g, [5, 2])
        assert "at vertex 2 " in _message(bad.validate)
    else:
        # one face running two boundaries turns by an even multiple of 2pi
        bad = dataclasses.replace(
            g, faces=g.faces[:3] + (g.faces[3] + g.faces[4], ()) + g.faces[5:])
        assert _message(bad.validate).startswith("face 3 ")
    assert _message(bad.validate) == _message(validate_reference, bad)
