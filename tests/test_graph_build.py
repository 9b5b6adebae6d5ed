"""The one-pass graph build against the reference build it replaced
(``tests/graph_build_reference.py``): bitwise the same arrays on every
fixture, on their duals and on random tori, and the same GraphError on each
broken input.  Likewise the steps after the load: the rectangle graph C
against ``tests/derived_reference.py``, and the closed-form skew signs and
the +-1 characters against ``tests/character_reference.py``, on the
fixtures, their duals and random tori with turned edges."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from character_reference import (arf_characters_reference,
                                 skew_signs_reference)
from derived_reference import build_C_reference
from graph_build_reference import (build_planar_reference,
                                   build_torus_reference,
                                   dual_reference,
                                   transition_entries_reference,
                                   validate_reference)
from kwlab import fixtures as fx
from kwlab import surface_graph as sg
from kwlab.derived import build_C
from kwlab.oracle import arf_characters
from kwlab.surface_graph import GraphError, Weights, build_planar, build_torus

ARRAYS = ("origin", "dirang", "shift", "rot", "rot_inv", "face_of")
C_ARRAYS = ("w", "b", "y", "omega_tilde", "shift", "omega", "epsilon")

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
    for a, b in zip(g.transition_entries, transition_entries_reference(h)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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
    # the one-pass build keeps what its checks leave to construction
    validate_reference(g)
    # the JSON load goes through the same builders
    obj = g.to_json()
    assert_same_graph(*built_both_ways(monkeypatch,
                                       lambda: sg.graph_from_json(obj)))
    # the dual closes a given rotation
    if g.surface == "torus":
        gd = sg.dual(g)
        assert_same_graph(gd, dual_reference(g))
        for name in ("vcoords", "x", "theta"):
            assert getattr(gd, name).tobytes() == getattr(
                dual_reference(g), name).tobytes(), name


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


# darts 6, 7, 10 and 11 of square_torus(2) turned: the torus graph is valid,
# but a face of it turns by -2pi, so its dual's given rotation runs twice
# around that vertex
TURNED_SQUARE = {6: 4.097111316473687, 7: 0.9555186628838941,
                 10: 4.766112741011161, 11: 1.6245200874213674}
# the triangle's second edge turned: its two faces turn by 0 and 4pi
TURNED_TRIANGLE = {2: 0.7409050663476744, 3: 3.8824977199374677}


@pytest.mark.parametrize("broken", ["angle gaps", "even face"])
def test_validate_faults_raise_as_the_loops(broken):
    if broken == "angle gaps":
        g = sg.graph_from_json(dict(fx.square_torus(2).to_json(),
                                    dart_angles=TURNED_SQUARE))
        msg = _message(sg.dual, g)
        assert msg.startswith("angle gaps at vertex ")
        assert msg == _message(dual_reference, g)
    else:
        g = fx.triangle()
        args = (g.vcoords, [(0, 1), (1, 2), (2, 0)], Weights(g.x),
                TURNED_TRIANGLE)
        msg = _message(build_planar, *args)
        assert msg.startswith("face 0 ")
        assert msg == _message(build_planar_reference, *args)


def _outcome(fn, g):
    """``fn(g)``, or the message of the GraphError it raises."""
    try:
        return fn(g)
    except GraphError as exc:
        return str(exc)


def assert_steps_match_the_references(g):
    """C, the corner signs, the skew signs and the characters of ``g``
    against the forms they replaced."""
    c, ref = build_C(g), build_C_reference(g)
    for name in C_ARRAYS:
        a, b = getattr(c, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    s, want = _outcome(lambda h: h.skew_signs, g), _outcome(
        skew_signs_reference, g)
    if isinstance(want, str):
        assert s == want
    else:
        assert s.dtype == want.dtype and s.tobytes() == want.tobytes()
    if g.genus == 1:
        # equal in value; a zero imaginary part may carry either sign
        assert np.array_equal(arf_characters(g), arf_characters_reference(g))


@pytest.mark.parametrize("name, args", FIXTURES,
                         ids=[f"{n}{a}" for n, a in FIXTURES])
def test_steps_after_the_load_match_the_references(name, args):
    g = getattr(fx, name)(*args)
    assert_steps_match_the_references(g)
    if g.surface == "torus":
        assert_steps_match_the_references(sg.dual(g))


@st.composite
def turned_tori(draw):
    """Random rectangular tori and honeycombs, up to three of their edges
    turned through ``dart_angles`` (both darts, exactly pi apart), and
    maybe their duals; a draw the build rejects is discarded."""
    if draw(st.booleans()):
        g = build_torus(*draw(random_rect_tori()))
    else:
        t0 = draw(st.floats(0.05, math.pi / 2 - 0.1))
        t1 = draw(st.floats(0.0, 1.0)) * (math.pi / 2 - t0 - 0.05) + 0.025
        g = fx.honeycomb_torus_iso((t0, t1, math.pi / 2 - t0 - t1),
                                   draw(st.floats(0.2, 3.0)))
    turns = draw(st.dictionaries(st.integers(0, g.ne - 1),
                                 st.floats(0.0, 2 * math.pi,
                                           exclude_max=True), max_size=3))
    angles = {}
    for k, a in turns.items():
        angles[2 * k], angles[2 * k + 1] = a, (a + math.pi) % (2 * math.pi)
    try:
        g = sg.graph_from_json(dict(g.to_json(), dart_angles=angles))
        if draw(st.booleans()):
            g = sg.dual(g)
    except GraphError:
        assume(False)
    return g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(turned_tori())
def test_turned_tori_steps_match_the_references(g):
    assert_steps_match_the_references(g)
    if g.genus == 1:
        gd = _outcome(sg.dual, g)
        want = _outcome(dual_reference, g)
        if isinstance(want, str):
            assert gd == want
        else:
            assert_same_graph(gd, want)
