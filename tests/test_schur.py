"""The Schur-complement route against the dense Kac-Ward oracle.

Every determinant and real solve of the library factors the r x r Schur
complement I - A_RR - A_RS A_SR of ``EmbeddedGraph.schur_pattern``, not the
nd x nd KW.  The gate: each ``kw_dets`` stack agrees with
``lu_det(kac_ward(...))`` within nd eps max|P| over the stack, on the
reference fixtures, at characters on and off the unit circle, across chunk
boundaries, and over random weights; the real determinant and the solve
agree with the dense real M; the kernel dimension is the SVD reference's.
Dropping one term of the pattern breaks the gate.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import fixtures as fx
from kwlab import linalg, operators
from kwlab.linalg import lu_det, max_norm
from kwlab.operators import (_real_entries, _schur_solve, kac_ward,
                             kac_ward_kernel, kac_ward_real, kw_dets,
                             kw_real_det)
from kwlab.surface_graph import Cochain, character_cochain

from kernel_reference import kac_ward_kernel_reference

EPS = np.finfo(float).eps

GATE_FIXTURES = [
    fx.triangle(0.5), fx.square_patch(2, 2, 0.5), fx.rect_torus(0.3, 0.4),
    fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.4),
    fx.square_torus(1, 0.4), fx.square_torus(3, 0.3),
    fx.square_torus(4, 0.37), fx.square_patch(3, 2, 0.6),
    fx.single_edge(), fx.path_graph(4),  # no continuation; dead ends
]
LARGE_FIXTURES = [fx.square_torus(12, 0.3), fx.square_torus(12)]


def _cochains(g, rng, count, radius=1.0):
    """Random characters z, w of modulus ``radius`` (on the torus), each
    gauged at every vertex by a random unit factor."""
    out = []
    for _ in range(count):
        vals = np.ones(g.nd, dtype=complex)
        if g.genus == 1:
            z, w = (radius * cmath.exp(1j * a) for a in rng.uniform(0, 6.3, 2))
            vals = character_cochain(g, z, w).values
        phi = Cochain(g, vals)
        for v in range(g.nv):
            phi = phi.gauge(v, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        out.append(phi.values)
    return np.array(out)


def dense_gap(g, phis, xs):
    """max |kw_dets - lu_det(kac_ward)| over the stack, in units of
    nd eps max|P|: the gate passes at most 1."""
    got = np.ravel(kw_dets(g, phis, xs))
    want = np.array([lu_det(kac_ward(g, p, x))
                     for p, x in zip(*_rows(g, phis, xs))])
    scale = g.nd * EPS * max(np.abs(want).max(), np.finfo(float).tiny)
    return float(np.abs(got - want).max() / scale)


def _rows(g, phis, xs):
    """The rows (phi, x) of a broadcast stack."""
    lead = np.broadcast_shapes(phis.shape[:-1], xs.shape[:-1])
    return (np.broadcast_to(phis, lead + (g.nd,)).reshape(-1, g.nd),
            np.broadcast_to(xs, lead + (g.ne,)).reshape(-1, g.ne))


@pytest.mark.parametrize("g", GATE_FIXTURES)
@pytest.mark.parametrize("radius", [1.0, 0.7, 1.4])
def test_reduced_determinants_match_the_dense_kw(g, radius):
    rng = np.random.default_rng(22)
    phis = _cochains(g, rng, 6, radius)
    xs = rng.uniform(0.02, 0.98, (6, g.ne))
    assert dense_gap(g, phis, xs) <= 1.0
    assert dense_gap(g, phis, g.x) <= 1.0


@pytest.mark.parametrize("g", LARGE_FIXTURES, ids=["off-critical", "critical"])
def test_reduced_determinants_match_on_the_576_dart_torus(g):
    rng = np.random.default_rng(5)
    r = len(g.schur_pattern.rest)
    assert r == g.nd // 2
    # one matrix per chunk at r = 288: three chunks
    phis = np.concatenate([np.ones((1, g.nd)), _cochains(g, rng, 2, 1.2)])
    assert dense_gap(g, phis, g.x) <= 1.0


@pytest.mark.parametrize("chunk_bytes", [1, 16 * 8 * 8 * 3, 1 << 19])
def test_reduced_stacks_cross_chunk_boundaries(monkeypatch, chunk_bytes):
    # chunks of one matrix, of three with a shorter last one, and one chunk
    monkeypatch.setattr(linalg, "_DRAW_CHUNK_BYTES", chunk_bytes)
    g = fx.square_torus(2, 0.4)
    assert len(g.schur_pattern.rest) == 8
    rng = np.random.default_rng(chunk_bytes)
    phis = _cochains(g, rng, 7, 0.9)
    xs = rng.uniform(0.02, 0.98, (7, g.ne))
    assert dense_gap(g, phis, xs) <= 1.0
    single = [complex(kw_dets(g, p, x)) for p, x in zip(phis, xs)]
    assert np.array_equal(kw_dets(g, phis, xs), single)


@pytest.mark.parametrize("g", GATE_FIXTURES + LARGE_FIXTURES)
def test_real_determinant_and_solve_match_the_dense_m(g):
    rng = np.random.default_rng(8)
    for xs in (g.x, rng.uniform(0.02, 0.98, g.ne)):
        m = kac_ward_real(g, xs)
        want = np.linalg.det(m)
        assert abs(kw_real_det(g, xs) - want) <= g.nd * EPS * max(abs(want),
                                                                  1.0)
        if abs(want) < 1e-8:
            continue
        b = rng.standard_normal((g.nd, 3))
        y = _schur_solve(g, _real_entries(g, xs), b)
        assert max_norm(m @ y - b) <= g.nd * EPS * max_norm(b) * max(
            1.0, max_norm(y))


@pytest.mark.parametrize("g", GATE_FIXTURES + LARGE_FIXTURES
                         + [fx.square_torus(2), fx.square_torus(8),
                            fx.rect_torus_mn(3, 4, math.tan(0.3),
                                             math.tan(math.pi / 4 - 0.3))])
def test_kernel_dimension_is_the_references(g):
    assert kac_ward_kernel(g)[2] == kac_ward_kernel_reference(g)[3]


_W = st.floats(0.05, 0.95)
_ANGLE = st.floats(0.0, 2 * math.pi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rect", "honeycomb"]), x=st.tuples(_W, _W, _W),
       a=st.tuples(_ANGLE, _ANGLE), radius=st.sampled_from([1.0, 0.6, 1.5]))
def test_reduced_determinants_match_over_weights(kind, x, a, radius):
    g = fx.rect_torus(*x[:2]) if kind == "rect" else fx.honeycomb_torus(x)
    z, w = (radius * cmath.exp(1j * t) for t in a)
    phi = character_cochain(g, z, w).values
    assert dense_gap(g, phi[None], g.x) <= 1.0


def _without_term(g, t):
    """``g.schur_pattern`` with the term t left out."""
    p = g.schur_pattern
    size = np.diff(np.append(p.starts, len(p.first)))
    slot = np.delete(np.repeat(p.slots, size), t)
    starts = np.flatnonzero(np.diff(slot, prepend=-1))
    return dataclasses.replace(p, first=np.delete(p.first, t),
                               second=np.delete(p.second, t), starts=starts,
                               slots=slot[starts])


@pytest.mark.parametrize("g", [fx.square_torus(2, 0.4),
                               fx.honeycomb_torus((0.3, 0.4, 0.5)),
                               fx.square_torus(4, 0.37)])
def test_gate_detects_a_dropped_path_term(g):
    rng = np.random.default_rng(3)
    phis = _cochains(g, rng, 4)
    assert dense_gap(g, phis, g.x) <= 1.0
    # a two-step path R -> S -> R, second factor an entry of A
    paths = np.flatnonzero(g.schur_pattern.second < len(g.transition_entries[0]))
    assert paths.size
    g.__dict__["schur_pattern"] = _without_term(g, int(paths[len(paths) // 2]))
    assert dense_gap(g, phis, g.x) > 1.0


def test_no_dense_operator_on_the_reduced_paths(monkeypatch):
    from kwlab import critical, sholo

    def no_dense(*args, **kwargs):
        raise AssertionError("a dense nd x nd Kac-Ward matrix was built")

    g = fx.square_torus(4, 0.37)
    want = (critical.spectral_grid(g, 3)[2], critical.spectral_curve(g, 1j, 2),
            sholo.observable(g, 5, "inverse"), kac_ward_kernel(g))
    monkeypatch.setattr(operators, "kac_ward", no_dense)
    monkeypatch.setattr(operators, "kac_ward_real", no_dense)
    got = (critical.spectral_grid(g, 3)[2], critical.spectral_curve(g, 1j, 2),
           sholo.observable(g, 5, "inverse"), kac_ward_kernel(g))
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert all(np.array_equal(a, b) for a, b in zip(got[3], want[3]))
