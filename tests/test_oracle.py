import math

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import SizeGuardError, character_cochain
from kwlab.derived import build_C
from kwlab.linalg import lu_solve, max_norm
from kwlab.operators import kac_ward, sqrt_det_tracked
from kwlab.oracle import (dimer_partition, enumerate_even, enumerate_parity,
                          inverse_matrix, ising_partition, q_sign, resolve,
                          rot_of_loop, signed_cycle_sum)


def bits(mask, n):
    return [k for k in range(n) if mask >> k & 1]


def test_even_counts():
    assert len(enumerate_even(fx.triangle(0.5))) == 2
    assert len(enumerate_even(fx.cycle4(0.5))) == 2
    assert len(enumerate_even(fx.rect_torus(0.3, 0.4))) == 4
    for g in (fx.square_torus(2, 0.4), fx.honeycomb_torus((0.3, 0.4, 0.5)),
              fx.square_patch(2, 2)):
        assert len(enumerate_even(g)) == 2 ** (g.ne - g.nv + 1)


def test_even_guard():
    with pytest.raises(SizeGuardError):
        enumerate_even(fx.square_torus(4, 0.4))


def test_resolve_triangle_loop():
    g = fx.triangle(0.5)
    res = resolve(g, 0b111)
    assert len(res.loops) == 1 and len(res.loops[0]) == 3
    assert abs(abs(rot_of_loop(g, res.loops[0])) - 2 * math.pi) < 1e-12
    assert q_sign(g, res) == 1  # planar simple loop


def test_resolve_torus_loops():
    g = fx.rect_torus(0.3, 0.4)
    # a single noncontractible straight loop: rot 0, sign -1
    res = resolve(g, 0b01)
    assert len(res.loops) == 1
    assert rot_of_loop(g, res.loops[0]) == pytest.approx(0.0)
    assert q_sign(g, res) == -1
    # both loops through the degree-4 vertex resolve without crossings into
    # a single diagonal-class curve
    res = resolve(g, 0b11)
    assert len(res.loops) == 1
    assert q_sign(g, res) == -1


def test_resolve_marked_minimal_path():
    g = fx.path_graph(3, 0.5)
    # empty subgraph, marks at consecutive darts sharing the middle vertex
    res = resolve(g, 0, marks=(0, 2))
    assert res.loops == [] and res.path == []


def test_q_sign_resolution_independent():
    rng = np.random.default_rng(11)
    for g in (fx.square_torus(2, 0.5), fx.honeycomb_torus((0.3, 0.4, 0.5))):
        evens = enumerate_even(g)
        for _ in range(100):
            mask = evens[rng.integers(len(evens))]
            base = q_sign(g, resolve(g, mask))
            alt = q_sign(g, resolve(g, mask, rng=rng))
            assert alt == base


def test_signed_cycle_sum_examples():
    x = 0.37
    assert signed_cycle_sum(fx.triangle(x)) == pytest.approx(1 + x ** 3)
    assert signed_cycle_sum(fx.triangle(0.0)) == pytest.approx(1.0)
    x, y = 0.3, 0.45
    g = fx.rect_torus(x, y)
    assert signed_cycle_sum(g) == pytest.approx(1 - x - y - x * y)
    # +-1 characters flip the winding loops
    vals = {(-1, 1): 1 + x - y + x * y, (1, -1): 1 - x + y + x * y,
            (-1, -1): 1 + x + y - x * y}
    for zw, want in vals.items():
        phi = character_cochain(g, *zw)
        assert signed_cycle_sum(g, phi.values) == pytest.approx(want)


def test_signed_cycle_sum_squares_to_det():
    rng = np.random.default_rng(12)
    from kwlab.linalg import lu_det
    for g in (fx.triangle(0.2), fx.cycle4(0.8), fx.square_torus(2, 0.4),
              fx.honeycomb_torus((0.5, 0.6, 0.7))):
        xs = rng.uniform(0.05, 0.95, g.ne)
        s = signed_cycle_sum(g, None, xs)
        d = lu_det(kac_ward(g, None, xs))
        assert abs(s * s - d) < 1e-9 * max(1.0, abs(d))


def test_enumerate_parity():
    g = fx.triangle(0.5)
    masks = enumerate_parity(g, [0, 1], excluded=[0])
    # odd at vertices 0 and 1 avoiding edge 0: the two-edge path through 2
    assert len(masks) == 1 and bits(masks[0], 3) == [1, 2]
    assert enumerate_parity(g, [0], excluded=[]) == []


def test_ising_three_way():
    for g, beta in ((fx.single_edge(0.4), 0.7), (fx.triangle(0.46), 0.5),
                    (fx.cycle4(0.3), 0.9),
                    (fx.square_torus(2, math.tanh(0.4)), 0.4)):
        z = ising_partition(g, beta=beta)
        ref = z["spins"]
        assert z["high_temperature"] == pytest.approx(ref, rel=1e-9)
        assert z["kac_ward"] == pytest.approx(ref, rel=1e-9)


def test_ising_single_edge_closed_form():
    beta = 0.7
    z = ising_partition(fx.single_edge(0.4), j=np.array([1.0]), beta=beta)
    want = 2 * math.exp(beta) + 2 * math.exp(-beta)
    assert z["spins"] == pytest.approx(want, rel=1e-12)
    assert z["kac_ward"] == pytest.approx(want, rel=1e-9)


def test_ising_guard():
    with pytest.raises(SizeGuardError):
        ising_partition(fx.square_torus(4, 0.4))


def test_dimer_matchings_vs_kasteleyn():
    for g in (fx.triangle(0.3), fx.cycle4(0.8), fx.rect_torus(0.3, 0.45),
              fx.square_torus(2, 0.35)):
        rep = dimer_partition(build_C(g))
        assert rep["matchings"] > 0
        assert abs(rep["kasteleyn_combo"]) == pytest.approx(
            rep["matchings"], rel=1e-9)


def test_dimer_positive_at_zero_weights():
    rep = dimer_partition(build_C(fx.triangle(0.0)))
    assert rep["matchings"] > 0


def test_dimer_planar_is_single_det():
    g = fx.cycle4(0.62)
    rep = dimer_partition(build_C(g))
    from kwlab.linalg import lu_det
    from kwlab.operators import kasteleyn
    d = lu_det(kasteleyn(build_C(g), None, "omega"))
    assert abs(d) == pytest.approx(rep["matchings"], rel=1e-12)


def test_dimer_guard():
    with pytest.raises(SizeGuardError):
        dimer_partition(build_C(fx.square_torus(3, 0.4)))


def test_inverse_matrix_identity_at_zero():
    g = fx.cycle4(0.0)
    assert max_norm(inverse_matrix(g) - np.eye(g.nd)) < 1e-14


def test_inverse_matrix_vs_dense():
    for g in (fx.single_edge(0.4), fx.triangle(0.3), fx.path_graph(3, 0.6),
              fx.cycle4(0.8), fx.rect_torus(0.2, 0.2),
              fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.35)):
        kw = kac_ward(g)
        expected = sqrt_det_tracked(g) * lu_solve(kw, np.eye(g.nd, dtype=complex))
        assert max_norm(inverse_matrix(g) - expected) < 1e-9
