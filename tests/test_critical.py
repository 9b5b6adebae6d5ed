import cmath
import math

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import GraphError, Weights, build_torus
from kwlab.critical import (critical_beta, duality_check, free_energy,
                            hessian_tau, spectral_curve, spectral_grid)
from kwlab.oracle import signed_cycle_sum


def test_spectral_curve_rect_formula():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y = rng.uniform(0.05, 0.95, 2)
        g = fx.rect_torus(x, y)
        for k in range(25):
            z = cmath.exp(2j * math.pi * (k + 0.3) / 25)
            w = cmath.exp(2j * math.pi * (k * 7 + 1) / 25)
            p = ((1 + x * x) * (1 + y * y) - x * (1 - y * y) * (z + 1 / z)
                 - y * (1 - x * x) * (w + 1 / w))
            assert abs(spectral_curve(g, z, w) - p) < 1e-12


def test_spectral_curve_nonnegative_at_one():
    for beta in (0.2, 0.4406868, 0.8):
        x = math.tanh(beta)
        g = fx.rect_torus(x, x)
        assert spectral_curve(g, 1, 1).real > -1e-12


def test_spectral_curve_matches_oracle_at_corners():
    g = fx.rect_torus(0.35, 0.55)
    from kwlab.surface_graph import character_cochain
    for zw in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        s = signed_cycle_sum(g, character_cochain(g, *zw).values)
        assert spectral_curve(g, *zw).real == pytest.approx(s * s, abs=1e-12)


def test_critical_beta_isotropic():
    g = fx.rect_torus(0.4, 0.4)
    rep = critical_beta(g, j=np.array([1.0, 1.0]))
    assert abs(math.tanh(rep["beta_c"]) - (math.sqrt(2) - 1)) < 1e-10
    assert rep["P11"] < 1e-10


def test_critical_beta_rectangular():
    rng = np.random.default_rng(7)
    for _ in range(3):
        J, K = rng.uniform(0.4, 2.5, 2)
        g = fx.rect_torus(math.tanh(J), math.tanh(K))
        rep = critical_beta(g, j=np.array([J, K]))
        x = math.tanh(rep["beta_c"] * J)
        y = math.tanh(rep["beta_c"] * K)
        assert abs(x + y + x * y - 1.0) < 1e-9


def test_critical_beta_honeycomb():
    rep = critical_beta(fx.honeycomb_torus((0.4, 0.5, 0.6)))
    assert rep["P11"] < 1e-10


def test_sqrt_sign_change_across_criticality():
    from kwlab.operators import sqrt_det_tracked
    g = fx.rect_torus(0.4, 0.4)
    bc = math.atanh(math.sqrt(2) - 1)
    xm = math.tanh(bc - 1e-3)
    xp = math.tanh(bc + 1e-3)
    assert sqrt_det_tracked(g, None, np.array([xm, xm])) > 0
    assert sqrt_det_tracked(g, None, np.array([xp, xp])) < 0


def test_tau_rectangular():
    for th in (math.pi / 4, math.pi / 3, 1.1):
        x = math.tan(th / 2)
        y = math.tan((math.pi / 2 - th) / 2)
        rep = hessian_tau(fx.rect_torus(x, y))
        assert abs(rep["tau"] - 1j * math.tan(th)) < 1e-6
        assert abs(rep["B"]) < 1e-8
        assert rep["tau"].imag > 0
        h = rep["hessian"]
        assert abs(h[0, 1] - h[1, 0]) < 1e-12


def test_tau_isotropic_is_i():
    x = fx.X_CRITICAL_SQUARE
    rep = hessian_tau(fx.rect_torus(x, x))
    assert abs(rep["tau"] - 1j) < 1e-6


def test_tau_critical_honeycomb_is_hexagonal_point():
    # isotropic honeycomb criticality: 3 x^2 = 1; the conformal structure of
    # the fundamental domain is the hexagonal modulus exp(i pi/3)
    x = 1.0 / math.sqrt(3.0)
    rep = hessian_tau(fx.honeycomb_torus((x, x, x)))
    assert abs(rep["tau"] - cmath.exp(1j * math.pi / 3)) < 1e-6


def test_tau_modular_move():
    # swapping the lattice generators (orientation kept) inverts tau
    th = 1.0
    x = math.tan(th / 2)
    y = math.tan((math.pi / 2 - th) / 2)
    g = fx.rect_torus(x, y)
    tau = hessian_tau(g)["tau"]
    lat = [[g.lattice[1][0], g.lattice[1][1]],
           [-g.lattice[0][0], -g.lattice[0][1]]]
    edges = []
    for k in range(g.ne):
        s1, s2 = int(g.shift[2 * k][0]), int(g.shift[2 * k][1])
        edges.append((int(g.origin[2 * k]), int(g.origin[2 * k + 1]),
                      (s2, -s1)))
    g2 = build_torus(lat, g.vcoords, edges, Weights(g.x))
    tau2 = hessian_tau(g2)["tau"]
    assert abs(tau2 - (-1.0 / tau)) < 1e-6


def test_free_energy_limits():
    g = fx.rect_torus(0.4, 0.4)
    rep = free_energy(g, j=np.array([1.0, 1.0]), beta=1e-4, n=16)
    assert abs(rep["free_energy"] - g.nv * math.log(2)) < 1e-6
    rep = free_energy(g, j=np.array([1.0, 1.0]), beta=0.3, n=32)
    assert rep["convergence_estimate"] < 1e-4


def test_free_energy_critical_self_convergent():
    g = fx.rect_torus(0.4, 0.4)
    bc = math.atanh(math.sqrt(2) - 1)
    r32 = free_energy(g, j=np.array([1.0, 1.0]), beta=bc, n=32)
    r64 = free_energy(g, j=np.array([1.0, 1.0]), beta=bc, n=64)
    assert abs(r64["free_energy"] - r32["free_energy"]) < 1e-3
    assert r64["convergence_estimate"] < r32["convergence_estimate"]


def test_spectral_grid_real_and_positive_off_criticality():
    g = fx.rect_torus(0.3, 0.4)
    _, _, vals = spectral_grid(g, 16)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.min(vals.real) > 0


def test_spectral_grid_and_free_energy_reproducible():
    g = fx.rect_torus(0.3, 0.4)
    _, _, first = spectral_grid(g, 12)
    _, _, second = spectral_grid(g, 12)
    assert np.array_equal(first, second)
    f1 = free_energy(g, n=8)
    f2 = free_energy(g, n=8)
    assert f1["free_energy"] == f2["free_energy"]
    assert f1["free_energy_coarse"] == f2["free_energy_coarse"]


def test_spectral_curve_nonnegative_at_criticality():
    x = fx.X_CRITICAL_SQUARE
    g = fx.rect_torus(x, x)
    _, _, vals = spectral_grid(g, 64)
    assert np.min(vals.real) > -1e-10


def test_duality_random_characters():
    rep = duality_check(fx.rect_torus(0.3, 0.45), draws=10, seed=1)
    assert rep["unitary_residual_max"] < 1e-9
    assert rep["pass"]


def test_duality_self_dual_point():
    x = fx.X_CRITICAL_SQUARE
    # move slightly off criticality so the square roots do not vanish
    rep = duality_check(fx.rect_torus(x + 1e-3, x + 1e-3), draws=5, seed=2)
    assert rep["unitary_residual_max"] < 1e-11


def test_duality_sign_pattern():
    rep = duality_check(fx.square_torus(2, 0.4), draws=3, seed=3)
    pat = rep["sqrt_sign_pattern"]
    assert pat[(1, 1)] == pytest.approx(-1.0, abs=1e-9)
    for zw in ((-1, 1), (1, -1), (-1, -1)):
        assert pat[zw] == pytest.approx(1.0, abs=1e-9)


def test_duality_rejects_planar():
    with pytest.raises(GraphError):
        duality_check(fx.triangle(0.5))


def test_criticality_report_bundle():
    from kwlab.critical import criticality_report
    g = fx.rect_torus(0.4, 0.4)
    rep = criticality_report(g, j=np.array([1.0, 1.0]), n=16)
    assert abs(math.tanh(rep["beta_c"]) - (math.sqrt(2) - 1)) < 1e-8
    assert rep["tau"].imag > 0
    h = rep["hessian"]
    assert abs(h[0, 1] - h[1, 0]) < 1e-12
    assert len(rep["P11_trace"]) > 10
    # the trace brackets the root: both signs appear
    signs = {v > 0 for _, v in rep["P11_trace"]}
    assert signs == {True, False}
    assert rep["quadrature_size"] == 32
    assert np.isfinite(rep["free_energy"])
