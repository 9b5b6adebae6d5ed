import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import fixtures as fx
from kwlab import critical
from kwlab.surface_graph import (GraphError, SizeGuardError, Weights,
                                 build_torus, dual)
from kwlab.critical import (critical_beta, duality_residuals,
                            duality_sign_pattern, free_energy, hessian_tau,
                            spectral_coefficients, spectral_curve,
                            spectral_grid)
from kwlab.operators import (kac_ward_kernel, kw_dets, kw_real_det,
                             sqrt_det_pfaffian)
from kwlab.sholo import kernel_observables

from character_reference import sign_pattern_reference
from duality import duality_check
from oracle_reference import signed_cycle_sum
from tracked_root import sqrt_det_tracked


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


def critical_beta_reference(g, j, tol=1e-12):
    """Bisection on the tracked square root over [1e-6, 50]."""
    def s(beta):
        return sqrt_det_tracked(g, None, np.tanh(beta * j))

    lo, hi = 1e-6, 50.0
    s_lo = s(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s_mid = s(mid)
        if s_lo * s_mid <= 0:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("g, j", [
    (fx.rect_torus(0.4, 0.4), np.array([0.83, 1.21])),
    (fx.honeycomb_torus((0.4, 0.5, 0.6)), np.array([0.7, 1.1, 1.3])),
    (fx.square_torus(2), np.array([0.9, 1.2] * 4)),
])
def test_critical_beta_brent_matches_bisection(g, j):
    trace = []
    got = critical_beta(g, j=j, trace=trace)["beta_c"]
    assert abs(got - critical_beta_reference(g, j)) <= 1e-11
    # Brent needs about a third of the bisection's 46 steps
    assert len(trace) <= 20
    assert trace[0][0] == 1e-6 and trace[1][0] == 50.0
    # the trace brackets the root: both signs appear
    assert {v > 0 for _, v in trace} == {True, False}


def test_sqrt_sign_change_across_criticality():
    g = fx.rect_torus(0.4, 0.4)
    bc = math.atanh(math.sqrt(2) - 1)
    xm = math.tanh(bc - 1e-3)
    xp = math.tanh(bc + 1e-3)
    for root in (sqrt_det_pfaffian, sqrt_det_tracked):
        assert root(g, None, np.array([xm, xm])) > 0
        assert root(g, None, np.array([xp, xp])) < 0


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


def hessian_tau_reference(g, x=None, h=1e-4):
    """The scalar stencil: one spectral_curve call per stencil term."""
    def p(z, w):
        return spectral_curve(g, z, w, x).real

    def stencil(step):
        azz = (p(1 + step, 1) - 2 * p(1, 1) + p(1 - step, 1)) / step ** 2
        aww = (p(1, 1 + step) - 2 * p(1, 1) + p(1, 1 - step)) / step ** 2
        b = (p(1 + step, 1 + step) - p(1 + step, 1 - step)
             - p(1 - step, 1 + step) + p(1 - step, 1 - step)) / (4 * step ** 2)
        return np.array([azz, aww, b])

    azz, aww, b = (4.0 * stencil(h / 2) - stencil(h)) / 3.0
    root = (-b + 1j * math.sqrt(azz * aww - b * b)) / aww
    return np.array([[azz, b], [b, aww]]), (root if root.imag > 0
                                            else root.conjugate())


def test_hessian_tau_matches_the_stencil():
    # the exact Hessian against the stencil, within the stencil's rounding
    # and truncation error
    th = 1.1
    x, y = math.tan(th / 2), math.tan((math.pi / 2 - th) / 2)
    xh = 1.0 / math.sqrt(3.0)
    for g, xs in ((fx.rect_torus(x, y), None),
                  (fx.honeycomb_torus((xh, xh, xh)), None),
                  (fx.square_torus(2), None),
                  (fx.square_torus(2), np.full(8, fx.X_CRITICAL_SQUARE))):
        rep = hessian_tau(g, x=xs)
        hessian, tau = hessian_tau_reference(g, x=xs)
        assert np.max(np.abs(rep["hessian"] - hessian)) <= (
            1e-9 * np.max(np.abs(hessian)))
        assert abs(rep["tau"] - tau) <= 1e-9 * abs(tau)
    with pytest.raises(GraphError):
        hessian_tau(fx.triangle(0.3))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
def test_tau_is_exactly_i_on_square_tori(n):
    assert abs(hessian_tau(fx.square_torus(n))["tau"] - 1j) <= 1e-14


def test_tau_is_exact_on_critical_rect_tori():
    for th in (0.2, math.pi / 4, math.pi / 3, 1.1, math.pi / 2 - 0.2):
        x = math.tan(th / 2)
        y = math.tan((math.pi / 2 - th) / 2)
        rep = hessian_tau(fx.rect_torus(x, y))
        assert abs(rep["tau"] - 1j * math.tan(th)) <= 1e-14 * math.tan(th)
        assert abs(rep["B"]) <= 1e-12


def test_hessian_tau_off_criticality_names_the_kernel():
    with pytest.raises(GraphError, match=r"not critical: .* 0-dimensional "
                       r"kernel \(sigma_n-1 / sigma_1 = 0\.1"):
        hessian_tau(fx.rect_torus(0.3, 0.4))


def _critical_rect(th, off):
    """Rect torus at the critical pair of half-angles, y moved by ``off``."""
    return fx.rect_torus(math.tan(th / 2),
                         math.tan((math.pi / 2 - th + off) / 2))


def _critical_honeycomb(x1, x2, off):
    """Honeycomb with x1 x2 + x2 x3 + x3 x1 = 1, x3 then moved by ``off``."""
    return fx.honeycomb_torus((x1, x2, (1 - x1 * x2) / (x1 + x2) + off))


_OFF = st.one_of(st.just(0.0), st.floats(1e-3, 0.05), st.floats(-0.05, -1e-3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(honeycomb=st.booleans(), th=st.floats(0.2, math.pi / 2 - 0.2),
       x1=st.floats(0.45, 0.85), x2=st.floats(0.45, 0.85), off=_OFF)
def test_hessian_tau_decides_criticality_with_the_kernel(honeycomb, th, x1,
                                                         x2, off):
    g = (_critical_honeycomb(x1, x2, off) if honeycomb
         else _critical_rect(th, off))
    n_funcs = len(kernel_observables(g))
    if off:
        with pytest.raises(GraphError, match="not critical"):
            hessian_tau(g)
        assert n_funcs == 0
        return
    rep = hessian_tau(g)
    assert n_funcs == 2
    hessian, _ = hessian_tau_reference(g)
    assert np.max(np.abs(rep["hessian"] - hessian)) <= (
        1e-9 * np.max(np.abs(hessian)))
    assert rep["tau"].imag > 0


def test_no_dense_transition_is_cached_on_the_graph():
    # the Kac-Ward pattern is held as its entry list: every dense matrix of
    # the family is built per call, none is kept on the graph
    g = fx.square_torus(4)
    kw_dets(g, np.ones(g.nd), g.x)
    kac_ward_kernel(g)
    sqrt_det_pfaffian(g)
    critical_beta(g)
    hessian_tau(g)
    assert "transition_entries" in vars(g)
    assert not [k for k, v in vars(g).items()
                if isinstance(v, np.ndarray) and v.shape == (g.nd, g.nd)]


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


def test_free_energy_names_the_node_where_the_curve_is_not_real(
        monkeypatch):
    # the direct 2 x 2 grid of free_energy(n=1) factors the nodes (0, 0) and
    # (0, 1); the rest are their conjugates
    def skewed(g, phi, x):
        out = kw_dets(g, phi, x)
        out[1] += 1j
        return out

    monkeypatch.setattr(critical, "kw_dets", skewed)
    with pytest.raises(GraphError, match=r"^spectral curve is not real on "
                       r"the 2 x 2 grid at \(phi1, phi2\) = "
                       r"\(1\.5708, 4\.71239\)$"):
        free_energy(fx.rect_torus(0.3, 0.4), n=1)


def test_free_energy_names_the_node_where_the_curve_is_nonpositive(
        monkeypatch):
    def negated(g, phi, x):
        out = kw_dets(g, phi, x)
        out[0] = -1.0
        return out

    monkeypatch.setattr(critical, "kw_dets", negated)
    with pytest.raises(GraphError, match=r"^log of a nonpositive curve value "
                       r"on the 2 x 2 grid at \(phi1, phi2\) = "
                       r"\(1\.5708, 1\.5708\)$"):
        free_energy(fx.rect_torus(0.3, 0.4), n=1)


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


def test_grid_guard(monkeypatch):
    g = fx.rect_torus(0.3, 0.4)
    monkeypatch.setattr(critical, "GRID_GUARD", 4 * 4 * g.nd)
    assert spectral_grid(g, 4)[2].shape == (4, 4)
    with pytest.raises(SizeGuardError):
        spectral_grid(g, 5)
    # the free energy takes the n x n and 2n x 2n grids, the finer first,
    # so a refused one costs no determinant
    calls = []
    grid = critical.spectral_grid
    monkeypatch.setattr(critical, "spectral_grid",
                        lambda g, n, x=None: calls.append(n) or grid(g, n, x))
    assert free_energy(g, n=2)["grid"] == 2
    assert calls == [4, 2]
    with pytest.raises(SizeGuardError):
        free_energy(g, n=3)
    assert calls[2:] == [6]
    with pytest.raises(GraphError, match="at least 1"):
        free_energy(g, n=-3000)


def test_spectral_grid_matches_single_points():
    # 64 darts: the 32 factored nodes of the 8 x 8 grid span 4 chunks of the
    # determinant stack; the other 32 are their conjugates
    g = fx.square_torus(4, 0.37)
    angles, _, vals = spectral_grid(g, 8)
    want = np.array([[spectral_curve(g, cmath.exp(1j * a), cmath.exp(1j * b))
                      for b in angles] for a in angles])
    flat, want = vals.ravel(), want.ravel()
    assert np.max(np.abs(flat[:32] - want[:32]) / np.abs(want[:32])) <= 1e-15
    assert np.array_equal(flat[32:], flat[:32][::-1].conj())


def _shift21_torus(x=(0.3, 0.4, 0.5)):
    """One vertex with loops of shift (1, 0), (1, 1) and (2, 1): a sheared
    triangular lattice whose (2, 1) edge carries z^2 w in the curve."""
    edges = [(0, 0, (1, 0)), (0, 0, (1, 1)), (0, 0, (2, 1))]
    return build_torus([[1.0, 0.0], [0.0, 1.0]], [(0.0, 0.0)], edges,
                       Weights(np.asarray(x, dtype=float)))


def _laurent(a, b, c, z, w):
    return np.sum(c * np.power.outer(z, a)[:, None] * np.power.outer(w, b))


def _assert_interpolated_grid_exact(g, n=16, seed=0):
    """Every node of the interpolated grid, and off-grid torus points of the
    coefficients, against direct determinants, to 1e-13 max|P|."""
    a, b, c = spectral_coefficients(g)
    # the grid is the interpolated route
    assert len(a) * len(b) < n * n
    angles, _, vals = spectral_grid(g, n)
    want = np.array([[spectral_curve(g, cmath.exp(1j * p), cmath.exp(1j * q))
                      for q in angles] for p in angles])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(vals - want)) <= 1e-13 * scale
    rng = np.random.default_rng(seed)
    for p, q in rng.uniform(0, 2 * math.pi, (20, 2)):
        z, w = cmath.exp(1j * p), cmath.exp(1j * q)
        assert abs(_laurent(a, b, c, z, w) - spectral_curve(g, z, w)) <= (
            1e-13 * scale)


@pytest.mark.parametrize("g", [
    _critical_rect(1.1, 0.0), _critical_rect(1.1, 0.03), fx.rect_torus(),
    _critical_honeycomb(0.5, 0.7, 0.0), _critical_honeycomb(0.45, 0.85, 0.0),
    _critical_honeycomb(0.5, 0.7, -0.04), fx.honeycomb_torus((0.4, 0.5, 0.6)),
    fx.square_torus(1), fx.square_torus(2), fx.square_torus(3),
    dual(fx.square_torus(2, 0.3)), _shift21_torus(),
])
def test_interpolated_grid_matches_the_curve(g):
    _assert_interpolated_grid_exact(g)


def test_exponent_bound_covers_a_shift_two_edge():
    a, b, c = spectral_coefficients(_shift21_torus())
    assert (a[0], a[-1], b[0], b[-1]) == (-4, 4, -2, 2)
    # z^2 w and z^-2 w^-1 come from the (2, 1) loop alone
    assert min(abs(c[a == 2][0][b == 1][0]),
               abs(c[a == -2][0][b == -1][0])) > 0.1
    _assert_interpolated_grid_exact(_shift21_torus(), n=8)


_WEIGHT = st.floats(0.05, 0.95)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rect", "honeycomb", "shift21"]),
       x=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT), seed=st.integers(0, 2 ** 16))
def test_interpolated_grid_matches_the_curve_over_weights(kind, x, seed):
    g = {"rect": lambda: fx.rect_torus(*x[:2]),
         "honeycomb": lambda: fx.honeycomb_torus(x),
         "shift21": lambda: _shift21_torus(x)}[kind]()
    _assert_interpolated_grid_exact(g, n=8, seed=seed)


def _count_kw_dets(monkeypatch):
    """Rows handed to kw_dets by the critical module, one entry per call."""
    rows = []

    def counted(g, phi, x):
        out = kw_dets(g, phi, x)
        rows.append(out.size)
        return out

    monkeypatch.setattr(critical, "kw_dets", counted)
    return rows


def test_grid_determinant_counts(monkeypatch):
    rows = _count_kw_dets(monkeypatch)
    real = []
    monkeypatch.setattr(critical, "kw_real_det",
                        lambda g, x: real.append(1) or kw_real_det(g, x))
    # 5 x 5 coefficients fix the 16 x 16 grid on the 2 x 2 torus: the roots
    # j = 1, 2 of z and k = 0, 1, 2 of w at j = 0 are factored, the others
    # are their conjugates
    spectral_grid(fx.square_torus(2), 16)
    assert sum(rows) == 13
    rows.clear()
    # 3 x 3 coefficients, once for both the 32 x 32 and 16 x 16 grids
    free_energy(fx.rect_torus(), n=16)
    assert rows == [5]
    rows.clear()
    assert real == []
    # 17 x 17 coefficients against one node: the direct route, whose one
    # node (-1, -1) is a real determinant
    spectral_grid(fx.square_torus(8, 0.3), 1)
    assert sum(rows) == 0 and real == [1]
    rows.clear()
    # the direct 3 x 3 grid: 4 complex determinants and the real middle
    spectral_grid(fx.square_torus(8, 0.3), 3)
    assert sum(rows) == 4 and real == [1, 1]


def test_real_node_is_the_curve_at_minus_one():
    # the direct 1 x 1 grid is the node (-1, -1), a real determinant
    for g in (fx.square_torus(1), fx.square_torus(2), fx.square_torus(3),
              fx.square_torus(8), fx.honeycomb_torus((0.4, 0.5, 0.6)),
              _shift21_torus()):
        vals = spectral_grid(g, 1)[2]
        want = spectral_curve(g, -1, -1)
        assert vals.shape == (1, 1) and vals[0, 0].imag == 0.0
        assert abs(vals[0, 0] - want) <= 1e-14 * abs(want)


_UNIT_ANGLES = st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rect", "honeycomb", "shift21", "dual"]),
       x=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT),
       angles=st.lists(_UNIT_ANGLES, min_size=1, max_size=4))
def test_spectral_curve_is_conjugate_symmetric(kind, x, angles):
    # KW(z, w) = H^-1 (I - diag(phi x) T') H with T' real: for real weights
    # P(conj z, conj w) = conj P(z, w)
    g = {"rect": lambda: fx.rect_torus(*x[:2]),
         "honeycomb": lambda: fx.honeycomb_torus(x),
         "shift21": lambda: _shift21_torus(x),
         "dual": lambda: dual(fx.honeycomb_torus(x))}[kind]()
    zw = [(cmath.exp(1j * p), cmath.exp(1j * q)) for p, q in angles]
    vals = [spectral_curve(g, z, w) for z, w in zw]
    mirrored = [spectral_curve(g, z.conjugate(), w.conjugate())
                for z, w in zw]
    scale = max(map(abs, vals + mirrored))
    for v, m in zip(vals, mirrored):
        assert abs(m - v.conjugate()) <= 1e-14 * scale


def _hessian_from_coefficients(g):
    """P_zz, P_ww and P_zw at (1, 1) as moments of the Laurent coefficients.

    At criticality the gradient sum(a c_ab) vanishes, so sum(a^2 c_ab) is
    P_zz; tau is the upper root of A_w t^2 + 2 B t + A_z.
    """
    a, b, c = spectral_coefficients(g)
    ea, eb = np.meshgrid(a, b, indexing="ij")
    azz, aww, bb = (float(np.sum(m * c).real)
                    for m in (ea * ea, eb * eb, ea * eb))
    root = (-bb + 1j * math.sqrt(azz * aww - bb * bb)) / aww
    return azz, aww, bb, (root if root.imag > 0 else root.conjugate())


@pytest.mark.parametrize("g", [
    fx.rect_torus_iso(1.1), fx.square_torus(1), fx.square_torus(2),
    fx.square_torus(3), _critical_honeycomb(0.5, 0.7, 0.0),
    _critical_honeycomb(0.45, 0.85, 0.0), _critical_honeycomb(0.8, 0.6, 0.0),
])
def test_tau_from_the_coefficients(g):
    rep = hessian_tau(g)
    azz, aww, b, tau = _hessian_from_coefficients(g)
    assert abs(azz - rep["A_z"]) <= 1e-12
    assert abs(aww - rep["A_w"]) <= 1e-12
    assert abs(b - rep["B"]) <= 1e-12
    assert abs(tau - rep["tau"]) <= 1e-12


def test_spectral_coefficients_needs_a_torus_and_fits_the_guard(monkeypatch):
    with pytest.raises(GraphError, match="genus-1"):
        spectral_coefficients(fx.triangle(0.3))
    g = fx.square_torus(2)
    monkeypatch.setattr(critical, "GRID_GUARD", 25 * g.nd)
    assert spectral_coefficients(g)[2].shape == (5, 5)
    monkeypatch.setattr(critical, "GRID_GUARD", 25 * g.nd - 1)
    with pytest.raises(SizeGuardError, match="5 x 5 coefficients"):
        spectral_coefficients(g)


def test_critical_beta_error_names_beta(monkeypatch):
    import functools
    import kwlab.critical as critical
    # a root evaluation that fails at one beta: the 7x7 torus needs a refined
    # contour near x = 1 (beta = 50), which the capped tracker refuses
    monkeypatch.setattr(critical, "sqrt_det_pfaffian",
                        functools.partial(sqrt_det_tracked, max_steps=64))
    with pytest.raises(GraphError, match=r"near t = .* at beta = 50$"):
        critical_beta(fx.square_torus(7, 0.5))


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


def test_duality_keeps_the_sign_where_the_kernel_rule_says_singular():
    # sigma_n-1 / sigma_1 of the dual's KW(1, 1) is about 1.2e-9, below
    # KERNEL_TOL, yet its root at (1, 1) still carries the Arf sign: the
    # relative rule checks it where a kernel rule would report 0
    g = fx.square_torus(12, fx.X_CRITICAL_SQUARE + 1e-9)
    assert kac_ward_kernel(dual(g))[2] == 2
    rep = duality_check(g, draws=1)
    assert rep["sqrt_sign_pattern"][(1, 1)] == pytest.approx(-1.0, abs=1e-6)
    assert rep["pass"]


def test_duality_rejects_planar():
    with pytest.raises(GraphError):
        duality_check(fx.triangle(0.5))
    for half in (duality_residuals, duality_sign_pattern):
        with pytest.raises(GraphError, match="genus-1"):
            half(fx.triangle(0.5))


@pytest.mark.parametrize("g", [
    fx.rect_torus(0.3, 0.45), fx.honeycomb_torus((0.3, 0.4, 0.5)),
    fx.square_torus(1, 0.4), fx.square_torus(2, 0.4),
    # zero weights on G, and on G* (x* = 0 where x = 1)
    fx.rect_torus(0.0, 0.4), fx.rect_torus(1.0, 0.4),
    # critical: the dual root at (1, 1) is rounding noise, reported 0
    fx.square_torus(2), dual(fx.honeycomb_torus((0.3, 0.4, 0.5)))],
    ids=("rect", "honeycomb", "square1", "square2", "rect_zero", "rect_one",
         "square2_critical", "triangular"))
def test_duality_sign_pattern_is_bitwise_the_loop(g):
    got = duality_sign_pattern(g)
    want = sign_pattern_reference(g)
    assert list(got) == list(want)
    assert all(type(v) is float for v in got.values())
    assert np.array(list(got.values())).tobytes() == np.array(
        list(want.values())).tobytes()

