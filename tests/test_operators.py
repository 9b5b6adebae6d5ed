import cmath
import math

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import Cochain, GraphError, character_cochain
from kwlab.derived import build_C, build_D, build_M
from kwlab.linalg import lu_det, max_norm
from kwlab.operators import (dirac_C, dirac_D, kac_ward, kasteleyn, laplacian,
                             laplacian_M, laplacian_dual, null_space,
                             skew_adjacency, sqrt_det_tracked, verify_corr,
                             verify_dirac_identities)
from kwlab.oracle import signed_cycle_sum


def test_kw_identity_at_zero_weights():
    g = fx.triangle(0.0)
    assert max_norm(kac_ward(g) - np.eye(g.nd)) == 0.0


def test_kw_triangle_det():
    x = 0.37
    g = fx.triangle(x)
    assert lu_det(kac_ward(g)) == pytest.approx((1 + x ** 3) ** 2)


def test_kw_rect_torus_curve():
    x, y = 0.31, 0.52
    g = fx.rect_torus(x, y)
    rng = np.random.default_rng(2)
    for _ in range(8):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d = lu_det(kac_ward(g, character_cochain(g, z, w)))
        p = ((1 + x * x) * (1 + y * y) - x * (1 - y * y) * (z + 1 / z)
             - y * (1 - x * x) * (w + 1 / w))
        assert abs(d - p) < 1e-12


def test_kw_det_gauge_invariance():
    g = fx.square_torus(2, 0.4)
    phi = character_cochain(g, cmath.exp(0.3j), cmath.exp(-1.1j))
    d0 = lu_det(kac_ward(g, phi))
    phi2 = phi.gauge(1, 0.5 + 2.0j).gauge(3, cmath.exp(2.2j))
    d1 = lu_det(kac_ward(g, phi2))
    assert abs(d0 - d1) < 1e-12 * abs(d0)


def test_kasteleyn_x_zero_rows():
    g = fx.triangle(0.0)
    c = build_C(g)
    k = kasteleyn(c, None, "omega_tilde")
    mags = sorted(np.unique(np.round(np.abs(k[np.abs(k) > 0]), 12)))
    assert mags == [1.0]  # only perpendicular (cos 0 = 1) and corner entries


def test_kasteleyn_abs_det_orientation_free():
    for g in (fx.triangle(0.4), fx.rect_torus(0.3, 0.45)):
        c = build_C(g)
        dt = lu_det(kasteleyn(c, None, "omega_tilde"))
        do = lu_det(kasteleyn(c, None, "omega"))
        assert abs(dt) == pytest.approx(abs(do), rel=1e-12)


def test_cor_det_relation_triangle():
    x = 0.37
    g = fx.triangle(x)
    c = build_C(g)
    lhs = 2.0 ** (-g.nv) * np.prod(1 + g.x ** 2) * lu_det(
        kasteleyn(c, None, "omega_tilde"))
    assert abs(lhs - lu_det(kac_ward(g))) < 1e-12


def test_verify_corr_random_draws():
    rng = np.random.default_rng(3)
    for g in (fx.triangle(0.3), fx.cycle4(0.7), fx.rect_torus(0.3, 0.4),
              fx.square_torus(2, 0.5)):
        xs = rng.uniform(0.05, 0.95, g.ne)
        vals = np.ones(g.nd, dtype=complex)
        if g.genus == 1:
            vals = character_cochain(g, cmath.exp(1j), cmath.exp(-2j)).values
        phi = Cochain(g, vals)
        for v in range(g.nv):
            phi = phi.gauge(v, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        rep = verify_corr(g, phi, xs)
        assert rep["residual_omega_tilde"] < 1e-12
        assert rep["residual_omega"] < 1e-12
        assert rep["det_I_qR_relerr"] < 1e-12
        assert rep["det_I_ixJ_relerr"] < 1e-12


def test_laplacian_basics():
    g = fx.square_torus(3)  # theta = pi/4, distinct neighbors
    lap = laplacian(g)
    assert np.max(np.abs(lap @ np.ones(g.nv))) < 1e-12  # constants in kernel
    assert lap[0, 0] == pytest.approx(2.0)
    off = lap[0][np.abs(lap[0]) > 1e-12]
    neigh = sorted(off.real)[:-1]
    assert np.allclose(neigh, -0.5)  # -1/2 per neighbor slot
    # on the 2x2 torus each neighbor is reached by two parallel darts
    lap2 = laplacian(fx.square_torus(2))
    off2 = lap2[0][np.abs(lap2[0]) > 1e-12]
    assert np.allclose(sorted(off2.real)[:-1], -1.0)


def test_laplacian_rejections():
    with pytest.raises(GraphError):
        laplacian(fx.triangle(1.0))  # theta = pi/2
    with pytest.raises(GraphError):
        laplacian(fx.triangle(0.0))  # mu = 0


def test_laplacian_dual_row_sums():
    g = fx.square_torus(2, 0.4)
    lap = laplacian_dual(g)
    assert np.max(np.abs(lap @ np.ones(lap.shape[0]))) < 1e-12


def test_dirac_constant_annihilates_constants_on_double():
    g = fx.square_torus(2)
    dg = build_D(g)
    dbar, dpar = dirac_D(dg)
    assert max_norm(dbar @ np.ones(dg.n_lambda)) < 1e-12


def test_dirac_conjugate_coefficients():
    g = fx.square_torus(2)
    c = build_C(g)
    dbar, dpar = dirac_C(c, field="constant")
    mu = math.sin(2 * g.theta[0])
    lhs = mu * dpar
    rhs = -np.conj(mu * dbar).T
    assert max_norm(lhs - rhs) < 1e-12


def test_dirac_rejects_non_isoradial():
    c = build_C(fx.rect_torus(0.3, 0.4))
    with pytest.raises(GraphError):
        dirac_C(c)


def test_dirac_user_supplied_reference_angles():
    g = fx.square_torus(2)
    c = build_C(g)
    ref_w = g.dirang - math.pi / 2
    ref_b = g.dirang + math.pi / 2
    dbar_e, dop_e = dirac_C(c, field="edge")
    dbar_u, dop_u = dirac_C(c, field=(ref_w, ref_b))
    assert max_norm(dbar_e - dbar_u) < 1e-14
    assert max_norm(dop_e - dop_u) < 1e-14
    with pytest.raises(GraphError):
        dirac_C(c, field="bogus")


def test_dirac_identities_square_and_rect():
    for g in (fx.square_torus(2), fx.square_torus(3),
              fx.rect_torus_iso(math.pi / 3), fx.rect_torus_iso(1.1)):
        rep = verify_dirac_identities(g)
        assert rep["pass"], rep
    rep = verify_dirac_identities(fx.square_torus(2),
                                  phi_char=(cmath.exp(0.4j), cmath.exp(1.3j)))
    assert rep["pass"], rep


def test_dirac_identities_on_anisotropic_honeycomb():
    # degree-3 vertices, distinct half-angles, non-orthogonal lattice: the
    # Kasteleyn conjugation, the double factorization and the Dirac
    # intertwiner still hold exactly; the corner-graph factorization is an
    # even-degree statement and is not asserted here
    for thetas in ((math.pi / 6,) * 3, (0.3, 0.5, math.pi / 2 - 0.8)):
        g = fx.honeycomb_torus_iso(thetas)
        rep = verify_dirac_identities(g)
        for key in ("kasteleyn_dbar", "double_factorization", "dirac_cd"):
            assert rep[key] < 1e-12, (thetas, key, rep[key])


def test_skew_adjacency_antisymmetric_and_zero_diag():
    m = build_M(fx.square_torus(2))
    a = skew_adjacency(m)
    w = np.diag(m.mu) @ a
    assert max_norm(w + w.T) < 1e-12
    assert np.all(np.abs(np.diag(a)) == 0)


def test_sqrt_det_tracked_values():
    g = fx.triangle(0.0)
    assert sqrt_det_tracked(g) == pytest.approx(1.0)
    g = fx.triangle(0.3)
    assert sqrt_det_tracked(g) == pytest.approx(1.027)
    # x = 1: magnitude 2^{V* + g - 1}
    assert abs(sqrt_det_tracked(fx.triangle(1.0))) == pytest.approx(2.0)
    assert abs(sqrt_det_tracked(fx.rect_torus(1.0, 1.0))) == pytest.approx(2.0)


def test_sqrt_det_tracked_vs_oracle_random():
    rng = np.random.default_rng(4)
    for g in (fx.triangle(0.5), fx.cycle4(0.5), fx.rect_torus(0.4, 0.4),
              fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.5)):
        for _ in range(3):
            xs = rng.uniform(0.02, 0.99, g.ne)
            assert sqrt_det_tracked(g, None, xs) == pytest.approx(
                signed_cycle_sum(g, None, xs), abs=1e-10)


def test_sqrt_det_tracked_rejects_complex_cochain():
    g = fx.rect_torus(0.3, 0.4)
    with pytest.raises(GraphError):
        sqrt_det_tracked(g, character_cochain(g, 1j, 1.0).values)


def test_null_space_of_kw():
    g = fx.rect_torus(fx.X_CRITICAL_SQUARE, fx.X_CRITICAL_SQUARE)
    kern = null_space(kac_ward(g))
    assert len(kern) >= 1
    g2 = fx.rect_torus(0.3, 0.3)
    assert null_space(kac_ward(g2)) == []
