import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import fixtures as fx
from kwlab.surface_graph import (Cochain, GraphError, character_cochain,
                                 principal_angle)
from kwlab.derived import build_C, build_D, build_M, isoradial_data
from kwlab.linalg import lu_det, max_norm, to_dense
from kwlab.operators import (_dirac_cd_residual, dirac_C, dirac_D, kac_ward,
                             kasteleyn, kw_dets,
                             laplacian, laplacian_M, laplacian_dual, null_space,
                             skew_adjacency, sqrt_det_pfaffian, verify_corr,
                             verify_dirac_identities)
from kwlab.oracle import signed_cycle_sum

from identity_reference import (verify_corr_reference,
                                verify_dirac_identities_reference)
from tracked_root import sqrt_det_tracked


# -- slow references: the entry-by-entry loop forms the array builders replace


def kac_ward_reference(g, phi, x):
    """Kac-Ward operator assembled one continuation e -> e' at a time."""
    m = np.eye(g.nd, dtype=complex)
    for e in range(g.nd):
        for e2 in g.darts_at[g.terminus(e)]:
            if e2 == (e ^ 1):
                continue
            alpha = principal_angle(g.dirang[e2] - g.dirang[e])
            m[e, e2] -= phi[e] * x[e >> 1] * cmath.exp(0.5j * alpha)
    return m


def kasteleyn_reference(g, phi, x, orientation):
    """Kasteleyn operator assembled one C-edge at a time from the graph alone.

    Per dart d: the perp edge w[d]-b[d] (cos theta, orientation 1), the par
    edge w[d]-b[rev d] (sin theta phi(d), orientation i) and the corner edge
    w[d]-b[R d] (1, orientation -exp(i beta/2)); 'omega' gauge-reduces each
    orientation by the half-angle phases and rounds it to a sign.
    """
    theta = 2.0 * np.arctan(x)
    dh = np.exp(0.5j * g.a_angles())
    q = np.exp(0.5j * g.beta())
    k = np.zeros((g.nd, g.nd), dtype=complex)
    for d in range(g.nd):
        th = theta[d >> 1]
        for b, o, y in ((d, 1.0, math.cos(th)),
                        (d ^ 1, 1j, math.sin(th) * phi[d]),
                        (int(g.rot[d]), -q[d], 1.0)):
            if orientation == "omega":
                o = 1.0 if (dh[d] * o / dh[b]).real > 0 else -1.0
            k[d, b] += o * y
    return k


def sqrt_det_tracked_reference(g, phi=None, x=None, max_steps=2 ** 14):
    """The tracked square root evaluated one determinant at a time."""
    pv = np.ones(g.nd, dtype=complex) if phi is None else np.asarray(phi)
    if np.max(np.abs(np.abs(pv.real) - 1.0)) > 1e-12 or np.max(np.abs(pv.imag)) > 1e-12:
        raise GraphError("tracked square root needs a +-1-valued cochain")
    xs = g.x if x is None else np.asarray(x, dtype=float)

    def det_at(t):
        return lu_det(kac_ward(g, pv, xs * t))

    bump = 0.05
    n = 64
    while True:
        ts = np.linspace(0.0, 1.0, n + 1)
        lift = bump * np.minimum(1.0, np.sin(math.pi * np.minimum(ts, 0.5)))
        lift = np.where(ts >= 0.5, bump, lift)
        ts = ts + 1j * lift
        vals = [det_at(t) for t in ts]
        ok = True
        for k in range(n):
            if vals[k] == 0 or vals[k + 1] == 0:
                ok = False
                break
            ratio = vals[k + 1] / vals[k]
            if abs(cmath.phase(ratio)) >= math.pi / 2:
                ok = False
                break
            if not 0.2 < abs(ratio) < 5.0:
                ok = False
                break
        if ok:
            break
        n *= 2
        if n > max_steps:
            raise GraphError("tracked square root is sign-ambiguous "
                             "(determinant vanishes along the homotopy)")
    r = 1.0 + 0j
    for k in range(n):
        r *= cmath.sqrt(vals[k + 1] / vals[k])
    d1 = det_at(1.0 + 0j)
    if d1 == 0:
        return 0.0
    seq = [vals[-1]]
    sigma = bump
    while abs(seq[-1] - d1) > 0.25 * abs(d1):
        sigma *= 0.5
        if sigma < 1e-30:
            raise GraphError("tracked square root is sign-ambiguous at the "
                             "endpoint of the homotopy")
        seq.append(det_at(1.0 + 1j * sigma))
    seq.append(d1)
    for v, b in zip(seq, seq[1:]):
        if v == 0 or b == 0 or abs(cmath.phase(b / v)) >= 0.9 * math.pi:
            raise GraphError("tracked square root is sign-ambiguous at the "
                             "endpoint of the homotopy")
        r *= cmath.sqrt(b / v)
    mag = math.sqrt(abs(d1))
    if abs(r) > 0 and abs(r.imag) > 1e-6 * abs(r) + 1e-12:
        raise GraphError("tracked square root did not return to the real axis")
    return mag if r.real >= 0 else -mag


def _random_unitary_cochain(g, rng):
    vals = np.ones(g.nd, dtype=complex)
    if g.genus == 1:
        vals = character_cochain(g, cmath.exp(1j * rng.uniform(0, 6.3)),
                                 cmath.exp(1j * rng.uniform(0, 6.3))).values
    phi = Cochain(g, vals)
    for v in range(g.nv):
        phi = phi.gauge(v, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    return phi.values


REFERENCE_FIXTURES = [
    fx.triangle(0.5), fx.square_patch(2, 2, 0.5),
    fx.rect_torus(0.3, 0.4),  # loops: a dart continues into itself
    fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.4),
]


@pytest.mark.parametrize("g", REFERENCE_FIXTURES)
def test_kac_ward_matches_loop_reference(g):
    rng = np.random.default_rng(11)
    # +-1 cochains (those of the tracked square root): bitwise equal
    signs = [np.ones(g.nd, dtype=complex)]
    if g.genus == 1:
        signs += [character_cochain(g, z, w).values
                  for z in (1, -1) for w in (1, -1)]
    for _ in range(4):
        xs = rng.uniform(0.02, 0.98, g.ne)
        for phi in signs:
            assert np.array_equal(kac_ward(g, phi, xs),
                                  kac_ward_reference(g, phi, xs))
        # unitary cochains: numpy's vectorized complex product may round the
        # last bit differently from Python's scalar one
        phi = _random_unitary_cochain(g, rng)
        assert max_norm(kac_ward(g, phi, xs)
                        - kac_ward_reference(g, phi, xs)) <= 1e-15
    assert np.array_equal(kac_ward(g), kac_ward_reference(g, signs[0], g.x))


@pytest.mark.parametrize("g", REFERENCE_FIXTURES)
def test_kasteleyn_matches_loop_reference(g):
    rng = np.random.default_rng(12)
    c = build_C(g)
    for _ in range(4):
        xs = rng.uniform(0.02, 0.98, g.ne)
        phi = _random_unitary_cochain(g, rng)
        for orientation in ("omega", "omega_tilde"):
            got = kasteleyn(c, phi, orientation, xs)
            want = kasteleyn_reference(g, phi, xs, orientation)
            assert max_norm(got - want) <= 1e-14


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
    g = fx.rect_torus(0.3, 0.4)
    c, dg = build_C(g), build_D(g)
    for _ in range(2):  # a failed check is not cached
        with pytest.raises(GraphError):
            dirac_C(c)
        with pytest.raises(GraphError):
            dirac_D(dg)
        with pytest.raises(GraphError):
            verify_dirac_identities(g)


def test_isoradial_data_is_validated_once():
    g = fx.square_torus(2)
    delta = isoradial_data(g)
    # graphs are not mutated after construction; this one is, to show that
    # the default-tolerance result is read from the cache
    g.theta = 0.5 * g.theta
    assert isoradial_data(g) == delta
    verify_dirac_identities(g)  # reads the cache too: no GraphError
    with pytest.raises(GraphError):  # another tolerance checks again
        isoradial_data(g, tol=1e-6)


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


def dirac_cd_residual_reference(g, c, dg):
    """The intertwiner residual through the dense 2 nd x 2 nd Dirac_C."""
    nd, nv, ne = g.nd, g.nv, g.ne
    nl = dg.n_lambda
    n_d = nl + ne
    d = np.arange(nd)
    cv = np.concatenate([d, nd + d, nd + d])
    dv = np.concatenate([nl + (d >> 1), g.origin, nv + g.face_of[d ^ 1]])
    mu_c = np.sin(2 * np.repeat(g.theta, 2))
    dbar_c, d_c = dirac_C(c, None, field="constant")
    dir_c = np.zeros((2 * nd, 2 * nd), dtype=complex)
    dir_c[:nd, nd:] = mu_c[:, None] * dbar_c
    dir_c[nd:, :nd] = -mu_c[:, None] * d_c
    dbar_d, d_d = dirac_D(dg)
    dir_d = np.zeros((n_d, n_d), dtype=complex)
    dir_d[nl:, :nl] = dg.mu_diamond[:, None] * dbar_d
    dir_d[:nl, nl:] = -dg.mu_lambda[:, None] * d_d
    h_cd = np.zeros((n_d, 2 * nd))
    h_cd[dv, cv] = 1.0
    lhs = h_cd @ dir_c @ (0.5 * h_cd.T)
    return max_norm(lhs - dir_d) / max(1.0, max_norm(dir_d))


def test_dirac_cd_residual_vs_dense_reference():
    for g in (fx.square_torus(2), fx.square_torus(3),
              fx.rect_torus_iso(math.pi / 3), fx.rect_torus_iso(1.1),
              fx.honeycomb_torus_iso((math.pi / 6,) * 3),
              fx.honeycomb_torus_iso((0.3, 0.5, math.pi / 2 - 0.8))):
        c, dg = build_C(g), build_D(g)
        got = _dirac_cd_residual(g, c, dg)
        assert abs(got - dirac_cd_residual_reference(g, c, dg)) <= 1e-16
        assert got < 1e-12


def _corr_draws():
    """The graphs, gauged cochains and weights of test_verify_corr_random_draws."""
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
        yield g, phi, xs


def test_verify_corr_matches_dense_reference():
    for g, phi, xs in _corr_draws():
        for args in ((g, phi, xs), (g,)):
            got, want = verify_corr(*args), verify_corr_reference(*args)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-15, (key, got, want)


DIRAC_CASES = (
    (fx.square_torus(2), None), (fx.square_torus(3), None),
    (fx.rect_torus_iso(math.pi / 3), None), (fx.rect_torus_iso(1.1), None),
    (fx.square_torus(2), (cmath.exp(0.4j), cmath.exp(1.3j))),
    (fx.honeycomb_torus_iso((math.pi / 6,) * 3), None),
    (fx.honeycomb_torus_iso((0.3, 0.5, math.pi / 2 - 0.8)), None))


@pytest.mark.parametrize("g, phi_char", DIRAC_CASES)
def test_dirac_identities_match_dense_reference(g, phi_char):
    got = verify_dirac_identities(g, phi_char)
    want = verify_dirac_identities_reference(g, phi_char)
    assert got.keys() == want.keys()
    assert got["pass"] == want["pass"]
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-15, (key, got, want)


@pytest.mark.parametrize("tamper", ("scale", "stray"))
def test_identity_checks_detect_a_tampered_dirac_D(monkeypatch, tamper):
    import identity_reference
    import kwlab.operators as operators

    honest = operators.dirac_D

    def tampered(dg, phi_d=None, sparse=False):
        (rows, cols, vals), dop = honest(dg, phi_d, sparse=True)
        if tamper == "scale":
            vals = vals.copy()
            vals[0] *= 1 + 1e-6
        else:
            # a stray entry in row 0, outside its support
            col = min(set(range(dg.n_lambda)) - set(cols[rows == 0].tolist()))
            rows, cols = np.append(rows, 0), np.append(cols, col)
            vals = np.append(vals, 1e-6)
        dbar = (rows, cols, vals)
        if sparse:
            return dbar, dop
        ne, nl = dg.g.ne, dg.n_lambda
        return to_dense((ne, nl), dbar), to_dense((nl, ne), dop)

    monkeypatch.setattr(operators, "dirac_D", tampered)
    monkeypatch.setattr(identity_reference, "dirac_D", tampered)
    g = fx.square_torus(3)
    for rep in (verify_dirac_identities(g),
                verify_dirac_identities_reference(g)):
        assert not rep["pass"]
        assert rep["double_factorization"] > 1e-8
        assert rep["dirac_cd"] > 1e-8


def test_identity_checks_stay_sparse():
    # both checks once built dense 576-dart products: tracemalloc peaks of
    # 112 MB and 56 MB on this graph
    import tracemalloc

    g = fx.square_torus(12)
    c = build_C(g)
    for check in (lambda: verify_dirac_identities(g),
                  lambda: verify_corr(g, c=c)):
        tracemalloc.start()
        try:
            assert check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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


def _tracked_outcome(tracker, g, phi, xs):
    try:
        return tracker(g, phi, xs)
    except GraphError as exc:
        return type(exc)


@pytest.mark.parametrize("g", REFERENCE_FIXTURES)
def test_sqrt_det_tracked_matches_scalar_reference(g):
    # the stacked tracker against the one-determinant-at-a-time oracle: the
    # same value and sign at random and at critical weights, on every +-1
    # character of the torus
    rng = np.random.default_rng(13)
    signs = [None]
    if g.genus == 1:
        signs += [character_cochain(g, z, w).values
                  for z in (1, -1) for w in (1, -1)]
    weights = [rng.uniform(0.02, 0.99, g.ne) for _ in range(3)]
    weights.append(np.full(g.ne, fx.X_CRITICAL_SQUARE))
    if g.nv == 2:  # the honeycomb: 3 x^2 = 1
        weights.append(np.full(g.ne, 1.0 / math.sqrt(3.0)))
    for xs in weights:
        for phi in signs:
            want = _tracked_outcome(sqrt_det_tracked_reference, g, phi, xs)
            got = _tracked_outcome(sqrt_det_tracked, g, phi, xs)
            assert got == want  # exactly: the same value and sign


def test_sqrt_det_tracked_refined_contour_matches_reference():
    # the 7x7 torus at x = 0.9 needs a doubled contour: the reused even
    # points and the new odd ones give the oracle's value
    g = fx.square_torus(7, 0.9)
    assert sqrt_det_tracked(g) == sqrt_det_tracked_reference(g)


def test_sqrt_det_tracked_error_names_contour_point():
    g = fx.square_torus(7, 0.9)
    with pytest.raises(GraphError, match=r"near t = 0\.\d+\+0\.0\d+j"):
        sqrt_det_tracked(g, max_steps=64)


#: small enough for ``signed_cycle_sum``
PFAFFIAN_FIXTURES = REFERENCE_FIXTURES + [fx.square_torus(1, 0.4)]


def _pm_characters(g):
    if g.genus == 0:
        return [None]
    return [character_cochain(g, z, w).values for z in (1, -1) for w in (1, -1)]


def _pfaffian_weights(g):
    """Critical, x = 0.3 and one negative weight."""
    neg = np.full(g.ne, 0.3)
    neg[0] = -0.4
    return [np.full(g.ne, fx.X_CRITICAL_SQUARE), np.full(g.ne, 0.3), neg]


@pytest.mark.parametrize("g", PFAFFIAN_FIXTURES + [fx.square_torus(4, 0.4)])
def test_sqrt_det_pfaffian_matches_tracked_root(g):
    for xs in _pfaffian_weights(g):
        for phi in _pm_characters(g):
            want = sqrt_det_tracked(g, phi, xs)
            got = sqrt_det_pfaffian(g, phi, xs)
            # the scale floor covers the roots that vanish at criticality
            assert abs(got - want) <= 3e-15 * max(1.0, abs(want))
            det = lu_det(kac_ward(g, phi, xs))
            assert abs(det.imag) <= 1e-13 * max(1.0, abs(det))
            assert abs(got * got - det.real) <= 1e-13 * max(1.0, abs(det))


@pytest.mark.parametrize("g", PFAFFIAN_FIXTURES)
def test_sqrt_det_pfaffian_is_the_signed_cycle_sum(g):
    rng = np.random.default_rng(21)
    for xs in _pfaffian_weights(g) + [rng.uniform(-0.99, 0.99, g.ne)]:
        for phi in _pm_characters(g):
            assert sqrt_det_pfaffian(g, phi, xs) == pytest.approx(
                signed_cycle_sum(g, phi, xs), abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_sqrt_det_pfaffian_property(data):
    # random weights in [-1, 1] and +-1 characters: the square is det KW and
    # the value (sign included) is the signed even-subgraph sum
    g = data.draw(st.sampled_from(PFAFFIAN_FIXTURES))
    phi = data.draw(st.sampled_from(_pm_characters(g)))
    xs = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=g.ne,
                                     max_size=g.ne)))
    got = sqrt_det_pfaffian(g, phi, xs)
    det = lu_det(kac_ward(g, phi, xs)).real
    assert abs(got * got - det) <= 1e-12 * max(1.0, abs(det))
    assert abs(got - signed_cycle_sum(g, phi, xs)) <= 1e-12 * max(1.0, abs(got))


def test_sqrt_det_pfaffian_values():
    assert sqrt_det_pfaffian(fx.triangle(0.0)) == 1.0
    assert sqrt_det_pfaffian(fx.triangle(0.3)) == pytest.approx(1.027)
    assert abs(sqrt_det_pfaffian(fx.rect_torus(1.0, 1.0))) == pytest.approx(2.0)
    g = fx.square_torus(2, 0.4)
    assert sqrt_det_pfaffian(g, Cochain.trivial(g)) == sqrt_det_pfaffian(g)


def test_transition_real_is_the_gauged_transition():
    for g in PFAFFIAN_FIXTURES:
        h = np.exp(0.5j * g.dirang)
        gauged = h[:, None] * g.transition / h[None, :]
        assert np.array_equal(np.abs(g.transition_real), np.abs(g.transition) > 0)
        assert max_norm(gauged - g.transition_real) < 1e-15
        s = g.skew_signs
        rev = np.arange(g.nd) ^ 1
        assert np.array_equal(s[rev], -s)
        sj = s[:, None] * g.transition_real[rev]
        assert np.array_equal(sj, -sj.T)


def test_sqrt_det_pfaffian_large_torus_sign():
    # the tracked root returns +4.50e17 here: the sign is wrong on the 8x8
    # torus at low temperature, where the Pfaffian gives the negative root
    g = fx.square_torus(8)
    xs = np.tanh(4.0 * np.arctanh(g.x))
    got = sqrt_det_pfaffian(g, None, xs)
    assert got < 0
    assert got * got == pytest.approx(lu_det(kac_ward(g, None, xs)).real,
                                      rel=1e-12)


def test_sqrt_det_pfaffian_rejects_bad_cochains():
    g = fx.rect_torus(0.3, 0.4)
    with pytest.raises(GraphError, match="-1-valued"):
        sqrt_det_pfaffian(g, character_cochain(g, 1j, 1.0).values)
    flipped = np.ones(g.nd)
    flipped[0] = -1.0   # phi(rev e) != phi(e)
    with pytest.raises(GraphError, match="rev"):
        sqrt_det_pfaffian(g, flipped)


def test_skew_signs_conflict_names_the_darts():
    # break the transition's reversal symmetry: no signs can make it skew
    g = fx.square_torus(1, 0.4)
    t = g.transition_real.copy()
    e, f = np.argwhere(t)[0]
    t[e, f] = -t[e, f]
    g.__dict__["transition_real"] = t
    with pytest.raises(GraphError, match=r"darts \d+ and \d+ conflict"):
        sqrt_det_pfaffian(g)


def test_kac_ward_stack_matches_single_calls():
    g = fx.square_torus(2, 0.4)
    rng = np.random.default_rng(14)
    phis = np.stack([_random_unitary_cochain(g, rng) for _ in range(5)])
    xs = rng.uniform(0.02, 0.98, (5, g.ne))
    stack = kac_ward(g, phis, xs)
    assert stack.shape == (5, g.nd, g.nd)
    for k in range(5):
        assert np.array_equal(stack[k], kac_ward(g, phis[k], xs[k]))
    # one cochain against a stack of weights, and the stacked determinants
    stack = kac_ward(g, phis[0], xs)
    for k in range(5):
        assert np.array_equal(stack[k], kac_ward(g, phis[0], xs[k]))
    dets = kw_dets(g, phis[0], xs)
    assert np.array_equal(dets, [lu_det(kac_ward(g, phis[0], x)) for x in xs])


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
