import cmath
import math
import warnings

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import GraphError
from kwlab.derived import build_C
from kwlab.linalg import lu_solve, max_norm, null_space
from kwlab.operators import kac_ward, phi_omega, dirac_C
from kwlab.sholo import (integrate_square, kernel_observables, laplacian_of_H,
                         map_S, map_S_inverse, observable, sholo_residual,
                         sholo_residual_all, spinor_maps,
                         star_identity_residual, verify_sholo,
                         vertex_residuals)
from sholo_reference import (kernel_observables_reference,
                             map_S_inverse_reference, map_S_reference,
                             sholo_residual_reference, spinor_maps_reference,
                             star_identity_residual_reference)

ROT = cmath.exp(0.25j * math.pi)


def interior_vertices(g):
    return [v for v in range(g.nv) if len(g.darts_at[v]) == 4]


def test_constant_zero_and_branch():
    g = fx.square_patch(3, 3)
    Fz = np.zeros(g.ne, dtype=complex)
    assert sholo_residual_all(g, Fz) == 0.0
    F = np.full(g.ne, 0.8 - 0.3j)
    for v in interior_vertices(g):
        assert sholo_residual(g, F, v) < 1e-12
        assert sholo_residual(g, F, v, branch=math.pi) == pytest.approx(
            sholo_residual(g, F, v), abs=1e-12)


def test_map_S_roundtrip_and_orthogonality():
    g = fx.square_patch(2, 2, 0.4)
    rng = np.random.default_rng(0)
    F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
    f = map_S(g, F)
    assert max_norm(map_S_inverse(g, f) - F) < 1e-12
    # the two dart components decompose sin(theta/2) F along orthogonal lines
    a = g.a_angles()
    for k in range(g.ne):
        s = math.sin(g.theta[k] / 2)
        assert abs(f[2 * k] + f[2 * k + 1] - s * F[k]) < 1e-12
        u = cmath.exp(-0.5j * a[2 * k])
        assert abs((f[2 * k] / u).imag) < 1e-12


def test_map_S_rejects_zero_theta():
    g = fx.triangle(0.0)
    with pytest.raises(GraphError):
        map_S_inverse(g, np.zeros(g.nd))


def test_kernel_criterion_matches_residual():
    # e^{i pi/4} F s-holomorphic at v iff the reversed Kac-Ward rows at v kill S(F)
    g = fx.square_torus(2, 0.37)
    kw = kac_ward(g)
    rng = np.random.default_rng(1)
    for _ in range(20):
        F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
        f = map_S(g, F)
        kf = kw @ f
        for v in range(g.nv):
            rows = max(abs(kf[d ^ 1]) for d in g.darts_at[v])
            res = sholo_residual(g, ROT * F, v)
            assert (rows < 1e-10) == (res < 1e-10)


def test_spinor_maps_zero_and_kernel():
    g = fx.square_torus(2)
    assert max(abs(v).max() for v in spinor_maps(g, np.zeros(g.ne)).values()) == 0
    c = build_C(g)
    from kwlab.operators import kasteleyn
    kom = kasteleyn(c, None, "omega").real
    for F in kernel_observables(g):
        F0 = np.asarray(F) / ROT
        sp = spinor_maps(g, F0, c)
        scale = max_norm(F0)
        assert max_norm(kom @ sp["T_tilde"]) < 1e-8 * scale
        assert max_norm(kom @ sp["T"]) < 1e-8 * scale
        # T and T_tilde agree on s-holomorphic input
        assert max_norm(sp["T"] - sp["T_tilde"]) < 1e-8 * scale
        # the isoradial dbar criterion with the spin-structure cochain
        dbar, _ = dirac_C(c, field="edge", phi_c=phi_omega(c))
        assert max_norm(dbar @ sp["T_tilde_prime"]) < 1e-8 * scale
        # pointwise corner-sign propagation
        assert star_identity_residual(g, F0, c) < 1e-8 * scale


def test_observable_backends_agree():
    for g, e0 in ((fx.triangle(0.3), 0), (fx.path_graph(4, 0.5), 2),
                  (fx.rect_torus(0.2, 0.2), 1),
                  (fx.honeycomb_torus((0.3, 0.4, 0.5)), 4)):
        Fi = observable(g, e0, "inverse")
        Fc = observable(g, e0, "combinatorial")
        assert max_norm(Fi - Fc) < 1e-10


def test_observable_sholo_away_from_pin():
    for g, e0 in ((fx.triangle(0.3), 0), (fx.path_graph(4, 0.5), 0),
                  (fx.square_patch(2, 2, 0.37), 0)):
        F = observable(g, e0)
        adj = {int(g.origin[e0]), g.terminus(e0)}
        for v in range(g.nv):
            if v not in adj:
                assert sholo_residual(g, F, v) < 1e-9
        # source behavior at the pinned dart
        assert max(sholo_residual(g, F, v) for v in adj) > 1e-3


def test_observable_zero_weights_support():
    g = fx.triangle(0.0)
    F = observable(g, 0, "combinatorial")
    # only the midpoint adjacent to the terminus of the pin is reached
    assert F[0] == 0
    assert abs(F[1]) == pytest.approx(1.0)
    assert F[2] == 0


def test_observable_inverse_rejections():
    g = fx.rect_torus(fx.X_CRITICAL_SQUARE, fx.X_CRITICAL_SQUARE)
    with pytest.raises(GraphError):
        observable(g, 0, "inverse")  # singular at criticality
    F = observable(g, 0, "auto")  # falls back to the combinatorial backend
    assert np.all(np.isfinite(F))


def test_observable_auto_falls_back_on_singular_solve(monkeypatch):
    import kwlab.sholo as sholo

    g = fx.triangle(0.3)
    want = observable(g, 0, "combinatorial")

    def singular_solve(a, b):
        return lu_solve(np.ones_like(a), b)

    monkeypatch.setattr(sholo, "lu_solve", singular_solve)
    with pytest.raises(GraphError):
        observable(g, 0, "inverse")
    assert max_norm(observable(g, 0, "auto") - want) == 0.0


def test_kernel_observables_critical_window():
    xc = fx.X_CRITICAL_SQUARE
    bc = math.atanh(xc)
    for mk in (lambda x: fx.rect_torus(x, x), lambda x: fx.square_torus(2, x)):
        assert kernel_observables(mk(math.tanh(bc - 0.05))) == []
        assert kernel_observables(mk(math.tanh(bc + 0.05))) == []
        funcs = kernel_observables(mk(xc))
        assert funcs
        for F in funcs:
            assert sholo_residual_all(mk(xc), F) < 1e-7
    assert kernel_observables(fx.triangle(0.3)) == []


def test_integrate_square_zero_and_constant():
    g = fx.square_patch(3, 3)
    h0 = integrate_square(g, np.zeros(g.ne))
    assert all(v == 0 for v in h0.values.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = integrate_square(g, np.ones(g.ne, dtype=complex))
    assert h.loop_residual < 1e-12
    # increments match the closed formula between interior vertices
    inside = set(interior_vertices(g))
    for d in range(0, g.nd, 2):
        v1, v2 = int(g.origin[d]), g.terminus(d)
        if v1 in inside and v2 in inside:
            got = h.values[("v", v2)] - h.values[("v", v1)]
            assert got == pytest.approx(h.edge_increment(d), abs=1e-10)
    # increments are squared moduli: nonnegative across corners
    for d in range(g.nd):
        if int(g.origin[d]) in inside:
            diff = h.values[("v", int(g.origin[d]))] - h.values[("f", int(g.face_of[d]))]
            assert diff >= -1e-12


def test_integrate_square_warns_on_bad_input():
    g = fx.square_patch(2, 2)
    rng = np.random.default_rng(5)
    F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
    with pytest.warns(UserWarning):
        integrate_square(g, F)


def test_torus_periods_reported():
    g = fx.square_torus(2)
    F = kernel_observables(g)[0]
    h = integrate_square(g, F)
    assert h.periods is not None and len(h.periods) == 2
    assert h.loop_residual == 0.0  # planar-only diagnostic


def test_laplacian_of_H_signs():
    g = fx.square_torus(2)
    F = kernel_observables(g)[0]
    h = integrate_square(g, F)
    prim, du = laplacian_of_H(g, h)
    assert np.max(prim) < 1e-9
    assert np.min(du) > -1e-9
    hc = integrate_square(g, np.zeros(g.ne))
    p0, d0 = laplacian_of_H(g, hc)
    assert max_norm(p0) == 0 and max_norm(d0) == 0


def test_verify_sholo_suites():
    assert verify_sholo(fx.triangle(0.3), draws=15, seed=2)["pass"]
    assert verify_sholo(fx.rect_torus(0.3, 0.4), draws=15, seed=2,
                        include_dbar=False)["pass"]
    rep = verify_sholo(fx.square_torus(2), draws=15, seed=2)
    assert rep["pass"] and rep["n_kernel_functions"] > 0
    # non-uniform isoradial torus, dbar criterion included, nontrivial kernel
    rep = verify_sholo(fx.rect_torus_iso(math.pi / 3), draws=15, seed=2)
    assert rep["pass"] and rep["n_kernel_functions"] > 0


def test_observable_on_torus_nonadjacent():
    g = fx.square_torus(2, 0.3)
    F = observable(g, 0, "inverse")
    adj = {int(g.origin[0]), g.terminus(0)}
    for v in range(g.nv):
        if v not in adj:
            assert sholo_residual(g, F, v) < 1e-9


RESIDUAL_FIXTURES = (
    lambda: fx.triangle(0.3), lambda: fx.square_patch(3, 3),
    lambda: fx.rect_torus(0.3, 0.4), lambda: fx.square_torus(2, 0.37),
    lambda: fx.honeycomb_torus((0.3, 0.4, 0.5)),
    lambda: fx.rect_torus_iso(math.pi / 3))


@pytest.mark.parametrize("mk", RESIDUAL_FIXTURES)
@pytest.mark.parametrize("branch", (0.0, math.pi))
def test_residuals_match_vertex_loop(mk, branch):
    g = mk()
    rng = np.random.default_rng(7)
    F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
    want = np.array([sholo_residual_reference(g, F, v, branch)
                     for v in range(g.nv)])
    assert max_norm(vertex_residuals(g, F, branch) - want) <= 1e-15
    for v in range(g.nv):
        assert abs(sholo_residual(g, F, v, branch) - want[v]) <= 1e-15
    assert abs(sholo_residual_all(g, F, branch) - want.max()) <= 1e-15
    f = map_S(g, F)
    assert max_norm(f - map_S_reference(g, F)) <= 1e-15
    assert max_norm(map_S_inverse(g, f) - map_S_inverse_reference(g, f)) <= 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert abs(integrate_square(g, F).sholo_defect
                   - max(sholo_residual_reference(g, F, v)
                         for v in range(g.nv))) <= 1e-15


@pytest.mark.parametrize("mk", RESIDUAL_FIXTURES)
def test_spinor_maps_match_star_loop(mk):
    g = mk()
    c = build_C(g)
    rng = np.random.default_rng(8)
    for F in (rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne),
              np.zeros(g.ne), *kernel_observables(g)):
        got, want = spinor_maps(g, F, c), spinor_maps_reference(g, F, c)
        assert got.keys() == want.keys()
        for key in want:
            assert max_norm(got[key] - want[key]) <= 1e-15, key
        assert abs(star_identity_residual(g, F, c)
                   - star_identity_residual_reference(g, F, c)) <= 1e-15


def _real_rows(funcs):
    """Midpoint functions as rows of a real matrix (Re and Im side by side)."""
    return np.array([np.concatenate([F.real, F.imag]) for F in funcs])


@pytest.mark.parametrize("mk", (
    lambda: fx.rect_torus(fx.X_CRITICAL_SQUARE, fx.X_CRITICAL_SQUARE),
    lambda: fx.square_torus(2), lambda: fx.square_torus(4)))
def test_kernel_observables_real_basis(mk):
    g = mk()
    funcs = kernel_observables(g)
    new = _real_rows(funcs)
    # R-linearly independent, as many as the complex kernel dimension of KW
    assert np.linalg.matrix_rank(new, tol=1e-8) == len(funcs)
    assert len(funcs) == len(null_space(kac_ward(g)))
    # the reference's (possibly dependent) functions lie in their real span
    ref = _real_rows(kernel_observables_reference(g))
    assert len(ref) >= len(funcs)
    coef, *_ = np.linalg.lstsq(new.T, ref.T, rcond=None)
    assert max_norm(new.T @ coef - ref.T) <= 1e-10
    for F in funcs:
        assert sholo_residual_all(g, F) < 1e-7
    # sign-normalized: the real gauge vector r = H S(F / rot) has its
    # largest-magnitude entry positive; and deterministic
    for F in funcs:
        r = np.exp(0.5j * g.dirang) * map_S(g, F / ROT)
        assert max_norm(r.imag) < 1e-12
        assert r.real[np.argmax(np.abs(r.real))] > 0
    again = kernel_observables(g)
    assert all(np.array_equal(F, F2) for F, F2 in zip(funcs, again))


def test_kernel_observables_factor_a_real_matrix(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert kernel_observables(fx.square_torus(2))
    assert seen == [np.dtype(float)]


def test_kernel_observables_certified_by_complex_kw(monkeypatch):
    import kwlab.sholo as sholo

    g = fx.square_torus(2)
    assert kernel_observables(g)
    # a complex operator that does not vanish on the real-gauge kernel
    # rejects every candidate
    monkeypatch.setattr(sholo, "kac_ward", lambda g: kac_ward(g, x=0.9 * g.x))
    assert kernel_observables(g) == []
