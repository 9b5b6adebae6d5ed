import cmath
import math
import warnings

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab import linalg, operators, sholo
from kwlab.surface_graph import GraphError
from kwlab.derived import build_C
from kwlab.linalg import lu_solve, max_norm
from kwlab.operators import (KERNEL_PROBES, dirac_C, kac_ward, kac_ward_kernel,
                             phi_omega)
from kwlab.sholo import (STAR_TOL, _homology_walks, _line_minus, _line_plus,
                         _proj, _tree_solve, integrate_square,
                         kernel_observables, map_S, map_S_inverse, observable,
                         primal_increments, sholo_residual, spinor_maps,
                         verify_sholo, vertex_residuals)
from kwlab.surface_graph import SizeGuardError, dual, generator_cycles

from kernel_reference import null_space
from sholo_reference import (cycle_with_winding, edge_increments,
                             integrate_square_reference,
                             kernel_observables_reference, laplacian_of_H,
                             laplacian_of_H_reference,
                             map_S_inverse_reference, map_S_reference,
                             sholo_residual_all, sholo_residual_reference,
                             spinor_maps_reference, star_identity_residual,
                             star_identity_residual_reference,
                             verify_sholo_reference)

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

    def singular_solve(g, rhs, x=None):
        raise GraphError("singular system")

    monkeypatch.setattr(sholo, "kac_ward_kernel_solve", singular_solve)
    with pytest.raises(GraphError):
        observable(g, 0, "inverse")
    assert max_norm(observable(g, 0, "auto") - want) == 0.0


def test_singular_reduced_pivot_falls_back_to_the_svd(monkeypatch):
    # an exactly singular pivot of the Schur complement leaves the kernel
    # and the column to the SVD, which agree with the probe route
    g = fx.square_torus(4, 0.27)
    want = observable(g, 3, "inverse")

    def singular_solve(a, b):
        return lu_solve(np.zeros_like(a), b)

    monkeypatch.setattr(operators, "lu_solve", singular_solve)
    assert max_norm(observable(g, 3, "inverse") - want) <= 1e-12 * max_norm(want)


def test_observable_inverse_takes_no_lu_determinant(monkeypatch):
    # det KW is the square of the signed root, so no LU determinant is taken
    g = fx.square_torus(4, 0.3)
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det",
                        lambda a: calls.append(a.shape) or det(a))
    F = observable(g, 3)
    assert calls == []
    assert np.all(np.isfinite(F))


def test_observable_inverse_needs_positive_weights():
    g = fx.triangle(0.3)
    with pytest.raises(GraphError, match="inverse backend needs positive "
                       "weights"):
        observable(g, 0, "inverse", x=[0.3, 0.0, 0.4])
    # the automatic choice takes the combinatorial backend instead
    assert np.all(np.isfinite(observable(g, 0, x=[0.3, 0.0, 0.4])))



@pytest.mark.parametrize("d", [1e-8, 1e-7])
def test_observable_inverse_solves_next_to_criticality(d):
    # sigma_n-1 / sigma_1 is about 1.2 d, above KERNEL_TOL: no kernel, so
    # the inverse backend solves where an absolute cut on s * s refused
    g = fx.square_torus(2, fx.X_CRITICAL_SQUARE + d)
    F = observable(g, 0, "inverse")
    want = observable(g, 0, "combinatorial")
    # the solve loses the condition number, about 1 / d
    assert max_norm(F - want) <= 100 * np.finfo(float).eps / d * max_norm(want)


def test_observable_inverse_refuses_a_near_kernel():
    # sigma_n-1 / sigma_1 is about 1.2e-9, below KERNEL_TOL, while s * s is
    # about 1e-9: singular by the one decision of kac_ward_kernel
    g = fx.square_torus(12, fx.X_CRITICAL_SQUARE + 1e-9)
    with pytest.raises(GraphError, match="singular"):
        observable(g, 0, "inverse")
    assert kac_ward_kernel(g)[2] == 2


def test_observable_inverse_asks_the_kernel_and_solves_the_real_m(
        monkeypatch):
    import kwlab.sholo as sholo

    solves, svds = [], []
    svd = np.linalg.svd

    def recording_solve(a, b):
        solves.append((a.dtype, a.shape, b.shape))
        return lu_solve(a, b)

    def recording_svd(a, *args, **kwargs):
        svds.append((a.dtype, a.shape))
        return svd(a, *args, **kwargs)

    def no_dense_kw(*args, **kwargs):
        raise AssertionError("the inverse backend built a dense complex KW")

    monkeypatch.setattr(operators, "lu_solve", recording_solve)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(sholo, "kac_ward", no_dense_kw)
    # below KERNEL_SVD_DARTS the column comes from the SVD that decides the
    # kernel: one real nd x nd factorization and no solve
    g = fx.square_torus(2, 0.27)
    want = observable(g, 3, "combinatorial")
    assert max_norm(observable(g, 3, "inverse") - want) < 1e-10
    assert svds == [(np.dtype(float), (g.nd, g.nd))] and solves == []
    # from KERNEL_SVD_DARTS, one real solve of the r x r Schur complement
    # takes the probe columns and e_r together, and the Ritz step factors
    # only the nd x k matrix M Q
    svds.clear()
    g = fx.square_torus(4, 0.27)
    got = observable(g, 3, "inverse")
    r = len(g.schur_pattern.rest)
    assert r == g.nd // 2
    assert solves == [(np.dtype(float), (r, r), (r, KERNEL_PROBES + 1))]
    assert svds == [(np.dtype(float), (g.nd, KERNEL_PROBES))]
    away = np.setdiff1d(np.arange(g.nv), g.origin[[3, 2]])
    assert vertex_residuals(g, got)[away].max() < 1e-9
    monkeypatch.setattr(operators, "KERNEL_SVD_DARTS", g.nd + 1)
    want = observable(g, 3, "inverse")
    assert max_norm(got - want) <= 1e-12 * max_norm(want)
    # "singular" is what the kernel helper says, whatever the solve could do
    solves.clear()
    monkeypatch.setattr(sholo, "kac_ward_kernel_solve",
                        lambda g, rhs, x=None: (None, None, 1, None))
    with pytest.raises(GraphError, match="singular"):
        observable(g, 3, "inverse")
    g = fx.square_torus(2, 0.27)
    assert max_norm(observable(g, 3, "auto")
                    - observable(g, 3, "combinatorial")) == 0.0
    assert solves == []


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
    assert not h0.values.any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = integrate_square(g, np.ones(g.ne, dtype=complex))
    assert h.loop_residual < 1e-12
    # increments match the closed formula between interior vertices
    inside = set(interior_vertices(g))
    primal = edge_increments(g, h.F)[0]
    for d in range(0, g.nd, 2):
        v1, v2 = int(g.origin[d]), g.terminus(d)
        if v1 in inside and v2 in inside:
            got = h.values[v2] - h.values[v1]
            assert got == pytest.approx(primal[d], abs=1e-10)
    # increments are squared moduli: nonnegative across corners
    for d in range(g.nd):
        if int(g.origin[d]) in inside:
            diff = h.values[int(g.origin[d])] - h.values[g.nv + int(g.face_of[d])]
            assert diff >= -1e-12


def test_integrate_square_warns_on_bad_input():
    g = fx.square_patch(2, 2)
    rng = np.random.default_rng(5)
    F = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
    # all nine vertices fail: the first five are named, and the worst
    with pytest.warns(UserWarning, match=r"at 9 vertices \(0, 1, 2, 3, 4, "
                      r"\.\.\.\); the worst is vertex 8, residual 3\.09e\+00;"):
        integrate_square(g, F)


def test_torus_periods_reported():
    g = fx.square_torus(2)
    F = kernel_observables(g)[0]
    h = integrate_square(g, F)
    assert h.periods is not None and len(h.periods) == 2
    assert h.loop_residual == 0.0  # planar-only diagnostic


def test_torus_periods_need_trusted_walks():
    # pinned at a dart leaving vertex 0, where both homology walks start: F
    # is not s-holomorphic there, and the walk sums (-4.303 and 1.7e-16) are
    # not periods, as the trusted relations close modulo 1.579
    g = fx.square_torus(2, 0.37)
    F = observable(g, 0)
    assert not _walks_trusted(g, F)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = integrate_square(g, F)
    assert h.periods is None
    # where F is s-holomorphic on both walks, their sums are the periods
    g = fx.square_torus(2)
    F = kernel_observables(g)[0]
    assert _walks_trusted(g, F)
    want = [sum(primal_increments(g, F, w).tolist())
            for w in _homology_walks(g)]
    assert integrate_square(g, F).periods == want


def _c_adjacency(g):
    """C as ``derived.validate_kasteleyn`` walks it: whites, then blacks."""
    c, nd = build_C(g), g.nd
    adj = [[] for _ in range(2 * nd)]
    for i, (w, b, s) in enumerate(zip(c.w.tolist(), c.b.tolist(),
                                      c.shift.tolist())):
        adj[w].append((nd + b, (i, +1), (s[0], s[1])))
        adj[nd + b].append((w, (i, -1), (-s[0], -s[1])))
    return adj


@pytest.mark.parametrize("make", (
    lambda: fx.square_torus(1), lambda: fx.square_torus(2),
    lambda: fx.square_torus(3), lambda: fx.square_torus(12),
    fx.rect_torus, lambda: fx.rect_torus_mn(3, 2, 0.2, 0.7),
    fx.honeycomb_torus, lambda: dual(fx.honeycomb_torus_iso())))
def test_one_search_gives_each_generator_walk(make):
    # the shared search's walks are those of one search per winding, on
    # the graph (``_homology_walks``) and on C (``validate_kasteleyn``)
    g = make()
    term = g.origin[np.arange(g.nd) ^ 1].tolist()
    adj = [[(term[d], d, tuple(g.shift[d].tolist())) for d in darts]
           for darts in g.darts_at]
    for a in (adj, _c_adjacency(g)):
        assert generator_cycles(a) == [cycle_with_winding(a, t)
                                       for t in ((1, 0), (0, 1))]
    assert _homology_walks(g) == generator_cycles(adj)
    # no winding anywhere: both name the first generator
    flat = [[(v, label, (0, 0)) for v, label, _ in out] for out in adj]
    for search in (generator_cycles, lambda a: cycle_with_winding(a, (1, 0))):
        with pytest.raises(GraphError, match=r"winding \(1, 0\)"):
            search(flat)


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
    # not isoradial, so without the dbar criterion
    rep = verify_sholo(fx.rect_torus(0.3, 0.4), draws=15, seed=2)
    assert rep["pass"] and "dbar_Tprime" not in rep["draws"][0]
    rep = verify_sholo(fx.square_torus(2), draws=15, seed=2)
    assert rep["pass"] and rep["n_kernel_functions"] > 0
    # non-uniform isoradial torus, dbar criterion included, nontrivial kernel
    rep = verify_sholo(fx.rect_torus_iso(math.pi / 3), draws=15, seed=2)
    assert rep["pass"] and rep["n_kernel_functions"] > 0


def _assert_same_sholo_reports(got, want):
    assert got["pass"] == want["pass"]
    assert got["n_kernel_functions"] == want["n_kernel_functions"]
    assert len(got["draws"]) == len(want["draws"])
    for a, b in zip(got["draws"], want["draws"]):
        assert a.keys() == b.keys() and a["verdict_agrees"] == b["verdict_agrees"]
        for key in b.keys() - {"draw", "kernel_function", "verdict_agrees"}:
            # a random draw's norms are O(1), a kernel function's rounding
            tol = 1e-12 * abs(b[key]) if "draw" in b else 1e-12
            assert abs(a[key] - b[key]) <= tol, (key, a, b)
        assert a.get("draw") == b.get("draw")


SHOLO_GRAPHS = (fx.triangle(0.3), fx.square_patch(2, 2), fx.square_torus(2),
                fx.rect_torus(0.3, 0.4), fx.honeycomb_torus(),
                fx.rect_torus_iso(math.pi / 3))


@pytest.mark.parametrize("g", SHOLO_GRAPHS)
def test_batched_sholo_matches_the_draw_loop(g):
    for seed, draws in ((0, 50), (7, 3)):
        _assert_same_sholo_reports(verify_sholo(g, draws, seed),
                                   verify_sholo_reference(g, draws, seed))


@pytest.mark.parametrize("chunk_bytes", (1, 10_000))
def test_batched_sholo_crosses_chunk_boundaries(monkeypatch, chunk_bytes):
    monkeypatch.setattr(linalg, "_DRAW_CHUNK_BYTES", chunk_bytes)
    seen = []

    def spy(draws, row_bytes):
        seen.append(linalg._draw_chunks(draws, row_bytes))
        return seen[-1]

    monkeypatch.setattr(sholo, "_draw_chunks", spy)
    g = fx.square_torus(2)
    _assert_same_sholo_reports(verify_sholo(g, 11, 4),
                               verify_sholo_reference(g, 11, 4))
    (chunks,) = seen
    assert len(chunks) > 1 and chunks[-1][1] == 11
    assert (max(hi - lo for lo, hi in chunks) > 1) == (chunk_bytes > 1)


def test_sholo_verdict_detects_a_perturbed_kernel_function(monkeypatch):
    g = fx.square_torus(2)
    assert verify_sholo(g, draws=5)["pass"]
    honest = sholo.kernel_observables

    def perturbed(g):
        found = [np.array(f) for f in honest(g)]
        found[0][3] += 1e-3
        return found

    monkeypatch.setattr(sholo, "kernel_observables", perturbed)
    for rep in (verify_sholo(g, draws=5), verify_sholo_reference(g, draws=5)):
        assert not rep["pass"]
        assert [c.get("kernel_function") for c in rep["draws"]
                if not c["verdict_agrees"]] == [0]


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


H_FIXTURES = RESIDUAL_FIXTURES + (
    lambda: fx.square_patch(4, 4), lambda: fx.square_torus(1),
    lambda: fx.square_torus(2), lambda: fx.square_torus(4),
    lambda: fx.square_torus(12))


def _h_inputs(g):
    """F = 1, a random F, every kernel function and an observable."""
    rng = np.random.default_rng(9)
    funcs = [np.ones(g.ne, dtype=complex),
             rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne),
             *kernel_observables(g)]
    # pinned at the last dart: an observable pinned at vertex 0 leaves the
    # base point untrusted, where the reference's sweeps cross untrusted
    # relations before trusted ones
    try:
        funcs.append(observable(g, g.nd - 1))
    except SizeGuardError:  # critical and beyond the combinatorial guard
        pass
    return funcs


def _lattice_distance(diff, periods, reach=6):
    """Distance of each entry of diff from the integer span of the periods."""
    m = np.arange(-reach, reach + 1)
    lattice = (m[:, None] * periods[0] + m[None, :] * periods[1]).ravel()
    return np.min(np.abs(diff[:, None] - lattice[None, :]), axis=1)


def _walks_trusted(g, F):
    """Whether F is s-holomorphic at every vertex of both homology walks."""
    scale = max(1.0, float(np.max(np.abs(F))))
    trusted = vertex_residuals(g, F) < STAR_TOL * scale
    return all(trusted[g.origin[w]].all() for w in _homology_walks(g))


@pytest.mark.parametrize("mk", H_FIXTURES)
def test_integrate_square_matches_sweeps(mk):
    g = mk()
    for F in _h_inputs(g):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = integrate_square(g, F)
            ref = integrate_square_reference(g, F)
        want = np.array(list(ref.values.values()))
        # Lambda keeps the reference's node order: vertices, then faces
        assert list(ref.values) == ([("v", i) for i in range(g.nv)]
                                    + [("f", j) for j in range(len(g.faces))])
        scale = max(1.0, float(np.max(np.abs(want))))
        if g.genus == 0:
            assert h.periods is ref.periods is None
            assert max_norm(h.values - want) <= 1e-14 * scale
        elif h.periods is None:
            # the reference sums its walks whatever the trust of their
            # vertices; the library reports no periods there
            assert not _walks_trusted(g, F)
        else:
            assert _walks_trusted(g, F)
            # the two trees may close different homology cycles
            p_scale = max(1.0, *map(abs, ref.periods))
            assert max(map(abs, np.subtract(h.periods, ref.periods))) \
                <= 1e-15 * p_scale
            assert np.max(_lattice_distance(h.values - want, h.periods)) \
                <= 1e-13 * scale
        assert h.sholo_defect == ref.sholo_defect
        if ref.loop_residual < 1e-12:
            assert h.loop_residual < 1e-12
        for got, exp in zip(laplacian_of_H(g, h),
                            laplacian_of_H_reference(g, ref)):
            assert max_norm(got - exp) <= 1e-15 * max(1.0, max_norm(exp))


def test_tree_solve_order():
    # relations H[head] - H[tail] = inc over six nodes, node 5 unreachable
    head = np.array([3, 1, 1, 1, 3, 4, 4])
    tail = np.array([0, 0, 0, 2, 2, 1, 2])
    inc = np.array([5.0, 1.0, 2.0, 0.5, 7.0, 1.0, 3.0])
    trusted = np.array([False, True, True, True, True, False, False])
    h = _tree_solve(head, tail, inc, trusted, 6)
    # node 1 from relation 1, not 2 (same level); node 3 over the trusted
    # relation 4, not the untrusted 0 that leaves node 0; node 4 over the
    # lowest-numbered untrusted relation 5
    assert h[:5].tolist() == [0.0, 1.0, 0.5, 7.5, 2.0]
    assert np.isnan(h[5])


def test_trusted_first_tree_on_an_untrusted_base_point():
    # F = 1 is not s-holomorphic at the corners of a patch, vertex 0 among them
    g = fx.square_patch(3, 3)
    F = np.ones(g.ne, dtype=complex)
    trusted_v = vertex_residuals(g, F) < 1e-8
    assert not trusted_v[0]
    with pytest.warns(UserWarning):
        h = integrate_square(g, F)
    assert h.loop_residual < 1e-12
    # a plain breadth-first tree crosses the outer face from vertex 0 first,
    # and the interior corner relations then fail to close
    d = np.arange(g.nd)
    head = np.repeat(g.origin, 2)
    tail = g.nv + np.column_stack([g.face_of, g.face_of[d ^ 1]]).ravel()
    proj = np.column_stack([_proj(F[d >> 1], _line_plus(g, d)),
                            _proj(F[d >> 1], _line_minus(g, d))])
    inc = 2.0 * np.abs(proj.ravel()) ** 2
    trusted = np.repeat(trusted_v[g.origin], 2)
    assert max_norm(_tree_solve(head, tail, inc, trusted, len(h.values))
                    - h.values) == 0.0
    bfs = _tree_solve(head, tail, inc, np.ones_like(trusted), len(h.values))
    assert np.max(np.abs(bfs[head] - bfs[tail] - inc)[trusted]) > 1.0


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
