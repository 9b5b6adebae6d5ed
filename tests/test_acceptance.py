"""Acceptance gate: every end-to-end criterion at its stated tolerance.

Each test prints one PASS line on success (run pytest with -s to see them);
tolerances are fixed here, not calibrated."""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import Cochain, character_cochain
from kwlab.derived import build_C
from kwlab.linalg import lu_det, lu_solve, max_norm
from kwlab.operators import (kac_ward, kasteleyn, sqrt_det_tracked,
                             verify_corr, verify_dirac_identities)
from kwlab.oracle import dimer_partition, inverse_matrix, ising_partition
from kwlab.critical import critical_beta, duality_check, hessian_tau, spectral_curve
from kwlab.sholo import (integrate_square, kernel_observables, laplacian_of_H,
                         observable, sholo_residual, verify_sholo)

XC = fx.X_CRITICAL_SQUARE
BETA_C = math.atanh(XC)


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_01_rectangular_spectral_curve():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        x, y = rng.uniform(0.0, 1.0, 2)
        g = fx.rect_torus(x, y)
        for k in range(25):
            z = cmath.exp(2j * math.pi * k / 25)
            w = cmath.exp(2j * math.pi * ((3 * k + 1) % 25) / 25)
            p = ((1 + x * x) * (1 + y * y) - x * (1 - y * y) * (z + 1 / z)
                 - y * (1 - x * x) * (w + 1 / w))
            worst = max(worst, abs(spectral_curve(g, z, w) - p))
    dt = time.time() - t0
    report("1 rectangular spectral curve", worst < 1e-12 and dt < 1.0,
           f"max_err={worst:.2e} time={dt:.2f}s")


def test_02_criticality():
    g = fx.rect_torus(0.4, 0.4)
    rep = critical_beta(g, j=np.array([1.0, 1.0]))
    err_iso = abs(math.tanh(rep["beta_c"]) - (math.sqrt(2) - 1))
    ok = err_iso < 1e-8
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(5):
        J, K = rng.uniform(0.3, 2.5, 2)
        r = critical_beta(fx.rect_torus(math.tanh(J), math.tanh(K)),
                          j=np.array([J, K]))
        x, y = math.tanh(r["beta_c"] * J), math.tanh(r["beta_c"] * K)
        worst = max(worst, abs(x + y + x * y - 1.0))
    ok = ok and worst < 1e-8
    report("2 criticality", ok, f"isotropic_err={err_iso:.2e} "
           f"rect_worst={worst:.2e}")


def test_03_modular_parameter():
    worst_tau, worst_b = 0.0, 0.0
    for th in (math.pi / 4, math.pi / 3, 0.7):
        x, y = math.tan(th / 2), math.tan((math.pi / 2 - th) / 2)
        rep = hessian_tau(fx.rect_torus(x, y))
        worst_tau = max(worst_tau, abs(rep["tau"] - 1j * math.tan(th)))
        worst_b = max(worst_b, abs(rep["B"]))
    report("3 modular parameter", worst_tau < 1e-6 and worst_b < 1e-8,
           f"tau_err={worst_tau:.2e} B={worst_b:.2e}")


def test_04_correspondence():
    rng = np.random.default_rng(104)
    worst = {"residual_omega_tilde": 0.0, "det_I_qR_relerr": 0.0,
             "det_I_ixJ_relerr": 0.0}
    for g in (fx.triangle(0.5), fx.cycle4(0.5), fx.rect_torus(0.3, 0.4),
              fx.square_torus(2, 0.4)):
        for _ in range(10):
            xs = rng.uniform(0.0, 1.0, g.ne)
            vals = np.ones(g.nd, dtype=complex)
            if g.genus == 1:
                z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                vals = character_cochain(g, z, w).values
            phi = Cochain(g, vals)
            for v in range(g.nv):
                phi = phi.gauge(v, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            rep = verify_corr(g, phi, xs)
            for k in worst:
                worst[k] = max(worst[k], rep[k])
    ok = all(v < 1e-12 for v in worst.values())
    report("4 correspondence theorem", ok,
           " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_05_det_ratio_and_dimers():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ok = True
    detail = []
    for g in (fx.triangle(0.5), fx.cycle4(0.5), fx.rect_torus(0.3, 0.4),
              fx.square_torus(2, 0.4)):
        c = build_C(g)
        signs = set()
        for _ in range(20):
            xs = rng.uniform(0.02, 0.98, g.ne)
            vals = np.ones(g.nd, dtype=complex)
            if g.genus == 1:
                z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                vals = character_cochain(g, z, w).values
            dkw = lu_det(kac_ward(g, vals, xs))
            pref = 2.0 ** (-g.nv) * complex(np.prod(1 + xs.astype(complex) ** 2))
            dk = lu_det(kasteleyn(c, vals, "omega", xs))
            ratio = dkw / (pref * dk)
            signs.add(1 if ratio.real > 0 else -1)
            ok = ok and abs(abs(ratio) - 1.0) < 1e-10
        ok = ok and len(signs) == 1
        rep = dimer_partition(c)
        rel = abs(abs(rep["kasteleyn_combo"]) - rep["matchings"]) \
            / rep["matchings"]
        ok = ok and rel < 1e-9
        detail.append(f"{2 * g.nd}v:rel={rel:.1e}")
    dt = time.time() - t0
    ok = ok and dt < 30.0
    report("5 det ratio and dimers", ok, " ".join(detail) + f" time={dt:.1f}s")


def test_06_partition_three_way():
    t0 = time.time()
    worst = 0.0
    fixtures = [fx.single_edge(0.5), fx.triangle(0.5), fx.cycle4(0.5),
                fx.rect_torus(0.5, 0.5), fx.square_torus(2, 0.5),
                fx.rect_torus_mn(2, 3, 0.5, 0.5)]
    for g in fixtures:
        j = np.ones(g.ne)
        for beta in (0.2, 0.4406868, 0.8):
            z = ising_partition(g, j=j, beta=beta)
            ref = z["spins"]
            worst = max(worst, abs(z["high_temperature"] - ref) / ref,
                        abs(z["kac_ward"] - ref) / ref)
    dt = time.time() - t0
    report("6 partition three-way", worst < 1e-9 and dt < 60.0,
           f"worst_rel={worst:.2e} time={dt:.1f}s")


def test_07_kramers_wannier():
    worst = 0.0
    ok = True
    for g in (fx.rect_torus(0.3, 0.45), fx.square_torus(2, 0.4),
              fx.honeycomb_torus((0.3, 0.4, 0.5))):
        rep = duality_check(g, draws=10, seed=107)
        worst = max(worst, rep["unitary_residual_max"])
        pat = rep["sqrt_sign_pattern"]
        for zw, val in pat.items():
            want = -1.0 if zw == (1, 1) else 1.0
            ok = ok and abs(val - want) < 1e-6
    report("7 Kramers-Wannier", ok and worst < 1e-9,
           f"unitary_worst={worst:.2e} signs_ok={ok}")


def test_08_inverse_operator():
    worst = 0.0
    for g in (fx.single_edge(0.4), fx.path_graph(3, 0.6), fx.triangle(0.3),
              fx.cycle4(0.8), fx.rect_torus(0.2, 0.2),
              fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.35)):
        assert g.ne <= 10 or g.ne <= 12
        kw = kac_ward(g)
        expected = sqrt_det_tracked(g) * lu_solve(kw, np.eye(g.nd, dtype=complex))
        got = inverse_matrix(g)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    gid = fx.cycle4(0.0)
    idres = max_norm(inverse_matrix(gid) - np.eye(gid.nd))
    report("8 inverse operator", worst < 1e-9 and idres < 1e-12,
           f"entrywise={worst:.2e} identity_at_zero={idres:.2e}")


def test_09_sholo_equivalences():
    ok = True
    for g in (fx.triangle(0.3), fx.rect_torus(0.3, 0.4),
              fx.square_torus(2, XC)):
        rep = verify_sholo(g, draws=50, seed=109)
        ok = ok and rep["pass"]
    worst_non = 0.0
    for g, e0 in ((fx.triangle(0.3), 0), (fx.path_graph(4, 0.5), 0),
                  (fx.square_patch(2, 2, 0.37), 0)):
        F = observable(g, e0)
        adj = {int(g.origin[e0]), g.terminus(e0)}
        for v in range(g.nv):
            if v not in adj:
                worst_non = max(worst_non, sholo_residual(g, F, v))
    report("9 s-holomorphicity equivalences", ok and worst_non < 1e-9,
           f"verdicts_ok={ok} observable_nonadj={worst_non:.2e}")


def test_10_kernel_at_criticality():
    ok = True
    detail = []
    for mk in (lambda x: fx.rect_torus(x, x), lambda x: fx.square_torus(2, x)):
        lo = mk(math.tanh(BETA_C - 0.05))
        hi = mk(math.tanh(BETA_C + 0.05))
        at = mk(XC)
        empty = (kernel_observables(lo) == [] and kernel_observables(hi) == [])
        funcs = kernel_observables(at)
        res = max((max(sholo_residual(at, F, v) for v in range(at.nv))
                   for F in funcs), default=math.inf)
        ok = ok and empty and funcs and res < 1e-7
        detail.append(f"n={len(funcs)} res={res:.1e}")
    report("10 criticality kernel", ok, " ".join(detail))


def test_11_integral_of_square():
    g = fx.square_patch(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = integrate_square(g, np.ones(g.ne, dtype=complex))
    interior = {v for v in range(g.nv) if len(g.darts_at[v]) == 4}
    worst_inc = 0.0
    for d in range(0, g.nd, 2):
        v1, v2 = int(g.origin[d]), g.terminus(d)
        if v1 in interior and v2 in interior:
            got = h.values[("v", v2)] - h.values[("v", v1)]
            worst_inc = max(worst_inc, abs(got - h.edge_increment(d)))
    prim, du = laplacian_of_H(g, h)
    inner_faces = [f for f in range(len(g.faces)) if len(g.faces[f]) == 4]
    max_prim = max(prim[v] for v in interior)
    min_dual = min(du[f] for f in inner_faces)
    ok = (h.loop_residual < 1e-9 and worst_inc < 1e-10
          and max_prim <= 1e-9 and min_dual >= -1e-9)
    report("11 integral of the square", ok,
           f"loop={h.loop_residual:.1e} inc={worst_inc:.1e} "
           f"lapP={max_prim:.1e} lapD={min_dual:.1e}")


def test_12_isoradial_identities():
    ok = True
    detail = []
    for g in (fx.square_torus(2), fx.square_torus(3)):
        rep = verify_dirac_identities(g)
        worst = max(v for k, v in rep.items() if k != "pass")
        ok = ok and worst < 1e-10
        detail.append(f"worst={worst:.1e}")
    report("12 isoradial operator identities", ok, " ".join(detail))
