"""Named verification suites mapping the operator identities to pass/fail checks.

Each suite runs one family of identities on a given graph with seeded random
draws and returns a report dictionary (see :mod:`kwlab.report`).  Suites that
do not apply to a graph (duality on the plane, Dirac identities on
non-isoradial data, oracle suites beyond the size guards) raise GraphError,
except under ``verify_all`` which simply skips them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import lu_det
from .surface_graph import Cochain, GraphError, SizeGuardError, character_cochain
from .derived import build_C, validate_kasteleyn
from .operators import (kac_ward, kasteleyn, sqrt_det_pfaffian, verify_corr,
                        verify_dirac_identities)
from .oracle import INV_GUARD, dimer_partition, inverse_matrix
from .critical import duality_check
from .sholo import verify_sholo
from .report import check, make_report

SUITE_NAMES = ("corr", "det", "kw1", "kw2", "inv", "sholo", "dirac", "pf")


def _random_unitary_cochain(g, rng):
    vals = np.ones(g.nd, dtype=complex)
    if g.genus == 1:
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        vals = character_cochain(g, z, w).values
    p = np.exp(1j * rng.uniform(0, 2 * math.pi, g.nv))
    return Cochain(g, vals * p[g.origin] / p[g.origin[np.arange(g.nd) ^ 1]])


def suite_corr(g, fixture, draws=10, seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    for t in range(draws):
        xs = rng.uniform(0.02, 0.98, g.ne)
        phi = _random_unitary_cochain(g, rng)
        rep = verify_corr(g, phi, xs)
        checks.append(check(f"intertwining_tilde[{t}]",
                            rep["residual_omega_tilde"], 1e-12))
        checks.append(check(f"intertwining_omega[{t}]",
                            rep["residual_omega"], 1e-12))
        checks.append(check(f"det_I_qR[{t}]", rep["det_I_qR_relerr"], 1e-12))
        checks.append(check(f"det_I_ixJ[{t}]", rep["det_I_ixJ_relerr"], 1e-12))
    return make_report("corr", fixture, seed, checks)


def suite_det(g, fixture, draws=20, seed=0):
    """Kac-Ward vs Kasteleyn determinant ratio: the same sign on every draw,
    exactly +1 in the unit-cochain orientation."""
    rng = np.random.default_rng(seed)
    c = build_C(g)
    checks = [check("kasteleyn_faces",
                    0.0 if validate_kasteleyn(c)["pass"] else 1.0, 0.5)]
    signs = set()
    for t in range(draws):
        xs = rng.uniform(0.02, 0.98, g.ne)
        phi = _random_unitary_cochain(g, rng)
        dkw = lu_det(kac_ward(g, phi, xs))
        pref = 2.0 ** (-g.nv) * complex(np.prod(1 + xs.astype(complex) ** 2))
        ratio_t = dkw / (pref * lu_det(kasteleyn(c, phi, "omega_tilde", xs)))
        ratio_o = dkw / (pref * lu_det(kasteleyn(c, phi, "omega", xs)))
        checks.append(check(f"ratio_tilde_is_one[{t}]", abs(ratio_t - 1.0), 1e-10))
        signs.add(1 if ratio_o.real > 0 else -1)
        checks.append(check(f"ratio_omega_is_sign[{t}]",
                            abs(abs(ratio_o) - 1.0) + abs(ratio_o.imag), 1e-10))
    checks.append(check("omega_sign_constant", 0.0 if len(signs) == 1 else 1.0, 0.5))
    return make_report("det", fixture, seed, checks)


def suite_kw1(g, fixture, draws=10, seed=0):
    rep = duality_check(g, draws=draws, seed=seed)
    checks = [check("kw1_unitary_residual", rep["unitary_residual_max"], 1e-9)]
    return make_report("kw1", fixture, seed, checks)


def suite_kw2(g, fixture, draws=10, seed=0):
    rep = duality_check(g, draws=1, seed=seed)
    checks = []
    for zw, val in rep["sqrt_sign_pattern"].items():
        want = -1.0 if zw == (1, 1) else 1.0
        err = 0.0 if val == 0.0 else abs(val - want)
        checks.append(check(f"kw2_sign[{zw}]", err, 1e-6))
    return make_report("kw2", fixture, seed, checks)


def suite_inv(g, fixture, draws=1, seed=0):
    if g.ne > INV_GUARD:
        raise SizeGuardError("inverse-operator suite capped at "
                             f"{INV_GUARD} edges")
    # KW C = sqrt(det KW) I for the combinatorial matrix C; the product form
    # needs no inverse, so it stays well posed where KW is singular
    # (at criticality)
    kw = kac_ward(g)
    s = sqrt_det_pfaffian(g)
    got, got0 = inverse_matrix(g, x=np.stack([g.x, np.zeros(g.ne)]))
    checks = [check("kw_times_inverse",
                    np.max(np.abs(kw @ got - s * np.eye(g.nd))), 1e-9)]
    checks.append(check("inverse_identity_at_zero",
                        np.max(np.abs(got0 - np.eye(g.nd))), 1e-12))
    return make_report("inv", fixture, seed, checks)


def suite_sholo(g, fixture, draws=50, seed=0):
    rep = verify_sholo(g, draws=draws, seed=seed)
    checks = [check("verdict_agreement", 0.0 if rep["pass"] else 1.0, 0.5)]
    return make_report("sholo", fixture, seed, checks)


def suite_dirac(g, fixture, draws=1, seed=0):
    rep = verify_dirac_identities(g)
    checks = [check(k, v, 1e-10) for k, v in rep.items() if k != "pass"]
    return make_report("dirac", fixture, seed, checks)


def suite_pf(g, fixture, draws=1, seed=0):
    c = build_C(g)
    rep = dimer_partition(c)
    rel = abs(abs(rep["kasteleyn_combo"]) - rep["matchings"]) / max(
        rep["matchings"], 1e-30)
    checks = [check("dimer_vs_kasteleyn", rel, 1e-9)]
    return make_report("pf", fixture, seed, checks)


SUITES = {
    "corr": suite_corr,
    "det": suite_det,
    "kw1": suite_kw1,
    "kw2": suite_kw2,
    "inv": suite_inv,
    "sholo": suite_sholo,
    "dirac": suite_dirac,
    "pf": suite_pf,
}


def _check_draws(draws):
    if draws is not None and draws < 1:
        raise GraphError(f"draws must be at least 1, got {draws}")


def run_suite(name, g, fixture="custom", draws=None, seed=0):
    _check_draws(draws)
    if name == "all":
        return verify_all(g, fixture, draws, seed)
    if name not in SUITES:
        raise GraphError(f"unknown suite {name!r}")
    kw = {"seed": seed}
    if draws is not None:
        kw["draws"] = draws
    return SUITES[name](g, fixture, **kw)


def verify_all(g, fixture="custom", draws=None, seed=0):
    """Run every suite that applies to the graph; inapplicable ones are skipped."""
    _check_draws(draws)
    reports = []
    skipped = []
    for name in SUITE_NAMES:
        try:
            reports.append(run_suite(name, g, fixture, draws, seed))
        except (GraphError, SizeGuardError) as exc:
            skipped.append({"suite": name, "reason": str(exc)})
    return {
        "suite": "all",
        "fixture": fixture,
        "seed": seed,
        "reports": reports,
        "skipped": skipped,
        "pass": all(r["pass"] for r in reports),
    }
