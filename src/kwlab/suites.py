"""Named verification suites mapping the operator identities to pass/fail checks.

Each suite runs one family of identities on a given graph with seeded random
draws and returns a report dictionary (see :mod:`kwlab.report`).  Suites that
do not apply to a graph (duality on the plane, Dirac identities on
non-isoradial data, oracle suites beyond the size guards) raise GraphError,
except under ``verify_all`` which simply skips them.

The ``corr``, ``det`` and ``sholo`` suites evaluate their draws as stacks,
in chunks bounded by ``linalg._DRAW_CHUNK_BYTES``.  Every residual the
``corr`` and ``det`` suites report is bitwise the one a single draw gives;
``sholo``'s norms agree with single draws to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _draw_chunks, prod_rows, stream_key, uniforms
from .surface_graph import GraphError, SizeGuardError, shift_character
from .derived import build_C, validate_kasteleyn
from .operators import (kac_ward, kasteleyn, kw_dets, sqrt_det_pfaffian,
                        verify_corr, verify_dirac_identities)
from .oracle import INV_GUARD, dimer_partition, inverse_matrix
from .critical import duality_residuals, duality_sign_pattern
from .sholo import verify_sholo
from .report import check, make_report

SUITE_NAMES = ("corr", "det", "kw1", "kw2", "inv", "sholo", "dirac", "pf")


def _draw_inputs(g, key, lo, hi):
    """The weights (n, ne) and random unitary cochains (n, nd) of draws
    lo..hi-1: draw t reads the m ``uniforms`` at ``key`` from counter m t,
    ne weights in (0.02, 0.98), then on the torus the angles of a character
    (z, w), then one gauge angle per vertex.  Each cochain is its character
    times the gauge at every vertex, in one array step for the stack."""
    m = g.ne + 2 * (g.genus == 1) + g.nv
    u = uniforms(key, m * lo, m * hi).reshape(hi - lo, m)
    p = np.exp(2j * math.pi * u[:, g.ne:])
    vals = shift_character(g.shift, p[:, 0], p[:, 1]) if g.genus == 1 else 1
    p = p[:, -g.nv:]
    return (0.02 + 0.96 * u[:, :g.ne],
            vals * p[:, g.origin] / p[:, g.origin[np.arange(g.nd) ^ 1]])


#: the named checks of the corr suite and the ``verify_corr`` keys they read
_CORR_CHECKS = (("intertwining_tilde", "residual_omega_tilde"),
                ("intertwining_omega", "residual_omega"),
                ("det_I_qR", "det_I_qR_relerr"),
                ("det_I_ixJ", "det_I_ixJ_relerr"))


def suite_corr(g, fixture, draws=10, seed=0):
    """The Kac-Ward/Kasteleyn intertwining over seeded draws, each chunk of
    draws one ``verify_corr`` stack."""
    key = stream_key(seed)
    c = build_C(g)
    checks = []
    # a draw's product and norm values: about 128 complex numbers per dart
    for lo, hi in _draw_chunks(draws, 128 * 16 * g.nd):
        xs, phi = _draw_inputs(g, key, lo, hi)
        rep = verify_corr(g, phi, xs, c)
        cols = [(name, rep[key].tolist()) for name, key in _CORR_CHECKS]
        for i, t in enumerate(range(lo, hi)):
            checks += [check(f"{name}[{t}]", vals[i], 1e-12)
                       for name, vals in cols]
    return make_report("corr", fixture, seed, checks)


def suite_det(g, fixture, draws=20, seed=0):
    """Kac-Ward vs Kasteleyn determinant ratio: the same sign on every draw,
    exactly +1 in the unit-cochain orientation.

    Each chunk of draws is one ``kw_dets`` stack and one dense Kasteleyn
    stack per orientation, each factored by one ``np.linalg.det``; the
    ratios are formed in Python complex arithmetic, draw by draw.
    """
    key = stream_key(seed)
    c = build_C(g)
    checks = [check("kasteleyn_faces",
                    0.0 if validate_kasteleyn(c)["pass"] else 1.0, 0.5)]
    signs = set()
    # a Kasteleyn matrix, and np.linalg.det's copy of it
    for lo, hi in _draw_chunks(draws, 2 * 16 * g.nd * g.nd):
        xs, phi = _draw_inputs(g, key, lo, hi)
        dkw = kw_dets(g, phi, xs).tolist()
        dk_t, dk_o = (np.linalg.det(kasteleyn(c, phi, o, xs)).tolist()
                      for o in ("omega_tilde", "omega"))
        prods = prod_rows(1 + xs.astype(complex) ** 2).tolist()
        for t, d, p, kt, ko in zip(range(lo, hi), dkw, prods, dk_t, dk_o):
            pref = 2.0 ** (-g.nv) * p
            ratio_t = d / (pref * kt)
            ratio_o = d / (pref * ko)
            checks.append(check(f"ratio_tilde_is_one[{t}]", abs(ratio_t - 1.0),
                                1e-10))
            signs.add(1 if ratio_o.real > 0 else -1)
            checks.append(check(f"ratio_omega_is_sign[{t}]",
                                abs(abs(ratio_o) - 1.0) + abs(ratio_o.imag),
                                1e-10))
    checks.append(check("omega_sign_constant", 0.0 if len(signs) == 1 else 1.0, 0.5))
    return make_report("det", fixture, seed, checks)


def suite_kw1(g, fixture, draws=10, seed=0):
    """Kramers-Wannier duality of det KW at seeded unitary characters
    (``duality_residuals``); the verdict does not depend on the Pfaffian
    roots of ``suite_kw2``."""
    worst = max(duality_residuals(g, draws=draws, seed=seed), default=0.0)
    checks = [check("kw1_unitary_residual", worst, 1e-9)]
    return make_report("kw1", fixture, seed, checks)


def suite_kw2(g, fixture, draws=10, seed=0):
    """The Arf sign pattern of the duality of the Pfaffian roots at the four
    +-1 characters (``duality_sign_pattern``); it draws nothing."""
    checks = []
    for zw, val in duality_sign_pattern(g).items():
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


def _check_inputs(draws, seed):
    stream_key(seed)    # GraphError on a negative seed, before any suite
    if draws is not None and draws < 1:
        raise GraphError(f"draws must be at least 1, got {draws}")


def run_suite(name, g, fixture="custom", draws=None, seed=0):
    _check_inputs(draws, seed)
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
    _check_inputs(draws, seed)
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
