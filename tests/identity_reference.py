"""Dense forms of the identity suites, kept as test oracles.

``verify_corr_reference``, ``verify_dirac_identities_reference`` and
``dirac_cd_blocks_reference`` are the checks ``operators.verify_corr``,
``operators.verify_dirac_identities`` and ``operators._dirac_cd_residual``
once were: they densify every operator, multiply with ``@``, take LU
determinants of the two structure factors and walk the faces of C
(``c_faces_reference``) edge by edge.  The library checks the same
identities on entry lists and face reductions; the tests compare the two key
by key.

``suite_corr_reference`` and ``suite_det_reference`` are the ``corr`` and
``det`` suites as loops of single draws: each draw's cochain is gauged one
Cochain at a time (``random_unitary_cochain_reference``), checked by one
``verify_corr`` call, or factored by one single-row ``kw_dets`` call and two
``lu_det`` calls.  They read the seed's stream in order through
``SeedStream``, one call per value or vector.  The suites evaluate chunks
of draws as stacks; the tests compare the reports bitwise.
"""

import cmath
import math

import numpy as np

from kwlab.derived import (build_C, build_D, build_M, half_angle_phases,
                           isoradial_data, phi_D_character, q_phases,
                           split_phi_D, validate_kasteleyn)
from kwlab.linalg import lu_det, max_norm, stream_key, uniforms
from kwlab.operators import (_phi_values, dirac_C, dirac_D, kac_ward,
                             kasteleyn, kw_dets, laplacian, laplacian_M,
                             laplacian_dual, phi_omega, skew_adjacency,
                             verify_corr)
from kwlab.report import check, make_report
from kwlab.surface_graph import Cochain, character_cochain


def c_faces_reference(c):
    """Faces of the rectangle graph as (C-edge index, orientation) cycles,
    walked dart by dart; ``derived.c_face_products`` reduces over the same
    faces in the same order.

    Orientation +1 means the boundary traverses the edge white-to-black.
    Faces: one rectangle per edge, one 2 deg(v)-gon per vertex, one
    2 |boundary|-gon per face of the original graph.
    """
    g = c.g
    perp, par, corner = 0, g.nd, 2 * g.nd    # offsets of the C-edge blocks
    faces = []
    for k in range(g.ne):
        d, r = 2 * k, 2 * k + 1
        faces.append([
            (par + d, +1),     # w[d] -> b[rev d]
            (perp + r, -1),    # b[rev d] -> w[rev d]
            (par + r, +1),     # w[rev d] -> b[d]
            (perp + d, -1),    # b[d] -> w[d]
        ])
    for v in range(g.nv):
        cyc = []
        d0 = g.darts_at[v][0]
        d = d0
        while True:
            cyc.append((corner + d, +1))  # w[d] -> b[R d]
            d = int(g.rot[d])
            cyc.append((perp + d, -1))    # b[d] -> w[d]
            if d == d0:
                break
        faces.append(cyc)
    for f in g.faces:
        cyc = []
        for d in f:
            nxt = int(g.rot_inv[d ^ 1])  # face successor
            cyc.append((par + d, +1))       # w[d] -> b[rev d]
            cyc.append((corner + nxt, -1))  # b[rev d] -> w[nxt]
            # rev d = R(nxt), so the corner edge of nxt ends at b[rev d]
        faces.append(cyc)
    return faces


def transition_factors(g, phi=None, x=None):
    """The two structural factors of the Kac-Ward/Kasteleyn correspondence.

    Returns (I - qR, I - i phi x J) as dart-indexed matrices; their
    determinants are 2^V and prod_e (1 + x_e^2).
    """
    nd = g.nd
    d = np.arange(nd)
    pv = _phi_values(g, phi)
    xs = g.x if x is None else np.asarray(x)
    iqr = np.eye(nd, dtype=complex)
    iqr[d, g.rot] -= q_phases(g)
    ixj = np.eye(nd, dtype=complex)
    ixj[d, d ^ 1] -= 1j * pv * np.repeat(xs, 2)
    return iqr, ixj


def verify_corr_reference(g, phi=None, x=None, c=None):
    """Residuals of the Kac-Ward/Kasteleyn intertwining and its structure factors.

    Checks  KW (I - qR) = (I - i phi x J) M  with M the dart-pulled Kasteleyn
    matrix in the unit-cochain orientation, the gauge-reduced version with the
    diagonal square roots and the +-1 orientation, and the two factor
    determinants 2^V and prod(1 + x^2).
    """
    if c is None:
        c = build_C(g)
    xs = g.x if x is None else np.asarray(x, dtype=float)
    kw = kac_ward(g, phi, xs)
    iqr, ixj = transition_factors(g, phi, xs)
    ktil = kasteleyn(c, phi, "omega_tilde", xs)
    lhs = kw @ iqr
    rhs = ixj @ ktil
    scale = max(1.0, max_norm(lhs))
    res_tilde = max_norm(lhs - rhs) / scale

    kom = kasteleyn(c, phi, "omega", xs)
    dh = half_angle_phases(g)
    # the diagonal gauge exp(-i a/2) enters on both dart-indexed sides, as
    # a column scaling
    lhs2 = lhs * dh ** -1
    rhs2 = (ixj * dh ** -1) @ kom
    res_omega = max_norm(lhs2 - rhs2) / scale

    det_iqr = lu_det(iqr)
    det_ixj = lu_det(ixj)
    want_iqr = 2.0 ** g.nv
    want_ixj = complex(np.prod(1.0 + xs.astype(complex) ** 2))
    return {
        "residual_omega_tilde": res_tilde,
        "residual_omega": res_omega,
        "det_I_qR_relerr": abs(det_iqr - want_iqr) / abs(want_iqr),
        "det_I_ixJ_relerr": abs(det_ixj - want_ixj) / abs(want_ixj),
    }


def verify_dirac_identities_reference(g, phi_char=None):
    """Residuals of the four isoradial operator identities on a torus fixture.

    (a) Kasteleyn vs dbar on C through the diagonal half-angle gauge;
    (b) -d dbar on the double = Laplacian + dual Laplacian;
    (c) the square of the C Dirac operator against the corner Laplacian and
        skew adjacency (both block identities and their sum);
    (d) the C and D Dirac operators intertwined by the corner adjacency maps.

    ``phi_char`` is an optional (z, w) character used in (b) and (c).

    (a), (b) and (d) hold on every trivial-holonomy isoradial torus (verified
    to machine precision on anisotropic honeycombs as well); the corner-graph
    factorization (c) and the spin-structure cocycle property are specific to
    even vertex degrees (the cocycle face product at a vertex of degree d is
    exp(-i d pi / 2)), so the full suite is asserted on square and rhombic
    lattice classes.
    """
    isoradial_data(g)
    c = build_C(g)
    dg = build_D(g)
    report = {}

    # (a) K^omega o exp(-i theta_B / 2) = exp(-i theta_W / 2) o mu_W o dbar^{phi_omega}
    th_d = np.repeat(g.theta, 2)
    mu_c = np.sin(2 * th_d)
    kom = kasteleyn(c, None, "omega")
    phiom = phi_omega(c)
    dbar_tw, _ = dirac_C(c, field="edge", phi_c=phiom)
    lhs = kom * np.exp(-0.5j * th_d)
    rhs = (np.exp(-0.5j * th_d) * mu_c)[:, None] * dbar_tw
    report["kasteleyn_dbar"] = max_norm(lhs - rhs) / max(1.0, max_norm(lhs))

    # phi_omega is a cocycle whose square inverts the (trivial) holonomy
    coc_err = 0.0
    for cyc in c_faces_reference(c):
        p = 1.0 + 0j
        for idx, sgn in cyc:
            p *= phiom[idx] if sgn > 0 else 1.0 / phiom[idx]
        coc_err = max(coc_err, abs(p - 1.0))
    report["phi_omega_cocycle"] = coc_err

    # (b) -d dbar = Laplacian (+) dual Laplacian on the double
    if phi_char is None:
        phid = None
        lap = laplacian(g)
        lap_star = laplacian_dual(g)
    else:
        z, w = phi_char
        phid = phi_D_character(dg, z, w)
        phi_g, phi_star = split_phi_D(dg, phid)
        lap = laplacian(g, phi_g)
        # the dual Laplacian reads the cochain on dual darts: phi*(d*) with
        # d* from right face to left face of d; split_phi_D returns exactly that
        lap_star = laplacian_dual(g, phi_star)
    dbar_d, d_d = dirac_D(dg, phid)
    prod = -(d_d @ dbar_d)
    block = np.zeros_like(prod)
    block[: g.nv, : g.nv] = lap
    block[g.nv:, g.nv:] = lap_star
    report["double_factorization"] = max_norm(prod - block) / max(1.0, max_norm(block))

    # (c) Dirac square on C against the corner graph
    m = build_M(g)
    char = phi_char
    dbar_c, d_c = dirac_C(c, None if char is None else
                          character_cochain(g, *char).values, field="constant")
    lm = laplacian_M(m, char)
    am = skew_adjacency(m, char)
    # the black corner map b[d] -> corner(R^-1 d) is the permutation rot_inv,
    # the white one w[d] -> corner(d) the identity
    pb = -(d_c @ dbar_c)[np.ix_(g.rot, g.rot)]
    pw = -(dbar_c @ d_c)
    tgt_b = 0.5 * (lm - 1j * am)
    tgt_w = 0.5 * (lm + 1j * am)
    scale = max(1.0, max_norm(lm))
    report["dirac_square_black"] = max_norm(pb - tgt_b) / scale
    report["dirac_square_white"] = max_norm(pw - tgt_w) / scale
    report["dirac_square_sum"] = max_norm((pb + pw) - lm) / scale

    # (d) corner adjacency intertwiner between the C and D Dirac operators
    report["dirac_cd"] = dirac_cd_blocks_reference(g, c, dg)

    report["pass"] = all(v < 1e-10 for k, v in report.items() if k != "pass")
    return report


def dirac_cd_blocks_reference(g, c, dg):
    """Residual of h_CD o (mu_C Dirac_C) o h_DC = mu_D Dirac_D (trivial cochain).

    The adjacency couples each white w[e] to the midpoint z_e with weight 1/2,
    and each black b[e] to the origin o(e) and the right-face center, weight
    1/2 each.  Both sides only map whites <-> blacks and Lambda <-> diamonds,
    so only those two off-diagonal blocks are built.
    """
    nd, nl = g.nd, dg.n_lambda
    black_ends = (g.origin, g.nv + g.face_of[np.arange(nd) ^ 1])
    mu_c = np.sin(2 * np.repeat(g.theta, 2))
    dbar_c, d_c = dirac_C(c, None, field="constant")
    dbar_d, d_d = dirac_D(dg)

    # h_CD pushes rows with weight 1 and h_DC pulls columns with weight 1/2;
    # the whites of darts 2k and 2k + 1 share the diamond k
    wb = mu_c[:, None] * dbar_c             # white rows, black columns
    dia_b = 0.5 * (wb[0::2] + wb[1::2])
    dia_lam = np.zeros((g.ne, nl), dtype=complex)
    for ends in black_ends:
        np.add.at(dia_lam.T, ends, dia_b.T)
    bw = -mu_c[:, None] * d_c               # black rows, white columns
    lam_w = np.zeros((nl, nd), dtype=complex)
    for ends in black_ends:
        np.add.at(lam_w, ends, bw)
    lam_dia = 0.5 * lam_w[:, 0::2] + 0.5 * lam_w[:, 1::2]

    want_dl = dg.mu_diamond[:, None] * dbar_d
    want_ld = -dg.mu_lambda[:, None] * d_d
    err = max(max_norm(dia_lam - want_dl), max_norm(lam_dia - want_ld))
    return err / max(1.0, max_norm(want_dl), max_norm(want_ld))


class SeedStream:
    """``linalg.uniforms`` of a seed, read from counter 0 onwards with the
    ``uniform`` and ``standard_normal`` calls of a numpy ``Generator``."""

    def __init__(self, seed):
        self.key, self.at = stream_key(seed), 0

    def _take(self, n):
        self.at += n
        return uniforms(self.key, self.at - n, self.at)

    def uniform(self, low=0.0, high=1.0, size=None):
        u = low + (high - low) * self._take(1 if size is None else size)
        return float(u[0]) if size is None else u

    def standard_normal(self, size):
        """Box-Muller over the next 2 size uniforms: radii, then angles."""
        r, a = self._take(size), self._take(size)
        return np.sqrt(-2.0 * np.log(r)) * np.cos(2.0 * math.pi * a)


def random_unitary_cochain_reference(g, rng):
    """A random character (on the torus) times a random gauge, one vertex
    angle per vertex; the generator is read as ``suites._draw_inputs`` reads
    it after a draw's weights."""
    vals = np.ones(g.nd, dtype=complex)
    if g.genus == 1:
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        vals = character_cochain(g, z, w).values
    p = np.exp(1j * rng.uniform(0, 2 * math.pi, g.nv))
    return Cochain(g, vals * p[g.origin] / p[g.origin[np.arange(g.nd) ^ 1]])


def suite_corr_reference(g, fixture, draws=10, seed=0):
    rng = SeedStream(seed)
    checks = []
    for t in range(draws):
        xs = rng.uniform(0.02, 0.98, g.ne)
        phi = random_unitary_cochain_reference(g, rng)
        rep = verify_corr(g, phi, xs)
        checks.append(check(f"intertwining_tilde[{t}]",
                            rep["residual_omega_tilde"], 1e-12))
        checks.append(check(f"intertwining_omega[{t}]",
                            rep["residual_omega"], 1e-12))
        checks.append(check(f"det_I_qR[{t}]", rep["det_I_qR_relerr"], 1e-12))
        checks.append(check(f"det_I_ixJ[{t}]", rep["det_I_ixJ_relerr"], 1e-12))
    return make_report("corr", fixture, seed, checks)


def suite_det_reference(g, fixture, draws=20, seed=0):
    rng = SeedStream(seed)
    c = build_C(g)
    checks = [check("kasteleyn_faces",
                    0.0 if validate_kasteleyn(c)["pass"] else 1.0, 0.5)]
    signs = set()
    for t in range(draws):
        xs = rng.uniform(0.02, 0.98, g.ne)
        phi = random_unitary_cochain_reference(g, rng)
        dkw = complex(kw_dets(g, phi, xs))
        pref = 2.0 ** (-g.nv) * complex(np.prod(1 + xs.astype(complex) ** 2))
        ratio_t = dkw / (pref * lu_det(kasteleyn(c, phi, "omega_tilde", xs)))
        ratio_o = dkw / (pref * lu_det(kasteleyn(c, phi, "omega", xs)))
        checks.append(check(f"ratio_tilde_is_one[{t}]", abs(ratio_t - 1.0), 1e-10))
        signs.add(1 if ratio_o.real > 0 else -1)
        checks.append(check(f"ratio_omega_is_sign[{t}]",
                            abs(abs(ratio_o) - 1.0) + abs(ratio_o.imag), 1e-10))
    checks.append(check("omega_sign_constant", 0.0 if len(signs) == 1 else 1.0, 0.5))
    return make_report("det", fixture, seed, checks)
