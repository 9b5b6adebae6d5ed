"""Dense forms of the identity suites, kept as test oracles.

``verify_corr_reference``, ``verify_dirac_identities_reference`` and
``dirac_cd_blocks_reference`` are the checks ``operators.verify_corr``,
``operators.verify_dirac_identities`` and ``operators._dirac_cd_residual``
once were: they densify every operator, multiply with ``@`` and take LU
determinants of the two structure factors.  The library checks the same
identities on entry lists; the tests compare the two key by key.
"""

import numpy as np

from kwlab.derived import (build_C, build_D, build_M, half_angle_phases,
                           isoradial_data, phi_D_character, q_phases,
                           split_phi_D)
from kwlab.linalg import lu_det, max_norm
from kwlab.operators import (_phi_values, dirac_C, dirac_D, kac_ward,
                             kasteleyn, laplacian, laplacian_M,
                             laplacian_dual, phi_omega, skew_adjacency)
from kwlab.surface_graph import character_cochain


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
    for cyc in c.faces:
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
