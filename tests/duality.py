"""Both Kramers-Wannier duality identities in one call, for the tests.

``verify kw1`` and ``verify kw2`` each compute only their own identity
(``critical.duality_residuals`` and ``critical.duality_sign_pattern``);
``duality_check`` is their union, with one pass verdict.
"""

from kwlab.critical import duality_residuals, duality_sign_pattern


def duality_check(g, draws=10, seed=0):
    """The worst unitary-character residual, the sign pattern of the roots
    and whether both hold: the residuals below 1e-9, and every ratio within
    1e-6 of its Arf sign or reported 0 (a degenerate point carries no sign
    information)."""
    worst = max(duality_residuals(g, draws=draws, seed=seed), default=0.0)
    sign_pattern = duality_sign_pattern(g)
    return {
        "unitary_residual_max": worst,
        "sqrt_sign_pattern": sign_pattern,
        "pass": worst < 1e-9 and all(
            v == 0.0 or abs(v - (-1.0 if zw == (1, 1) else 1.0)) <= 1e-6
            for zw, v in sign_pattern.items()),
    }
