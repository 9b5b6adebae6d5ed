"""The dense Kac-Ward scatter that ``kac_ward`` and ``kac_ward_real`` replaced.

``_eye_minus_pattern`` wrote I - A straight into a flat row-major array;
the builders now scatter the entry list of I - A with ``linalg.to_dense``,
as every other builder does, and must give the same matrices.
"""

import numpy as np


def _eye_minus_pattern(g, rows, vals):
    """Dense I - A with A[..., e, e'] = rows[..., e] vals[k] on each
    continuation (e, e') = ``g.transition_entries[:2]``[k]; leading axes of
    ``rows`` stack."""
    e, e2, _ = g.transition_entries
    nd = g.nd
    a = rows[..., e] * vals
    # flat row-major layout: (e, e') at e * nd + e', the diagonal every nd + 1
    m = np.zeros(a.shape[:-1] + (nd * nd,), dtype=a.dtype)
    m[..., e * nd + e2] = -a
    m[..., ::nd + 1] += 1
    return m.reshape(a.shape[:-1] + (nd, nd))


def kac_ward_pattern(g, phi, x):
    """KW as ``kac_ward`` built it from ``_eye_minus_pattern``."""
    return _eye_minus_pattern(g, phi * np.repeat(x, 2, axis=-1),
                              g.transition_entries[2])


def kac_ward_real_pattern(g, x):
    """M = I - X T' as ``kac_ward_real`` built it."""
    return _eye_minus_pattern(g, np.repeat(x, 2), g.transition_signs)
