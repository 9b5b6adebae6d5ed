"""The two-pass renderer that ``report.render`` replaces.

Kept as the test oracle: ``jsonable`` rebuilds the output as plain Python,
each float rounded through 17 significant digits (which returns it
unchanged) and each dict key turned into a str, before ``json.dumps`` walks
it again.  ``render`` must give the same bytes on every command output.
"""

from __future__ import annotations

import numpy as np


def _fmt_float(x):
    return float(format(float(x), ".17g"))


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_fmt_float(obj.real), _fmt_float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def render_reference(obj):
    import json
    return json.dumps(jsonable(obj), indent=2, sort_keys=False)
