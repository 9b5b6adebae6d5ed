"""Deterministic JSON serialization for verification reports.

Floats print as Python's shortest round-trip repr (numpy float64 is a float
and prints the same way), complex numbers as [re, im] pairs, numpy scalars
and arrays as their Python values; key order is preserved, so equal inputs
serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np


def _plain(obj):
    """The ``json.dumps`` default hook: what json cannot encode, as what it
    can; ``json`` calls it again on the parts of the result."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (np.bool_, np.integer, np.ndarray)):
        return obj.tolist()
    return str(obj)


def render(obj):
    return json.dumps(obj, indent=2, default=_plain)


def make_report(suite, fixture, seed, checks):
    """Assemble a verification report; overall pass iff every check passes."""
    allpass = all(c["pass"] for c in checks)
    return {
        "suite": suite,
        "fixture": fixture,
        "seed": seed,
        "checks": checks,
        "pass": allpass,
    }


def check(name, residual, threshold):
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "threshold": float(threshold),
        "pass": residual < threshold,
    }
