"""Span tracer that wraps the public functions of each kwlab module from outside.

The modules bind each other's functions by name (``from .linalg import
lu_det``), so a wrapper is installed under every ``kwlab`` module attribute
that holds the original object, and every one is restored on exit.  Spans are
kept in memory as tuples ``(id, parent, name, start, end, work)`` and reduced
to per-layer metrics at the end of a pass.

A span's self time is its duration minus the union of its children's
intervals.  Spans opened in the ``spectral_grid`` worker threads are children
of the enclosing ``spectral_grid`` span, so the union (not the sum) matters
there.  A generator function gets one span per ``next()`` and counts the
items it yields; the oracle's subgraph enumerations, which return lists
today, count the length of the list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _dim(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _darts(args, kwargs, result):
    return int(args[0].nd)


def _grid_points(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return int(n) * int(n)


def _items(args, kwargs, result):
    return len(result) if hasattr(result, "__len__") else 0


#: span name -> the "module:function" targets timed under it.  Functions
#: missing from the program are skipped, so the table may name functions
#: that a later version removes.
LAYERS = {
    "linalg.det": ["kwlab.linalg:lu_det"],
    "linalg.solve": ["kwlab.linalg:lu_solve"],
    "linalg.null_space": ["kwlab.linalg:null_space"],
    "operators.kac_ward": ["kwlab.operators:kac_ward"],
    "operators.sqrt_det_tracked": ["kwlab.operators:sqrt_det_tracked"],
    "operators.builders": [
        "kwlab.operators:kasteleyn", "kwlab.operators:kasteleyn_with_weights",
        "kwlab.operators:laplacian", "kwlab.operators:laplacian_dual",
        "kwlab.operators:laplacian_M", "kwlab.operators:dirac_C",
        "kwlab.operators:dirac_D", "kwlab.operators:skew_adjacency",
        "kwlab.operators:transition_factors"],
    "operators.verify": ["kwlab.operators:verify_corr",
                         "kwlab.operators:verify_dirac_identities"],
    "critical.critical_beta": ["kwlab.critical:critical_beta"],
    "critical.spectral_grid": ["kwlab.critical:spectral_grid"],
    "critical.spectral_curve": ["kwlab.critical:spectral_curve"],
    "critical.free_energy": ["kwlab.critical:free_energy"],
    "critical.hessian_tau": ["kwlab.critical:hessian_tau"],
    "critical.duality_check": ["kwlab.critical:duality_check"],
    "oracle.enumerate": ["kwlab.oracle:enumerate_even",
                         "kwlab.oracle:enumerate_parity"],
    "oracle.resolve": ["kwlab.oracle:resolve"],
    "oracle.signed_cycle_sum": ["kwlab.oracle:signed_cycle_sum"],
    "oracle.ising_partition": ["kwlab.oracle:ising_partition"],
    "oracle.dimer_partition": ["kwlab.oracle:dimer_partition"],
    "oracle.inverse_matrix": ["kwlab.oracle:inverse_matrix",
                              "kwlab.oracle:inverse_coefficient"],
    "sholo.observable": ["kwlab.sholo:observable"],
    "sholo.kernel_observables": ["kwlab.sholo:kernel_observables"],
    "sholo.integrate_square": ["kwlab.sholo:integrate_square"],
    "sholo.verify_sholo": ["kwlab.sholo:verify_sholo"],
    "surface_graph.build": [
        "kwlab.surface_graph:graph_from_json", "kwlab.surface_graph:build_planar",
        "kwlab.surface_graph:build_torus", "kwlab.surface_graph:dual"],
    "surface_graph.character_cochain": ["kwlab.surface_graph:character_cochain"],
    "derived.build": ["kwlab.derived:build_C", "kwlab.derived:build_D",
                      "kwlab.derived:build_M", "kwlab.derived:isoradial_data"],
    "suites": ["kwlab.suites:run_suite", "kwlab.suites:verify_all"],
    "report.render": ["kwlab.report:render"],
}

#: span name -> the work one call records, from (args, kwargs, result)
WORK = {
    "linalg.det": _dim,
    "linalg.solve": _dim,
    "operators.kac_ward": _darts,
    "critical.spectral_grid": _grid_points,
    "oracle.enumerate": _items,
}

#: spans whose worker threads' spans are adopted as children
ADOPTING = {"critical.spectral_grid"}

ROOT = "cli"


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.spans`` afterwards."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters = []
        self._patched = []

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, work):
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1, work))

    def call(self, name, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        sid, parent = self._open()
        adopting = name in ADOPTING
        if adopting:
            self._adopters.append(sid)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            if adopting:
                self._adopters.pop()
            work_of = WORK.get(name)
            work = work_of(args, kwargs, result) if work_of else 0
            self._close(sid, parent, name, t0, t1, work)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_iter(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _traced_iter(self, name, it):
        while True:
            sid, parent = self._open()
            yielded = 0
            t0 = time.perf_counter()
            try:
                item = next(it)
                yielded = 1
            except StopIteration:
                return
            finally:
                self._close(sid, parent, name, t0, time.perf_counter(), yielded)
            yield item

    # -- patching ----------------------------------------------------------------

    def __enter__(self):
        importlib.import_module("kwlab.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "kwlab" or n.startswith("kwlab.")) and m is not None]
        try:
            for name, targets in LAYERS.items():
                for target in targets:
                    mod_name, attr = target.split(":")
                    orig = getattr(sys.modules.get(mod_name), attr, None)
                    if orig is None:
                        continue
                    wrapper = self._wrap(name, orig)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                self._patched.append((mod, key, orig))
                                setattr(mod, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, key, orig = self._patched.pop()
            setattr(mod, key, orig)


# -- reduction to per-layer metrics -------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def pass_metrics(spans, workers):
    """Per-layer counters and self times of one traced pass."""
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            kids[s[1]].append((s[3], s[4]))

    def under(span, name):
        p = span[1]
        while p is not None:
            anc = by_id[p]
            if anc[2] == name:
                return True
            p = anc[1]
        return False

    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        sid, _, name, t0, t1, w = s
        self_s[name] += (t1 - t0) - _covered(kids.get(sid, ()), t0, t1)
        calls[name] += 1
        work[name] += w

    dets = [s for s in spans if s[2] == "linalg.det"]
    sqrts = [s for s in spans if s[2] == "operators.sqrt_det_tracked"]
    grids = [s for s in spans if s[2] == "critical.spectral_grid"]
    grid_wall = sum(s[4] - s[3] for s in grids)
    curve_busy = sum(s[4] - s[3] for s in spans
                     if s[2] == "critical.spectral_curve"
                     and under(s, "critical.spectral_grid"))
    return {
        "linalg.det.calls": calls["linalg.det"],
        "linalg.det.self_s": self_s["linalg.det"],
        "linalg.det.work_n3": sum(s[5] ** 3 for s in dets),
        "linalg.det.n_max": max((s[5] for s in dets), default=0),
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.self_s": self_s["linalg.solve"],
        "linalg.null_space.calls": calls["linalg.null_space"],
        "linalg.null_space.self_s": self_s["linalg.null_space"],
        "operators.kac_ward.calls": calls["operators.kac_ward"],
        "operators.kac_ward.self_s": self_s["operators.kac_ward"],
        "operators.kac_ward.darts": work["operators.kac_ward"],
        "operators.sqrt_det_tracked.calls": len(sqrts),
        "operators.sqrt_det_tracked.self_s": self_s["operators.sqrt_det_tracked"],
        "operators.sqrt_det_tracked.dets_per_call": (
            sum(1 for s in dets if under(s, "operators.sqrt_det_tracked"))
            / len(sqrts) if sqrts else 0.0),
        "operators.builders.self_s": self_s["operators.builders"],
        "operators.verify.self_s": self_s["operators.verify"],
        "critical.critical_beta.calls": calls["critical.critical_beta"],
        "critical.critical_beta.self_s": self_s["critical.critical_beta"],
        "critical.critical_beta.sqrt_evals": sum(
            1 for s in sqrts if under(s, "critical.critical_beta")),
        "critical.spectral_grid.points": work["critical.spectral_grid"],
        "critical.spectral_grid.self_s": self_s["critical.spectral_grid"],
        "critical.spectral_grid.busy_ratio": (
            curve_busy / (grid_wall * workers) if grid_wall else 0.0),
        "critical.free_energy.self_s": self_s["critical.free_energy"],
        "critical.hessian_tau.self_s": self_s["critical.hessian_tau"],
        "critical.duality_check.self_s": self_s["critical.duality_check"],
        "oracle.enumerate.items": work["oracle.enumerate"],
        "oracle.enumerate.self_s": self_s["oracle.enumerate"],
        "oracle.resolve.calls": calls["oracle.resolve"],
        "oracle.resolve.self_s": self_s["oracle.resolve"],
        "oracle.signed_cycle_sum.self_s": self_s["oracle.signed_cycle_sum"],
        "oracle.ising_partition.self_s": self_s["oracle.ising_partition"],
        "oracle.dimer_partition.self_s": self_s["oracle.dimer_partition"],
        "oracle.inverse_matrix.self_s": self_s["oracle.inverse_matrix"],
        "sholo.observable.self_s": self_s["sholo.observable"],
        "sholo.kernel_observables.self_s": self_s["sholo.kernel_observables"],
        "sholo.integrate_square.self_s": self_s["sholo.integrate_square"],
        "sholo.verify_sholo.self_s": self_s["sholo.verify_sholo"],
        "surface_graph.build.calls": calls["surface_graph.build"],
        "surface_graph.build.self_s": self_s["surface_graph.build"],
        "surface_graph.character_cochain.calls": calls[
            "surface_graph.character_cochain"],
        "surface_graph.character_cochain.self_s": self_s[
            "surface_graph.character_cochain"],
        "derived.build.calls": calls["derived.build"],
        "derived.build.self_s": self_s["derived.build"],
        "suites.self_s": self_s["suites"],
        "report.render.self_s": self_s["report.render"],
        "cli.self_s": self_s[ROOT],
    }


#: metrics that count work; they must repeat exactly from pass to pass
COUNTERS = [
    "linalg.det.calls", "linalg.det.work_n3", "linalg.det.n_max",
    "linalg.solve.calls", "linalg.null_space.calls",
    "operators.kac_ward.calls", "operators.kac_ward.darts",
    "operators.sqrt_det_tracked.calls",
    "operators.sqrt_det_tracked.dets_per_call",
    "critical.critical_beta.calls", "critical.critical_beta.sqrt_evals",
    "critical.spectral_grid.points", "oracle.enumerate.items",
    "oracle.resolve.calls", "surface_graph.build.calls",
    "surface_graph.character_cochain.calls", "derived.build.calls",
]


BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def per_layer_units():
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def median_metrics(per_pass):
    """Counters from the first pass, every other metric as a median."""
    out = {}
    for key in per_pass[0]:
        if key in COUNTERS:
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
