"""Command line: fixture generation, verification suites, partition functions,
observables, criticality reports.  All output is deterministic JSON (17
significant digits) on stdout; exit code 0 iff every requested check passed,
2 on validation errors, 3 on size-guard rejections."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fixtures
from .surface_graph import (GraphError, SizeGuardError, edge_vectors,
                            face_centroids, graph_from_json)
from .derived import build_C
from .oracle import dimer_partition, ising_partition
from .critical import critical_beta, free_energy, hessian_tau, spectral_grid
from .sholo import integrate_square, kernel_observables, observable
from .report import render
from .suites import SUITE_NAMES, run_suite


def _load_graph(path, with_couplings=False):
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path) as fh:
            obj = json.load(fh)
    g = graph_from_json(obj)
    if not with_couplings:
        return g
    j = None
    if all("J" in e for e in obj.get("edges", [])):
        j = np.empty(len(obj["edges"]))
        for e in obj["edges"]:
            j[e["id"]] = float(e["J"])
    return g, j


def _emit(obj):
    sys.stdout.write(render(obj) + "\n")


#: distinct weights per fixture: one per edge, or horizontal and vertical
N_WEIGHTS = {"triangle": 3, "square-torus": 2, "rect-torus": 2,
             "honeycomb-torus": 3}


def _gen(args):
    n = N_WEIGHTS[args.fixture]
    for flag in ("x", "theta", "J", "beta"):
        vals = getattr(args, flag)
        if vals is not None and not np.all(np.isfinite(vals)):
            raise GraphError(f"--{flag} must be finite")
        if vals is not None and flag != "beta" and len(vals) not in (1, n):
            raise GraphError(f"--{flag} takes 1 or {n} values for "
                             f"{args.fixture}, got {len(vals)}")
    if args.J is not None:
        if args.beta is None:
            raise GraphError("--J requires --beta")
        xs = [math.tanh(args.beta * j) for j in args.J]
    elif args.theta is not None:
        xs = [math.tan(t / 2.0) for t in args.theta]
    else:
        xs = args.x
    if xs is not None and len(xs) == 1:
        xs = xs * n

    if args.fixture == "triangle":
        g = fixtures.triangle(np.asarray(xs) if xs else 0.5)
    elif args.fixture == "square-torus":
        g = fixtures.square_torus(args.size,
                                  *(xs or [fixtures.X_CRITICAL_SQUARE]))
    elif args.fixture == "rect-torus":
        g = fixtures.rect_torus(*(xs or [0.3, 0.4]))
    else:
        g = fixtures.honeycomb_torus(tuple(xs) if xs else (0.5, 0.5, 0.5))

    obj = g.to_json()
    if args.J is not None:
        # re-emit in coupling form so downstream commands can sweep beta
        obj["beta"] = args.beta
        for e in obj["edges"]:
            del e["x"]
            e["J"] = args.J[e["id"] % len(args.J)]
    _emit(obj)
    return 0


def _verify(args):
    g = _load_graph(args.graph)
    rep = run_suite(args.suite, g, fixture=args.graph, draws=args.draws,
                    seed=args.seed)
    _emit(rep)
    return 0 if rep["pass"] else 1


def _z_ising(args):
    g, j = _load_graph(args.graph, with_couplings=True)
    rep = ising_partition(g, j=j, beta=1.0 if args.beta is None else args.beta)
    vals = list(rep.values())
    rel = (max(vals) - min(vals)) / max(abs(v) for v in vals)
    rep["relative_spread"] = rel
    rep["pass"] = rel < 1e-9
    _emit(rep)
    return 0 if rep["pass"] else 1


def _z_dimer(args):
    g = _load_graph(args.graph)
    rep = dimer_partition(build_C(g))
    rel = abs(abs(rep["kasteleyn_combo"]) - rep["matchings"]) / max(
        rep["matchings"], 1e-30)
    rep["relative_residual"] = rel
    rep["pass"] = rel < 1e-9
    _emit(rep)
    return 0 if rep["pass"] else 1


def _observable(args):
    g = _load_graph(args.graph)
    F = observable(g, args.dart)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("x,y,re,im\n")
            mid = g.vcoords[g.origin[::2]] + 0.5 * edge_vectors(g)[::2]
            for k, p in enumerate(mid):
                fh.write(f"{p[0]:.17g},{p[1]:.17g},"
                         f"{F[k].real:.17g},{F[k].imag:.17g}\n")
    _emit({"dart": args.dart, "values": [complex(v) for v in F]})
    return 0


def _spectral(args):
    g = _load_graph(args.graph)
    a1, a2, vals = spectral_grid(g, args.grid)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("phi1,phi2,re,im\n")
            for i in range(args.grid):
                for k in range(args.grid):
                    fh.write(f"{a1[i]:.17g},{a2[k]:.17g},"
                             f"{vals[i, k].real:.17g},{vals[i, k].imag:.17g}\n")
    _emit({"grid": args.grid, "min_real": float(vals.real.min()),
           "max_imag_abs": float(np.max(np.abs(vals.imag)))})
    return 0


def _critical_beta(args):
    g, j = _load_graph(args.graph, with_couplings=True)
    rep = critical_beta(g, j=j)
    _emit(rep)
    return 0


def _tau(args):
    g = _load_graph(args.graph)
    rep = hessian_tau(g)
    _emit({"tau": complex(rep["tau"]), "A_z": rep["A_z"], "A_w": rep["A_w"],
           "B": rep["B"]})
    return 0


def _free_energy(args):
    g, j = _load_graph(args.graph, with_couplings=True)
    rep = free_energy(g, j=j, beta=args.beta, n=args.grid)
    _emit(rep)
    return 0


def _h_function(args):
    g = _load_graph(args.graph)
    if args.source == "kernel":
        funcs = kernel_observables(g)
        if not funcs:
            raise GraphError("the Kac-Ward kernel is trivial; no function to "
                             "integrate (weights are off criticality?)")
        F = funcs[0]
    else:
        F = observable(g, args.dart)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = integrate_square(g, F)
    out = {
        "base_point": list(h.base_point),
        "loop_residual": h.loop_residual,
        "sholo_defect": h.sholo_defect,
        "periods": h.periods,
        "values": {f"{t}{i}": v for (t, i), v in h.values.items()},
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("kind,id,x,y,H\n")
            centre = face_centroids(g)
            for (t, i), v in h.values.items():
                p = g.vcoords[i] if t == "v" else centre[i]
                fh.write(f"{t},{i},{p[0]:.17g},{p[1]:.17g},{v:.17g}\n")
    _emit(out)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use."""
    p = argparse.ArgumentParser(prog="kwlab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a fixture graph as JSON")
    gen.add_argument("fixture", choices=["triangle", "square-torus",
                                         "rect-torus", "honeycomb-torus"])
    gen.add_argument("size", nargs="?", type=int, default=2,
                     help="lattice size for square-torus")
    gen.add_argument("--x", type=float, nargs="+")
    gen.add_argument("--theta", type=float, nargs="+")
    gen.add_argument("--J", type=float, nargs="+")
    gen.add_argument("--beta", type=float)
    gen.set_defaults(func=_gen)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    ver.add_argument("-g", "--graph", required=True)
    ver.add_argument("--draws", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_verify)

    zi = sub.add_parser("z-ising", help="three-way Ising partition function")
    zi.add_argument("-g", "--graph", required=True)
    zi.add_argument("--beta", type=float, default=None)
    zi.set_defaults(func=_z_ising)

    zd = sub.add_parser("z-dimer", help="dimer matchings vs Kasteleyn combination")
    zd.add_argument("-g", "--graph", required=True)
    zd.set_defaults(func=_z_dimer)

    ob = sub.add_parser("observable", help="fermionic observable pinned at a dart")
    ob.add_argument("-g", "--graph", required=True)
    ob.add_argument("--dart", type=int, required=True)
    ob.add_argument("--csv")
    ob.set_defaults(func=_observable)

    sp = sub.add_parser("spectral", help="sample the spectral curve on a grid")
    sp.add_argument("-g", "--graph", required=True)
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--csv")
    sp.set_defaults(func=_spectral)

    cb = sub.add_parser("critical-beta", help="critical inverse temperature")
    cb.add_argument("-g", "--graph", required=True)
    cb.set_defaults(func=_critical_beta)

    ta = sub.add_parser("tau", help="Hessian of the spectral curve and tau")
    ta.add_argument("-g", "--graph", required=True)
    ta.set_defaults(func=_tau)

    fe = sub.add_parser("free-energy", help="free energy per fundamental domain")
    fe.add_argument("-g", "--graph", required=True)
    fe.add_argument("--beta", type=float, default=None)
    fe.add_argument("--grid", type=int, default=64)
    fe.set_defaults(func=_free_energy)

    hf = sub.add_parser("h-function", help="discrete primitive of Im(F^2 dz)")
    hf.add_argument("-g", "--graph", required=True)
    hf.add_argument("--from", dest="source", choices=["kernel", "observable"],
                    required=True)
    hf.add_argument("--dart", type=int, default=0)
    hf.add_argument("--csv")
    hf.set_defaults(func=_h_function)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        _emit({"error": "size_guard", "message": str(exc)})
        return 3
    except (GraphError, OSError, json.JSONDecodeError, KeyError) as exc:
        _emit({"error": "invalid_input", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
