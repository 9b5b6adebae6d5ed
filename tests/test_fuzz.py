"""A seeded mutation fuzzer over fixture JSON: every command on every mutant
exits 0-3 without a traceback, and exit 2 (invalid input) leaves stderr
empty.

Each mutant takes one to three edits of the JSON of ``gen rect-torus``,
``gen honeycomb-torus`` or ``gen triangle``: a value anywhere in the tree
replaced by a hostile one (huge or non-finite numbers, integers beyond
int64, wrong types), a number scaled, nudged or negated, a key deleted, an
edge repeated, or ``dart_angles`` added.  RuntimeWarnings are errors in the
tier-1 suite (pyproject.toml), so a warning on the way fails the run too.
"""

import copy
import json
import math
import random

import pytest

from kwlab import fixtures as fx
from kwlab.cli import main

BASES = {"rect-torus": fx.rect_torus(),
         "honeycomb-torus": fx.honeycomb_torus(), "triangle": fx.triangle()}

HOSTILE = [0, -1, 1, 2, 3, 10 ** 20, -10 ** 20, 2 ** 63, 2 ** 62, -2 ** 63,
           1e308, -1e308, 1.7e308, 5e307, 1e-320, 0.5, -0.5, 1e6,
           1.0000000000000002, -1e-16, math.pi, 2 * math.pi, math.nan,
           math.inf, -math.inf, "x", "", None, True, [], {}, [0, 0], [1, 0],
           [0, 10 ** 20], [1e308, 0], [[0]]]

COMMANDS = [["verify", "kw1"], ["verify", "kw2"], ["verify", "pf"],
            ["verify", "corr", "--draws", "2"],
            ["verify", "det", "--draws", "2"],
            ["verify", "sholo", "--draws", "2"], ["verify", "dirac"],
            ["verify", "all", "--draws", "2"], ["z-ising"], ["z-dimer"],
            ["critical-beta"], ["spectral", "--grid", "4"],
            ["free-energy", "--grid", "4"], ["tau"],
            ["observable", "--dart", "0"], ["h-function", "--from", "kernel"],
            ["h-function", "--from", "observable", "--dart", "1"]]


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root's children first."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(rng, obj):
    """A copy of ``obj`` with one to three random edits."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.choice([1, 1, 2, 3])):
        op = rng.random()
        edges = obj.get("edges")
        if op < 0.1 and isinstance(edges, list) and edges and all(
                isinstance(e, dict) for e in edges):
            edges.append(dict(rng.choice(edges), id=len(edges)))
            continue
        if op < 0.2:
            nd = 2 * len(edges) if isinstance(edges, list) else 6
            obj["dart_angles"] = {
                str(rng.randrange(-1, nd + 1)):
                rng.choice([rng.uniform(-7.0, 7.0), rng.choice(HOSTILE)])
                for _ in range(rng.randint(1, 3))}
            continue
        paths = list(_paths(obj))
        if not paths:
            break
        *head, key = rng.choice(paths)
        parent = obj
        for k in head:
            parent = parent[k]
        value = parent[key]
        if op < 0.3 and isinstance(parent, dict):
            del parent[key]
        elif op < 0.6 and type(value) in (int, float):
            parent[key] = rng.choice([value * rng.uniform(-3.0, 3.0),
                                      value + rng.uniform(-1e-12, 1e-12),
                                      value * 1e300, -value, value + 1])
        else:
            parent[key] = copy.deepcopy(rng.choice(HOSTILE))
    return obj


def test_mutated_fixtures_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20261020)
    path = tmp_path / "mutant.json"
    bases = {name: g.to_json() for name, g in BASES.items()}
    for i in range(400):
        name = rng.choice(sorted(bases))
        text = json.dumps(mutate(rng, bases[name]))
        argv = [*rng.choice(COMMANDS), "-g", str(path)]
        path.write_text(text)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"mutant {i} of {name}, {argv[:-2]}: "
                        f"{type(exc).__name__}: {exc}\n{text}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (i, name, argv, text)
        assert code != 2 or err == "", (i, name, argv, err, text)
