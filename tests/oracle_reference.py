"""Per-configuration loop forms of the loop resolution, kept as test oracles.

``resolve`` pairs the incidences of one (possibly marked) even subgraph
vertex by vertex and walks its strands dart by dart; ``q_sign`` and
``rot_of_path`` read the loop sign and the open-strand rotation off the
result.  ``oracle._resolve`` replaces this chain with one array pass over
many configurations, and each of its factors must equal
``q_sign(g, res) * cmath.exp(0.5j * rot_of_path(...))`` exactly.  With
``rng``, ``resolve`` draws a uniform random non-crossing (Catalan) pairing
at each vertex instead of the cyclically adjacent one; the loop sign does
not depend on that choice.

``enumerate_parity`` builds a cycle-space basis of the graph minus each set
of excluded edges and lists the subsets with the given odd vertices, one
exclusion set at a time; ``oracle._entry_terms`` replaces it with one
spanning forest of the whole graph, and its configurations must be the
same sets.

``signed_cycle_sum`` is the sum over even subgraphs that squares to
det KW, evaluated with the oracle's own enumeration and resolution.

``permanent_reference`` is ``oracle._permanent`` reading its rows as numpy
arrays; the list form must give the same float, DP step for DP step.
"""

import cmath

import numpy as np

from kwlab.oracle import SUM_GUARD, _resolve, _sum_terms, enumerate_even
from kwlab.surface_graph import GraphError, SizeGuardError, principal_angle


class LoopResolution:
    """Non-crossing resolution of a (possibly marked) even subgraph.

    ``loops`` is a list of dart cycles; ``path`` the optional open dart walk
    between the two marked midpoints, stored with its start and end velocity
    angles.
    """

    def __init__(self, loops, path=None, path_start=None, path_end=None):
        self.loops = loops
        self.path = path
        self.path_start = path_start
        self.path_end = path_end


def _noncrossing_pairing(items, rng=None):
    """Pair an even-length angle-sorted list of incidences without crossings.

    The default pairs cyclically adjacent incidences; with ``rng`` a uniform
    random non-crossing (Catalan) matching is drawn instead.
    """
    n = len(items)
    if n % 2:
        raise GraphError("odd incidence count cannot be resolved")
    if rng is None:
        return [(items[i], items[i + 1]) for i in range(0, n, 2)]

    def rec(seq):
        if not seq:
            return []
        # pair seq[0] with an odd-offset partner, then split
        choices = list(range(1, len(seq), 2))
        j = int(rng.choice(choices))
        inner = rec(seq[1:j])
        outer = rec(seq[j + 1:])
        return [(seq[0], seq[j])] + inner + outer

    return rec(list(items))


def resolve(g, edge_mask, marks=None, rng=None):
    """Resolve an even subgraph (bitmask) into non-crossing loops and one path.

    ``marks`` is None or a pair (exit_dart, entry_dart): the configuration is
    entered leaving the midpoint of ``exit_dart`` toward its terminus and is
    left entering the midpoint of ``entry_dart`` from its origin.  Pairings at
    each vertex follow the cyclic order of the incident dart angles.
    """
    # incidences at each vertex that carries strands: darts pointing out of it
    EXIT, ENTRY = -1, -2
    inc = {}
    for k in range(g.ne):
        if edge_mask >> k & 1:
            inc.setdefault(int(g.origin[2 * k]), []).append(2 * k)
            inc.setdefault(int(g.origin[2 * k + 1]), []).append(2 * k + 1)
    if marks is not None:
        e_out, e_in = marks
        # exit stub: strand arriving at t(e_out) from the midpoint, i.e. the
        # incidence of rev(e_out) at that vertex; entry stub at o(e_in).
        inc.setdefault(g.terminus(e_out), []).append((EXIT, e_out ^ 1))
        inc.setdefault(int(g.origin[e_in]), []).append((ENTRY, e_in))

    def angle(item):
        d = item[1] if isinstance(item, tuple) else item
        return g.dirang[d]

    succ = {}  # incidence -> incidence across a vertex
    # in vertex order, so that the draws from rng do not depend on how the
    # incidences were collected (a vertex without strands draws nothing)
    for v in sorted(inc):
        items = sorted(inc[v], key=angle)
        for a, b in _noncrossing_pairing(items, rng):
            succ[_ikey(a)] = b
            succ[_ikey(b)] = a

    used = set()
    path = None
    path_start = path_end = None
    loops = []
    if marks is not None:
        # walk the open strand from the exit stub
        darts = []
        cur = succ[("EXIT",)]
        start_dir = float(g.dirang[marks[0]])
        while True:
            if isinstance(cur, tuple):
                if cur[0] == ENTRY:
                    break
                raise GraphError("marked resolution closed onto the exit stub")
            darts.append(cur)
            used.add(cur >> 1)
            cur = succ[(cur ^ 1,)]
        end_dir = float(g.dirang[marks[1]])
        path = darts
        path_start, path_end = start_dir, end_dir
    for k in range(g.ne):
        if not (edge_mask >> k & 1) or k in used:
            continue
        cyc = []
        cur = 2 * k
        while True:
            cyc.append(cur)
            used.add(cur >> 1)
            nxt = succ[(cur ^ 1,)]
            if isinstance(nxt, tuple):
                raise GraphError("loop walk reached a marked stub")
            cur = nxt
            if cur == 2 * k:
                break
        loops.append(cyc)
    return LoopResolution(loops, path, path_start, path_end)


def _ikey(item):
    if isinstance(item, tuple):
        return ("EXIT",) if item[0] == -1 else ("ENTRY",)
    return (item,)


def rot_of_loop(g, darts):
    """Total velocity rotation of a closed dart cycle (closing turn included)."""
    total = 0.0
    n = len(darts)
    for i in range(n):
        d1, d2 = darts[i], darts[(i + 1) % n]
        total += principal_angle(g.dirang[d2] - g.dirang[d1])
    return total


def rot_of_path(g, darts, start_dir, end_dir):
    """Velocity rotation along an open walk, from start to end direction."""
    dirs = [start_dir] + [float(g.dirang[d]) for d in darts] + [end_dir]
    total = 0.0
    for i in range(len(dirs) - 1):
        total += principal_angle(dirs[i + 1] - dirs[i])
    return total


def q_sign(g, resolution):
    """(-1)^q of a resolved family of loops: product of -exp(i rot / 2)."""
    sign = 1.0 + 0j
    for cyc in resolution.loops:
        sign *= -cmath.exp(0.5j * rot_of_loop(g, cyc))
    if abs(abs(sign.real) - 1.0) > 1e-9 or abs(sign.imag) > 1e-9:
        raise GraphError("loop sign did not land on +-1; inconsistent angle data")
    return 1 if sign.real > 0 else -1


def config_factor(g, mask, marks=None):
    """The factor of one configuration: its loop sign, times exp(i rot / 2)
    along the open strand when ``marks`` is an (exit, entry) dart pair."""
    res = resolve(g, mask, marks)
    if marks is None:
        return q_sign(g, res)
    ro = rot_of_path(g, res.path, res.path_start, res.path_end)
    return q_sign(g, res) * cmath.exp(0.5j * ro)


# -- per-exclusion-set enumeration ----------------------------------------------


def _cycle_space_basis(g, excluded=()):
    """GF(2) basis of even edge subsets avoiding ``excluded``, plus a tree map.

    Returns (basis_masks, tree) where tree maps each vertex to the (edge,
    parent) pair of a spanning forest; used both for enumeration and for
    solving marked parity problems.
    """
    excluded = set(excluded)
    adj = [[] for _ in range(g.nv)]
    for k in range(g.ne):
        if k in excluded:
            continue
        adj[int(g.origin[2 * k])].append((k, int(g.origin[2 * k + 1])))
        adj[int(g.origin[2 * k + 1])].append((k, int(g.origin[2 * k])))
    parent = {}
    tree_edges = set()
    roots = []
    for root in range(g.nv):
        if root in parent:
            continue
        parent[root] = (None, None)
        roots.append(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for (k, v) in adj[u]:
                if v not in parent:
                    parent[v] = (k, u)
                    tree_edges.add(k)
                    stack.append(v)
    basis = []
    for k in range(g.ne):
        if k in excluded or k in tree_edges:
            continue
        mask = 1 << k
        for end in (int(g.origin[2 * k]), int(g.origin[2 * k + 1])):
            v = end
            while parent[v][0] is not None:
                mask ^= 1 << parent[v][0]
                v = parent[v][1]
        basis.append(mask)
    return basis, parent, roots


def _tree_path_mask(g, parent, u, v):
    """Edge mask of the forest path between two vertices; None if disconnected."""
    seen = {}
    a = u
    while a is not None:
        seen[a] = True
        a = parent[a][1]
    b = v
    mask_v = 0
    while b not in seen:
        if parent[b][0] is None:
            return None
        mask_v ^= 1 << parent[b][0]
        b = parent[b][1]
    mask_u = 0
    a = u
    while a != b:
        mask_u ^= 1 << parent[a][0]
        a = parent[a][1]
    return mask_u ^ mask_v


def enumerate_parity(g, odd_vertices, excluded=(), bases=None):
    """Edge subsets of E minus ``excluded`` with odd degree exactly at ``odd_vertices``.

    ``bases``, a dict the caller keeps, caches the cycle-space basis of each
    excluded-edge set across calls.
    """
    odd = list(odd_vertices)
    if len(odd) % 2:
        return []
    bases = {} if bases is None else bases
    key = frozenset(excluded)
    if key not in bases:
        bases[key] = _cycle_space_basis(g, key)
    basis, parent, _ = bases[key]
    base = 0
    for a, b in zip(odd[::2], odd[1::2]):
        m = _tree_path_mask(g, parent, a, b)
        if m is None:
            return []  # odd vertices in different components
        base ^= m
    subs = [base]
    for b in basis:
        subs += [s ^ b for s in subs]
    return subs


def signed_cycle_sum(g, phi=None, x=None):
    """Sum over even subgraphs of (-1)^q phi(xi) x(xi); the square root of det KW."""
    if g.ne > SUM_GUARD:
        raise SizeGuardError(f"signed cycle sum capped at {SUM_GUARD} edges")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    if phi is not None:
        pv = np.asarray(getattr(phi, "values", phi), dtype=complex)[0::2]
        if np.any(abs(pv.imag) > 1e-12) or np.any(abs(abs(pv.real) - 1) > 1e-12):
            raise GraphError("signed cycle sum needs a +-1 cochain")
        xs = xs * pv.real
    masks = np.array(enumerate_even(g), dtype=np.int64)
    return float(_sum_terms(g, [(masks, _resolve(g, masks))], xs)[..., 0].real)


def permanent_reference(a):
    """Permanent by the subset DP over rows, each row's nonzero columns
    found by ``np.flatnonzero``."""
    a = np.asarray(a, dtype=float)
    partial = {0: 1.0}
    for row in a:
        cols = [(1 << int(j), float(row[j])) for j in np.flatnonzero(row)]
        grown = {}
        for used, val in partial.items():
            for bit, y in cols:
                if not used & bit:
                    grown[used | bit] = grown.get(used | bit, 0.0) + val * y
        partial = grown
    return partial.get((1 << a.shape[1]) - 1, 0.0)
