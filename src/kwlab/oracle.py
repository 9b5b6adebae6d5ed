"""Exact combinatorial ground truth: spins, even subgraphs, matchings, loop signs.

Everything here is independent of the dense operator pipeline so the two can
check each other: even subgraphs are enumerated from a GF(2) cycle-space
basis, loop signs come from non-crossing resolutions and velocity rotation
numbers, the dimer partition function is a subset-DP permanent over the
bipartite rectangle graph, and the inverse-operator coefficients are assembled
from marked two-leg configurations.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .surface_graph import GraphError, SizeGuardError, principal_angle

EVEN_GUARD = 24
SUM_GUARD = 20
SPIN_GUARD = 20
MATCH_GUARD = 40
INV_GUARD = 12


# -- even subgraphs ----------------------------------------------------------


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


def enumerate_even(g):
    """All even edge subsets as bitmasks (exactly the cycle space of the graph)."""
    if g.ne > EVEN_GUARD:
        raise SizeGuardError(f"even-subgraph enumeration capped at {EVEN_GUARD} edges")
    basis, _, _ = _cycle_space_basis(g)
    subs = [0]
    for b in basis:
        subs += [s ^ b for s in subs]
    return subs


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
    odd = [v for v in odd_vertices]
    key = frozenset(excluded)
    if bases is None:
        bases = {}
    if key not in bases:
        bases[key] = _cycle_space_basis(g, key)
    basis, parent, _ = bases[key]
    base = 0
    if odd:
        if len(odd) % 2:
            return []
        for a, b in zip(odd[::2], odd[1::2]):
            m = _tree_path_mask(g, parent, a, b)
            if m is None:
                return []  # odd vertices in different components
            base ^= m
    subs = [base]
    for b in basis:
        subs += [s ^ b for s in subs]
    return subs


# -- loop resolution and the quadratic form -----------------------------------


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


def signed_cycle_sum(g, phi=None, x=None, rng=None):
    """Sum over even subgraphs of (-1)^q phi(xi) x(xi); the square root of det KW."""
    if g.ne > SUM_GUARD:
        raise SizeGuardError(f"signed cycle sum capped at {SUM_GUARD} edges")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    if phi is not None:
        pv = np.asarray(getattr(phi, "values", phi), dtype=complex)[0::2]
        if np.any(abs(pv.imag) > 1e-12) or np.any(abs(abs(pv.real) - 1) > 1e-12):
            raise GraphError("signed cycle sum needs a +-1 cochain")
        xs = xs * pv.real
    return float(_sum_terms(g, *_signed_evens(g, rng), xs).real)


# -- partition functions -------------------------------------------------------


def ising_partition(g, j=None, beta=1.0):
    """Spin, high-temperature and Kac-Ward evaluations of the Ising partition sum.

    The Kac-Ward value is the Pfaffian signed root of det KW on the plane and
    the Arf-signed half sum of the roots at the four +-1 characters on the
    torus.  ``j`` defaults to couplings with tanh(beta j) equal to the graph
    weights.  Returns a dict with the three values; they agree to ~1e-9
    relative.
    """
    from .operators import sqrt_det_pfaffian
    from .surface_graph import character_cochain

    if g.nv > SPIN_GUARD or g.ne > SUM_GUARD:
        raise SizeGuardError("partition-function oracle size guard exceeded")
    if not math.isfinite(beta):
        raise GraphError(f"beta must be finite, got {beta}")
    if j is None:
        if np.any(g.x >= 1.0) or np.any(g.x <= 0.0):
            raise GraphError("weights must be in (0,1) to infer couplings")
        if beta == 0:
            raise GraphError("couplings cannot be inferred from the weights "
                             "at beta = 0")
        j = np.arctanh(g.x) / beta
    j = np.asarray(j, dtype=float)
    xs = np.tanh(beta * j)

    z_spin = 0.0
    for s in range(1 << g.nv):
        energy = 0.0
        for k in range(g.ne):
            su = 1 - 2 * (s >> int(g.origin[2 * k]) & 1)
            sv = 1 - 2 * (s >> int(g.origin[2 * k + 1]) & 1)
            energy += j[k] * su * sv
        z_spin += math.exp(beta * energy)

    high = 0.0
    for mask in enumerate_even(g):
        w = 1.0
        for k in range(g.ne):
            if mask >> k & 1:
                w *= xs[k]
        high += w
    prefac = 2.0 ** g.nv * float(np.prod(np.cosh(beta * j)))
    z_high = prefac * high

    if g.genus == 0:
        z_kw = prefac * sqrt_det_pfaffian(g, None, xs)
    else:
        combo = 0.0
        for (z, w), sgn in ARF_SIGNS_GENUS1.items():
            phi = character_cochain(g, z, w)
            combo += sgn * sqrt_det_pfaffian(g, phi.values, xs)
        z_kw = prefac * 0.5 * combo
    return {"spins": z_spin, "high_temperature": z_high, "kac_ward": z_kw}


#: Arf-invariant signs of the four +-1 characters for the constant torus field.
ARF_SIGNS_GENUS1 = {(1, 1): -1.0, (-1, 1): 1.0, (1, -1): 1.0, (-1, -1): 1.0}


def _permanent(a):
    """Permanent as a sum over perfect matchings, by a subset DP over rows.

    ``partial`` maps each set of columns (a bitmask) used by the rows done so
    far to the total weight of the partial matchings using exactly those
    columns; each row extends it through its nonzero entries only.
    """
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


def dimer_partition(c, phis=None):
    """Weighted perfect matchings of the rectangle graph vs the Kasteleyn combo.

    Matchings are counted exactly as the permanent of the white-by-black
    weight matrix.  The determinant combination is det K on the plane and the
    Arf-signed half sum over the four +-1 characters on the torus; the match
    is up to a fixture-wide sign, which is returned.
    """
    from .linalg import lu_det
    from .operators import kasteleyn
    from .surface_graph import character_cochain

    g = c.g
    if 2 * g.nd > MATCH_GUARD:
        raise SizeGuardError(f"matching enumeration capped at {MATCH_GUARD} vertices")
    a = np.zeros((g.nd, g.nd))
    np.add.at(a, (c.w, c.b), c.y)
    z_match = _permanent(a)

    if g.genus == 0:
        combo = lu_det(kasteleyn(c, None, "omega"))
    else:
        combo = 0.0 + 0j
        for (z, w), sgn in ARF_SIGNS_GENUS1.items():
            phi = character_cochain(g, z, w)
            combo += sgn * lu_det(kasteleyn(c, phi.values, "omega"))
        combo *= 0.5
    if abs(combo.imag) > 1e-9 * max(1.0, abs(combo)):
        raise GraphError("Kasteleyn combination is not real")
    combo = combo.real
    sign = 1.0 if combo >= 0 else -1.0
    return {"matchings": z_match, "kasteleyn_combo": combo, "pinned_sign": sign}


# -- inverse-operator coefficients ----------------------------------------------


def _signed_evens(g, rng=None):
    """Every even subgraph (as a mask array) and its loop sign, resolved once."""
    masks = enumerate_even(g)
    signs = [q_sign(g, resolve(g, m, rng=rng)) for m in masks]
    return np.array(masks, dtype=np.int64), np.array(signs, dtype=float)


def _entry_terms(g, e1, e2, evens=None, rng=None, bases=None):
    """Monomials of the coefficient (e1, e2) of ``inverse_coefficient``: it is
    the sum of factor * prod_{k in mask} x_k.  Diagonal terms are the signed
    even subgraphs ``evens`` (``_signed_evens`` by default) avoiding the edge
    of e1; off-diagonal masks hold the edge of e1, whose weight x_{e1} they
    carry.  ``bases`` is the basis cache of ``enumerate_parity``.
    """
    k1, k2 = e1 >> 1, e2 >> 1
    if e1 == e2:
        masks, signs = _signed_evens(g, rng) if evens is None else evens
        keep = (masks >> k1 & 1) == 0
        return masks[keep], signs[keep]

    if e2 == (e1 ^ 1):
        # the open walk would have to leave and re-enter the marked midpoint
        # through the same half-edge; no subgraph realizes that
        return [], []

    t1, o2 = g.terminus(e1), int(g.origin[e2])
    odd = [] if t1 == o2 else [t1, o2]
    excl = [k1] if k1 == k2 else [k1, k2]
    masks, factors = [], []
    for mask in enumerate_parity(g, odd, excl, bases):
        res = resolve(g, mask, marks=(e1, e2), rng=rng)
        ro = rot_of_path(g, res.path, res.path_start, res.path_end)
        masks.append(mask | 1 << k1)
        factors.append(q_sign(g, res) * cmath.exp(0.5j * ro))
    return masks, factors


def _sum_terms(g, masks, factors, xs):
    """sum factor * prod_{k in mask} x_k for each weight row of ``xs`` (..., ne)."""
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(g.ne)) & 1
    mono = np.where(bits == 1, xs[..., None, :], 1.0).prod(axis=-1)
    return (mono * np.array(factors, dtype=complex)).sum(axis=-1)


def inverse_coefficient(g, e1, e2, x=None, rng=None):
    """Combinatorial coefficient of the (scaled) inverse Kac-Ward operator.

    Diagonal: the signed even-subgraph sum avoiding the edge of e1.
    Off-diagonal: a sum over two-leg configurations leaving the midpoint of e1
    toward its terminus and entering the midpoint of e2 from its origin, with
    weight x_{e1} x(xi), loop signs, and exp(i rot / 2) along the open walk.
    ``x`` of shape (..., ne) gives one coefficient per weight row.
    """
    if g.ne > INV_GUARD:
        raise SizeGuardError(f"inverse-coefficient oracle capped at {INV_GUARD} edges")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    return _sum_terms(g, *_entry_terms(g, e1, e2, rng=rng), xs)


def inverse_matrix(g, x=None, rng=None):
    """The full combinatorial matrix: equals sqrt(det KW) times KW^{-1}.

    ``x`` of shape (..., ne) gives a stack (..., nd, nd).  Each configuration
    is resolved once for the stack, each even subgraph once for the diagonal.
    """
    if g.ne > INV_GUARD:
        raise SizeGuardError(f"inverse-coefficient oracle capped at {INV_GUARD} edges")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    evens = _signed_evens(g, rng)
    bases = {}
    m = np.empty(xs.shape[:-1] + (g.nd, g.nd), dtype=complex)
    for e1 in range(g.nd):
        for e2 in range(g.nd):
            m[..., e1, e2] = _sum_terms(
                g, *_entry_terms(g, e1, e2, evens, rng, bases), xs)
    return m
