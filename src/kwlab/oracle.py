"""Exact combinatorial ground truth: spins, even subgraphs, matchings, loop signs.

Everything here is independent of the dense operator pipeline so the two can
check each other: one spanning forest gives the GF(2) basis of the cycle space
and each vertex's path to its root, so the even subgraphs are the span of that
basis and the two-leg configurations of every inverse entry are one shift of
it, filtered to avoid the entry's two edges.  Loop signs come from
non-crossing resolutions and velocity rotation numbers, the dimer partition
function is a subset-DP permanent over the bipartite rectangle graph, and the
inverse-operator coefficients are assembled from marked two-leg
configurations.  ``_resolve`` resolves many (marked or unmarked)
configurations in one array pass: the cyclically adjacent pairing at every
vertex, the open strands walked in step with bitwise the phases of a
dart-by-dart walk, and the loops labelled by pointer jumping.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _draw_chunks
from .surface_graph import (TWO_PI, GraphError, SizeGuardError,
                            principal_angle)

EVEN_GUARD = 24
SUM_GUARD = 20
SPIN_GUARD = 20
MATCH_GUARD = 40
INV_GUARD = 12


# -- the spanning forest and even subgraphs ------------------------------------


def _forest(g):
    """One spanning forest of g, by depth-first search from each unseen vertex.

    Returns (basis, path, root): the GF(2) basis of the cycle space, one
    fundamental cycle per edge off the forest (as bitmasks); the edge mask
    of each vertex's forest path to its root (an int64 array); and each
    vertex's root, which labels its component.
    """
    ends = g.origin.reshape(-1, 2).tolist()
    adj = [[] for _ in range(g.nv)]
    for k, (u, v) in enumerate(ends):
        adj[u].append((k, v))
        adj[v].append((k, u))
    path, root = [None] * g.nv, [None] * g.nv
    tree = set()
    for r in range(g.nv):
        if root[r] is not None:
            continue
        path[r], root[r] = 0, r
        stack = [r]
        while stack:
            u = stack.pop()
            for (k, v) in adj[u]:
                if root[v] is None:
                    path[v], root[v] = path[u] ^ 1 << k, r
                    tree.add(k)
                    stack.append(v)
    basis = [1 << k ^ path[u] ^ path[v]
             for k, (u, v) in enumerate(ends) if k not in tree]
    return basis, np.array(path, dtype=np.int64), np.array(root)


def _span(basis):
    """Every GF(2) combination of ``basis``, in doubling order."""
    subs = [0]
    for b in basis:
        subs += [s ^ b for s in subs]
    return subs


def enumerate_even(g):
    """All even edge subsets as bitmasks (exactly the cycle space of the graph)."""
    if g.ne > EVEN_GUARD:
        raise SizeGuardError(f"even-subgraph enumeration capped at {EVEN_GUARD} edges")
    return _span(_forest(g)[0])


# -- loop resolution and the quadratic form -----------------------------------

def _turns(g):
    """``principal_angle(dirang[d2] - dirang[d1])`` at [d1, d2], for every pair
    of darts."""
    return principal_angle(g.dirang[None, :] - g.dirang[:, None])


def _resolve(g, masks, e1=None, e2=None):
    """The complex factor of each configuration: (-1)^q of its loops, times
    exp(i rot / 2) along its open strand when marked.

    ``masks`` (B,) are edge subsets.  With ``e1`` and ``e2`` (scalars or (B,)
    arrays) each configuration is entered leaving the midpoint of e1 toward
    its terminus and left entering the midpoint of e2 from its origin; both
    edges are absent from its mask, so the exit stub takes the slot of dart
    e1 ^ 1 and the entry stub that of dart e2.  At each vertex the present
    incidences pair off cyclically adjacent in angle order.  The strand
    rotation adds the ``principal_angle`` turns between e1, the strand's
    darts and e2 in walk order, so it is bitwise their sum in that order.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if e1 is not None:
        e1, e2 = (np.broadcast_to(e, masks.shape) for e in (e1, e2))
    turns, order = _turns(g), np.lexsort((g.dirang, g.origin))
    out = np.empty(len(masks), dtype=complex)
    # 64 bytes per configuration and dart bound every temporary of a batch
    for lo, hi in _draw_chunks(len(masks), 64 * g.nd):
        part = slice(lo, hi)
        ends = (None, None) if e1 is None else (e1[part], e2[part])
        sign, rot = _resolve_batch(g, turns, order, masks[part], *ends)
        out[part] = sign * np.exp(0.5j * rot)
    return out


def _resolve_batch(g, turns, order, masks, e1, e2):
    """(sign, rot) arrays of ``_resolve`` for one batch.

    Dart d of configuration b is entry b * nd + d of the flat arrays, so
    flipping the last bit of an entry reverses its dart.
    """
    nd, b = g.nd, len(masks)
    base = np.arange(b) * nd
    present = (masks[:, None] >> (np.arange(nd) >> 1) & 1).astype(bool)
    # the darts on loops: the stubs join the pairing, then leave with the
    # darts of the open strand
    loop = present.reshape(-1)
    if e1 is not None:
        exit_stub, entry_stub = base + (e1 ^ 1), base + e2
        loop[exit_stub] = loop[entry_stub] = True
    # in (configuration, origin, dirang) order every vertex holds an even
    # number of incidences, stubs included, so the partner of the i-th one
    # is the (i ^ 1)-th
    at = np.flatnonzero(present[:, order])
    start = at - at % nd
    inc = start + order[at - start]
    vertex = start * g.nv + g.origin[inc - start]
    if len(at) % 2 or np.any(vertex[0::2] != vertex[1::2]):
        raise GraphError("odd incidence count cannot be resolved")
    partner = np.arange(b * nd)
    partner[inc] = inc[np.arange(len(inc)) ^ 1]

    rot = np.zeros(b)
    if e1 is not None:
        loop[exit_stub] = loop[entry_stub] = False
        # walk every open strand from its exit stub, in step
        prev, cur = e1, partner[exit_stub]
        active = np.ones(b, dtype=bool)
        for _ in range(g.ne + 1):
            here = cur - base
            rot = np.where(active, rot + turns[prev, here], rot)
            active &= cur != entry_stub
            if not active.any():
                break
            loop[cur] = loop[cur ^ 1] = False
            prev, cur = here, np.where(active, partner[cur ^ 1], cur)
        else:
            raise GraphError("open strand did not reach the entry stub")

    # each loop is two orbits of d -> partner(d ^ 1) on the loop darts, one
    # per orientation; pointer jumping labels every orbit by its least dart
    darts = np.flatnonzero(loop)
    pos = np.empty(b * nd, dtype=np.intp)
    pos[darts] = np.arange(len(darts))
    succ = partner[darts ^ 1]
    turn = turns[darts % nd, succ % nd]
    nxt = pos[succ]
    label = darts
    for _ in range(g.ne.bit_length()):
        label = np.minimum(label, label[nxt])
        nxt = nxt[nxt]
    # one orientation per loop: the orbit holding the loop's least dart
    first = np.flatnonzero((label == darts) & (label[pos[darts ^ 1]] > darts))
    loop_rot = np.bincount(pos[label], turn, minlength=len(darts))[first]
    wind = np.rint(loop_rot / TWO_PI)
    # -exp(i rot / 2) of a loop is -(-1)^wind; a remainder above 2e-9 puts
    # its imaginary part above 1e-9
    if np.any(np.abs(loop_rot - TWO_PI * wind) > 2e-9):
        raise GraphError("loop sign did not land on +-1; inconsistent angle data")
    flips = np.bincount(darts[first] // nd, wind % 2 == 0, minlength=b)
    return 1.0 - 2.0 * (flips % 2), rot


# -- partition functions -------------------------------------------------------


def ising_partition(g, j=None, beta=1.0):
    """Spin, high-temperature and Kac-Ward evaluations of the Ising partition sum.

    The Kac-Ward value is the Pfaffian signed root of det KW on the plane and
    the Arf-signed half sum of the roots at the four +-1 characters on the
    torus, one ``sqrt_det_pfaffian`` stack over ``arf_characters``.  ``j``
    defaults to couplings with tanh(beta j) equal to the graph weights.
    Returns a dict with the three values; they agree to ~1e-9 relative.
    """
    from .operators import sqrt_det_pfaffian

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
        roots = sqrt_det_pfaffian(g, arf_characters(g), xs).tolist()
        combo = 0.0
        for sgn, root in zip(ARF_SIGNS_GENUS1.values(), roots):
            combo += sgn * root
        z_kw = prefac * 0.5 * combo
    return {"spins": z_spin, "high_temperature": z_high, "kac_ward": z_kw}


#: Arf-invariant signs of the four +-1 characters for the constant torus field.
ARF_SIGNS_GENUS1 = {(1, 1): -1.0, (-1, 1): 1.0, (1, -1): 1.0, (-1, -1): 1.0}


def arf_characters(g):
    """The cochain values of the four +-1 characters of ``ARF_SIGNS_GENUS1``,
    in its order, as one (4, nd) stack: z^s1 w^s2 is -1 exactly where the
    shift components taken at a -1 component sum to an odd number."""
    flips = (np.array(list(ARF_SIGNS_GENUS1)) < 0).astype(int)
    return (1 - 2 * (flips @ (g.shift & 1).T & 1)).astype(complex)


def _permanent(a):
    """Permanent as a sum over perfect matchings, by a subset DP over rows.

    ``partial`` maps each set of columns (a bitmask) used by the rows done so
    far to the total weight of the partial matchings using exactly those
    columns; each row extends it through its nonzero entries only.  A state
    that leaves unused a column no later row reaches (``need``) only spawns
    such states and is dropped, so every other state is bitwise the same.
    """
    a = np.asarray(a, dtype=float)
    rows = [[(1 << j, y) for j, y in enumerate(r) if y] for r in a.tolist()]
    need, must = [], (1 << a.shape[1]) - 1
    for cols in reversed(rows):
        need.append(must)
        for bit, _ in cols:
            must &= ~bit
    partial = {0: 1.0}
    for cols, must in zip(rows, reversed(need)):
        grown = {}
        for used, val in partial.items():
            for bit, y in cols:
                new = used | bit
                if new != used and new & must == must:
                    grown[new] = grown.get(new, 0.0) + val * y
        partial = grown
    return partial.get((1 << a.shape[1]) - 1, 0.0)


def dimer_partition(c):
    """Weighted perfect matchings of the rectangle graph vs the Kasteleyn combo.

    Matchings are counted exactly as the permanent of the white-by-black
    weight matrix.  The determinant combination is det K on the plane and the
    Arf-signed half sum over the four +-1 characters on the torus, one
    Kasteleyn stack over ``arf_characters`` factored by one
    ``np.linalg.det``; the match is up to a fixture-wide sign, which is
    returned.
    """
    from .linalg import lu_det
    from .operators import kasteleyn

    g = c.g
    if 2 * g.nd > MATCH_GUARD:
        raise SizeGuardError(f"matching enumeration capped at {MATCH_GUARD} vertices")
    a = np.zeros((g.nd, g.nd))
    np.add.at(a, (c.w, c.b), c.y)
    z_match = _permanent(a)

    if g.genus == 0:
        combo = lu_det(kasteleyn(c, None, "omega"))
    else:
        dets = np.linalg.det(kasteleyn(c, arf_characters(g), "omega"))
        combo = 0.0 + 0j
        for sgn, det in zip(ARF_SIGNS_GENUS1.values(), dets.tolist()):
            combo += sgn * det
        combo *= 0.5
    if abs(combo.imag) > 1e-9 * max(1.0, abs(combo)):
        raise GraphError("Kasteleyn combination is not real")
    combo = combo.real
    sign = 1.0 if combo >= 0 else -1.0
    return {"matchings": z_match, "kasteleyn_combo": combo, "pinned_sign": sign}


# -- inverse-operator coefficients ----------------------------------------------


def _entry_terms(g, entries):
    """Monomials of the coefficients (e1, e2) in ``entries`` of
    ``inverse_coefficient``: a (masks, factors) pair per entry, whose value is
    the sum of factor * prod_{k in mask} x_k.

    One spanning forest serves every entry.  The edge subsets with odd
    vertices exactly t(e1) and o(e2) are the coset path[t(e1)] ^ path[o(e2)]
    of the cycle space (none when the two lie in different components), so
    every entry's candidates are one XOR of an (entries, evens) array, kept
    where they avoid the edges of e1 and e2.  Diagonal terms are the signed
    even subgraphs avoiding the edge of e1; off-diagonal masks hold the edge
    of e1, whose weight x_{e1} they carry.  The configurations of all
    entries are resolved together, in ``_resolve`` batches.
    """
    basis, path, root = _forest(g)
    evens = np.array(_span(basis), dtype=np.int64)
    e1, e2 = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    t1, o2 = g.origin[e1 ^ 1], g.origin[e2]
    # e1 and e2 on one edge: the diagonal is filled in below, and at
    # e2 = e1 ^ 1 the open walk would have to leave and re-enter the marked
    # midpoint through the same half-edge, which no subgraph does
    marked = (e1 >> 1 != e2 >> 1) & (root[t1] == root[o2])
    cand = (path[t1] ^ path[o2])[:, None] ^ evens
    avoid = (1 << (e1 >> 1) | 1 << (e2 >> 1))[:, None]
    entry, pick = np.nonzero(marked[:, None] & (cand & avoid == 0))
    masks = cand[entry, pick]
    factors = _resolve(g, masks, e1[entry], e2[entry])
    masks |= 1 << (e1[entry] >> 1)
    ends = np.cumsum(np.bincount(entry, minlength=len(e1))).tolist()
    terms = [(masks[a:b], factors[a:b]) for a, b in zip([0] + ends, ends)]
    diagonal = np.flatnonzero(e1 == e2)
    if len(diagonal):
        signs = _resolve(g, evens)
    for i in diagonal:
        keep = (evens >> (e1[i] >> 1) & 1) == 0
        terms[i] = (evens[keep], signs[keep])
    return terms


def _sum_terms(g, terms, xs):
    """sum factor * prod_{k in mask} x_k of each (masks, factors) pair in
    ``terms``, for each weight row of ``xs`` (..., ne): shape (..., len(terms)).
    """
    lens = np.array([len(m) for m, _ in terms])
    bits = (np.concatenate([m for m, _ in terms])[:, None] >> np.arange(g.ne)) & 1
    vals = (np.where(bits == 1, xs[..., None, :], 1.0).prod(axis=-1)
            * np.concatenate([f for _, f in terms]))
    out = np.zeros(xs.shape[:-1] + (len(terms),), dtype=complex)
    # each nonempty sum runs up to the start of the next nonempty one
    full = lens > 0
    out[..., full] = np.add.reduceat(vals, (np.cumsum(lens) - lens)[full], axis=-1)
    return out


def inverse_coefficient(g, e1, e2, x=None):
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
    return _sum_terms(g, _entry_terms(g, [(e1, e2)]), xs)[..., 0]


def inverse_matrix(g, x=None):
    """The full combinatorial matrix: equals sqrt(det KW) times KW^{-1}.

    ``x`` of shape (..., ne) gives a stack (..., nd, nd).  Each configuration
    is resolved once for the stack, all of them in ``_resolve`` batches, and
    each even subgraph once for the diagonal; the sums run one row at a time.
    """
    if g.ne > INV_GUARD:
        raise SizeGuardError(f"inverse-coefficient oracle capped at {INV_GUARD} edges")
    xs = g.x if x is None else np.asarray(x, dtype=float)
    terms = _entry_terms(g, [(e1, e2) for e1 in range(g.nd)
                             for e2 in range(g.nd)])
    m = np.empty(xs.shape[:-1] + (g.nd, g.nd), dtype=complex)
    for e1 in range(g.nd):
        m[..., e1, :] = _sum_terms(g, terms[e1 * g.nd:(e1 + 1) * g.nd], xs)
    return m
