import cmath
import math

import numpy as np
import pytest

from kwlab import fixtures as fx
from kwlab.surface_graph import (GraphError, SizeGuardError, build_torus,
                                 character_cochain, dual)
from kwlab.derived import build_C
from kwlab.linalg import lu_solve, max_norm
from kwlab.operators import kac_ward, sqrt_det_pfaffian
from kwlab import linalg, oracle
from kwlab.oracle import (_entry_terms, _permanent, _resolve, dimer_partition,
                          enumerate_even, inverse_coefficient, inverse_matrix,
                          ising_partition)

from character_reference import (ising_combo_reference,
                                 kasteleyn_combo_reference)
from oracle_reference import (LoopResolution, _ikey, _noncrossing_pairing,
                              config_factor, enumerate_parity,
                              permanent_reference, q_sign, resolve,
                              rot_of_loop, rot_of_path, signed_cycle_sum)
from tracked_root import sqrt_det_tracked


def bits(mask, n):
    return [k for k in range(n) if mask >> k & 1]


def two_component_torus():
    """Two 1x1 tori on one lattice: 2 vertices, 4 loops, 2 faces, genus 1."""
    return build_torus([[1.0, 0.0], [0.0, 1.0]], [(0.0, 0.0), (0.5, 0.5)],
                       [(0, 0, (1, 0)), (0, 0, (0, 1)),
                        (1, 1, (1, 0)), (1, 1, (0, 1))],
                       [0.3, 0.4, 0.35, 0.45])


def test_even_counts():
    assert len(enumerate_even(fx.triangle(0.5))) == 2
    assert len(enumerate_even(fx.cycle4(0.5))) == 2
    assert len(enumerate_even(fx.rect_torus(0.3, 0.4))) == 4
    for g in (fx.square_torus(2, 0.4), fx.honeycomb_torus((0.3, 0.4, 0.5)),
              fx.square_patch(2, 2)):
        assert len(enumerate_even(g)) == 2 ** (g.ne - g.nv + 1)


def test_even_guard():
    with pytest.raises(SizeGuardError):
        enumerate_even(fx.square_torus(4, 0.4))


def test_resolve_triangle_loop():
    g = fx.triangle(0.5)
    res = resolve(g, 0b111)
    assert len(res.loops) == 1 and len(res.loops[0]) == 3
    assert abs(abs(rot_of_loop(g, res.loops[0])) - 2 * math.pi) < 1e-12
    assert q_sign(g, res) == 1  # planar simple loop


def test_resolve_torus_loops():
    g = fx.rect_torus(0.3, 0.4)
    # a single noncontractible straight loop: rot 0, sign -1
    res = resolve(g, 0b01)
    assert len(res.loops) == 1
    assert rot_of_loop(g, res.loops[0]) == pytest.approx(0.0)
    assert q_sign(g, res) == -1
    # both loops through the degree-4 vertex resolve without crossings into
    # a single diagonal-class curve
    res = resolve(g, 0b11)
    assert len(res.loops) == 1
    assert q_sign(g, res) == -1


def test_resolve_marked_minimal_path():
    g = fx.path_graph(3, 0.5)
    # empty subgraph, marks at consecutive darts sharing the middle vertex
    res = resolve(g, 0, marks=(0, 2))
    assert res.loops == [] and res.path == []


def test_q_sign_resolution_independent():
    rng = np.random.default_rng(11)
    for g in (fx.square_torus(2, 0.5), fx.honeycomb_torus((0.3, 0.4, 0.5))):
        evens = enumerate_even(g)
        for _ in range(100):
            mask = evens[rng.integers(len(evens))]
            base = q_sign(g, resolve(g, mask))
            alt = q_sign(g, resolve(g, mask, rng=rng))
            assert alt == base


def test_signed_cycle_sum_examples():
    x = 0.37
    assert signed_cycle_sum(fx.triangle(x)) == pytest.approx(1 + x ** 3)
    assert signed_cycle_sum(fx.triangle(0.0)) == pytest.approx(1.0)
    x, y = 0.3, 0.45
    g = fx.rect_torus(x, y)
    assert signed_cycle_sum(g) == pytest.approx(1 - x - y - x * y)
    # +-1 characters flip the winding loops
    vals = {(-1, 1): 1 + x - y + x * y, (1, -1): 1 - x + y + x * y,
            (-1, -1): 1 + x + y - x * y}
    for zw, want in vals.items():
        phi = character_cochain(g, *zw)
        assert signed_cycle_sum(g, phi.values) == pytest.approx(want)
        assert signed_cycle_sum(g, phi) == pytest.approx(want)
    with pytest.raises(GraphError):
        signed_cycle_sum(g, np.full(g.nd, 1j))


def test_signed_cycle_sum_squares_to_det():
    rng = np.random.default_rng(12)
    from kwlab.linalg import lu_det
    for g in (fx.triangle(0.2), fx.cycle4(0.8), fx.square_torus(2, 0.4),
              fx.honeycomb_torus((0.5, 0.6, 0.7))):
        xs = rng.uniform(0.05, 0.95, g.ne)
        s = signed_cycle_sum(g, None, xs)
        d = lu_det(kac_ward(g, None, xs))
        assert abs(s * s - d) < 1e-9 * max(1.0, abs(d))


def test_enumerate_parity():
    g = fx.triangle(0.5)
    masks = enumerate_parity(g, [0, 1], excluded=[0])
    # odd at vertices 0 and 1 avoiding edge 0: the two-edge path through 2
    assert len(masks) == 1 and bits(masks[0], 3) == [1, 2]
    assert enumerate_parity(g, [0], excluded=[]) == []


def resolve_reference(g, edge_mask, marks=None, rng=None):
    """``resolve`` pairing the incidences at every vertex, empty ones too."""
    EXIT, ENTRY = -1, -2
    inc = {v: [] for v in range(g.nv)}
    for k in range(g.ne):
        if edge_mask >> k & 1:
            inc[int(g.origin[2 * k])].append(2 * k)
            inc[int(g.origin[2 * k + 1])].append(2 * k + 1)
    if marks is not None:
        inc[g.terminus(marks[0])].append((EXIT, marks[0] ^ 1))
        inc[int(g.origin[marks[1]])].append((ENTRY, marks[1]))
    succ = {}
    for v, items in inc.items():
        items = sorted(items, key=lambda it: g.dirang[
            it[1] if isinstance(it, tuple) else it])
        for a, b in _noncrossing_pairing(items, rng):
            succ[_ikey(a)] = b
            succ[_ikey(b)] = a
    used, loops, path = set(), [], None
    if marks is not None:
        path, cur = [], succ[("EXIT",)]
        while not isinstance(cur, tuple):
            path.append(cur)
            used.add(cur >> 1)
            cur = succ[(cur ^ 1,)]
    for k in range(g.ne):
        if edge_mask >> k & 1 and k not in used:
            cyc, cur = [], 2 * k
            while True:
                cyc.append(cur)
                used.add(cur >> 1)
                cur = succ[(cur ^ 1,)]
                if cur == 2 * k:
                    break
            loops.append(cyc)
    if marks is None:
        return LoopResolution(loops)
    return LoopResolution(loops, path, float(g.dirang[marks[0]]),
                          float(g.dirang[marks[1]]))


def _resolutions(g):
    """Every even subgraph and every marked configuration of the inverse."""
    cases = [(mask, None) for mask in enumerate_even(g)]
    for e1 in range(g.nd):
        for e2 in range(g.nd):
            if e2 in (e1, e1 ^ 1):
                continue
            t1, o2 = g.terminus(e1), int(g.origin[e2])
            odd = [] if t1 == o2 else [t1, o2]
            for mask in enumerate_parity(g, odd, {e1 >> 1, e2 >> 1}):
                cases.append((mask, (e1, e2)))
    return cases


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("g", [fx.square_patch(2, 2), fx.square_torus(2)],
                         ids=["patch", "square2"])
def test_resolve_matches_reference(g, seed):
    # pairing only the vertices that carry strands changes no resolution and,
    # with rng, no draw: both generators end in the same state
    cases = _resolutions(g)
    assert len(cases) > 1000
    rng = rng_ref = None
    if seed is not None:
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for mask, marks in cases:
        got = resolve(g, mask, marks, rng)
        want = resolve_reference(g, mask, marks, rng_ref)
        assert vars(got) == vars(want)
    if seed is not None:
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def _array_factors(g, cases):
    """``_resolve`` on the unmarked and on the marked cases, in case order."""
    plain = [m for m, marks in cases if marks is None]
    marked = [(m, *marks) for m, marks in cases if marks is not None]
    got = list(_resolve(g, plain))
    masks, e1s, e2s = np.array(marked).T
    return got + list(_resolve(g, masks, e1s, e2s))


@pytest.mark.parametrize("g", [fx.square_patch(2, 2), fx.square_torus(2),
                               fx.honeycomb_torus((0.3, 0.4, 0.5)),
                               fx.rect_torus_mn(2, 3, 0.3, 0.4)],
                         ids=["patch", "square2", "honeycomb", "rect23"])
def test_array_resolver_matches_loop_form(g):
    cases = _resolutions(g)
    cases.sort(key=lambda case: case[1] is not None)
    want = [config_factor(g, mask, marks) for mask, marks in cases]
    got = _array_factors(g, cases)
    # bitwise: the same loop signs and the same strand phases
    assert got == want


def test_array_resolver_batches(monkeypatch):
    g = fx.square_torus(2, 0.4)
    cases = sorted(_resolutions(g), key=lambda case: case[1] is not None)
    whole = _array_factors(g, cases)
    # seven configurations per pass: batches split every group of cases
    monkeypatch.setattr(linalg, "_DRAW_CHUNK_BYTES", 7 * 64 * g.nd)
    assert _array_factors(g, cases) == whole
    assert len(_resolve(g, [])) == 0
    assert len(_resolve(g, [], 0, 2)) == 0


def test_array_resolver_rejects_odd_vertices():
    g = fx.triangle(0.5)
    with pytest.raises(GraphError, match="odd incidence"):
        _resolve(g, [0b001])
    with pytest.raises(GraphError, match="odd incidence"):
        # marks at darts whose stubs leave vertex 1 and vertex 2 odd
        _resolve(g, [0], 0, 4)


def test_inverse_matrix_builds_one_forest(monkeypatch):
    g = fx.square_patch(2, 2)
    built = []
    original = oracle._forest
    monkeypatch.setattr(oracle, "_forest",
                        lambda g: built.append(g) or original(g))
    got = inverse_matrix(g)
    assert len(built) == 1
    monkeypatch.undo()
    assert np.array_equal(got, inverse_matrix(g))


def test_two_component_torus():
    g = two_component_torus()
    assert (g.nv, g.ne, len(g.faces), g.genus) == (2, 4, 2, 1)
    # no configuration joins the two components: the inverse is block diagonal
    m = inverse_matrix(g)
    assert np.all(m[:4, 4:] == 0) and np.all(m[4:, :4] == 0)
    assert np.any(m[:4, 2:4] != 0)


@pytest.mark.parametrize("g", [fx.triangle(0.3), fx.square_patch(2, 2),
                               fx.square_torus(2),
                               fx.honeycomb_torus((0.3, 0.4, 0.5)),
                               fx.rect_torus_mn(2, 3, 0.3, 0.4),
                               two_component_torus()],
                         ids=["triangle", "patch", "square2", "honeycomb",
                              "rect23", "two"])
def test_entry_terms_match_enumerate_parity(g):
    entries = [(e1, e2) for e1 in range(g.nd) for e2 in range(g.nd)]
    evens = enumerate_even(g)
    for (e1, e2), (masks, _) in zip(entries, _entry_terms(g, entries)):
        k1 = e1 >> 1
        if e1 == e2:
            want = [m for m in evens if not m >> k1 & 1]
        elif e2 == e1 ^ 1:
            want = []
        else:
            t1, o2 = g.terminus(e1), int(g.origin[e2])
            odd = [] if t1 == o2 else [t1, o2]
            want = [m | 1 << k1
                    for m in enumerate_parity(g, odd, [k1, e2 >> 1])]
        # the same configurations, each once
        assert sorted(masks.tolist()) == sorted(want)


def test_ising_three_way():
    for g, beta in ((fx.single_edge(0.4), 0.7), (fx.triangle(0.46), 0.5),
                    (fx.cycle4(0.3), 0.9),
                    (fx.square_torus(2, math.tanh(0.4)), 0.4)):
        z = ising_partition(g, beta=beta)
        ref = z["spins"]
        assert z["high_temperature"] == pytest.approx(ref, rel=1e-9)
        assert z["kac_ward"] == pytest.approx(ref, rel=1e-9)


def test_ising_single_edge_closed_form():
    beta = 0.7
    z = ising_partition(fx.single_edge(0.4), j=np.array([1.0]), beta=beta)
    want = 2 * math.exp(beta) + 2 * math.exp(-beta)
    assert z["spins"] == pytest.approx(want, rel=1e-12)
    assert z["kac_ward"] == pytest.approx(want, rel=1e-9)


def test_ising_guard():
    with pytest.raises(SizeGuardError):
        ising_partition(fx.square_torus(4, 0.4))


def test_dimer_matchings_vs_kasteleyn():
    for g in (fx.triangle(0.3), fx.cycle4(0.8), fx.rect_torus(0.3, 0.45),
              fx.square_torus(2, 0.35)):
        rep = dimer_partition(build_C(g))
        assert rep["matchings"] > 0
        assert abs(rep["kasteleyn_combo"]) == pytest.approx(
            rep["matchings"], rel=1e-9)


def test_dimer_positive_at_zero_weights():
    rep = dimer_partition(build_C(fx.triangle(0.0)))
    assert rep["matchings"] > 0


def test_dimer_planar_is_single_det():
    g = fx.cycle4(0.62)
    rep = dimer_partition(build_C(g))
    from kwlab.linalg import lu_det
    from kwlab.operators import kasteleyn
    d = lu_det(kasteleyn(build_C(g), None, "omega"))
    assert abs(d) == pytest.approx(rep["matchings"], rel=1e-12)


#: tori for the character stacks (``square_torus(1)``'s loops continue into
#: themselves, ``two_component_torus`` has two), and their duals
CHARACTER_TORI = [fx.rect_torus(0.3, 0.45),
                  fx.honeycomb_torus((0.3, 0.4, 0.5)),
                  fx.square_torus(1, 0.4), fx.square_torus(2, 0.35),
                  two_component_torus()]
CHARACTER_TORI += [dual(g) for g in CHARACTER_TORI[:4]]


@pytest.mark.parametrize("g", CHARACTER_TORI)
def test_ising_character_stack_is_bitwise_the_loop(g):
    # the stored couplings, zero and negative ones: one root stack against
    # one Cochain and one root per character
    rng = np.random.default_rng(41)
    beta = 0.6
    for j in (None, np.zeros(g.ne), rng.uniform(-1.5, 1.5, g.ne)):
        got = ising_partition(g, j=j, beta=beta)["kac_ward"]
        js = np.arctanh(g.x) / beta if j is None else j
        prefac = 2.0 ** g.nv * float(np.prod(np.cosh(beta * js)))
        want = prefac * 0.5 * ising_combo_reference(g, np.tanh(beta * js))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("g", CHARACTER_TORI + [
    fx.rect_torus(0.0, 0.4), fx.square_torus(2, 0.0)])
def test_dimer_kasteleyn_stack_is_bitwise_the_loop(g):
    # zero weights included: one Kasteleyn stack and one det
    got = dimer_partition(build_C(g))["kasteleyn_combo"]
    want = kasteleyn_combo_reference(build_C(g))
    assert np.float64(got).tobytes() == np.float64(want.real).tobytes()


def test_dimer_guard():
    with pytest.raises(SizeGuardError):
        dimer_partition(build_C(fx.square_torus(3, 0.4)))


def test_inverse_matrix_identity_at_zero():
    g = fx.cycle4(0.0)
    assert max_norm(inverse_matrix(g) - np.eye(g.nd)) < 1e-14


def test_inverse_matrix_vs_dense():
    for g in (fx.single_edge(0.4), fx.triangle(0.3), fx.path_graph(3, 0.6),
              fx.cycle4(0.8), fx.rect_torus(0.2, 0.2),
              fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.35)):
        kw = kac_ward(g)
        expected = sqrt_det_tracked(g) * lu_solve(kw, np.eye(g.nd, dtype=complex))
        assert max_norm(inverse_matrix(g) - expected) < 1e-9


def test_inverse_matrix_at_the_guard():
    g = fx.rect_torus_mn(2, 3, 0.3, 0.4)
    assert g.ne == oracle.INV_GUARD
    expected = sqrt_det_pfaffian(g) * lu_solve(kac_ward(g),
                                               np.eye(g.nd, dtype=complex))
    assert max_norm(inverse_matrix(g) - expected) < 1e-9
    with pytest.raises(SizeGuardError):
        inverse_matrix(fx.square_patch(3, 3))


def ryser_permanent_reference(a):
    """Permanent by Ryser's formula with Gray-code subset updates."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    row = np.zeros(n)
    gray = 0
    sign = 1 if n % 2 == 0 else -1
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = new_gray ^ gray
        col = bit.bit_length() - 1
        if new_gray & bit:
            row += a[:, col]
        else:
            row -= a[:, col]
        gray = new_gray
        parity = -1 if (bin(new_gray).count("1") % 2) else 1
        total += sign * parity * np.prod(row)
    return total


def _weight_matrix(g):
    c = build_C(g)
    a = np.zeros((g.nd, g.nd))
    np.add.at(a, (c.w, c.b), c.y)
    return a


def test_permanent_vs_ryser():
    mats = [_weight_matrix(g) for g in (
        fx.triangle(0.3), fx.rect_torus(0.3, 0.45),
        fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(1))]
    rng = np.random.default_rng(21)
    for n in range(1, 11):
        mats.append(rng.uniform(-1.0, 1.0, (n, n)))
        mats.append(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.3))
    for a in mats:
        want = ryser_permanent_reference(a)
        assert _permanent(a) == pytest.approx(want, rel=1e-12, abs=1e-12)
    # at n = 16 Ryser's 2^16 alternating terms leave it 4.6e-12 (relative)
    # off the exact 17 that the subset DP returns
    a = _weight_matrix(fx.square_torus(2))
    assert _permanent(a) == pytest.approx(ryser_permanent_reference(a),
                                          rel=1e-11)
    assert _permanent(np.zeros((0, 0))) == 1.0
    assert _permanent(np.zeros((3, 3))) == 0.0


def test_permanent_is_the_array_form():
    # the rows read as lists run the same DP in the same order
    rng = np.random.default_rng(5)
    mats = [_weight_matrix(g) for g in (
        fx.triangle(0.3), fx.rect_torus(0.3, 0.45),
        fx.honeycomb_torus((0.3, 0.4, 0.5)), fx.square_torus(2, 0.37))]
    for n in range(0, 11):
        mats.append(rng.uniform(-1.0, 1.0, (n, n))
                    * (rng.random((n, n)) < rng.uniform(0.2, 1.0)))
    for a in mats:
        assert _permanent(a).hex() == float(permanent_reference(a)).hex()


def test_dimer_matchings_exact_on_square_torus():
    # every matching term is positive, so no cancellation error remains
    assert dimer_partition(build_C(fx.square_torus(2)))["matchings"] == 17.0


def inverse_coefficient_reference(g, e1, e2, xs):
    """The per-entry oracle: one enumeration and resolution per coefficient."""
    def weight(mask):
        w = 1.0
        for k in range(g.ne):
            if mask >> k & 1:
                w *= xs[k]
        return w

    k1, k2 = e1 >> 1, e2 >> 1
    total = 0.0 + 0j
    if e1 == e2:
        for mask in enumerate_even(g):
            if not mask >> k1 & 1:
                total += q_sign(g, resolve(g, mask)) * weight(mask)
        return total
    if e2 == (e1 ^ 1):
        return total
    t1, o2 = g.terminus(e1), int(g.origin[e2])
    odd = [] if t1 == o2 else [t1, o2]
    excl = [k1] if k1 == k2 else [k1, k2]
    for mask in enumerate_parity(g, odd, excluded=excl):
        res = resolve(g, mask, marks=(e1, e2))
        ro = rot_of_path(g, res.path, res.path_start, res.path_end)
        total += (q_sign(g, res) * cmath.exp(0.5j * ro) * xs[k1]
                  * weight(mask))
    return total


@pytest.mark.parametrize("g", [fx.triangle(0.3), fx.square_patch(2, 2),
                               fx.rect_torus(0.3, 0.4), fx.square_torus(2),
                               two_component_torus()],
                         ids=["triangle", "patch", "rect", "square2", "two"])
def test_inverse_matrix_vs_per_entry_reference(g):
    rng = np.random.default_rng(22)
    xs = np.stack([g.x, rng.uniform(0.05, 0.95, g.ne), np.zeros(g.ne)])
    got = inverse_matrix(g, xs)
    assert got.shape == (3, g.nd, g.nd)
    for x, m in zip(xs, got):
        ref = np.array([[inverse_coefficient_reference(g, e1, e2, x)
                         for e2 in range(g.nd)] for e1 in range(g.nd)])
        assert max_norm(m - ref) <= 1e-15
        assert np.array_equal(inverse_matrix(g, x), m)
    e = g.nd - 1
    assert inverse_coefficient(g, e, e, xs) == pytest.approx(got[:, e, e],
                                                             abs=1e-15)
    assert inverse_coefficient(g, 0, e, xs[1]) == got[1, 0, e]
