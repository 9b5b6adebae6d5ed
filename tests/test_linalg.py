import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import linalg
from kwlab.linalg import (_NB, cycle_det, lu_det, lu_solve, max_norm, normals,
                          pfaffian, sparse_max_norm, sparse_product,
                          stream_key, to_dense, uniforms)
from kwlab.operators import KERNEL_PROBES, kernel_probes
from kwlab.surface_graph import GraphError

from kernel_reference import null_space
from linalg_reference import det_cofactor
from pfaffian_reference import pfaffian_reference


def test_det_identity_and_diag():
    assert lu_det(np.eye(4)) == pytest.approx(1.0)
    assert lu_det(np.diag([2.0, 3.0])) == pytest.approx(6.0)


def test_det_vs_cofactor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(lu_det(a) - det_cofactor(a)) < 1e-10 * max(1, abs(lu_det(a)))


def test_det_singular():
    a = np.ones((3, 3))
    assert lu_det(a) == 0


def test_solve_roundtrip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 3))
    x = lu_solve(a, b)
    assert max_norm(a @ x - b) < 1e-12


def test_null_space_cases():
    assert null_space(np.eye(3)) == []
    ns = null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert len(ns) == 1
    v = ns[0]
    want = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(max_norm(v - want), max_norm(v + want)) < 1e-12


def test_solve_singular_raises_graph_error():
    with pytest.raises(GraphError):
        lu_solve(np.ones((3, 3), dtype=complex), np.ones(3))


def pfaffian_expansion(a):
    """Pfaffian by expansion along the first row (O(n!!)); test oracle."""
    n = len(a)
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    total = 0.0
    for j in range(1, n):
        rest = [k for k in range(1, n) if k != j]
        total += (-1) ** (j - 1) * a[0, j] * pfaffian_expansion(
            a[np.ix_(rest, rest)])
    return total


def _random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def test_pfaffian_vs_expansion():
    rng = np.random.default_rng(2)
    for n in range(9):
        for _ in range(4):
            a = _random_skew(rng, n)
            want = pfaffian_expansion(a)
            assert abs(pfaffian(a) - want) <= 1e-12 * max(1.0, abs(want))
    # sparse +-1 patterns need row swaps (zero entries below the pivot)
    for _ in range(20):
        a = np.triu(rng.integers(-1, 2, (8, 8)), 1).astype(float)
        a = a - a.T
        assert pfaffian(a) == pytest.approx(pfaffian_expansion(a), abs=1e-12)


def test_pfaffian_squares_to_det_and_special_cases():
    rng = np.random.default_rng(3)
    a = _random_skew(rng, 40)
    assert pfaffian(a) ** 2 == pytest.approx(lu_det(a).real, rel=1e-10)
    assert pfaffian(np.zeros((0, 0))) == 1.0
    assert pfaffian(_random_skew(rng, 5)) == 0.0
    assert pfaffian(np.zeros((4, 4))) == 0.0
    # Pf of the standard symplectic form is 1; reversing the pair order flips it
    j = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    assert pfaffian(j) == 1.0
    assert pfaffian(-j) == -1.0
    # the input is not modified
    b = a.copy()
    pfaffian(a)
    assert np.array_equal(a, b)


def _skew_pattern(rng, n, kind, density):
    """A random real skew matrix: normal entries, or integer ones (the sparse
    +-1 patterns leave zeros below pivots and force row swaps)."""
    if kind == "normal":
        a = rng.standard_normal((n, n))
    else:
        top = 1 if kind == "pm1" else 9
        a = rng.integers(-top, top + 1, (n, n))
    a = np.triu(a * (rng.random((n, n)) < density), 1).astype(float)
    return a - a.T


@settings(max_examples=250, deadline=None, derandomize=True)
@given(n=st.one_of(st.sampled_from([_NB - 1, _NB, _NB + 1, _NB + 2,
                                    2 * _NB + 1, 2 * _NB + 2, 3 * _NB + 2]),
                   st.integers(0, 2 * _NB + 5)),
       kind=st.sampled_from(["normal", "pm1", "int"]),
       density=st.floats(0.05, 1.0), zero=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pfaffian_panel_form_matches_the_unblocked_loop(n, kind, density,
                                                        zero, seed):
    rng = np.random.default_rng(seed)
    a = _skew_pattern(rng, n, kind, density)
    if zero and n:
        i = rng.integers(n)
        a[i] = a[:, i] = 0.0    # a zero pivot column
    want, got = pfaffian_reference(a), pfaffian(a)
    if want == 0.0:
        assert got == 0.0
        return
    # 1e-12 relative, widened by the condition number: rounding in either
    # elimination order grows with it (ill-conditioned +-1 patterns reach
    # 4e-12 at n = 66; over 3,000 random draws the difference stayed below
    # 2e-16 cond)
    cond = np.linalg.cond(a) if n else 1.0
    assert abs(got - want) <= max(1e-12, 1e-14 * cond) * abs(want)
    det = np.linalg.det(a)
    assert abs(got * got - det) <= max(1e-12, 1e-14 * cond) * 2 * abs(det)


def test_pfaffian_small_sizes_are_the_unblocked_loop_bitwise():
    rng = np.random.default_rng(7)
    for n in range(_NB + 1):
        for kind in ("normal", "pm1", "int"):
            for density in (0.2, 1.0):
                a = _skew_pattern(rng, n, kind, density)
                assert pfaffian(a).hex() == pfaffian_reference(a).hex()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(n=st.integers(0, _NB + 4), m=st.integers(1, 5),
       kind=st.sampled_from(["normal", "pm1", "int"]),
       density=st.floats(0.05, 1.0), zeros=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pfaffian_stack_is_each_matrix_alone(n, m, kind, density, zeros,
                                             seed):
    # each Pfaffian of a stack is bitwise its matrix's own: the unblocked
    # loop's at most _NB rows, the panel form above
    rng = np.random.default_rng(seed)
    stack = np.array([_skew_pattern(rng, n, kind, density) for _ in range(m)])
    for k in rng.integers(m, size=zeros) if n else ():
        i = rng.integers(n)
        stack[k, i] = stack[k, :, i] = 0.0    # a zero pivot column
    before = stack.copy()
    got = pfaffian(stack)
    assert got.shape == (m,) and got.dtype == np.float64
    assert np.array_equal(stack, before)
    alone = pfaffian_reference if n <= _NB else pfaffian
    assert [v.hex() for v in got.tolist()] == [
        float(alone(a)).hex() for a in stack]


def test_pfaffian_stack_shapes():
    rng = np.random.default_rng(3)
    stack = np.array([_skew_pattern(rng, 6, "normal", 1.0)
                      for _ in range(6)]).reshape(2, 3, 6, 6)
    got = pfaffian(stack)
    assert got.shape == (2, 3)
    assert got[1, 2] == pfaffian(stack[1, 2])
    assert np.array_equal(pfaffian(np.zeros((4, 5, 5))), np.zeros(4))
    assert np.array_equal(pfaffian(np.zeros((2, 0, 0))), np.ones(2))
    # a zero pivot column leaves +0.0, whatever the sign carried so far
    a = _skew_pattern(rng, 8, "normal", 1.0)
    a[5] = a[:, 5] = 0.0
    assert pfaffian(np.array([a, -a])).tolist() == [0.0, 0.0]
    assert all(math.copysign(1.0, v) > 0 for v in pfaffian(np.array([a, -a])))


def test_null_space_real_input_stays_real():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 4)) @ rng.standard_normal((4, 7))
    real = null_space(a)
    cplx = null_space(a.astype(complex))
    assert len(real) == len(cplx) == 3
    assert all(v.dtype == np.float64 for v in real)
    for v in real:
        assert max_norm(a @ v) < 1e-12
    # integer input is factored as real too
    assert null_space(np.array([[1, 1], [1, 1]]))[0].dtype == np.float64


def _random_entries(rng, shape, m):
    """m random entries with repeated (row, col) pairs; the last row and
    column stay empty."""
    rows = rng.integers(0, shape[0] - 1, m)
    cols = rng.integers(0, shape[1] - 1, m)
    rows[m // 2:] = rows[:m - m // 2]  # every pair at least twice
    cols[m // 2:] = cols[:m - m // 2]
    return rows, cols, rng.standard_normal(m) + 1j * rng.standard_normal(m)


def test_sparse_product_matches_dense():
    rng = np.random.default_rng(5)
    for n, k, m, ma, mb in ((6, 5, 4, 12, 10), (9, 3, 7, 30, 2), (4, 4, 4, 0, 6)):
        a = _random_entries(rng, (n, k), ma)
        b = _random_entries(rng, (k, m), mb)
        want = to_dense((n, k), a) @ to_dense((k, m), b)
        got = to_dense((n, m), sparse_product(a, b))
        assert max_norm(got - want) <= 1e-14
    # an inner index that B never has contributes nothing
    a = (np.array([0, 1]), np.array([2, 0]), np.array([1.0, 2.0]))
    b = (np.array([0]), np.array([1]), np.array([3.0]))
    assert [x.tolist() for x in sparse_product(a, b)] == [[1], [1], [6.0]]


def test_sparse_max_norm_over_the_union_of_supports():
    rng = np.random.default_rng(6)
    a = _random_entries(rng, (7, 5), 14)
    b = _random_entries(rng, (7, 5), 9)
    da, db = to_dense((7, 5), a), to_dense((7, 5), b)
    assert sparse_max_norm((1, a)) == pytest.approx(max_norm(da), abs=1e-15)
    assert sparse_max_norm((1, a), (-1, b)) == pytest.approx(
        max_norm(da - db), abs=1e-15)
    assert sparse_max_norm((2.0, a), (0.5j, b)) == pytest.approx(
        max_norm(2.0 * da + 0.5j * db), abs=1e-15)
    # an entry only one side has counts; duplicates cancel before the norm
    one = (np.array([0, 3, 3]), np.array([1, 2, 2]), np.array([1.0, 2.0, -2.0]))
    other = (np.array([0]), np.array([1]), np.array([1.0]))
    assert sparse_max_norm((1, one), (-1, other)) == 0.0
    stray = (np.array([0, 4]), np.array([1, 0]), np.array([1.0, 1e-9]))
    assert sparse_max_norm((1, stray), (-1, other)) == 1e-9
    empty = (np.array([], dtype=int),) * 2 + (np.array([]),)
    assert sparse_max_norm((1, empty)) == 0.0


@pytest.mark.parametrize("perm", (
    [0, 1, 2, 3],                  # fixed points
    [1, 0, 3, 2, 4],               # 2-cycles and a fixed point
    [1, 2, 3, 4, 5, 6, 0],         # one long cycle
    [2, 0, 1, 4, 3, 5]))           # mixed
def test_cycle_det_matches_dense_determinants(perm):
    rng = np.random.default_rng(len(perm))
    n = len(perm)
    for w in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
              np.where(np.arange(n) % 3 == 0, 0.0, rng.standard_normal(n)),
              np.zeros(n), np.ones(n)):
        a = np.eye(n, dtype=complex)
        a[np.arange(n), perm] -= w
        want = det_cofactor(a)
        assert abs(cycle_det(perm, w) - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(np.linalg.det(a) - want) <= 1e-12 * max(1.0, abs(want))
    assert cycle_det([], []) == 1.0


M64 = (1 << 64) - 1


def _unmix(z):
    """The inverse of ``linalg._mix`` on one 64-bit value."""
    def unshift(z, s):
        y = z
        for _ in range(64 // s + 1):
            y = z ^ (y >> s)
        return y
    z = unshift(z, 31)
    for shift, mult in ((27, 0x94D049BB133111EB), (30, 0xBF58476D1CE4E5B9)):
        z = unshift(z * pow(mult, -1, 1 << 64) & M64, shift)
    return z


def test_kernel_probes_read_the_pinned_stream():
    # the uniforms at key 0, as the probes were first built: integer
    # arithmetic and exact conversions, so the same bytes on every machine
    want = (
        "99fcba48f633e885b6bdff672f7b9b06fec9ff0a0888932dc0fa01c73434b245",
        "7a6c5713dde089476e942219f09bcd41a67a2bf27ffafc159614809992661590",
        "594aac1a2fc16ff20db02e0aac01e2777b499ad976e36f1419a529d55f3a7b03")
    for n, digest in zip((4, 64, 576), want):
        k = n * KERNEL_PROBES
        u = uniforms(0, 0, 2 * k)
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest
        # Box-Muller: the first k uniforms are the radii, the rest the angles
        r = np.sqrt(-2.0 * np.log(u[:k])) * np.cos(2.0 * math.pi * u[k:])
        assert np.array_equal(kernel_probes(n), r.reshape(n, KERNEL_PROBES))


def test_uniforms_lie_strictly_inside_the_unit_interval():
    # a key whose counter 0 mixes to a chosen output, at both ends of the
    # 53 bits that a uniform keeps; mixing is a bijection of 64-bit words
    # (from 2^52 on, the half rounds to even, and the cap keeps 2^53 - 1
    # from rounding up to 1)
    top = 1 - 2.0 ** -52
    for out, want in ((0, 2.0 ** -54), ((1 << 11) - 1, 2.0 ** -54),
                      (1 << 63, 0.5), (M64, top), (M64 - (1 << 11), top)):
        key = np.array([(_unmix(out) - int(linalg._GOLDEN)) & M64],
                       dtype=np.uint64)
        assert int(linalg._mix(key + linalg._GOLDEN)[0]) == out
        u = uniforms(key, 0, 1)
        assert u[0] == want and 0.0 < u[0] < 1.0
        assert np.isfinite(normals(key, 0, 1, 1)).all()
    u = uniforms(stream_key(3), 0, 1 << 16)
    assert 0.0 < u.min() and u.max() < 1.0 and abs(u.mean() - 0.5) < 0.01


def test_a_draw_reads_the_same_counters_alone():
    key = stream_key(7)
    u = uniforms(key, 0, 60)
    for lo, hi in ((0, 1), (13, 29), (59, 60)):
        assert np.array_equal(uniforms(key, lo, hi), u[lo:hi])
    z = normals(key, 40, 5, 6)
    for i in range(5):
        assert np.array_equal(normals(key, 40 + 12 * i, 1, 6), z[i:i + 1])


@pytest.mark.parametrize("seed", [0, 1, 2, 1000, M64, 1 << 64, 5 << 90])
def test_nearby_seeds_share_no_shifted_sequence(seed):
    # stream s + 1 is not stream s read j counters on, for any j: their
    # keys are not j golden apart for a j within 2^40 of 0
    inv = pow(int(linalg._GOLDEN), -1, 1 << 64)
    k0, k1 = (int(stream_key(s)[0]) for s in (seed, seed + 1))
    for j in ((k1 - k0) * inv & M64, (k1 - 0) * inv & M64):
        assert min(j, (1 << 64) - j) > 1 << 40
    a, b = (uniforms(stream_key(s), 0, 4096) for s in (seed, seed + 1))
    assert not np.intersect1d(a, b).size


def test_a_negative_seed_is_invalid_input():
    with pytest.raises(GraphError, match="seed must be non-negative, got -1"):
        stream_key(-1)
