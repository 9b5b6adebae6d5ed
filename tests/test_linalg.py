import numpy as np
import pytest

from kwlab.linalg import (cycle_det, det_cofactor, lu_det, lu_solve, max_norm,
                          null_space, pfaffian, sparse_max_norm,
                          sparse_product, to_dense)
from kwlab.surface_graph import GraphError


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
