import numpy as np
import pytest

from kwlab.linalg import (det_cofactor, lu_det, lu_solve, max_norm, null_space,
                          pfaffian)
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
