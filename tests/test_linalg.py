import numpy as np
import pytest

from kwlab.linalg import det_cofactor, lu_det, lu_solve, max_norm, null_space
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
