import numpy as np
import pytest

from descentls.linalg import (
    DimensionMismatch,
    as_matrix,
    as_vector,
    load_matrix,
    load_vector,
    matvec,
    save_matrix,
    save_vector,
    spectral_norm_sq,
    transpose_matvec,
)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])


def test_matvec_examples():
    eye = np.eye(2)
    assert np.array_equal(matvec(eye, np.array([3.0, 0.5])), [3.0, 0.5])
    assert np.array_equal(matvec(np.diag([2.0, 1.0]), np.array([1.0, 1.0])), [2.0, 1.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(matvec(a, np.array([1.0, 2.0])), [3.0, 2.0])


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matvec(np.eye(2), np.ones(3))


def test_transpose_matvec_examples():
    assert np.array_equal(transpose_matvec(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(transpose_matvec(a, np.array([1.0, 0.0])), [1.0, 1.0])
    assert np.array_equal(transpose_matvec(np.diag([2.0, 1.0]), np.array([1.0, 1.0])), [2.0, 1.0])
    with pytest.raises(DimensionMismatch):
        transpose_matvec(np.ones((3, 2)), np.ones(2))


def test_spectral_norm_sq_examples():
    # The returned estimate carries the 1.001 safety factor.
    assert spectral_norm_sq(np.eye(2)) == pytest.approx(1.0, rel=2e-3)
    assert spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(4.0, rel=2e-3)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    exact = (3.0 + np.sqrt(5.0)) / 2.0
    assert spectral_norm_sq(a) == pytest.approx(exact, rel=2e-3)
    # Without the safety factor the power iteration matches the eigenvalue.
    assert spectral_norm_sq(a, safety=1.0) == pytest.approx(exact, rel=1e-9)


def test_spectral_norm_sq_zero_matrix():
    assert spectral_norm_sq(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("matrix,lower", [
    ([[2.0, -2.0], [0.1, 0.1]], 4.01),  # the all-ones start misses the top singular vector
    ([[1.0, -1.0]], 1.0),               # the all-ones start lies in the null space
])
def test_spectral_norm_sq_rejects_estimate_below_column_norms(matrix, lower):
    with pytest.raises(ValueError, match=f"largest squared column norm {lower!r}"):
        spectral_norm_sq(np.array(matrix))


def test_spectral_norm_sq_validates_arguments():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):
        spectral_norm_sq(np.eye(2), max_iters=0)


def test_spectral_norm_dominates_rayleigh_quotients():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 30))
    est = spectral_norm_sq(a)
    for _ in range(100):
        x = rng.standard_normal(30)
        x /= np.linalg.norm(x)
        assert est * (1 + 1e-6) >= np.linalg.norm(a @ x) ** 2


def test_adjoint_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((6, 9))
        x = rng.standard_normal(9)
        ax = matvec(a, x)
        lhs = float(transpose_matvec(a, ax) @ x)
        rhs = float(ax @ ax)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_matvec_linearity():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 4))
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    s, t = 0.7, -1.3
    lhs = matvec(a, s * x + t * y)
    rhs = s * matvec(a, x) + t * matvec(a, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 7))
    v = rng.standard_normal(7)
    save_matrix(a, tmp_path / "a.csv")
    save_vector(v, tmp_path / "v.csv")
    assert np.array_equal(load_matrix(tmp_path / "a.csv"), a)
    assert np.array_equal(load_vector(tmp_path / "v.csv"), v)
