import numpy as np
import pytest

from descentls.linalg import (
    SPECTRAL_SAFETY,
    DimensionMismatch,
    as_matrix,
    as_vector,
    load_matrix,
    load_vector,
    matvec,
    norm,
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


def exact_lambda_max(a):
    return np.linalg.eigvalsh(a.T @ a)[-1]


def test_spectral_norm_sq_examples():
    # The returned value is the exact lambda_max times the safety factor.
    assert spectral_norm_sq(np.eye(2)) == pytest.approx(SPECTRAL_SAFETY, rel=1e-15)
    assert spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(SPECTRAL_SAFETY * 4.0, rel=1e-15)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    exact = (3.0 + np.sqrt(5.0)) / 2.0
    assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-14)
    rng = np.random.default_rng(5)
    for shape in [(30, 12), (12, 30)]:  # tall (Gram A^T A) and wide (Gram A A^T)
        a = rng.standard_normal(shape)
        exact = exact_lambda_max(a)
        assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-12)
        assert spectral_norm_sq(a) >= exact


def test_spectral_norm_sq_zero_matrix():
    assert spectral_norm_sq(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("matrix,exact", [
    # Power iteration from the all-ones vector converges to the wrong eigenvalue
    # here: that vector is orthogonal to the top singular vector, or in the null space.
    ([[2.0, -2.0], [0.1, 0.1]], 8.0),
    ([[1.0, -1.0]], 2.0),
])
def test_spectral_norm_sq_bounds_counterexamples(matrix, exact):
    a = np.array(matrix)
    assert exact_lambda_max(a) == pytest.approx(exact, rel=1e-15)
    assert spectral_norm_sq(a) >= exact
    assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-15)


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


def same_bits(u, v):
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_dot_forms_equal_numpy_bit_for_bit(order, scale):
    # matvec, transpose_matvec and norm call ndarray.dot for less dispatch;
    # they must round exactly as a @ x, a.T @ r and np.linalg.norm do.  At
    # 1e200 and 1e-200 the sums of squares overflow to inf or underflow to
    # 0.0, the same on both sides (numpy warns of the overflow on both).
    rng = np.random.default_rng(17)
    for rows, cols in [(1, 1), (3, 5), (16, 32), (32, 64), (65, 33), (256, 17)]:
        a = np.asarray(rng.standard_normal((rows, cols)), order=order)
        x = scale * rng.standard_normal(cols)
        x[rng.random(cols) < 0.8] = 0.0  # sparse, as IHT iterates are
        r = scale * rng.standard_normal(rows)
        assert same_bits(matvec(a, x), a @ x)
        assert same_bits(transpose_matvec(a, r), a.T @ r)
        for v in (x, r, a @ x, a.T @ r, x[x != 0.0]):
            with np.errstate(over="ignore"):
                got, want = norm(v), np.linalg.norm(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()


def test_norm_edge_cases():
    # g[mask] is empty on an empty support.
    assert norm(np.ones(3)[np.zeros(3, dtype=bool)]) == 0.0 == np.linalg.norm(np.empty(0))
    with np.errstate(over="ignore"):
        assert norm(np.array([1e200, 1.0])) == np.inf == np.linalg.norm(np.array([1e200, 1.0]))
    assert norm(np.array([1e-200, -1e-200])) == 0.0 == np.linalg.norm(np.array([1e-200, -1e-200]))
    assert norm(np.array([3.0, -4.0])) == 5.0


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 7))
    v = rng.standard_normal(7)
    save_matrix(a, tmp_path / "a.csv")
    save_vector(v, tmp_path / "v.csv")
    assert np.array_equal(load_matrix(tmp_path / "a.csv"), a)
    assert np.array_equal(load_vector(tmp_path / "v.csv"), v)
