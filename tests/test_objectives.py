import numpy as np
import pytest

from descentls.instances import InstanceSpec, generate_instance
from descentls.linalg import DimensionMismatch
from descentls.objectives import L0LeastSquares, Objective, SmoothQuadratic
from descentls.steps import IHTStep


@pytest.fixture
def identity_problem():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    return L0LeastSquares(quad=quad, lam=1.0)


def test_eval_quadratic_examples(identity_problem):
    q = identity_problem.quad
    assert q.value(np.array([3.0, 0.5])) == 0.0
    assert q.value(np.zeros(2)) == 4.625
    assert q.value(np.array([1.5, 0.0])) == 1.25


def test_grad_examples(identity_problem):
    q = identity_problem.quad
    np.testing.assert_array_equal(q.grad(np.array([3.0, 0.5])), [0.0, 0.0])
    np.testing.assert_array_equal(q.grad(np.zeros(2)), [-3.0, -0.5])
    np.testing.assert_array_equal(q.grad(np.array([1.5, 0.0])), [-1.5, -0.5])


def test_dimension_mismatch(identity_problem):
    with pytest.raises(DimensionMismatch):
        identity_problem.quad.value(np.ones(3))
    with pytest.raises(DimensionMismatch):
        identity_problem.value(np.ones(3))


def test_eval_l0_examples(identity_problem):
    p = identity_problem
    assert p.value(np.zeros(2)) == 4.625
    assert p.value(np.array([3.0, 0.5])) == 2.0
    assert p.value(np.array([1.5, 0.0])) == 2.25


def test_support_examples(identity_problem):
    p = identity_problem
    np.testing.assert_array_equal(p.support_mask(np.array([1.5, 0.0])), [True, False])
    np.testing.assert_array_equal(p.support_mask(np.zeros(2)), [False, False])
    np.testing.assert_array_equal(p.support_mask(np.array([3.0, 0.5])), [True, True])
    tolerant = L0LeastSquares(quad=p.quad, lam=1.0, zero_tol=0.1)
    np.testing.assert_array_equal(tolerant.support_mask(np.array([0.05, 2.0])), [False, True])
    assert p.quad.support_mask(np.array([1.5, 0.0])) is None
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="zero_tol"):
            L0LeastSquares(quad=p.quad, lam=1.0, zero_tol=bad)


def test_residual_l0_examples(identity_problem):
    p = identity_problem
    assert p.residual(np.array([1.5, 0.0])) == 1.5
    assert p.residual(np.zeros(2)) == 0.0
    # (3, 0) is a critical point: the supported gradient component vanishes.
    assert p.residual(np.array([3.0, 0.0])) == 0.0


def test_residual_smooth_examples(identity_problem):
    q = identity_problem.quad
    assert q.residual(np.array([3.0, 0.5])) == 0.0
    assert q.residual(np.zeros(2)) == pytest.approx(np.sqrt(9.25), rel=1e-15)
    q2 = SmoothQuadratic.from_data(np.diag([2.0, 1.0]), np.zeros(2))
    assert q2.residual(np.array([1.0, 0.0])) == 4.0


def test_objective_protocol(identity_problem):
    methods = {name for name, v in vars(Objective).items() if callable(v) and not name.startswith("_")}
    assert set(Objective.__annotations__) == {"is_smooth", "lipschitz"}
    assert methods == {"value", "residual", "residual_from_grad", "grad", "prox", "nu", "support_mask"}
    for obj in (identity_problem, identity_problem.quad):
        assert all(hasattr(obj, name) for name in Objective.__annotations__.keys() | methods)
    assert identity_problem.quad.is_smooth
    assert not identity_problem.is_smooth


def test_lam_must_be_positive(identity_problem):
    with pytest.raises(ValueError):
        L0LeastSquares(quad=identity_problem.quad, lam=0.0)


def test_gradient_matches_finite_differences():
    step = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        x = rng.standard_normal(8)
        quad = SmoothQuadratic.from_data(a, b)
        g = quad.grad(x)
        for i in range(8):
            e = np.zeros(8)
            e[i] = step
            fd = (quad.value(x + e) - quad.value(x - e)) / (2 * step)
            assert abs(g[i] - fd) <= 1e-5


def test_eval_l0_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 10))
    b = rng.standard_normal(6)
    x = rng.standard_normal(10)
    x[rng.integers(0, 10, size=4)] = 0.0
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.3)
    assert p.value(x) >= 0.0
    perm = rng.permutation(10)
    p_perm = L0LeastSquares(quad=SmoothQuadratic.from_data(a[:, perm], b), lam=0.3)
    assert p_perm.value(x[perm]) == pytest.approx(p.value(x), rel=1e-12)


def test_l0_residual_below_smooth_residual():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 10))
    b = rng.standard_normal(6)
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.3)
    for _ in range(20):
        x = rng.standard_normal(10)
        x[rng.integers(0, 10, size=3)] = 0.0
        assert p.residual(x) <= p.quad.residual(x) + 1e-12


def test_iht_fixed_points_have_zero_residual():
    # Post-convergence residual of the IHT map's fixed point is exactly zero.
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.0, seed=8))
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
    step = IHTStep.default(p)
    x = np.zeros(32)
    for _ in range(20_000):
        x_next = step.apply(x)
        if np.array_equal(x_next, x):
            break
        x = x_next
    assert np.array_equal(step.apply(x), x)
    assert p.residual(x) <= 1e-12


@pytest.mark.parametrize("zero_tol", [0.0, 1e-3])
def test_l0_value_is_the_mask_formula_as_a_python_float(zero_tol):
    # value counts nonzeros directly at zero_tol == 0 and through the mask
    # otherwise; both give the bits of the mask formula, as a Python float.
    a, b, _ = generate_instance(InstanceSpec(4, 8, 2, 0.01, seed=3))
    quad = SmoothQuadratic.from_data(a, b)
    p = L0LeastSquares(quad=quad, lam=0.01, zero_tol=zero_tol)
    below, above = np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0)
    x = np.array([-0.0, 5e-324, -5e-324, 0.0, 1e-3, below, above, -above])
    for v in (x, -x, x[::-1].copy(), np.zeros(8), np.full(8, -0.0)):
        value = p.value(v)
        assert type(value) is float
        expected = quad.value(v) + p.lam * int(np.count_nonzero(np.abs(v) > zero_tol))
        assert value.hex() == expected.hex()
    counted = round((p.value(x) - quad.value(x)) / p.lam)
    assert counted == (6 if zero_tol == 0.0 else 2)
