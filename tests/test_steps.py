import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from descentls.diagnostics import derive_constants
from descentls.instances import InstanceSpec, generate_instance
from descentls.objectives import L0LeastSquares, SmoothQuadratic, hard_threshold
from descentls.steps import IHTStep, ProxGradientStep


def make_problem(seed=1, lam=0.01, rows=16, cols=32, sparsity=3, noise=0.01):
    a, b, _ = generate_instance(InstanceSpec(rows, cols, sparsity, noise, seed))
    return L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=lam)


def step_constants(step):
    """(nu, beta) of a step, as the diagnostics derive them."""
    consts = derive_constants(step)
    return consts.nu, consts.beta


def test_hard_threshold_examples():
    assert hard_threshold(0.0, 1.0, 2.0) == 0.0
    # lam = 1, h = 2: threshold is exactly 1
    assert hard_threshold(1.5, 1.0, 2.0) == 1.5
    assert hard_threshold(0.9, 1.0, 2.0) == 0.0
    assert hard_threshold(-1.0, 1.0, 2.0) == -1.0  # boundary kept


def test_hard_threshold_validates():
    with pytest.raises(ValueError):
        hard_threshold(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        hard_threshold(1.0, 1.0, -2.0)


def test_hard_threshold_elementwise():
    out = hard_threshold(np.array([1.5, 0.25, -1.0]), 1.0, 2.0)
    np.testing.assert_array_equal(out, [1.5, 0.0, -1.0])


def test_hard_threshold_keeps_boundary_and_writes_positive_zeros():
    # lam = 1, h = 2: threshold is exactly 1.  A trace's repr tells -0.0
    # from 0.0, so zeroed entries must be +0.0 whatever the sign of t.
    t = np.array([-1.0, 1.0, -0.5, 0.5, -0.0, 0.0, -1e-300, -2.0])
    out = hard_threshold(t, 1.0, 2.0)
    assert out.dtype == np.float64
    assert repr(out.tolist()) == repr([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0])


def scalar_hard_threshold(t, lam, h):
    """Plain-Python reference for one entry."""
    return t if abs(t) >= math.sqrt(2.0 * lam / h) else 0.0


@given(st.floats(-10, 10), st.floats(0.01, 5), st.floats(0.01, 5))
@example(-1.0, 1.0, 2.0)
@example(1.0, 1.0, 2.0)
@example(-0.5, 1.0, 2.0)
@example(-0.0, 1.0, 2.0)
def test_hard_threshold_scalar_matches_reference(t, lam, h):
    out = hard_threshold(t, lam, h)
    assert out.shape == () and out.dtype == np.float64
    want = scalar_hard_threshold(t, lam, h)
    assert out == want and repr(float(out)) == repr(want)


@given(st.floats(-10, 10), st.floats(0.01, 5), st.floats(0.01, 5))
def test_hard_threshold_odd_and_idempotent(t, lam, h):
    assert hard_threshold(-t, lam, h) == -hard_threshold(t, lam, h)
    assert hard_threshold(hard_threshold(t, lam, h), lam, h) == hard_threshold(t, lam, h)


def test_iht_apply_worked_examples():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    prob = L0LeastSquares(quad=quad, lam=1.0)
    step = IHTStep(prob=prob, h=2.0)
    np.testing.assert_array_equal(step.apply(np.zeros(2)), [1.5, 0.0])
    np.testing.assert_array_equal(step.apply(np.array([1.5, 0.0])), [2.25, 0.0])
    np.testing.assert_array_equal(step.apply(np.array([3.0, 0.0])), [3.0, 0.0])


def test_gd_apply_examples():
    scalar = SmoothQuadratic.from_data(np.array([[1.0]]), np.array([0.0]))
    gd = ProxGradientStep(prob=scalar, h=2.0)
    assert gd.apply(np.array([1.0]))[0] == 0.5
    assert gd.apply(np.array([0.0]))[0] == 0.0
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    gd2 = ProxGradientStep(prob=quad, h=1.0)
    np.testing.assert_array_equal(gd2.apply(np.zeros(2)), [3.0, 0.5])


def test_gd_step_size_bound():
    # A smooth objective admits exactly h > L/2 (step 1/h < 2/L), L ~ 1.001 here.
    quad = SmoothQuadratic.from_data(np.eye(2), np.zeros(2))
    L = quad.lipschitz
    for h in (L / 2.0, 1 / 3.0, 0.0, -1.0):
        with pytest.raises(ValueError, match="nu"):
            ProxGradientStep(prob=quad, h=h)
    assert step_constants(ProxGradientStep(prob=quad, h=0.51 * L))[0] == 0.51 * L - L / 2.0


def test_certificate_iht_formulas():
    # (nu, beta) = ((h - L)/2, h + L) for an l0 step.
    for L, h, nu, beta in ((1.0, 2.0, 0.5, 3.0), (4.0, 4.04, 0.02, 8.04)):
        quad = SmoothQuadratic(A=np.eye(2), b=np.zeros(2), lipschitz=L)
        got = step_constants(IHTStep(prob=L0LeastSquares(quad=quad, lam=1.0), h=h))
        assert got == pytest.approx((nu, beta))
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    prob = L0LeastSquares(quad=quad, lam=1.0)
    step = IHTStep(prob=prob, h=2.0)
    L = quad.lipschitz
    assert step_constants(step) == ((2.0 - L) / 2.0, 2.0 + L)


def test_iht_rejects_h_at_or_below_lipschitz():
    prob = make_problem()
    with pytest.raises(ValueError):
        IHTStep(prob=prob, h=prob.quad.lipschitz)
    with pytest.raises(ValueError):
        IHTStep.default(prob, h_factor=1.0)
    with pytest.raises(ValueError, match="h = inf must be finite"):
        IHTStep.default(prob, h_factor=math.inf)


def test_forward_backward_matches_small_gradient_step():
    quad = SmoothQuadratic.from_data(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    h = 2.0 * quad.lipschitz
    fb = ProxGradientStep(prob=quad, h=h)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(fb.apply(x), x - (1.0 / h) * quad.grad(x), rtol=1e-15)
    nu, beta = step_constants(fb)
    # Descent-lemma constant h - L/2, sharper than the l0 constant (h - L)/2.
    assert nu == pytest.approx(h - quad.lipschitz / 2.0)
    assert beta == h + quad.lipschitz


@pytest.mark.parametrize("seed", range(1, 11))
def test_decrease_and_relative_error_certificates(seed):
    # A.1 / A.2 checked on real iterates, not trusted from the formulas.
    prob = make_problem(seed=seed)
    step = IHTStep.default(prob)
    nu, beta = prob.nu(step.h), step.h + prob.lipschitz
    x = np.zeros(32)
    for _ in range(200):
        y = step.apply(x)
        d = y - x
        dn = float(np.linalg.norm(d))
        decrease = prob.value(x) - prob.value(y)
        assert decrease >= nu * dn ** 2 - 1e-9 * max(1.0, abs(prob.value(x)))
        assert prob.residual(y) <= beta * dn + 1e-9
        if dn == 0.0:
            break
        x = y


@pytest.mark.parametrize("h_over_L", [0.51, 1.0, 2.0])
def test_gd_certificate_holds_on_iterates(h_over_L):
    rng = np.random.default_rng(2)
    quad = SmoothQuadratic.from_data(rng.standard_normal((8, 8)), rng.standard_normal(8))
    gd = ProxGradientStep(prob=quad, h=h_over_L * quad.lipschitz)
    nu, beta = quad.nu(gd.h), gd.h + quad.lipschitz
    x = np.zeros(8)
    for _ in range(100):
        y = gd.apply(x)
        dn = float(np.linalg.norm(y - x))
        assert quad.value(x) - quad.value(y) >= nu * dn ** 2 - 1e-9 * max(1.0, abs(quad.value(x)))
        assert quad.residual(y) <= beta * dn + 1e-9
        x = y


def test_apply_is_deterministic():
    prob = make_problem(seed=4)
    step = IHTStep.default(prob)
    x = np.linspace(-1, 1, 32)
    np.testing.assert_array_equal(step.apply(x), step.apply(x))
