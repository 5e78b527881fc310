import copy

import numpy as np
import pytest

from descentls.diagnostics import (
    check_cauchy,
    check_residual_bound,
    check_sufficient_decrease,
    check_support,
    derive_constants,
    eta_plus_of,
    run_diagnostics,
    summarize,
)
from descentls.driver import LineSearchParams, StopCriteria, StopReason, run, run_plain
from descentls.instances import InstanceSpec, generate_instance
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import GradientDescentStep, IHTStep

PARAMS = LineSearchParams()
STOP = StopCriteria()


@pytest.fixture
def micro():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    step = IHTStep(prob=L0LeastSquares(quad=quad, lam=1.0), h=2.0)
    trace = run(np.zeros(2), step, PARAMS, STOP)
    return step, trace


@pytest.fixture
def seeded():
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.01, seed=12))
    step = IHTStep.default(L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01))
    trace = run(np.zeros(32), step, PARAMS, STOP)
    return step, trace


def test_derived_constants_relations():
    cert = IHTStep(prob=L0LeastSquares(
        quad=SmoothQuadratic.from_data(np.eye(2), np.ones(2)), lam=1.0), h=2.0).certificate()
    c = derive_constants(cert, PARAMS, lipschitz=1.001, eta_plus=0.5)
    assert c.a == pytest.approx(cert.nu + PARAMS.alpha * 0.5)
    assert c.a_bar == pytest.approx(c.a / (1 + PARAMS.eta))
    assert c.b == pytest.approx(cert.beta + 1.001 * PARAMS.eta)
    assert c.b_bar == pytest.approx((1 + PARAMS.eta) * c.b)


def test_sufficient_decrease_passes(micro):
    step, trace = micro
    report = check_sufficient_decrease(trace, step.certificate(), PARAMS)
    assert report.passed
    # eta_plus = 1 on this trace, a = nu + alpha
    assert eta_plus_of(trace) == 1.0
    assert report.constant_used == pytest.approx(step.certificate().nu + PARAMS.alpha)


def test_sufficient_decrease_constant_trace(micro):
    step, _ = micro
    trace = run(np.array([3.0, 0.0]), step, PARAMS, STOP)
    report = check_sufficient_decrease(trace, step.certificate(), PARAMS)
    assert report.passed and report.worst_violation == 0.0


def test_sufficient_decrease_catches_increasing_phi(micro):
    step, trace = micro
    corrupted = copy.deepcopy(trace)
    # Large enough to make Phi increase across the first transition.
    corrupted.records[1].phi_x += 10.0
    report = check_sufficient_decrease(corrupted, step.certificate(), PARAMS)
    assert not report.passed
    assert report.at_iteration == 0


def test_residual_bound_micro(micro):
    step, trace = micro
    report = check_residual_bound(trace, step.certificate(), PARAMS,
                                  step.prob.quad.lipschitz, k_start=1)
    assert report.passed


def test_residual_bound_gradient_descent():
    rng = np.random.default_rng(4)
    quad = SmoothQuadratic.from_data(rng.standard_normal((6, 6)), rng.standard_normal(6))
    gd = GradientDescentStep.default(quad)
    trace = run(np.zeros(6), gd, PARAMS, STOP)
    report = check_residual_bound(trace, gd.certificate(), PARAMS, quad.lipschitz)
    assert report.passed


def test_residual_bound_vacuous_range(micro):
    step, trace = micro
    report = check_residual_bound(trace, step.certificate(), PARAMS,
                                  step.prob.quad.lipschitz, k_start=len(trace.records))
    assert report.passed and report.worst_violation == 0.0


def test_residual_bound_catches_corruption(seeded):
    step, trace = seeded
    corrupted = copy.deepcopy(trace)
    corrupted.records[-1].residual += 1.0
    k_stab, _ = check_support(trace, step.threshold)
    report = check_residual_bound(corrupted, step.certificate(), PARAMS,
                                  step.prob.quad.lipschitz, k_start=k_stab)
    assert not report.passed


def test_check_support_micro(micro):
    step, trace = micro
    k_stab, report = check_support(trace, step.threshold)
    assert k_stab == 1
    assert report.passed


def test_check_support_fixed_point(micro):
    step, _ = micro
    trace = run(np.array([3.0, 0.0]), step, PARAMS, STOP)
    k_stab, report = check_support(trace, step.threshold)
    assert k_stab == 0 and report.passed


def test_check_support_truncated(micro):
    step, trace = micro
    truncated = copy.deepcopy(trace)
    truncated.records = truncated.records[:1]
    k_stab, report = check_support(truncated, step.threshold)
    assert k_stab is None
    assert not report.passed


def test_check_cauchy_converged(micro):
    _, trace = micro
    report = check_cauchy(trace, residual_threshold=1e-6)
    assert report.passed and not report.note


def test_check_cauchy_inconclusive(micro):
    step, _ = micro
    trace = run_plain(np.zeros(2), step, StopCriteria(max_iters=3, d_tol=0.0))
    assert trace.stop_reason is StopReason.MAX_ITERS
    report = check_cauchy(trace, residual_threshold=1e-6)
    assert report.passed and "inconclusive" in report.note


def test_check_cauchy_flags_large_final_residual(micro):
    _, trace = micro
    corrupted = copy.deepcopy(trace)
    corrupted.records[-1].residual = 1.0
    report = check_cauchy(corrupted, residual_threshold=1e-6)
    assert not report.passed


def test_run_diagnostics_all_pass(seeded):
    step, trace = seeded
    reports, consts, k_stab = run_diagnostics(trace, step, PARAMS, STOP)
    assert all(r.passed for r in reports)
    assert k_stab is not None
    names = {r.name for r in reports}
    assert names == {"sufficient_decrease", "support_stabilization", "residual_bound", "cauchy_tail"}


def test_single_field_corruptions_are_caught(seeded):
    step, trace = seeded
    mid = len(trace.records) // 2
    # phi_x mid-trace creates an increase; d_norm/residual on the final row
    # demand a decrease/bound that the converged tail cannot provide.
    for field, idx in (("phi_x", mid), ("d_norm", -1), ("residual", -1)):
        corrupted = copy.deepcopy(trace)
        setattr(corrupted.records[idx], field, getattr(corrupted.records[idx], field) + 1.0)
        reports, _, _ = run_diagnostics(corrupted, step, PARAMS, STOP)
        assert any(not r.passed for r in reports), f"corrupting {field} went undetected"


def test_summarize(micro, capsys):
    step, trace = micro
    reports, consts, k_stab = run_diagnostics(trace, step, PARAMS, STOP)
    payload, text = summarize(reports, consts, trace.stop_reason, k_stab)
    assert payload["stop_reason"] == "d_tol"
    assert set(payload["constants"]) >= {"nu", "beta", "a", "b", "a_bar", "b_bar", "eta_plus"}
    for r in reports:
        assert r.name in payload and "PASS" in text
    with pytest.raises(ValueError):
        summarize([])


def test_plain_trace_uses_nu_only(micro):
    step, _ = micro
    trace = run_plain(np.zeros(2), step, STOP)
    report = check_sufficient_decrease(trace, step.certificate(), PARAMS)
    assert report.passed
    assert report.constant_used == pytest.approx(step.certificate().nu)
