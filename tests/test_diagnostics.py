import copy

import numpy as np
import pytest

from descentls.diagnostics import (
    TOL,
    check_cauchy,
    check_residual_bound,
    check_sufficient_decrease,
    check_support,
    derive_constants,
    run_diagnostics,
    summarize,
)
from descentls.driver import LineSearchParams, StopCriteria, StopReason, run, run_plain
from descentls.instances import InstanceSpec, generate_instance
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import IHTStep, ProxGradientStep

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


def test_derived_constants_relations(micro):
    l0_step, _ = micro
    quad = l0_step.prob.quad
    smooth_step = ProxGradientStep(prob=quad, h=2.0)
    L = quad.lipschitz
    for step in (l0_step, smooth_step):
        for params in (PARAMS, None):
            trace = run(np.zeros(2), step, params, STOP)
            c = derive_constants(step, PARAMS, trace)
            # nu and beta come from the step alone, on plain and search traces.
            assert c.lipschitz == L
            assert c.nu == step.prob.nu(step.h)
            assert c.beta == step.h + L
            if params is None:
                assert (c.eta_plus, c.a, c.b, c.a_bar, c.b_bar) == (0.0, c.nu, c.beta, c.nu, c.beta)
            else:
                assert c.eta_plus == min(r.eta_k for r in trace.records)
                assert c.a == pytest.approx(c.nu + PARAMS.alpha * c.eta_plus)
                assert c.a_bar == pytest.approx(c.a / (1 + PARAMS.eta))
                assert c.b == pytest.approx(c.beta + L * PARAMS.eta)
                assert c.b_bar == pytest.approx((1 + PARAMS.eta) * c.b)
    assert l0_step.prob.nu(2.0) == (2.0 - L) / 2.0
    assert smooth_step.prob.nu(2.0) == 2.0 - L / 2.0


def test_sufficient_decrease_passes(micro):
    step, trace = micro
    consts = derive_constants(step, PARAMS, trace)
    report = check_sufficient_decrease(trace, consts.a)
    assert report.passed
    # eta_plus = 1 on this trace, a = nu + alpha
    assert consts.eta_plus == 1.0
    assert report.constant_used == pytest.approx(step.prob.nu(step.h) + PARAMS.alpha)


def test_sufficient_decrease_constant_trace(micro):
    step, _ = micro
    trace = run(np.array([3.0, 0.0]), step, PARAMS, STOP)
    report = check_sufficient_decrease(trace, derive_constants(step, PARAMS, trace).a)
    assert report.passed and report.worst_violation == 0.0


def test_sufficient_decrease_catches_increasing_phi(micro):
    step, trace = micro
    corrupted = copy.deepcopy(trace)
    # Large enough to make Phi increase across the first transition.
    corrupted.records[1].phi_x += 10.0
    report = check_sufficient_decrease(corrupted, derive_constants(step, PARAMS, corrupted).a)
    assert not report.passed
    assert report.at_iteration == 0


def test_residual_bound_micro(micro):
    step, trace = micro
    report = check_residual_bound(trace, derive_constants(step, PARAMS, trace).b, k_start=1)
    assert report.passed


def test_residual_bound_gradient_descent():
    rng = np.random.default_rng(4)
    quad = SmoothQuadratic.from_data(rng.standard_normal((6, 6)), rng.standard_normal(6))
    gd = ProxGradientStep(prob=quad, h=quad.lipschitz)
    trace = run(np.zeros(6), gd, PARAMS, STOP)
    report = check_residual_bound(trace, derive_constants(gd, PARAMS, trace).b)
    assert report.passed


def test_residual_bound_vacuous_range(micro):
    step, trace = micro
    report = check_residual_bound(trace, derive_constants(step, PARAMS, trace).b,
                                  k_start=len(trace.records))
    assert report.passed and report.worst_violation == 0.0


def test_residual_bound_catches_corruption(seeded):
    step, trace = seeded
    corrupted = copy.deepcopy(trace)
    corrupted.records[-1].residual += 1.0
    k_stab, _ = check_support(trace, step.threshold)
    report = check_residual_bound(corrupted, derive_constants(step, PARAMS, corrupted).b, k_start=k_stab)
    assert not report.passed


@pytest.mark.parametrize("params", [PARAMS, None])
def test_checks_are_sharp_at_their_constant(seeded, params):
    # Each check passes with the extreme constant that the trace's own
    # columns support, TOL slack included, and fails just beyond it, at the
    # latest on the row that sets that constant.
    step, _ = seeded
    trace = run(np.zeros(32), step, params, STOP)
    rows = trace.records
    phi_next = [r.phi_x for r in rows[1:]] + [trace.final_phi]
    a_max, a_row = min(((r.phi_x - nxt + TOL * max(1.0, abs(r.phi_x))) / r.d_norm ** 2, r.k)
                       for r, nxt in zip(rows, phi_next) if r.d_norm > 0)
    assert check_sufficient_decrease(trace, a_max).passed
    report = check_sufficient_decrease(trace, a_max * (1 + 1e-6))
    assert not report.passed and report.at_iteration <= a_row and report.constant_used == a_max * (1 + 1e-6)

    k_stab, _ = check_support(trace, step.threshold)
    b_min, b_row = max(((r.residual - TOL) / r.d_norm, r.k) for r in rows[k_stab:] if r.d_norm > 0)
    assert b_min > 0
    assert check_residual_bound(trace, b_min, k_start=k_stab).passed
    report = check_residual_bound(trace, b_min * (1 - 1e-6), k_start=k_stab)
    assert not report.passed and k_stab <= report.at_iteration <= b_row
    assert report.constant_used == b_min * (1 - 1e-6)


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
    # A rounding-level final residual passes a tiny threshold (d_tol = 0):
    # the slack is TOL, as in residual_bound, and no more.
    rounded = copy.deepcopy(trace)
    for residual, passed in ((6e-16, True), (2e-9, False)):
        rounded.records[-1].residual = residual
        assert check_cauchy(rounded, residual_threshold=1e-298).passed is passed


def test_check_cauchy_inconclusive(micro):
    # The threshold derives from d_tol; any other stop says nothing about it.
    step, _ = micro
    for stop, reason in ((StopCriteria(max_iters=3, d_tol=0.0), StopReason.MAX_ITERS),
                         (StopCriteria(residual_tol=1e-3), StopReason.RESIDUAL_TOL)):
        trace = run_plain(np.zeros(2), step, stop)
        assert trace.stop_reason is reason and trace.records[-1].residual > 1e-6
        report = check_cauchy(trace, residual_threshold=1e-6)
        assert report.passed and report.note == f"inconclusive: stopped by {reason.value}"


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
    # A residual_tol stop, and a d_tol = 0 stop that leaves a rounding-level
    # residual, are correct runs too, with and without the search.
    for stop, reason in ((StopCriteria(residual_tol=1e-3), StopReason.RESIDUAL_TOL),
                         (StopCriteria(d_tol=0.0), StopReason.D_TOL)):
        for params in (PARAMS, None):
            other = run(np.zeros(32), step, params, stop)
            assert other.stop_reason is reason and other.records[-1].residual > 0.0
            reports, _, _ = run_diagnostics(other, step, PARAMS, stop)
            assert all(r.passed for r in reports), (stop, params)


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
    assert list(payload["constants"]) == ["lipschitz", "nu", "beta", "eta_plus", "a", "b", "a_bar", "b_bar",
                                          "k_stab"]
    assert payload["constants"]["lipschitz"] == step.prob.lipschitz
    for r in reports:
        assert r.name in payload and "PASS" in text
    with pytest.raises(ValueError):
        summarize([])


def test_plain_trace_uses_nu_only(micro):
    step, _ = micro
    trace = run_plain(np.zeros(2), step, STOP)
    report = check_sufficient_decrease(trace, derive_constants(step, PARAMS, trace).a)
    assert report.passed
    assert report.constant_used == pytest.approx(step.prob.nu(step.h))
