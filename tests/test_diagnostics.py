import copy
from dataclasses import fields, replace

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
from descentls.driver import ARMIJO_FAILED, LineSearchParams, StopCriteria, StopReason, run, run_plain
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


def extrapolation(r) -> float:
    """t_k of a row: its accepted eta_k, 0 on a failed search and on a plain row."""
    return 0.0 if r.eta_k is None else r.eta_k


def test_derived_constants_relations(micro):
    l0_step, _ = micro
    quad = l0_step.prob.quad
    smooth_step = ProxGradientStep(prob=quad, h=2.0)
    L = quad.lipschitz
    for step in (l0_step, smooth_step):
        # L, nu and beta come from the step alone; nothing else is trace-wide.
        c = derive_constants(step)
        assert [f.name for f in fields(c)] == ["lipschitz", "nu", "beta"]
        assert (c.lipschitz, c.nu, c.beta) == (L, step.prob.nu(step.h), step.h + L)
        for params in (PARAMS, None):
            # Each check reports the a_k = nu + alpha * t_k or b_k = beta + L * t_k
            # of its least-slack row; a plain row has t_k = 0.
            trace = run(np.zeros(2), step, params, STOP)
            decrease = check_sufficient_decrease(trace, c.nu, PARAMS.alpha)
            t = extrapolation(trace.records[decrease.at_iteration])
            assert decrease.constant_used == c.nu + PARAMS.alpha * t
            residual = check_residual_bound(trace, c.beta, L)
            assert residual.constant_used in {c.beta + L * extrapolation(r) for r in trace.records}
            if params is None:
                assert (decrease.constant_used, residual.constant_used) == (c.nu, c.beta)
    assert l0_step.prob.nu(2.0) == (2.0 - L) / 2.0
    assert smooth_step.prob.nu(2.0) == 2.0 - L / 2.0


def test_sufficient_decrease_passes(micro):
    step, trace = micro
    consts = derive_constants(step)
    report = check_sufficient_decrease(trace, consts.nu, PARAMS.alpha)
    assert report.passed
    # every row has eta_k = 1 on this trace, so a_k = nu + alpha
    assert all(r.eta_k == 1.0 for r in trace.records)
    assert report.constant_used == pytest.approx(step.prob.nu(step.h) + PARAMS.alpha)


def test_sufficient_decrease_constant_trace(micro):
    step, _ = micro
    trace = run(np.array([3.0, 0.0]), step, PARAMS, STOP)
    report = check_sufficient_decrease(trace, derive_constants(step).nu, PARAMS.alpha)
    assert report.passed and report.worst_violation == 0.0


def test_sufficient_decrease_catches_increasing_phi(micro):
    step, trace = micro
    corrupted = copy.deepcopy(trace)
    # Large enough to make Phi increase across the first transition.
    corrupted.records[1].phi_x += 10.0
    report = check_sufficient_decrease(corrupted, derive_constants(step).nu, PARAMS.alpha)
    assert not report.passed
    assert report.at_iteration == 0


def test_residual_bound_micro(micro):
    step, trace = micro
    c = derive_constants(step)
    report = check_residual_bound(trace, c.beta, c.lipschitz, k_start=1)
    assert report.passed


def test_residual_bound_gradient_descent():
    rng = np.random.default_rng(4)
    quad = SmoothQuadratic.from_data(rng.standard_normal((6, 6)), rng.standard_normal(6))
    gd = ProxGradientStep(prob=quad, h=quad.lipschitz)
    trace = run(np.zeros(6), gd, PARAMS, STOP)
    c = derive_constants(gd)
    report = check_residual_bound(trace, c.beta, c.lipschitz)
    assert report.passed


def test_residual_bound_vacuous_range(micro):
    step, trace = micro
    c = derive_constants(step)
    report = check_residual_bound(trace, c.beta, c.lipschitz, k_start=len(trace.records))
    assert report.passed and report.worst_violation == 0.0 and report.constant_used == c.beta
    assert report.at_iteration is None


@pytest.mark.parametrize("params", [PARAMS, None])
def test_residual_bound_names_its_least_slack_row(seeded, params):
    # A passing check reports the row where b_k * d_norm + TOL - residual is
    # least (the first such row on a tie) and that row's b_k.
    step, _ = seeded
    trace = run(np.zeros(32), step, params, STOP)
    c = derive_constants(step)
    k_stab, _ = check_support(trace, step.threshold)
    for k_start in (0, k_stab):
        rows = trace.records[k_start:]
        b = [c.beta + c.lipschitz * extrapolation(r) for r in rows]
        slack = [b_k * r.d_norm + TOL - r.residual for b_k, r in zip(b, rows)]
        least = int(np.argmin(slack))
        report = check_residual_bound(trace, c.beta, c.lipschitz, k_start=k_start)
        assert report.passed and report.worst_violation == 0.0
        assert (report.at_iteration, report.constant_used) == (k_start + least, b[least])


def test_residual_bound_catches_corruption(seeded):
    step, trace = seeded
    corrupted = copy.deepcopy(trace)
    corrupted.records[-1].residual += 1.0
    k_stab, _ = check_support(trace, step.threshold)
    c = derive_constants(step)
    report = check_residual_bound(corrupted, c.beta, c.lipschitz, k_start=k_stab)
    assert not report.passed


@pytest.mark.parametrize("params", [PARAMS, None])
def test_checks_are_sharp_at_their_constant(seeded, params):
    # Each check passes with the extreme constant that the trace's own
    # columns support, TOL slack included, and fails just beyond it, at the
    # latest on the row that sets that constant.  A slope of 0 makes the
    # per-row constant that scalar on every row.
    step, _ = seeded
    trace = run(np.zeros(32), step, params, STOP)
    rows = trace.records
    phi_next = [r.phi_x for r in rows[1:]] + [trace.final_phi]
    a_max, a_row = min(((r.phi_x - nxt + TOL * max(1.0, abs(r.phi_x))) / r.d_norm ** 2, r.k)
                       for r, nxt in zip(rows, phi_next) if r.d_norm > 0)
    assert check_sufficient_decrease(trace, a_max, 0.0).passed
    report = check_sufficient_decrease(trace, a_max * (1 + 1e-6), 0.0)
    assert not report.passed and report.at_iteration <= a_row and report.constant_used == a_max * (1 + 1e-6)

    k_stab, _ = check_support(trace, step.threshold)
    b_min, b_row = max(((r.residual - TOL) / r.d_norm, r.k) for r in rows[k_stab:] if r.d_norm > 0)
    assert b_min > 0
    assert check_residual_bound(trace, b_min, 0.0, k_start=k_stab).passed
    report = check_residual_bound(trace, b_min * (1 - 1e-6), 0.0, k_start=k_stab)
    assert not report.passed and k_stab <= report.at_iteration <= b_row
    assert report.constant_used == b_min * (1 - 1e-6)


def test_checks_are_sharp_at_each_rows_constant():
    # A search trace with m = 0 rows, m >= 1 rows and failed rows; every row
    # meets its own bound from row 0 on.
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.01, seed=1))
    step = IHTStep.default(L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01))
    trace = run(np.zeros(32), step, PARAMS, STOP)
    c = derive_constants(step)
    assert check_sufficient_decrease(trace, c.nu, PARAMS.alpha).passed
    assert check_residual_bound(trace, c.beta, c.lipschitz).passed
    rows = [next(r for r in trace.records if r.d_norm > 0 and kind(r.m_k))
            for kind in (lambda m: m == 0, lambda m: m >= 1, lambda m: m == ARMIJO_FAILED)]
    for r in rows:
        k, t = r.k, extrapolation(r)
        b_k = c.beta + c.lipschitz * t
        for factor, passed in ((1 + 1e-9, False), (1 - 1e-9, True)):
            corrupted = copy.deepcopy(trace)
            corrupted.records[k].residual = (b_k * r.d_norm + TOL) * factor
            report = check_residual_bound(corrupted, c.beta, c.lipschitz)
            assert report.passed is passed, (k, factor)
            if not passed:
                assert (report.at_iteration, report.constant_used) == (k, b_k)
        a_k = c.nu + PARAMS.alpha * t
        tol_k = TOL * max(1.0, abs(r.phi_x))
        for shift, passed in ((1e-3 * tol_k, False), (-1e-3 * tol_k, True)):
            corrupted = copy.deepcopy(trace)
            corrupted.records[k + 1].phi_x = r.phi_x - a_k * r.d_norm ** 2 + tol_k + shift
            report = check_sufficient_decrease(corrupted, c.nu, PARAMS.alpha)
            assert report.passed is passed, (k, shift)
            if not passed:
                assert (report.at_iteration, report.constant_used) == (k, a_k)
    # An m = 0 row extrapolates by t = 1, so its bound is beta + L, not beta + L * eta.
    m0 = rows[0]
    corrupted = copy.deepcopy(trace)
    corrupted.records[m0.k].residual = (c.beta + c.lipschitz * (1 + PARAMS.eta) / 2) * m0.d_norm
    assert check_residual_bound(corrupted, c.beta, c.lipschitz).passed


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
    trace = run_plain(np.zeros(2), step, StopCriteria(max_iters=3, d_tol=0.0))
    assert trace.stop_reason is StopReason.MAX_ITERS and trace.records[-1].residual > 1e-6
    report = check_cauchy(trace, residual_threshold=1e-6)
    assert report.passed and report.note == "inconclusive: stopped by max_iters"


def test_check_cauchy_flags_large_final_residual(micro):
    _, trace = micro
    corrupted = copy.deepcopy(trace)
    corrupted.records[-1].residual = 1.0
    report = check_cauchy(corrupted, residual_threshold=1e-6)
    assert not report.passed


def test_cauchy_threshold_has_the_search_factor_only_on_search_traces(seeded):
    # 10 * b_K * d_tol with the last row's b_K = beta + L * t_K; a plain run
    # has no extrapolation factor, so 10 * beta * d_tol.
    step, search = seeded
    plain = run_plain(np.zeros(32), step, STOP)

    def cauchy_tail(trace):
        reports, consts, _ = run_diagnostics(trace, step, PARAMS, STOP)
        return next(r for r in reports if r.name == "cauchy_tail"), consts

    report, consts = cauchy_tail(search)
    t_last = extrapolation(search.records[-1])
    assert t_last > 0.0
    assert report.constant_used == 10.0 * (consts.beta + consts.lipschitz * t_last) * STOP.d_tol
    report, consts = cauchy_tail(plain)
    threshold = 10.0 * consts.beta * STOP.d_tol
    assert report.constant_used == threshold
    # A plain final residual above its own threshold, below the search's, fails.
    plain.records[-1].residual = 1.2 * threshold + TOL
    assert not cauchy_tail(plain)[0].passed


@pytest.mark.parametrize("params", [PARAMS, None])
def test_residual_bound_on_the_last_row_implies_cauchy_tail(seeded, params):
    # cauchy_tail tests the last row at a d_tol stop against 10 * b_K * d_tol,
    # and d_norm <= d_tol there: a last-row residual that residual_bound
    # accepts, cauchy_tail accepts too; whatever cauchy_tail rejects,
    # residual_bound rejects too.
    step, _ = seeded
    trace = run(np.zeros(32), step, params, STOP)
    assert trace.stop_reason is StopReason.D_TOL
    consts = derive_constants(step)
    last = trace.records[-1]
    b_last = consts.beta + consts.lipschitz * extrapolation(last)
    bound = b_last * last.d_norm + TOL
    threshold = 10.0 * b_last * STOP.d_tol + TOL
    outcomes = set()
    for residual in [*np.linspace(0.0, 2.0 * threshold, 41), bound * (1 + 1e-9), threshold * (1 + 1e-9)]:
        corrupted = copy.deepcopy(trace)
        corrupted.records[-1].residual = residual
        reports = {r.name: r.passed for r in run_diagnostics(corrupted, step, PARAMS, STOP)[0]}
        if reports["residual_bound"]:
            assert reports["cauchy_tail"], residual
        if not reports["cauchy_tail"]:
            assert not reports["residual_bound"], residual
        outcomes.add((reports["residual_bound"], reports["cauchy_tail"]))
    # The sweep reaches every outcome the implication allows.
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_run_diagnostics_all_pass(seeded):
    step, trace = seeded
    reports, consts, k_stab = run_diagnostics(trace, step, PARAMS, STOP)
    assert all(r.passed for r in reports)
    assert k_stab is not None
    names = {r.name for r in reports}
    assert names == {"sufficient_decrease", "support_stabilization", "residual_bound", "cauchy_tail"}
    # A max_iters stop after the support has settled, and a d_tol = 0 stop
    # that leaves a rounding-level residual, are correct runs too, with and
    # without the search.
    for stop, reason in ((StopCriteria(max_iters=40), StopReason.MAX_ITERS),
                         (StopCriteria(d_tol=0.0), StopReason.D_TOL)):
        for params in (PARAMS, None):
            other = run(np.zeros(32), step, params, stop)
            assert other.stop_reason is reason and other.records[-1].residual > 0.0
            reports, _, _ = run_diagnostics(other, step, PARAMS, stop)
            assert all(r.passed for r in reports), (stop, params)
    # An external start: the converged plain iterate with a small entry, far
    # below the threshold, on each zero coordinate.  Those entries are
    # support, so row 0 drops them all and every check still holds.
    x_star = run_plain(np.zeros(32), step, STOP).final_x
    zero = x_star == 0.0
    assert zero.sum() == 29 and step.threshold > 0.05
    x0 = x_star.copy()
    x0[zero] = -5e-4 * np.sign(step.prob.grad(x_star)[zero])
    for params in (PARAMS, None):
        external = run(x0, step, params, STOP)
        assert external.records[0].support_left == 29
        assert external.stop_reason is StopReason.D_TOL
        reports, _, _ = run_diagnostics(external, step, PARAMS, STOP)
        assert all(r.passed for r in reports), params


@pytest.mark.parametrize("params", [PARAMS, None])
def test_run_diagnostics_on_a_smooth_objective(seeded, params):
    # A SmoothQuadratic has no support (its support_mask is None), so
    # run_diagnostics makes no support check and residual_bound starts at
    # row 0.  The l0 objective on the same data gets the support check.
    l0_step, _ = seeded
    step = ProxGradientStep.default(l0_step.prob.quad)
    trace = run(np.zeros(32), step, params, STOP)
    assert trace.stop_reason is StopReason.D_TOL
    reports, consts, k_stab = run_diagnostics(trace, step, PARAMS, STOP)
    assert [r.name for r in reports] == ["sufficient_decrease", "residual_bound", "cauchy_tail"]
    assert all(r.passed for r in reports) and k_stab is None
    first = trace.records[0]
    bound = (consts.beta + consts.lipschitz * extrapolation(first)) * first.d_norm + TOL
    corrupted = copy.deepcopy(trace)
    corrupted.records[0].residual = 2.0 * bound
    report = next(r for r in run_diagnostics(corrupted, step, PARAMS, STOP)[0] if r.name == "residual_bound")
    assert not report.passed and report.at_iteration == 0

    l0_trace = run(np.zeros(32), l0_step, params, STOP)
    reports, _, k_stab = run_diagnostics(l0_trace, l0_step, PARAMS, STOP)
    assert [r.name for r in reports] == ["sufficient_decrease", "support_stabilization",
                                         "residual_bound", "cauchy_tail"]
    assert all(r.passed for r in reports) and k_stab > 0


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
    assert list(payload["constants"]) == ["lipschitz", "nu", "beta", "k_stab"]
    assert payload["constants"]["lipschitz"] == step.prob.lipschitz
    for r in reports:
        assert r.name in payload and "PASS" in text
    with pytest.raises(ValueError):
        summarize([], consts, trace.stop_reason, k_stab)


def test_plain_trace_uses_nu_only(micro):
    step, _ = micro
    trace = run_plain(np.zeros(2), step, STOP)
    c = derive_constants(step)
    report = check_sufficient_decrease(trace, c.nu, PARAMS.alpha)
    assert report.passed
    assert report.constant_used == c.nu == step.prob.nu(step.h)
    assert check_residual_bound(trace, c.beta, c.lipschitz).constant_used == c.beta


def _solve(a, b, params, stop, variant):
    step = ProxGradientStep.default(L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01))
    return step, run(np.zeros(a.shape[1]), step, params if variant == "search" else None, stop)


@pytest.mark.parametrize("variant", ["search", "plain"])
@pytest.mark.parametrize("seed", [1, 9, 42])
def test_rescaled_instance_gives_the_rescaled_run(seed, variant):
    # With A * 2^-e the minimizers scale by 2^e: x, d_norm and d_tol carry the
    # units of x, the residual those of A.T (A x - b), and alpha those of h,
    # that is of ||A||^2.  Scaling by a power of two is exact, so the run is
    # the unscaled one with the same objective values and support, ends on
    # d_tol, and passes every check, however large ||x|| gets.
    a, b, _ = generate_instance(InstanceSpec(32, 64, 4, 0.01, seed))
    _, ref = _solve(a, b, PARAMS, STOP, variant)
    assert ref.stop_reason is StopReason.D_TOL
    for e in (43, -20):
        s = 2.0 ** e
        params = LineSearchParams(alpha=PARAMS.alpha / s ** 2, eta=PARAMS.eta, cap=PARAMS.cap)
        stop = StopCriteria(max_iters=STOP.max_iters, d_tol=STOP.d_tol * s)
        step, trace = _solve(a / s, b, params, stop, variant)
        assert trace.stop_reason is StopReason.D_TOL
        assert trace.final_phi == ref.final_phi
        assert np.array_equal(trace.final_x, ref.final_x * s)
        assert len(trace.records) == len(ref.records)
        for r, r_ref in zip(trace.records, ref.records):
            assert r.d_norm == r_ref.d_norm * s
            assert r.residual == r_ref.residual / s
            assert replace(r, d_norm=r_ref.d_norm, residual=r_ref.residual) == r_ref
        reports, _, _ = run_diagnostics(trace, step, params, stop)
        assert [r.name for r in reports if not r.passed] == []
