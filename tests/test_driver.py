import copy
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from conftest import base_step, by_formula, full_formula, support_formula, without_reuse

from descentls import objectives
from descentls.driver import (
    ARMIJO_FAILED,
    IterationRecord,
    LineSearchParams,
    NonFiniteObjective,
    RunTrace,
    StopCriteria,
    StopReason,
    armijo_search,
    iterations_to_tolerance,
    read_trace_records,
    run,
    run_plain,
    validate_records,
    write_trace,
)
from descentls.instances import InstanceSpec, generate_instance
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import IHTStep, ProxGradientStep

PARAMS = LineSearchParams(alpha=0.1, eta=0.5, cap=10)


def scalar_quadratic():
    # f(x) = x^2 / 2
    return SmoothQuadratic.from_data(np.array([[1.0]]), np.array([0.0]))


def micro_step():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    return IHTStep(prob=L0LeastSquares(quad=quad, lam=1.0), h=2.0)


def one_iteration(x, step, params):
    """The next iterate and the only record of a one-iteration run from x."""
    trace = run(x, step, params, StopCriteria(max_iters=1, d_tol=0.0))
    (record,) = trace.records
    return trace.final_x, record


def search(obj, y, d, params):
    """`armijo_search` given Phi(y) and d.d, as `run` passes them."""
    return armijo_search(obj, y, d, params, obj.value(y), float(d.dot(d)))


def brute_force_armijo(obj, y, d, params):
    """Independent oracle: test every m in 0..cap, return the smallest feasible."""
    phi_y = obj.value(y)
    d_sq = float(d @ d)
    for m in range(params.cap + 1):
        t = params.eta ** m
        if obj.value(y + t * d) <= phi_y - params.alpha * t * d_sq:
            return m, t
    return ARMIJO_FAILED, 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        LineSearchParams(alpha=0.0)
    with pytest.raises(ValueError):
        LineSearchParams(eta=1.0)
    with pytest.raises(ValueError):
        LineSearchParams(cap=-1)
    with pytest.raises(ValueError):
        StopCriteria(max_iters=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            LineSearchParams(alpha=bad)
        with pytest.raises(ValueError, match="d_tol"):
            StopCriteria(d_tol=bad)
    # A count must be an integer: range() in the solve would raise a TypeError.
    for bad in (2.5, 20.0, True, False, "3"):
        with pytest.raises(ValueError, match="cap"):
            LineSearchParams(cap=bad)
        with pytest.raises(ValueError, match="max_iters"):
            StopCriteria(max_iters=bad)
    assert LineSearchParams(cap=np.int64(3)).cap == 3
    assert StopCriteria(max_iters=np.int64(3)).max_iters == 3


def test_armijo_success_at_m0():
    obj = scalar_quadratic()
    m, eta_k = search(obj, np.array([0.5]), np.array([-0.5]), PARAMS)
    assert (m, eta_k) == (0, 1.0)


def test_armijo_failure_at_minimizer():
    obj = scalar_quadratic()
    m, eta_k = search(obj, np.array([0.0]), np.array([-1.0]), PARAMS)
    assert (m, eta_k) == (ARMIJO_FAILED, 0.0)


def test_armijo_l0_worked_example():
    step = micro_step()
    m, eta_k = search(step.prob, np.array([2.25, 0.0]), np.array([0.75, 0.0]), PARAMS)
    assert (m, eta_k) == (0, 1.0)


def test_armijo_zero_direction():
    obj = scalar_quadratic()
    m, eta_k = search(obj, np.array([0.7]), np.array([0.0]), PARAMS)
    assert (m, eta_k) == (0, 1.0)


@pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "l0"])
def test_armijo_zero_direction_evaluates_nothing(monkeypatch, smooth):
    # The m = 0 trial of d = 0 is y itself, so the search accepts it unevaluated.
    obj = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    if not smooth:
        obj = L0LeastSquares(quad=obj, lam=1.0)
    y = np.array([2.25, 0.0])
    phi_y = obj.value(y)
    calls = []
    monkeypatch.setattr(type(obj), "value", lambda self, x: calls.append(x))
    for d in (np.zeros(2), np.array([0.0, -0.0])):
        assert armijo_search(obj, y, d, PARAMS, phi_y, 0.0) == (0, 1.0)
    assert calls == []


@pytest.mark.parametrize("d", [np.array([-0.5, 0.0]), np.zeros(2), np.array([[-0.5]])],
                         ids=["longer", "longer-zero", "2-d"])
def test_armijo_rejects_y_and_d_of_different_shapes(d):
    # Checked before the zero-direction shortcut, which would accept a zero d of any shape.
    obj = scalar_quadratic()
    y = np.array([0.5])
    with pytest.raises(ValueError, match="y and d must have the same length"):
        armijo_search(obj, y, d, PARAMS, obj.value(y), float(d.ravel().dot(d.ravel())))


def test_search_row_whose_d_sq_underflows_moves_to_its_record(monkeypatch):
    # Gradient descent with h = L = 1 on f(x) = x^2/2 from x0 = 2^-540: y = 0
    # and d = -x0, whose square underflows to 0, as do f(-x0) and the Armijo
    # margin.  The m = 0 trial -x0 differs from y, so the search accepts it
    # and x moves to x0 + 2d = -x0, as the record (0, 1.0) says.
    quad = SmoothQuadratic.from_data(np.array([[1.0]]), np.array([0.0]), lipschitz=1.0)
    x0 = np.array([2.0 ** -540])
    calls = []
    value = SmoothQuadratic.value
    monkeypatch.setattr(SmoothQuadratic, "value", lambda self, x: calls.append(x) or value(self, x))
    x_next, record = one_iteration(x0, ProxGradientStep(prob=quad, h=1.0), PARAMS)
    assert (record.d_norm, record.m_k, record.eta_k) == (0.0, 0, 1.0)
    assert x_next.tobytes() == (-x0).tobytes()
    assert len(calls) == 4  # phi_x, phi_y, the one trial and final_phi


def test_search_and_plain_agree_on_a_fixed_point_holding_minus_zero():
    # d = 0 - (-0.0) = +0.0, so the search's x + 2d writes +0.0 where the
    # plain run writes y's +0.0; -0.0 is not support, so the records agree.
    step = micro_step()
    x0 = np.array([3.0, -0.0])
    (x_search, searched), (x_plain, plain) = (one_iteration(x0, step, p) for p in (PARAMS, None))
    assert x_search.tobytes() == x_plain.tobytes() == np.array([3.0, 0.0]).tobytes()
    assert (searched.m_k, searched.eta_k) == (0, 1.0)
    assert replace(searched, m_k=None, eta_k=None) == plain


def test_armijo_fails_when_trial_point_equals_y():
    # t * d is below half an ulp of y, so y + t*d == y for every m: Phi does
    # not move and the test holds with equality once alpha*t*||d||^2 underflows.
    obj = scalar_quadratic()
    y, d = np.array([1.0]), np.array([1e-300])
    params = LineSearchParams(alpha=0.1, eta=0.5, cap=100)
    assert brute_force_armijo(obj, y, d, params)[0] != ARMIJO_FAILED
    assert search(obj, y, d, params) == (ARMIJO_FAILED, 0.0)


@pytest.mark.parametrize("seed", range(30))
def test_armijo_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        a = rng.standard_normal((3, 4))
        obj = L0LeastSquares(quad=SmoothQuadratic.from_data(a, rng.standard_normal(3)), lam=0.2)
        y, d = rng.standard_normal(4), rng.standard_normal(4)
    else:
        obj = SmoothQuadratic.from_data(rng.standard_normal((2, 2)), rng.standard_normal(2))
        y, d = rng.standard_normal(2), rng.standard_normal(2)
    assert search(obj, y, d, PARAMS) == brute_force_armijo(obj, y, d, PARAMS)


def test_iterate_worked_instance():
    step = micro_step()
    x_next, record = one_iteration(np.zeros(2), step, PARAMS)
    np.testing.assert_array_equal(x_next, [3.0, 0.0])
    assert record.m_k == 0 and record.eta_k == 1.0
    assert record.phi_x == 4.625 and record.phi_y == 2.25
    assert record.d_norm == 1.5
    assert record.residual == 0.0
    assert record.support_size == 1
    assert record.support_entered == 1 and record.support_left == 0


def test_iterate_fixed_point():
    step = micro_step()
    x_next, record = one_iteration(np.array([3.0, 0.0]), step, PARAMS)
    np.testing.assert_array_equal(x_next, [3.0, 0.0])
    assert record.d_norm == 0.0
    assert record.m_k == 0 and record.eta_k == 1.0


def test_failed_search_advances_to_y():
    # At the exact minimizer of a smooth quadratic shifted by one gradient
    # step, extrapolation can't decrease; the run must continue at y.
    quad = scalar_quadratic()
    gd = ProxGradientStep(prob=quad, h=quad.lipschitz)
    x = np.array([1.0])
    y = base_step(gd, x)
    m, eta_k = search(quad, y, y - x, LineSearchParams(alpha=5.0, eta=0.5, cap=5))
    assert (m, eta_k) == (ARMIJO_FAILED, 0.0)
    x_next, record = one_iteration(x, gd, LineSearchParams(alpha=5.0, eta=0.5, cap=5))
    np.testing.assert_array_equal(x_next, y)
    assert record.m_k == ARMIJO_FAILED and record.eta_k == 0.0


def test_run_worked_instance():
    step = micro_step()
    trace = run(np.zeros(2), step, PARAMS, StopCriteria(d_tol=1e-10))
    np.testing.assert_array_equal(trace.final_x, [3.0, 0.0])
    assert trace.stop_reason is StopReason.D_TOL
    assert len(trace.records) == 2
    assert trace.records[1].d_norm == 0.0
    assert trace.records[-1].residual == 0.0


def test_run_from_fixed_point():
    step = micro_step()
    trace = run(np.array([3.0, 0.0]), step, PARAMS, StopCriteria())
    assert len(trace.records) == 1
    assert trace.stop_reason is StopReason.D_TOL


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), ()], ids=["column", "row", "scalar"])
@pytest.mark.parametrize("params", [PARAMS, None], ids=["search", "plain"])
def test_run_rejects_an_x0_that_is_not_1d(monkeypatch, shape, params):
    # Rejected with its shape named, before any product with A or A.T.
    calls = []
    for name in ("matvec", "transpose_matvec"):
        monkeypatch.setattr(objectives, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match=f"x0 must be a 1-D vector, got shape {re.escape(str(shape))}"):
        run(np.zeros(shape), micro_step(), params, StopCriteria())
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("params", [PARAMS, None], ids=["search", "plain"])
def test_run_rejects_a_non_finite_x0(monkeypatch, bad, params):
    # Rejected as a bad input, before any product with A or A.T.
    calls = []
    for name in ("matvec", "transpose_matvec"):
        monkeypatch.setattr(objectives, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(np.array([0.0, bad]), micro_step(), params, StopCriteria())
    assert calls == []


def test_run_plain_geometric_and_iteration_count():
    step = micro_step()
    trace = run_plain(np.zeros(2), step, StopCriteria(d_tol=1e-10))
    # x_{k+1} = (x_k + 3)/2 on the stabilized support: d_k = 3 * 2^-(k+1)
    for k in range(10):
        assert trace.records[k].d_norm == pytest.approx(3.0 * 2.0 ** -(k + 1), rel=1e-12)
    assert iterations_to_tolerance(trace, 1e-6) == 21
    assert trace.records[0].m_k is None and trace.records[0].eta_k is None


def test_run_plain_fixed_point():
    step = micro_step()
    trace = run_plain(np.array([3.0, 0.0]), step, StopCriteria())
    assert len(trace.records) == 1
    assert trace.stop_reason is StopReason.D_TOL


def test_phi_monotone_and_sandwich_on_seeded_run():
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.01, seed=3))
    prob = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
    step = IHTStep.default(prob)
    trace = run(np.zeros(32), step, PARAMS, StopCriteria())
    phis = [r.phi_x for r in trace.records]
    assert all(p2 <= p1 + 1e-12 for p1, p2 in zip(phis, phis[1:]))
    for r in trace.records:
        if r.d_norm > 0:
            ratio = 1.0 + r.eta_k if r.m_k != ARMIJO_FAILED else 1.0
            assert 1.0 <= ratio <= 2.0


@pytest.mark.parametrize("params", [PARAMS, None], ids=["search", "plain"])
def test_run_matches_iterate_and_support_sets(params):
    # run carries each iterate's gradient and support mask forward; a run
    # started at x_k computes them afresh, and its one row must be row k.
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.01, seed=6))
    prob = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
    step = IHTStep.default(prob)
    trace = run(np.zeros(32), step, params, StopCriteria())
    x = np.zeros(32)
    for k, recorded in enumerate(trace.records):
        x_next, record = one_iteration(x, step, params)
        assert record.k == 0 and replace(record, k=k) == recorded
        before, after = (set(np.flatnonzero(prob.support_mask(v)).tolist()) for v in (x, x_next))
        assert record.support_size == len(after)
        assert record.support_entered == len(after - before)
        assert record.support_left == len(before - after)
        x = x_next
    np.testing.assert_array_equal(x, trace.final_x)


def _generated_case(spec):
    a, b, _ = generate_instance(spec)
    step = IHTStep.default(L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01))
    return step, np.zeros(spec.cols)


def _underflow_case():
    # test_search_row_whose_d_sq_underflows_moves_to_its_record's instance:
    # d = -x0 is nonzero, d_norm reads 0.0, and the search still tries m = 0.
    quad = SmoothQuadratic.from_data(np.array([[1.0]]), np.array([0.0]), lipschitz=1.0)
    return ProxGradientStep(prob=quad, h=1.0), np.array([2.0 ** -540])


@pytest.mark.parametrize("spec", [InstanceSpec(32, 64, 4, 0.01, seed) for seed in (1, 9, 42)]
                         + [InstanceSpec(256, 512, 32, 0.01, 1), None],
                         ids=["32x64-1", "32x64-9", "32x64-42", "256x512-1", "1x1-underflow"])
def test_products_per_run_follow_the_cost_model(monkeypatch, products, spec):
    # The trials are what the search evaluated: a run calls value
    # 2 * iters + trials + 1 times.  Then rerun with no call reusing
    # another's residual or f, which must change no bit of the run.
    step, x0 = _underflow_case() if spec is None else _generated_case(spec)
    params = LineSearchParams()
    products.watch("value")

    def record_trials(records):
        return sum(params.cap + 1 if r.m_k == ARMIJO_FAILED else r.m_k + 1 for r in records)

    for variant in (None, params):
        products.clear()
        trace = run(x0, step, variant, StopCriteria())
        iters = len(trace.records)
        trials = len(products.calls) - 2 * iters - 1
        assert products.count("transpose_matvec") == iters + 1
        if variant is None:
            assert trials == 0 and products.count("matvec") == iters + 1
        else:
            # Only an exactly zero d skips the search, and its row has d_norm == 0.
            assert record_trials(r for r in trace.records if r.d_norm > 0.0) <= trials <= record_trials(trace.records)
            assert products.count("matvec") <= 2 * iters + trials + 1
        with monkeypatch.context() as m:
            without_reuse(m)
            fresh = run(x0, step, variant, StopCriteria())
        assert repr([astuple(r) for r in fresh.records]) == repr([astuple(r) for r in trace.records])
        assert fresh.final_x.tobytes() == trace.final_x.tobytes() and fresh.final_phi == trace.final_phi


def test_products_at_a_gathered_size_follow_the_cost_model(monkeypatch, products):
    # 256x2048 passes the support-column rule, so a miss multiplies only the
    # nonzero columns of x: a product reads fewer columns but still counts
    # as one.  A gradient whose support has at most GRAM_MAX_SUPPORT indices
    # sums cached Gram columns instead of multiplying by A.T: it builds
    # A^T b on the objective's first such gradient and one column per index
    # that no earlier one had (256 columns fit the cache, over both runs on
    # the one objective), and a larger support makes one A.T e.  So no
    # gradient makes more than 1 + min(GRAM_MAX_SUPPORT, m) products with
    # A.T.  A call on the last call's point makes no product with A, and
    # any other call exactly one.  At sparsity 4 every gradient takes the
    # Gram form; at sparsity 12, seed 3, supports fall on both sides of the
    # cap.  Traces move at the rounding level, so each variant is held to a
    # run that multiplies every column on every call.
    params = LineSearchParams()
    products.watch("value", "grad")
    for spec in (InstanceSpec(256, 2048, 4, 0.01, seed=1), InstanceSpec(256, 2048, 12, 0.01, seed=3)):
        a, b, _ = generate_instance(spec)
        step = ProxGradientStep.default(L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01))
        cap = min(objectives.GRAM_MAX_SUPPORT, spec.rows)
        seen = set()  # support indices of every Gram-form gradient point so far
        atb = False  # whether a Gram-form gradient has built A^T b
        over = set()  # whether each gradient's support was over the cap
        last = None
        for variant in (None, params):
            products.clear()
            trace = run(np.zeros(spec.cols), step, variant, StopCriteria())
            for call in products.calls:
                support = np.flatnonzero(call.x)
                if last is not None and call.x.tobytes() == last.x.tobytes():
                    assert call.count("matvec") == 0
                else:
                    gathered = objectives.GATHER_COLS_PER_NONZERO * support.size <= spec.cols
                    assert call.count("matvec") == 1
                    assert call.products[0] == ("matvec", support.size if gathered else spec.cols)
                last = call
                if call.method == "grad":
                    builds = call.count("transpose_matvec")
                    assert builds <= 1 + cap
                    over.add(support.size > cap)
                    if support.size > cap:
                        assert builds == 1
                    else:
                        new = set(support.tolist()) - seen
                        assert builds == (not atb) + len(new)
                        seen |= new
                        atb = True
            iters = len(trace.records)
            if variant is None:
                assert products.count("matvec") == iters + 1
            else:
                trials = sum(params.cap + 1 if r.m_k == ARMIJO_FAILED else r.m_k + 1
                             for r in trace.records if r.d_norm > 0.0)
                assert products.count("matvec") <= 2 * iters + trials + 1
            with monkeypatch.context() as m:
                by_formula(m, full_formula)
                full = run(np.zeros(spec.cols), step, variant, StopCriteria())
            assert trace.stop_reason is full.stop_reason is StopReason.D_TOL
            assert trace.final_phi == pytest.approx(full.final_phi, rel=1e-9, abs=0.0)
        assert 0 < len(seen) <= spec.rows
        assert over == ({False} if spec.sparsity == 4 else {False, True})


def _records(trace):
    return repr([astuple(r) for r in trace.records]), trace.final_x.tobytes(), trace.final_phi


def test_gram_gradients_of_a_run_are_accurate_and_independent_of_the_cache(products):
    # At 256x2048, sparsity 4, no gradient point of a run has more than
    # GRAM_MAX_SUPPORT nonzeros, so every gradient sums cached Gram
    # columns.  Each must lie within the forward-error bound of a product
    # with A and A.T,
    # 2 * gamma_{m+n+1} * |A|^T (|A| |x| + |b|) with gamma_k = k u / (1 - k u),
    # of the two-product reference A.T (A x - b): it holds for the Gram form
    # and for the reference alike.  Each must have the bits of the same call
    # on an objective that has built nothing yet, and each cached column the
    # bits of its own fresh build.  So a run reproduces on a fresh objective
    # in either order in which a shared one sees the two variants: search
    # then plain (the benchmark's order) and plain then search (`compare`'s).
    spec = InstanceSpec(256, 2048, 4, 0.01, seed=2)
    a, b, _ = generate_instance(spec)
    lipschitz = SmoothQuadratic.from_data(a, b).lipschitz

    def step_on(quad):
        return ProxGradientStep.default(L0LeastSquares(quad=quad, lam=0.01))

    def fresh_quad():
        return SmoothQuadratic(A=a, b=b, lipschitz=lipschitz)

    products.watch("grad")
    fresh = {variant: _records(run(np.zeros(spec.cols), step_on(fresh_quad()), variant, StopCriteria()))
             for variant in (None, PARAMS)}
    points = [(call.x, call.result) for call in products.calls]
    assert max(np.count_nonzero(x) for x, _ in points) <= objectives.GRAM_MAX_SUPPORT
    u = np.finfo(np.float64).eps / 2
    gamma = (a.shape[0] + a.shape[1] + 1) * u / (1 - (a.shape[0] + a.shape[1] + 1) * u)
    abs_a = np.abs(a)
    for x, g in points:
        reference = a.T.dot(a.dot(x) - b)
        bound = 2 * gamma * abs_a.T.dot(abs_a.dot(np.abs(x)) + np.abs(b))
        assert (np.abs(g - reference) <= bound).all()
        assert g.tobytes() == fresh_quad().grad(x).tobytes()

    # The first order builds A^T b and one column per support index seen;
    # the second then runs on cache hits alone and builds nothing.
    shared = fresh_quad()
    seen = {j for x, _ in points for j in np.flatnonzero(x).tolist()}
    for order, built in (((PARAMS, None), 1 + len(seen)), ((None, PARAMS), 0)):
        products.clear()
        for variant in order:
            assert _records(run(np.zeros(spec.cols), step_on(shared), variant, StopCriteria())) == fresh[variant]
        assert products.count("transpose_matvec") == built
    # So the shared objective holds A^T b and the column of every index seen,
    # each with the bits of a fresh build, and no other column.
    for j in sorted(seen):
        x = np.zeros(spec.cols)
        x[j] = 1.0
        products.clear()
        assert shared.grad(x).tobytes() == support_formula(shared, "grad", x).tobytes()
        assert products.count("transpose_matvec") == 0
    x = np.zeros(spec.cols)
    x[min(set(range(spec.cols)) - seen)] = 1.0
    products.clear()
    shared.grad(x)
    assert products.count("transpose_matvec") == 1


def test_runs_across_the_gram_cap_reproduce_on_a_fresh_objective():
    # At 256x2048, sparsity 12, a run's gradient points have supports on
    # both sides of GRAM_MAX_SUPPORT, so it mixes the Gram form and A.T e.
    # Which form a gradient takes depends on x alone, so on one objective
    # shared in either order each run has the records of a fresh one.
    spec = InstanceSpec(256, 2048, 12, 0.01, seed=3)
    a, b, _ = generate_instance(spec)
    lipschitz = SmoothQuadratic.from_data(a, b).lipschitz

    def run_on(quad, variant):
        step = ProxGradientStep.default(L0LeastSquares(quad=quad, lam=0.01))
        return run(np.zeros(spec.cols), step, variant, StopCriteria())

    fresh = {v: run_on(SmoothQuadratic(A=a, b=b, lipschitz=lipschitz), v) for v in (None, PARAMS)}
    for trace in fresh.values():
        sizes = {r.support_size > objectives.GRAM_MAX_SUPPORT for r in trace.records}
        assert sizes == {False, True}
    for order in ((PARAMS, None), (None, PARAMS)):
        shared = SmoothQuadratic(A=a, b=b, lipschitz=lipschitz)
        for variant in order:
            assert _records(run_on(shared, variant)) == _records(fresh[variant])


@pytest.mark.parametrize("variant", [None, PARAMS], ids=["plain", "search"])
@pytest.mark.parametrize("smooth", [False, True], ids=["l0", "smooth"])
@pytest.mark.parametrize("spec", [InstanceSpec(32, 64, 4, 0.01, seed) for seed in (1, 9, 42)]
                         + [InstanceSpec(256, 512, 32, 0.01, 1), InstanceSpec(256, 2048, 4, 0.01, 1),
                            InstanceSpec(256, 2048, 12, 0.01, 3)],
                         ids=["32x64-1", "32x64-9", "32x64-42", "256x512-1", "256x2048-4-1", "256x2048-12-3"])
def test_every_memo_entry_of_a_run_is_read_by_value(products, spec, smooth, variant):
    # A miss computes f with the residual, which costs nothing extra only
    # while `value` reads every entry before the next miss.  A loop change
    # that made an entry only `grad` reads would pay a dot nobody uses.  A
    # call missed exactly when it made a product with A.  The two 256x2048
    # instances pass the support-column rule: at sparsity 4 every l0
    # gradient takes the Gram form, at sparsity 12 supports fall on both
    # sides of its cap.
    a, b, _ = generate_instance(spec)
    quad = SmoothQuadratic.from_data(a, b)
    step = ProxGradientStep.default(quad if smooth else L0LeastSquares(quad=quad, lam=0.01))
    products.watch("value", "grad")
    run(np.zeros(spec.cols), step, variant, StopCriteria())
    readers = []  # per memo entry, the methods that read it
    for call in products.calls:
        if call.count("matvec"):
            readers.append(set())
        readers[-1].add(call.method)
    assert products.calls[0].count("matvec") and len(readers) > 2
    assert all("value" in names for names in readers)


def test_max_iters_stop():
    step = micro_step()
    trace = run_plain(np.zeros(2), step, StopCriteria(max_iters=3, d_tol=0.0))
    assert len(trace.records) == 3
    assert trace.stop_reason is StopReason.MAX_ITERS


def test_diverging_step_raises_non_finite_objective():
    # Maximizing direction: x_k = 2^(k+1) - 1 grows until y^2 in Phi(y)
    # overflows at k = 510, long before d_tol or max_iters could stop it.
    quad = scalar_quadratic()

    class DivergingStep:
        prob = quad

        def apply_grad(self, x, g):
            return 2.0 * x + 1.0

    with pytest.raises(NonFiniteObjective, match="at iteration 510:"):
        run_plain(np.array([1.0]), DivergingStep(), StopCriteria())


def test_trace_csv_round_trip(tmp_path):
    a, b, _ = generate_instance(InstanceSpec(8, 16, 2, 0.01, seed=5))
    prob = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
    step = IHTStep.default(prob)
    for trace in (run(np.zeros(16), step, PARAMS, StopCriteria()),
                  run_plain(np.zeros(16), step, StopCriteria())):
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        loaded = read_trace_records(path)
        assert loaded == trace.records
        changes = [(r.support_entered, r.support_left) for r in loaded]
        assert changes == [(r.support_entered, r.support_left) for r in trace.records]
        assert None not in {c for pair in changes for c in pair}
    smooth = run(np.zeros(16), ProxGradientStep.default(prob.quad), PARAMS, StopCriteria())
    write_trace(smooth, path)
    assert read_trace_records(path) == smooth.records
    assert {(r.support_size, r.support_entered, r.support_left) for r in smooth.records} == {(None,) * 3}


def test_trace_csv_bytes(tmp_path):
    # README documents the column order; a float has 17 significant digits, so
    # 0.1 is not written as repr's "0.1", and the sign of zero survives.
    records = [IterationRecord(0, 0.1, -0.0, 1e-300, ARMIJO_FAILED, 0.0, 2.5, 3, 1, 0),
               IterationRecord(1, 1.0, 0.5, 0.0, None, None, 0.25, None, None, None)]
    path = tmp_path / "trace.csv"
    write_trace(RunTrace(records, np.zeros(1), StopReason.D_TOL, 0.0), path)
    assert path.read_bytes() == (
        b"k,phi_x,phi_y,d_norm,m_k,eta_k,residual,support_size,support_entered,support_left\r\n"
        b"0,0.10000000000000001,-0,1e-300,-1,0,2.5,3,1,0\r\n"
        b"1,1,0.5,0,,,0.25,,,\r\n")
    assert repr(read_trace_records(path)) == repr(records)


def test_validate_records():
    step = micro_step()
    trace = run(np.zeros(2), step, PARAMS, StopCriteria())
    validate_records(trace.records, PARAMS)
    for field, value in (("d_norm", -1.0), ("d_norm", float("nan")), ("d_norm", float("inf")),
                         ("support_entered", -1), ("support_left", -1), ("support_size", -1)):
        bad = copy.deepcopy(trace.records)
        setattr(bad[0], field, value)
        with pytest.raises(ValueError, match=field):
            validate_records(bad, PARAMS)
    bad = [r for r in trace.records]
    bad[0].eta_k = 2.0
    with pytest.raises(ValueError):
        validate_records(bad, PARAMS)
    # Both are powers of eta, but eta_k must be eta^m_k on its own row.
    bad[0].m_k, bad[0].eta_k = 1, 0.25
    with pytest.raises(ValueError, match="record 0: eta_k = 0.25 is not eta"):
        validate_records(bad, PARAMS)


@pytest.mark.parametrize("zero_tol", [0.0])
@pytest.mark.parametrize("params", [PARAMS, None])
def test_record_fields_are_python_scalars(params, zero_tol):
    # Counts are int and values float, never numpy scalars, whose reprs differ.
    a, b, _ = generate_instance(InstanceSpec(32, 64, 4, 0.01, seed=1))
    prob = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01, zero_tol=zero_tol)
    trace = run(np.zeros(64), ProxGradientStep.default(prob), params, StopCriteria())
    assert {type(v) for r in trace.records for v in astuple(r)} <= {float, int, type(None)}
    assert type(trace.final_phi) is float
