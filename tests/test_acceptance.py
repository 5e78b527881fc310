"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The 50 seeded instances (32x64, sparsity 4, noise 0.01, seeds 1..50) are
solved once per variant and shared across criteria.
"""

import csv
import json

import numpy as np
import pytest

from descentls.cli import main as cli_main
from descentls.diagnostics import check_sufficient_decrease, check_support
from descentls.driver import (
    ARMIJO_FAILED,
    LineSearchParams,
    StopCriteria,
    armijo_search,
    iterations_to_tolerance,
    run,
    run_plain,
)
from descentls.instances import InstanceSpec, generate_instance
from descentls.linalg import save_matrix, save_vector
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import IHTStep

PARAMS = LineSearchParams(alpha=0.1, eta=0.5, cap=20)
STOP = StopCriteria(max_iters=10_000, d_tol=1e-10)
SEEDS = range(1, 51)


def extrapolation(r) -> float:
    """t_k of a row: its accepted eta_k, 0 on a failed search and on a plain row."""
    return 0.0 if r.eta_k is None else r.eta_k


def report(criterion: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} acceptance: {criterion}")
    return ok


@pytest.fixture(scope="module")
def seeded_runs():
    runs = []
    for seed in SEEDS:
        a, b, _ = generate_instance(InstanceSpec(32, 64, 4, 0.01, seed))
        prob = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
        step = IHTStep.default(prob, h_factor=1.01)
        x0 = np.zeros(64)
        runs.append((seed, step,
                     run(x0, step, PARAMS, STOP),
                     run_plain(x0, step, STOP)))
    return runs


def micro_step():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    return IHTStep(prob=L0LeastSquares(quad=quad, lam=1.0), h=2.0)


def test_criterion_1_worked_micro_instance():
    step = micro_step()
    trace = run(np.zeros(2), step, PARAMS, STOP)
    plain = run_plain(np.zeros(2), step, STOP)
    ok = (
        np.array_equal(trace.final_x, [3.0, 0.0])
        and trace.records[-1].residual == 0.0
        and trace.records[0].m_k == 0
        and trace.records[0].eta_k == 1.0
        and iterations_to_tolerance(trace, 1e-6) == 1
        and len(trace.records) == 2
        and iterations_to_tolerance(plain, 1e-6) == 21
        and abs(trace.records[0].phi_x - 4.625) <= 1e-12
        and abs(trace.records[1].phi_x - 1.125) <= 1e-12
        and abs(trace.final_phi - 1.125) <= 1e-12
    )
    assert report("1 worked micro-instance (1 vs 21 iterations, exact values)", ok)


def test_criterion_2_sufficient_decrease(seeded_runs):
    ok = True
    for seed, step, ls, plain in seeded_runs:
        L = step.prob.quad.lipschitz
        for trace in (ls, plain):
            nu = step.prob.nu(step.h)
            assert nu == (step.h - L) / 2.0
            rep = check_sufficient_decrease(trace, nu, PARAMS.alpha)
            ok = ok and rep.passed
    assert report("2 sufficient decrease, zero violations over 50 seeds", ok)


def test_criterion_3_residual_bound_after_stabilization(seeded_runs):
    ok = True
    for seed, step, ls, plain in seeded_runs:
        L = step.prob.quad.lipschitz
        # Each row is bounded by its own b_k = beta + L * t_k; t_k = 0 on plain rows.
        beta = step.h + L
        for trace in (ls, plain):
            k_stab, sup = check_support(trace, step.prob.threshold(step.h))
            if k_stab is None:
                ok = False
                continue
            for k in range(k_stab, len(trace.records)):
                r = trace.records[k]
                if r.residual > (beta + L * extrapolation(r)) * r.d_norm + 1e-9:
                    ok = False
    assert report("3 residual bound for k >= K_stab; K_stab exists in all 50 runs", ok)


def test_criterion_4_sandwich_and_summability(seeded_runs):
    ok = True
    for seed, step, ls, plain in seeded_runs:
        nu = step.prob.nu(step.h)
        # sandwich: the update moves by exactly (1 + eta_k) d^k, and the
        # extrapolation factor never exceeds 1 + eta^0 (m = 0 is admissible)
        for r in ls.records:
            if r.d_norm > 0:
                ratio = 1.0 + (r.eta_k if r.m_k != ARMIJO_FAILED else 0.0)
                if not 1.0 <= ratio <= 2.0:
                    ok = False
        # summability: running sums of a_k * ||d||^2, a_k = nu + alpha * t_k,
        # against the total decrease
        phi0 = ls.records[0].phi_x
        partial = 0.0
        for k, r in enumerate(ls.records):
            partial += (nu + PARAMS.alpha * extrapolation(r)) * r.d_norm ** 2
            phi_next = ls.records[k + 1].phi_x if k + 1 < len(ls.records) else ls.final_phi
            drop = phi0 - phi_next
            if partial > drop + 1e-9 * max(1.0, abs(drop)):
                ok = False
    assert report("4 step sandwich and squared-step summability at every k", ok)


def test_criterion_5_armijo_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for probe in range(1000):
        if probe % 2:
            n = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 5))
            obj = L0LeastSquares(
                quad=SmoothQuadratic.from_data(rng.standard_normal((rows, n)),
                                               rng.standard_normal(rows)),
                lam=float(rng.uniform(0.05, 1.0)))
        else:
            n = 1
            obj = SmoothQuadratic.from_data(rng.standard_normal((1, 1)),
                                            rng.standard_normal(1))
        y = rng.standard_normal(n)
        d = rng.standard_normal(n) * float(rng.uniform(0, 2))
        phi_y = obj.value(y)
        d_sq = float(d @ d)
        got = armijo_search(obj, y, d, PARAMS, phi_y, d_sq)
        expected = (ARMIJO_FAILED, 0.0)
        for m in range(PARAMS.cap + 1):
            t = PARAMS.eta ** m
            if obj.value(y + t * d) <= phi_y - PARAMS.alpha * t * d_sq:
                expected = (m, t)
                break
        if got != expected:
            mismatches += 1
    assert report("5 Armijo oracle equivalence on 1000 probes, zero mismatches",
                  mismatches == 0)


def test_criterion_6_line_search_efficiency(seeded_runs, tmp_path):
    def iters_to_own_final(trace):
        target = trace.final_phi + 1e-8
        for r in trace.records:
            if r.phi_x <= target:
                return r.k
        return len(trace.records)

    wins = sum(1 for _, _, ls, plain in seeded_runs
               if iters_to_own_final(ls) <= iters_to_own_final(plain))
    frac = wins / len(seeded_runs)
    # emitted dual-trace CSV is plot-ready
    assert cli_main(["compare", "--seed", "42", "--out", str(tmp_path)]) == 0
    plot_ready = True
    for name in ("plain_trace.csv", "search_trace.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        plot_ready = plot_ready and {"k", "phi_x"} <= rows[0].keys() and len(rows) > 1
    assert report(f"6 line search wins or ties on {frac:.0%} of seeds (need >= 80%)",
                  frac >= 0.8 and plot_ready)


def test_criterion_7_hard_threshold_properties():
    rng = np.random.default_rng(7)
    h = 2.0
    prob = L0LeastSquares(quad=SmoothQuadratic(A=np.eye(1), b=np.zeros(1), lipschitz=1.0), lam=1.0)
    thresh = prob.threshold(h)
    t = rng.uniform(-3, 3, size=100_000)
    ht = prob.prox(t, h)
    ok = (
        np.array_equal(prob.prox(-t, h), -ht)
        and np.array_equal(prob.prox(ht, h), ht)
        and prob.prox(thresh, h) == thresh
        and prob.prox(-thresh, h) == -thresh
    )
    assert report("7 hard-threshold odd/idempotent/boundary on 1e5 samples", ok)


def test_criterion_8_gradient_finite_differences():
    worst = 0.0
    step = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        quad = SmoothQuadratic.from_data(rng.standard_normal((6, 9)), rng.standard_normal(6))
        x = rng.standard_normal(9)
        g = quad.grad(x)
        for i in range(9):
            e = np.zeros(9)
            e[i] = step
            fd = (quad.value(x + e) - quad.value(x - e)) / (2 * step)
            worst = max(worst, abs(g[i] - fd))
    assert report(f"8 gradient matches finite differences (max err {worst:.2e} <= 1e-5)",
                  worst <= 1e-5)


def test_criterion_9_mutation_sensitivity(tmp_path):
    out = tmp_path / "mut"
    assert cli_main(["run", "--seed", "1", "--out", str(out)]) == 0

    def corrupt_and_verify(row, column):
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        original = rows[row][column]
        rows[row][column] = format(float(original) + 1.0, ".17g")
        mutated = out / "mutated.csv"
        with open(mutated, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return cli_main(["verify", "--seed", "1", "--trace", str(mutated),
                         "--out", str(out)])

    caught = [corrupt_and_verify(5, 1) != 0,     # phi_x
              corrupt_and_verify(-1, 3) != 0,    # d_norm
              corrupt_and_verify(-1, 6) != 0,    # residual
              corrupt_and_verify(4, 5) != 0]     # eta_k
    assert report("9 all 4 targeted trace corruptions caught by verify", all(caught))
