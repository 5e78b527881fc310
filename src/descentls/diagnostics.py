"""Runtime verification of the inequalities behind the line-search framework.

Every check consumes a completed `RunTrace` and reports the worst slack it
observed.  Tolerances are absolute 1e-9, scaled by max(1, |Phi|) where an
objective value sets the scale; double precision accumulated over at most
~1e4 iterations stays well inside that.

The decrease and residual constants are per row.  Row k extrapolates by
t_k: its accepted eta_k, and 0 on a failed search and on a plain row.  It
is checked against a_k = nu + alpha * t_k and b_k = beta + L * t_k, so a
plain trace is a search trace whose every t_k is 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .driver import IterationRecord, RunTrace, StopCriteria, LineSearchParams, StopReason
from .steps import ProxGradientStep

TOL = 1e-9

# The largest extrapolation factor the search can accept is eta^0 = 1, at
# m = 0.  Since x^{k+1} - x^k = (1 + t_k) d^k with 0 <= t_k <= 1, the d forms
# the checks test give the x-increment forms with trace-wide constants:
# a decrease of nu/4 * ||x^{k+1}-x^k||^2 and a residual of at most
# (beta + L) * ||x^{k+1}-x^k||.


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_violation: float      # most negative slack observed (0 if none)
    at_iteration: Optional[int]
    constant_used: float
    note: str = ""

    def as_dict(self) -> dict:
        d = {
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "at_iteration": self.at_iteration,
            "constant_used": self.constant_used,
        }
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class DerivedConstants:
    """The step constants the per-row checks build on, derived by `derive_constants`."""

    lipschitz: float  # L = ||A||^2 with its safety factor
    nu: float         # nu(h), from the objective
    beta: float       # h + L


def derive_constants(step: ProxGradientStep) -> DerivedConstants:
    """L, nu(h) and beta = h + L of the given step."""
    lipschitz = step.prob.lipschitz
    return DerivedConstants(lipschitz=lipschitz, nu=step.prob.nu(step.h), beta=step.h + lipschitz)


def _extrapolation(r: IterationRecord) -> float:
    """t_k of a row: its accepted eta_k, 0 on a failed search (eta_k = 0) and on a plain row."""
    return 0.0 if r.eta_k is None else r.eta_k


def _phi_next(trace: RunTrace, k: int) -> float:
    if k + 1 < len(trace.records):
        return trace.records[k + 1].phi_x
    return trace.final_phi


def check_sufficient_decrease(trace: RunTrace, nu: float, alpha: float) -> CheckReport:
    """Per-row decrease Phi(x^k) - Phi(x^{k+1}) >= a_k*||d^k||^2, a_k = nu + alpha*t_k.

    The reported constant is the a_k of the row with the least slack, which
    is the failing row on failure.
    """
    if not trace.records:
        raise ValueError("trace is empty")
    worst = math.inf
    worst_at = None
    worst_a = nu
    for k, r in enumerate(trace.records):
        a_k = nu + alpha * _extrapolation(r)
        drop = r.phi_x - _phi_next(trace, k)
        slack = drop - a_k * r.d_norm ** 2
        if slack < -TOL * max(1.0, abs(r.phi_x)):
            return CheckReport("sufficient_decrease", False, slack, k, a_k)
        if slack < worst:
            worst, worst_at, worst_a = slack, k, a_k
    return CheckReport("sufficient_decrease", True, worst if worst < 0 else 0.0, worst_at, worst_a)


def check_residual_bound(trace: RunTrace, beta: float, lipschitz: float, k_start: int = 0) -> CheckReport:
    """residual_k = dist(0, dPhi(x^{k+1})) <= b_k*||d^k||, b_k = beta + L*t_k, for k >= k_start.

    For l0 objectives the bound is asymptotic: pass the support
    stabilization index as k_start; smooth objectives use k_start = 0.
    An empty range passes vacuously.  The report names the row with the
    least slack (the failing row on failure) and its b_k, or no row and
    beta when the range is empty.
    """
    least, least_at, least_b = math.inf, None, beta
    for k in range(k_start, len(trace.records)):
        r = trace.records[k]
        b_k = beta + lipschitz * _extrapolation(r)
        slack = b_k * r.d_norm + TOL - r.residual
        if slack < 0.0:
            return CheckReport("residual_bound", False, slack, k, b_k)
        if slack < least:
            least, least_at, least_b = slack, k, b_k
    return CheckReport("residual_bound", True, 0.0, least_at, least_b)


def check_support(trace: RunTrace, threshold: float) -> tuple[Optional[int], CheckReport]:
    """Locate the support-stabilization index K_stab and bound support changes.

    K_stab is the start of the maximal suffix of iterates x^0, x^1, ...
    with identical support, read from the support_entered/support_left
    columns.  The report fails (K_stab = None) when the support still
    changed at the final recorded step.  Whenever an index enters the
    support between consecutive iterates, the step length that caused it
    must have been at least the hard-threshold level.
    """
    k_stab = 0
    worst = 0.0
    worst_at = None
    for k, r in enumerate(trace.records):
        if r.support_entered or r.support_left:
            k_stab = k + 1
        if r.support_entered:
            # x^{k+1}_i != 0 with x^k_i = 0 forces |d^k_i| >= threshold.
            slack = r.d_norm - threshold + TOL
            if slack < worst:
                worst, worst_at = slack, k
    if trace.records and k_stab == len(trace.records):
        report = CheckReport("support_stabilization", False, worst, worst_at, threshold,
                             note="support still changing at the final recorded step")
        return None, report
    passed = worst >= 0.0
    return k_stab, CheckReport("support_stabilization", passed, worst, worst_at, threshold)


def check_cauchy(trace: RunTrace, residual_threshold: float) -> CheckReport:
    """Empirical convergence certificate for runs that stopped on d_tol.

    Verifies that the final recorded residual is below the given threshold,
    with the absolute TOL slack that `check_residual_bound` allows on the
    same row.  The threshold is derived from d_tol, so runs that stopped for
    any other reason are reported as inconclusive (passed, with a note).
    """
    if trace.stop_reason is not StopReason.D_TOL:
        return CheckReport("cauchy_tail", True, 0.0, None, residual_threshold,
                           note=f"inconclusive: stopped by {trace.stop_reason.value}")
    slack = residual_threshold + TOL - trace.records[-1].residual
    if slack < 0.0:
        return CheckReport("cauchy_tail", False, slack, len(trace.records) - 1, residual_threshold)
    return CheckReport("cauchy_tail", True, 0.0, None, residual_threshold)


def summarize(
    reports: list[CheckReport],
    constants: DerivedConstants,
    stop_reason: StopReason,
    k_stab: Optional[int],
) -> tuple[dict, str]:
    """Machine-readable dict and human-readable text for a batch of checks."""
    if not reports:
        raise ValueError("no reports to summarize")
    payload: dict = {r.name: r.as_dict() for r in reports}
    payload["constants"] = asdict(constants)
    if k_stab is not None:
        payload["constants"]["k_stab"] = k_stab
    payload["stop_reason"] = stop_reason.value
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = f" ({r.note})" if r.note else ""
        lines.append(f"{status} {r.name}: worst_violation={r.worst_violation:.3e} "
                     f"at={r.at_iteration} constant={r.constant_used:.6g}{extra}")
    lines.append(f"stop_reason: {stop_reason.value}")
    return payload, "\n".join(lines)


def run_diagnostics(
    trace: RunTrace,
    step: ProxGradientStep,
    params: LineSearchParams,
    stop: StopCriteria,
) -> tuple[list[CheckReport], DerivedConstants, Optional[int]]:
    """Run every applicable check for a completed trace of the given step."""
    consts = derive_constants(step)
    reports = [check_sufficient_decrease(trace, consts.nu, params.alpha)]
    k_stab: Optional[int] = None
    k_start = 0
    if not step.prob.is_smooth:
        # The non-smooth objective is the l0 one, where the step has a hard-threshold level.
        k_stab, support_report = check_support(trace, step.threshold)
        reports.append(support_report)
        k_start = k_stab if k_stab is not None else len(trace.records)
    reports.append(check_residual_bound(trace, consts.beta, consts.lipschitz, k_start=k_start))
    # Computable consequence of convergence at a d_tol stop: the last row K
    # has d_norm <= d_tol, so residual_bound allows it a residual of at most
    # b_K * d_tol; cauchy_tail allows ten times that.
    b_last = consts.beta + consts.lipschitz * _extrapolation(trace.records[-1])
    reports.append(check_cauchy(trace, 10.0 * b_last * max(stop.d_tol, 1e-300)))
    return reports, consts, k_stab


def write_report(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
