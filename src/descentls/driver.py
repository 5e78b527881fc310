"""Capped Armijo extrapolation search and the iteration loop.

One iteration computes y = step.apply_grad(x, g) from the carried gradient
g = grad f(x), d = y - x, then searches for the smallest m in {0..cap} with

    Phi(y + eta^m d) <= Phi(y) - alpha * eta^m * ||d||^2

and extrapolates x_next = x + (eta_m + 1) d.  A failed search (no feasible
m up to the cap) sets eta = 0, so x_next = y and the run continues: failure
is a valid outcome, not termination.  A zero direction d = 0 is the
search's m = 0 outcome, whose trial is y itself, and costs no trial.
Without search parameters the same loop iterates the bare base step
(x_next = y) for comparison.

The gradient of x_next, which the row's residual needs, is kept for the
next iteration's base step, so each iteration evaluates the gradient once.
The objective's memo (`objectives.SmoothQuadratic`) serves Phi(x) from
grad(x), grad(y) on a plain row from Phi(y), and grad(x_next) from the
accepted trial when x_next has its bits.  So a plain iteration costs 1
product with A and 1 with A.T, and a run of iters rows makes iters + 1 of
each.  With the search an iteration makes 1 with A.T and at most
2 + trials with A: Phi(y), one Phi per Armijo trial, and grad(x_next).  A
run then makes at most 2 * iters + trials + 1 products with A and
iters + 1 with A.T.  The objective's `value` and `grad` are called
2 * iters + trials + 1 and iters + 1 times, whatever the memo serves.
Where the objective's support-column rule holds, a product with A reads
only the |S| columns of its point's support, and each trial's support lies
in supp(x) | supp(y).  Where the support is also small, the gradient
sums cached Gram columns A^T a_j over it instead of multiplying by A.T,
so the products with A.T are one for A^T b, on the objective's first such
gradient, and one per support index whose column is not cached (at most
m are kept; see `SmoothQuadratic`); each reads all of A.  Every other
gradient makes one product with A.T, which reads all of A.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Optional, get_args, get_type_hints

import numpy as np

from .linalg import require_integer
from .objectives import Objective
from .steps import ProxGradientStep

# Sentinel for a failed Armijo search (also its CSV encoding).
ARMIJO_FAILED = -1


class NonFiniteObjective(RuntimeError):
    """The objective evaluated to NaN/Inf during a run."""


@dataclass(frozen=True)
class LineSearchParams:
    alpha: float = 0.1
    eta: float = 0.5
    cap: int = 20

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        require_integer("cap", self.cap)
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")


@dataclass(frozen=True)
class StopCriteria:
    max_iters: int = 10_000
    d_tol: float = 1e-10

    def __post_init__(self):
        require_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.d_tol >= 0 and math.isfinite(self.d_tol)):
            raise ValueError("d_tol must be nonnegative and finite")


class StopReason(Enum):
    D_TOL = "d_tol"
    MAX_ITERS = "max_iters"


@dataclass(slots=True)
class IterationRecord:
    k: int
    phi_x: float
    phi_y: float
    d_norm: float
    m_k: Optional[int]        # None on plain runs, ARMIJO_FAILED on failure
    eta_k: Optional[float]    # None on plain runs, 0.0 on failure
    residual: float
    # Support of x^{k+1}, and indices entering / leaving it from x^k's;
    # None for smooth objectives.
    support_size: Optional[int]
    support_entered: Optional[int]
    support_left: Optional[int]


# The trace CSV has one column per record field, in field order.
TRACE_COLUMNS = [f.name for f in fields(IterationRecord)]
# (name, int or float, whether an empty cell reads as None) of each column.
_COLUMNS = [(name, (get_args(hint) or (hint,))[0], bool(get_args(hint)))
            for name, hint in get_type_hints(IterationRecord).items()]


@dataclass
class RunTrace:
    records: list[IterationRecord]
    final_x: np.ndarray
    stop_reason: StopReason
    final_phi: float


def armijo_search(
    obj: Objective,
    y: np.ndarray,
    d: np.ndarray,
    params: LineSearchParams,
    phi_y: float,
    d_sq: float,
) -> tuple[int, float]:
    """Smallest m in {0..cap} satisfying the Armijo condition at y along d,
    given phi_y = Phi(y) and d_sq = d.d.

    Returns (m, eta**m) after m + 1 objective evaluations, or
    (ARMIJO_FAILED, 0.0) after cap + 1 when no m up to the cap works, or
    (0, 1.0) with no evaluation when d is exactly zero: the m = 0 trial is
    then y itself and the test holds with equality.  The comparison is exact
    floating point, no slack.  A nonzero d whose accepted trial point
    equals y (t * d vanished against y, as it does for every larger m too)
    is a failure: the test then held only because nothing moved.
    """
    if y.shape != d.shape:
        raise ValueError("y and d must have the same length")
    if d_sq == 0.0 and not d.any():
        return 0, 1.0
    for m in range(params.cap + 1):
        t = params.eta ** m
        trial = y + t * d
        if obj.value(trial) <= phi_y - params.alpha * t * d_sq:
            if (trial == y).all():
                return ARMIJO_FAILED, 0.0
            return m, t
    return ARMIJO_FAILED, 0.0


def run(
    x0: np.ndarray,
    step: ProxGradientStep,
    params: Optional[LineSearchParams],
    stop: StopCriteria,
) -> RunTrace:
    """Iterate until a stop criterion fires; params=None runs the bare base step.

    The gradient, support mask and support size of each iterate are computed
    once and carried into the next iteration.  Raises NonFiniteObjective,
    naming the iteration, when Phi or d stops being finite.
    """
    obj = step.prob
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    # An overflow surfaces as NonFiniteObjective below; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        g = obj.grad(x)
        mask = obj.support_mask(x)
        size = None if mask is None else int(np.count_nonzero(mask))
        records: list[IterationRecord] = []
        reason = StopReason.MAX_ITERS
        for k in range(stop.max_iters):
            phi_x = obj.value(x)
            y = step.apply_grad(x, g)
            d = y - x
            d_sq = float(d.dot(d))
            d_norm = math.sqrt(d_sq)  # the bits of norm(d)
            phi_y = obj.value(y)
            if not (math.isfinite(phi_x) and math.isfinite(phi_y) and math.isfinite(d_norm)):
                raise NonFiniteObjective(
                    f"non-finite objective at iteration {k}: phi_x={phi_x}, phi_y={phi_y}")
            if params is None:
                m_k = eta_k = None
                x = y
            else:
                m_k, eta_k = armijo_search(obj, y, d, params, phi_y=phi_y, d_sq=d_sq)
                x = x + (eta_k + 1.0) * d
            g = obj.grad(x)
            mask_next = obj.support_mask(x)
            if mask_next is None:
                entered = left = None
            else:
                entered = int(np.count_nonzero(mask_next > mask))
                size_next = int(np.count_nonzero(mask_next))
                left = size + entered - size_next  # from size_next = size + entered - left
                size = size_next
            mask = mask_next
            residual = obj.residual_from_grad(g, mask)
            records.append(IterationRecord(k, phi_x, phi_y, d_norm, m_k, eta_k, residual, size, entered, left))
            if d_norm <= stop.d_tol:
                reason = StopReason.D_TOL
                break
        return RunTrace(records=records, final_x=x, stop_reason=reason, final_phi=obj.value(x))


def run_plain(x0: np.ndarray, step: ProxGradientStep, stop: StopCriteria) -> RunTrace:
    """Run the bare base step (no line search) with the same trace machinery."""
    return run(x0, step, None, stop)


def iterations_to_tolerance(trace: RunTrace, tol: float) -> Optional[int]:
    """First iteration index with d_norm <= tol, or None if never reached."""
    for record in trace.records:
        if record.d_norm <= tol:
            return record.k
    return None


def write_trace(trace: RunTrace, path) -> None:
    """Write the per-iteration trace as CSV.

    Floats carry 17 significant digits (lossless float64 round trip);
    m_k = -1 denotes a failed Armijo search; m_k/eta_k are empty on plain
    runs and the support columns are empty for smooth objectives.
    """
    cells = attrgetter(*TRACE_COLUMNS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        # csv writes None as an empty cell and an int in decimal.
        writer.writerows([format(v, ".17g") if type(v) is float else v for v in cells(r)]
                         for r in trace.records)


def read_trace_records(path) -> list[IterationRecord]:
    """Read records written by `write_trace` (fields round-trip bit-exactly).

    A wrong header is a ValueError naming the path; a row of the wrong
    length also names the row (counted from 0, like k), and a cell that
    does not read as its column's type the row and the column."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header: {header}")
        for i, row in enumerate(reader):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(TRACE_COLUMNS)}")
            values = []
            for cell, (name, cell_type, optional) in zip(row, _COLUMNS):
                try:
                    values.append(None if optional and cell == "" else cell_type(cell))
                except ValueError:
                    raise ValueError(f"{path}: row {i}, column {name}: cannot read {cell!r} "
                                     f"as {cell_type.__name__}") from None
            records.append(IterationRecord(*values))
    return records


def validate_records(records: list[IterationRecord], params: LineSearchParams) -> None:
    """Check structural invariants of a (possibly externally edited) trace.

    Raises ValueError on the first violated invariant: k contiguous from 0,
    d_norm finite and nonnegative, support counts nonnegative, m_k in
    0..cap with eta_k = eta^m_k exactly (the search computes it so), and
    eta_k = 0 exactly when the search failed.

    The CLI no longer calls it: its bit-exact rerun rejects every trace this
    rejects.  It stays while perfbench's `watched_functions` names it.
    """
    for i, r in enumerate(records):
        if r.k != i:
            raise ValueError(f"record {i} has k = {r.k}, expected {i}")
        if not (math.isfinite(r.d_norm) and r.d_norm >= 0.0):
            raise ValueError(f"record {i}: d_norm = {r.d_norm} is not finite and nonnegative")
        for name in ("support_size", "support_entered", "support_left"):
            count = getattr(r, name)
            if count is not None and count < 0:
                raise ValueError(f"record {i}: {name} = {count} is negative")
        if (r.m_k is None) != (r.eta_k is None):
            raise ValueError(f"record {i}: m_k and eta_k must both be present or both absent")
        if r.m_k is None:
            continue
        if r.m_k == ARMIJO_FAILED:
            if r.eta_k != 0.0:
                raise ValueError(f"record {i}: failed search must have eta_k = 0, got {r.eta_k}")
        else:
            if not 0 <= r.m_k <= params.cap:
                raise ValueError(f"record {i}: m_k = {r.m_k} outside 0..{params.cap}")
            if r.eta_k != params.eta ** r.m_k:
                raise ValueError(f"record {i}: eta_k = {r.eta_k} is not eta^m_k = {params.eta ** r.m_k}")
