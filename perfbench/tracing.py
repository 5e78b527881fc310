"""Spans and counters recorded from outside the program.

Nothing here edits descentls.  Spans come from two places:

- `Tracer.span` around calls the benchmark makes itself, and the
  instrumented subclasses below around `value`, `residual` and `apply`;
- `Tracer.profile`, a `sys.setprofile` hook that opens a span whenever one
  of the public functions in `watched_functions` is entered.  It is only
  switched on around set-up, instance generation and CLI commands: the hook
  runs on every Python call, which would dominate a 32x64 solve.

The subclasses keep the real types (an instrumented step is still an
`IHTStep`, its objective still an `L0LeastSquares`), so the program's
`isinstance` dispatch and its traces are unchanged.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from descentls import diagnostics, driver, instances, linalg, objectives, steps
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import IHTStep


def watched_functions() -> dict[str, object]:
    """Span name -> public function whose calls the profile hook records."""
    return {
        "instances.generate_instance": instances.generate_instance,
        "linalg.spectral_norm_sq": linalg.spectral_norm_sq,
        "linalg.load_matrix": linalg.load_matrix,
        "linalg.load_vector": linalg.load_vector,
        "linalg.save_matrix": linalg.save_matrix,
        "linalg.save_vector": linalg.save_vector,
        "objectives.SmoothQuadratic.from_data": objectives.SmoothQuadratic.from_data.__func__,
        "steps.IHTStep.default": steps.IHTStep.default.__func__,
        "driver.run": driver.run,
        "driver.run_plain": driver.run_plain,
        "driver.iterations_to_tolerance": driver.iterations_to_tolerance,
        "driver.write_trace": driver.write_trace,
        "driver.read_trace_records": driver.read_trace_records,
        "driver.validate_records": driver.validate_records,
        "diagnostics.run_diagnostics": diagnostics.run_diagnostics,
        "diagnostics.check_sufficient_decrease": diagnostics.check_sufficient_decrease,
        "diagnostics.check_support": diagnostics.check_support,
        "diagnostics.check_residual_bound": diagnostics.check_residual_bound,
        "diagnostics.check_cauchy": diagnostics.check_cauchy,
        "diagnostics.summarize": diagnostics.summarize,
        "diagnostics.write_report": diagnostics.write_report,
    }


class Tracer:
    """In-memory spans: name, start, end, parent span and instance seed.

    A span's id is its index, assigned when it opens, so a parent's id is
    always below its children's.  Columns are compact arrays because a
    traced small_batch run holds several hundred thousand spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_instance = -1
        self._open: list[int] = []
        self._watch = {fn.__code__: name for name, fn in watched_functions().items()}

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        sid = len(self.start)
        self._open.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self) -> None:
        t = time.perf_counter()
        self.end[self._open.pop()] = t

    @contextmanager
    def span(self, name: str):
        """Open a span for the block; yields its id."""
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.finish()

    @contextmanager
    def profile(self):
        """Record a span for every call into a watched function."""
        watch = self._watch

        def hook(frame, event, arg):
            if event == "call":
                name = watch.get(frame.f_code)
                if name is not None:
                    self.begin(name)
            elif event == "return" and frame.f_code in watch:
                self.finish()

        sys.setprofile(hook)
        try:
            yield
        finally:
            sys.setprofile(None)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "instance": np.frombuffer(self.instance, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path, t0: float) -> None:
        """Write the spans as an .npz; times are seconds since `t0`."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), name=cols["name"], parent=cols["parent"],
                 instance=cols["instance"], start=cols["start"] - t0, end=cols["end"] - t0)


@dataclass(frozen=True)
class CountingQuadratic(SmoothQuadratic):
    """Counts products with A and A.T: `value` does one A, `grad` one of each."""

    counts: dict = field(default_factory=dict, compare=False)

    def value(self, x):
        self.counts["A"] += 1
        return super().value(x)

    def grad(self, x):
        self.counts["A"] += 1
        self.counts["AT"] += 1
        return super().grad(x)


@dataclass(frozen=True)
class TracedL0(L0LeastSquares):
    tracer: Tracer = field(default=None, compare=False)
    counts: dict = field(default_factory=dict, compare=False)

    def value(self, x):
        self.counts["value"] += 1
        self.tracer.begin("objectives.value")
        try:
            return super().value(x)
        finally:
            self.tracer.finish()

    def residual(self, x):
        self.tracer.begin("objectives.residual")
        try:
            return super().residual(x)
        finally:
            self.tracer.finish()


@dataclass(frozen=True)
class TracedIHT(IHTStep):
    tracer: Tracer = field(default=None, compare=False)

    def apply(self, x):
        self.tracer.begin("steps.apply")
        try:
            return super().apply(x)
        finally:
            self.tracer.finish()


def instrument(step: IHTStep, tracer: Tracer) -> tuple[IHTStep, dict]:
    """A copy of `step` with the same constants that counts and traces its calls."""
    counts = {"A": 0, "AT": 0, "value": 0}
    q = step.prob.quad
    quad = CountingQuadratic(A=q.A, b=q.b, lipschitz=q.lipschitz, counts=counts)
    prob = TracedL0(quad=quad, lam=step.prob.lam, zero_tol=step.prob.zero_tol,
                    tracer=tracer, counts=counts)
    return TracedIHT(prob=prob, h=step.h, tracer=tracer), counts
