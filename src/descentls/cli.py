"""Command-line front end: instance generation, solver runs, comparison, verification.

Commands: gen, run, run-plain, compare, verify.  Exit codes: 0 = success
and all checks pass, 1 = a verification check failed, 2 = usage or I/O
error, or an input on which the objective is not finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics
from .driver import (
    TRACE_COLUMNS,
    IterationRecord,
    LineSearchParams,
    NonFiniteObjective,
    RunTrace,
    StopCriteria,
    iterations_to_tolerance,
    read_trace_records,
    run,
    write_trace,
)
from .instances import InstanceSpec, generate_instance
from .linalg import load_matrix, load_vector, save_matrix, save_vector
from .objectives import L0LeastSquares, SmoothQuadratic
from .steps import DEFAULT_H_FACTOR, ProxGradientStep

DEFAULT_SPEC = InstanceSpec(rows=32, cols=64, sparsity=4, noise_sigma=0.01, seed=42)
# compare.json counts each variant's iterations to this step length ||d||.
COMPARE_TOL = 1e-6


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", type=int, default=DEFAULT_SPEC.rows)
    p.add_argument("--cols", type=int, default=DEFAULT_SPEC.cols)
    p.add_argument("--sparsity", type=int, default=DEFAULT_SPEC.sparsity)
    p.add_argument("--noise", type=float, default=DEFAULT_SPEC.noise_sigma)
    p.add_argument("--seed", type=int, default=DEFAULT_SPEC.seed)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="l0 regularization weight (must be > 0)")
    p.add_argument("--h-factor", type=float, default=DEFAULT_H_FACTOR,
                   help="step parameter h as a multiple of ||A||^2 (must be > 1)")
    p.add_argument("--alpha", type=float, default=LineSearchParams.alpha)
    p.add_argument("--eta", type=float, default=LineSearchParams.eta)
    p.add_argument("--cap-m", type=int, default=LineSearchParams.cap)
    p.add_argument("--max-iters", type=int, default=StopCriteria.max_iters)
    p.add_argument("--d-tol", type=float, default=StopCriteria.d_tol)
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="descentls",
                                     description="l0-regularized least squares via IHT with Armijo extrapolation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance and write A.csv, b.csv, x_star.csv")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    for name, func, help_text in [
        ("run", cmd_run, "run IHT with line search, write trace.csv and verify.json"),
        ("run-plain", functools.partial(cmd_run, plain=True),
         "run plain IHT, write plain_trace.csv and verify.json"),
        ("compare", cmd_compare, "run both variants from x0 = 0, write traces and compare.json"),
        ("verify", cmd_verify, "check a trace CSV against its instance and configuration"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--matrix", type=Path, help="CSV file with the measurement matrix A")
        p.add_argument("--rhs", type=Path, help="CSV file with the data vector b")
        _add_generator_flags(p)
        _add_solver_flags(p)
        if name == "verify":
            p.add_argument("--trace", type=Path, required=True)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: building one costs
    about 2 ms, and parsing with it leaves it unchanged."""
    return build_parser()


@dataclass
class Problem:
    step: ProxGradientStep
    params: LineSearchParams
    stop: StopCriteria
    x0: np.ndarray


def _spec(args) -> InstanceSpec:
    return InstanceSpec(rows=args.rows, cols=args.cols, sparsity=args.sparsity,
                        noise_sigma=args.noise, seed=args.seed)


def _build_problem(args) -> Problem:
    if (args.matrix is None) != (args.rhs is None):
        raise ValueError("--matrix and --rhs must be given together")
    # Checked before the costly set-up: the instance and its ||A||^2.
    params = LineSearchParams(alpha=args.alpha, eta=args.eta, cap=args.cap_m)
    stop = StopCriteria(max_iters=args.max_iters, d_tol=args.d_tol)
    spec = _spec(args)  # checked beside --matrix too, where it is otherwise unused
    norm_sq = None
    if args.matrix is not None:
        a, norm_sq = load_matrix(args.matrix)
        b = load_vector(args.rhs)
    else:
        a, b, _ = generate_instance(spec)
    quad = SmoothQuadratic.from_data(a, b, lipschitz=norm_sq)
    prob = L0LeastSquares(quad=quad, lam=args.lam)
    step = ProxGradientStep.default(prob, h_factor=args.h_factor)
    return Problem(step=step, params=params, stop=stop, x0=np.zeros(a.shape[1]))


def _verify_and_report(trace: RunTrace, problem: Problem, out_path: Path) -> bool:
    reports, consts, _ = diagnostics.run_diagnostics(trace, problem.step, problem.params, problem.stop)
    payload, text = diagnostics.summarize(reports, consts, trace.stop_reason)
    diagnostics.write_report(payload, out_path)
    print(text)
    return all(r.passed for r in reports)


def _first_difference(recorded: list[IterationRecord], recomputed: list[IterationRecord]) -> Optional[str]:
    """Describe the first row where a recorded trace departs from its rerun by
    a field's bits, or None.  (A NaN differs even from itself; a rerun records none.)"""
    cells = attrgetter(*TRACE_COLUMNS)
    for got, want in zip(recorded, recomputed):
        # -0.0 == 0.0, but their reprs differ.
        names = [n for n, a, b in zip(TRACE_COLUMNS, cells(got), cells(want))
                 if a != b or a == 0 and repr(a) != repr(b)]
        if names:
            got_values, want_values = ({n: getattr(r, n) for n in names} for r in (got, want))
            return f"row k={want.k}: {got_values} recorded vs {want_values} recomputed"
    if len(recorded) != len(recomputed):
        return f"expected {len(recomputed)} rows, trace has {len(recorded)}"
    return None


def cmd_gen(args) -> int:
    spec = _spec(args)
    a, b, x_star = generate_instance(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    save_matrix(a, args.out / "A.csv")
    save_vector(b, args.out / "b.csv")
    save_vector(x_star, args.out / "x_star.csv")
    print(f"wrote {args.out}/A.csv ({spec.rows}x{spec.cols}), b.csv, x_star.csv (seed {spec.seed})")
    return 0


def cmd_run(args, plain: bool = False) -> int:
    problem = _build_problem(args)
    args.out.mkdir(parents=True, exist_ok=True)
    trace = run(problem.x0, problem.step, None if plain else problem.params, problem.stop)
    trace_path = args.out / ("plain_trace.csv" if plain else "trace.csv")
    write_trace(trace, trace_path)
    ok = _verify_and_report(trace, problem, args.out / "verify.json")
    print(f"stop={trace.stop_reason.value} iterations={len(trace.records)} "
          f"final_phi={trace.final_phi:.12g} trace={trace_path}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    problem = _build_problem(args)
    args.out.mkdir(parents=True, exist_ok=True)
    plain_trace = run(problem.x0, problem.step, None, problem.stop)
    ls_trace = run(problem.x0, problem.step, problem.params, problem.stop)
    write_trace(plain_trace, args.out / "plain_trace.csv")
    write_trace(ls_trace, args.out / "search_trace.csv")
    summary = {
        "plain_iters": iterations_to_tolerance(plain_trace, COMPARE_TOL),
        "ls_iters": iterations_to_tolerance(ls_trace, COMPARE_TOL),
        "plain_final_phi": plain_trace.final_phi,
        "ls_final_phi": ls_trace.final_phi,
        "seed": args.seed if args.matrix is None else None,
    }
    diagnostics.write_report(summary, args.out / "compare.json")
    print(json.dumps(summary))
    return 0


def cmd_verify(args) -> int:
    loaded = read_trace_records(args.trace)
    if not loaded:
        raise ValueError(f"{args.trace}: trace is empty")
    problem = _build_problem(args)
    plain = loaded[0].m_k is None and loaded[0].eta_k is None
    fresh = run(problem.x0, problem.step, None if plain else problem.params, problem.stop)
    args.out.mkdir(parents=True, exist_ok=True)
    if (difference := _first_difference(loaded, fresh.records)) is not None:
        print(f"FAIL trace_integrity: {difference}")
        diagnostics.write_report({"trace_integrity": {"passed": False, "note": difference}},
                                 args.out / "verify.json")
        return 1
    print("PASS trace_integrity")
    ok = _verify_and_report(fresh, problem, args.out / "verify.json")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, NonFiniteObjective) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
