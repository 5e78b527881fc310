"""One benchmark run: timed library solves and CLI round trips, all checked.

A run fixes its instances from the seed, then makes passes over them until
the time is up (the first pass always completes).  In each pass every
instance is set up and solved with and without the search; the first
`n_cli` instances also go through `gen -> run -> verify -> compare` on CSV
files.  A timing metric is the median over instances of each instance's
median over passes, each timing scaled by the `SpeedProbe` taken just
before it.

With tracing on, each library solve is made twice, plain and instrumented,
and the two traces must agree bit for bit; CLI commands run under the
profile hook, so every timing of a traced run carries tracing cost and only
the per-layer metrics are reported from it.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from descentls import cli, diagnostics
from descentls.driver import ARMIJO_FAILED, LineSearchParams, StopCriteria, StopReason, run, run_plain
from descentls.instances import InstanceSpec, generate_instance
from descentls.objectives import L0LeastSquares, SmoothQuadratic
from descentls.steps import IHTStep

from tracing import Tracer, instrument
from workloads import ALPHA, CAP, D_TOL, ETA, H_FACTOR, LAM, MAX_ITERS, NOISE, Workload

PARAMS = LineSearchParams(alpha=ALPHA, eta=ETA, cap=CAP)
STOP = StopCriteria(max_iters=MAX_ITERS, d_tol=D_TOL)
SOLVER_FLAGS = ["--lambda", repr(LAM), "--h-factor", repr(H_FACTOR), "--alpha", repr(ALPHA),
                "--eta", repr(ETA), "--cap-m", str(CAP), "--max-iters", str(MAX_ITERS),
                "--d-tol", repr(D_TOL)]

# A final objective may exceed the reference commit's by this relative amount.
REF_RTOL = 1e-9

# Root span of each library solve.
VARIANTS = {"search": "driver.run", "plain": "driver.run_plain"}
CLI_COMMANDS = ("gen", "run", "verify", "compare")

pc = time.perf_counter


@dataclass
class Instance:
    seed: int
    A: np.ndarray
    b: np.ndarray
    lam_max: float              # exact lambda_max(A.T A), from the smaller Gram matrix
    ref: dict[str, float]       # final objective per variant at the reference commit


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


class SpeedProbe:
    """A fixed kernel timed before each timed call, to follow the machine's speed.

    On a 2-core Xeon VM (KVM), the same code ran up to 1.6 times slower
    for minutes at a time, and every metric of a run moved together.  Scaling each timing by a probe taken just before it removed
    most of that drift.  The kernel is the benchmark's own few thresholded
    gradient steps on a random matrix of the workload's shape, so it is
    Python-bound at 32x64 and matvec-bound at 1024x2048, like the program.
    """

    # A probe older than this is taken again; below it, short calls share one.
    MAX_AGE_S = 0.25

    def __init__(self, workload: Workload):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((workload.rows, workload.cols)) / math.sqrt(workload.rows)
        self.rhs = rng.standard_normal(workload.rows)
        self.iters = workload.probe_iters
        self.reference_s = workload.probe_reference_s
        self.times: list[float] = []
        self._taken = -math.inf

    def _kernel(self) -> float:
        x = np.zeros(self.matrix.shape[1])
        acc = 0.0
        for _ in range(self.iters):
            r = self.matrix @ x - self.rhs
            z = x - 0.5 * (self.matrix.T @ r)
            x = np.where(np.abs(z) >= 0.05, z, 0.0)
            acc += float(r @ r)
        return acc

    def scale(self) -> float:
        """reference_s over the best of three probe times, taken again when stale."""
        if pc() - self._taken > self.MAX_AGE_S:
            best = math.inf
            for _ in range(3):
                t0 = pc()
                self._kernel()
                best = min(best, pc() - t0)
            self.times.append(best)
            self._taken = pc()
        return self.reference_s / self.times[-1]


class Samples:
    """Timings keyed by metric, then by instance seed, one entry per pass.

    `by_metric` holds seconds times the probe's scale (seconds at the
    reference speed); `raw` holds the wall-clock seconds.
    """

    def __init__(self):
        self.by_metric: dict[str, dict[int, list[float]]] = {}
        self.raw: dict[str, dict[int, list[float]]] = {}

    def add(self, metric: str, seed: int, seconds: float, scale: float) -> None:
        self.raw.setdefault(metric, {}).setdefault(seed, []).append(seconds)
        self.by_metric.setdefault(metric, {}).setdefault(seed, []).append(seconds * scale)

    def raw_per_instance(self, metric: str) -> dict[int, float]:
        return {s: statistics.median(v) for s, v in self.raw[metric].items()}


def median_of_instances(per_seed: dict[int, list[float]]) -> tuple[float, int]:
    """Median over instances of each instance's median; and the instance count."""
    return statistics.median(statistics.median(v) for v in per_seed.values()), len(per_seed)


def setup(inst: Instance) -> IHTStep:
    """From (A, b) in memory to a ready step: the span that setup_s times."""
    quad = SmoothQuadratic.from_data(inst.A, inst.b)
    return IHTStep.default(L0LeastSquares(quad=quad, lam=LAM), h_factor=H_FACTOR)


def solve(variant: str, step: IHTStep):
    x0 = np.zeros(step.prob.quad.A.shape[1])
    if variant == "search":
        return run(x0, step, PARAMS, STOP)
    return run_plain(x0, step, STOP)


def search_counts(trace) -> tuple[int, int, int]:
    """(searches, failed searches, trial evaluations) read from the m_k column.

    A search runs when d_norm > 0 and evaluates m + 1 trials, cap + 1 when
    it fails.  Plain runs have no m_k and count nothing.
    """
    searches = failed = trials = 0
    for r in trace.records:
        if r.m_k is None or r.d_norm == 0.0:
            continue
        searches += 1
        if r.m_k == ARMIJO_FAILED:
            failed += 1
            trials += CAP + 1
        else:
            trials += r.m_k + 1
    return searches, failed, trials


def same_run(a, b) -> bool:
    """Bit-for-bit equal records (repr tells -0.0 from 0.0), final x and stop."""
    return (repr([astuple(r) for r in a.records]) == repr([astuple(r) for r in b.records])
            and a.final_x.tobytes() == b.final_x.tobytes()
            and a.stop_reason is b.stop_reason)


def objective_problems(inst: Instance, variant: str, phi: float) -> list[str]:
    ref = inst.ref[variant]
    if phi <= ref * (1.0 + REF_RTOL):
        return []
    return [f"{variant} final objective {phi!r} above the reference {ref!r}"]


def solve_problems(inst: Instance, variant: str, step: IHTStep, trace) -> list[str]:
    problems = []
    if trace.stop_reason is not StopReason.D_TOL:
        problems.append(f"stopped by {trace.stop_reason.value}")
    reports, _, _ = diagnostics.run_diagnostics(trace, step, PARAMS, STOP)
    problems += [f"diagnostic {r.name} failed" for r in reports if not r.passed]
    return problems + objective_problems(inst, variant, trace.final_phi)


def cli_problems(command: str, rc: int, output: str, inst: Instance, out_dir: Path) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {output.strip().splitlines()[-1:]}"]
    lines = output.splitlines()
    if command == "run" and not any(line.startswith("stop=d_tol ") for line in lines):
        return ["run did not stop on d_tol"]
    if command == "verify":
        missing = {"PASS trace_integrity", "stop_reason: d_tol"} - set(lines)
        return [f"verify did not print {sorted(missing)}"] if missing else []
    if command == "compare":
        summary = json.loads((out_dir / "compare" / "compare.json").read_text())
        return (objective_problems(inst, "search", summary["ls_final_phi"])
                + objective_problems(inst, "plain", summary["plain_final_phi"]))
    return []


def cli_commands(rows: int, cols: int, sparsity: int, seed: int, d: Path) -> dict[str, list[str]]:
    data = ["--matrix", str(d / "A.csv"), "--rhs", str(d / "b.csv")]
    return {
        "gen": ["gen", "--rows", str(rows), "--cols", str(cols), "--sparsity", str(sparsity),
                "--noise", repr(NOISE), "--seed", str(seed), "--out", str(d)],
        "run": ["run", *data, *SOLVER_FLAGS, "--out", str(d / "run")],
        # verify writes verify.json into --out but does not create it; gen did.
        "verify": ["verify", *data, *SOLVER_FLAGS, "--trace", str(d / "run" / "trace.csv"),
                   "--out", str(d)],
        "compare": ["compare", *data, *SOLVER_FLAGS, "--out", str(d / "compare")],
    }


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def warm_up(work: Path) -> None:
    """Load lazy imports and fill caches on a tiny instance, untimed and unchecked."""
    a, b, _ = generate_instance(InstanceSpec(8, 16, 2, NOISE, 0))
    step = setup(Instance(0, a, b, 0.0, {}))
    for variant in VARIANTS:
        solve(variant, step)
    for argv in cli_commands(8, 16, 2, 0, work / "warm_up").values():
        call_cli(argv)


class Bench:
    def __init__(self, workload: Workload, seeds: list[int], refs: dict, work: Path, traced: bool):
        self.workload = workload
        self.work = work
        self.tracer = Tracer() if traced else None
        self.tally = Tally()
        self.samples = Samples()
        self.probe = SpeedProbe(workload)
        self.solve_stats: dict[tuple[int, str], dict] = {}
        self.overhead: dict[int, list[float]] = {}  # traced / untraced solve time - 1
        self.instances = [self._load(seed, refs[str(seed)]) for seed in seeds]

    def _load(self, seed: int, ref: list[float]) -> Instance:
        w = self.workload
        spec = InstanceSpec(w.rows, w.cols, w.sparsity, NOISE, seed)
        if self.tracer is None:
            a, b, _ = generate_instance(spec)
        else:
            self.tracer.current_instance = seed
            with self.tracer.profile():
                a, b, _ = generate_instance(spec)
        gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
        lam_max = float(np.linalg.eigvalsh(gram)[-1])
        return Instance(seed, a, b, lam_max, {"search": ref[0], "plain": ref[1]})

    def measure(self, seconds: float) -> int:
        """Make passes until `seconds` have gone by; return the passes begun."""
        items = [(self.lib_pass, inst) for inst in self.instances]
        items += [(self.cli_pass, inst) for inst in self.instances[:self.workload.n_cli]]
        deadline = pc() + seconds
        passes = 0
        while passes == 0 or pc() < deadline:
            for item, inst in items:
                if passes > 0 and pc() >= deadline:
                    break
                try:
                    item(inst)
                except Exception as exc:  # the program raised: a failed operation, not a crashed run
                    self.tally.check(f"{item.__name__} {inst.seed}", [f"raised {exc!r}"])
            passes += 1
        return passes

    def _timed(self, metric: str, seed: int, fn, *args):
        """Call fn(*args), record its scaled time; return (result, wall seconds)."""
        scale = self.probe.scale()
        t0 = pc()
        result = fn(*args)
        seconds = pc() - t0
        self.samples.add(metric, seed, seconds, scale)
        return result, seconds

    def lib_pass(self, inst: Instance) -> None:
        times = {}
        step, times["setup_s"] = self._timed("setup_s", inst.seed, setup, inst)
        traces = {}
        for variant in VARIANTS:
            metric = f"{variant}_solve_s"
            traces[variant], times[metric] = self._timed(metric, inst.seed, solve, variant, step)
        lipschitz = step.prob.quad.lipschitz
        self.tally.check(f"setup {inst.seed}", [] if lipschitz >= inst.lam_max else [
            f"||A||^2 estimate {lipschitz!r} below the exact lambda_max {inst.lam_max!r}"])
        for variant, trace in traces.items():
            self.tally.check(f"{variant} {inst.seed}", solve_problems(inst, variant, step, trace))
        if self.tracer is not None:
            self._traced_lib_pass(inst, traces, times)

    def _traced_lib_pass(self, inst: Instance, untraced: dict, times: dict) -> None:
        tr = self.tracer
        tr.current_instance = inst.seed
        with tr.span("setup"), tr.profile():
            step = setup(inst)
        step, counts = instrument(step, tr)
        traced_s = 0.0
        for variant, root in VARIANTS.items():
            before = dict(counts)
            with tr.span(root) as sid:
                trace = solve(variant, step)
            traced_s += tr.end[sid] - tr.start[sid]
            n = {k: counts[k] - before[k] for k in counts}
            searches, failed, trials = search_counts(trace)
            iters = len(trace.records)
            expected_values = 2 * iters + trials + 1  # phi_x, phi_y, trials; final_phi
            problems = []
            if not same_run(trace, untraced[variant]):
                problems.append("traced records differ from the untraced run")
            if n["value"] != expected_values:
                problems.append(f"{n['value']} objective evaluations counted, m_k implies {expected_values}")
            self.tally.check(f"traced {variant} {inst.seed}", problems)
            self.solve_stats[inst.seed, variant] = dict(
                iters=iters, A=n["A"], AT=n["AT"], value=n["value"],
                searches=searches, failed=failed, trials=trials)
        untraced_s = times["search_solve_s"] + times["plain_solve_s"]
        self.overhead.setdefault(inst.seed, []).append(traced_s / untraced_s - 1.0)

    def cli_pass(self, inst: Instance) -> None:
        d = self.work / str(inst.seed)
        w = self.workload
        for command, argv in cli_commands(w.rows, w.cols, w.sparsity, inst.seed, d).items():
            if self.tracer is None:
                (rc, output), _ = self._timed(f"cli_{command}_s", inst.seed, call_cli, argv)
            else:
                self.tracer.current_instance = inst.seed
                with self.tracer.span(f"cli.{command}"), self.tracer.profile():
                    rc, output = call_cli(argv)
            self.tally.check(f"cli {command} {inst.seed}", cli_problems(command, rc, output, inst, d))

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Metric -> (value, instance count)."""
        out = {}
        for metric in ("setup_s", "search_solve_s", "plain_solve_s",
                       *(f"cli_{c}_s" for c in CLI_COMMANDS)):
            out[metric] = median_of_instances(self.samples.by_metric[metric])
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        out["ok_frac"] = ((self.tally.attempted - self.tally.failed) / self.tally.attempted,
                          self.tally.attempted)
        return out

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """Metric -> (value, sample count); see README.md for each definition."""
        spans = SpanTable(self.tracer)
        w = self.workload
        out = {}
        for metric, name in [
            ("instances.generate_s", "instances.generate_instance"),
            ("linalg.spectral_norm_s", "linalg.spectral_norm_sq"),
            ("linalg.load_matrix_s", "linalg.load_matrix"),
            ("linalg.save_matrix_s", "linalg.save_matrix"),
            ("driver.trace_write_s", "driver.write_trace"),
            ("driver.trace_read_s", "driver.read_trace_records"),
            ("diagnostics.run_s", "diagnostics.run_diagnostics"),
            ("diagnostics.decrease_s", "diagnostics.check_sufficient_decrease"),
            ("diagnostics.support_s", "diagnostics.check_support"),
            ("diagnostics.residual_bound_s", "diagnostics.check_residual_bound"),
            ("diagnostics.cauchy_s", "diagnostics.check_cauchy"),
        ]:
            calls = spans.durations(name)
            out[metric] = (float(np.median(calls)), len(calls))
        for variant, root in VARIANTS.items():
            out[f"objectives.value_s.{variant}"] = median_of_instances(spans.per_root(root, "objectives.value"))
            out[f"objectives.residual_s.{variant}"] = median_of_instances(spans.per_root(root, "objectives.residual"))
            out[f"steps.apply_s.{variant}"] = median_of_instances(spans.per_root(root, "steps.apply"))
            out[f"driver.self_s.{variant}"] = median_of_instances(spans.per_root(root))
            rows = [s for (_, v), s in self.solve_stats.items() if v == variant]
            total = {k: sum(r[k] for r in rows) for k in rows[0]}
            n = len(rows)
            out[f"driver.iters.{variant}"] = (statistics.median(r["iters"] for r in rows), n)
            out[f"linalg.matvecs_A_per_iter.{variant}"] = (total["A"] / total["iters"], n)
            out[f"linalg.matvecs_AT_per_iter.{variant}"] = (total["AT"] / total["iters"], n)
            out[f"linalg.bytes_per_iter.{variant}"] = (
                8.0 * w.rows * w.cols * (total["A"] + total["AT"]) / total["iters"], n)
            out[f"objectives.value_calls_per_iter.{variant}"] = (total["value"] / total["iters"], n)
            if variant == "search":
                out["driver.search_trials_per_iter"] = (total["trials"] / total["iters"], n)
                out["driver.search_failed_frac"] = (total["failed"] / total["searches"], n)
                out["driver.search_useful_frac"] = (
                    (total["searches"] - total["failed"]) / total["trials"], n)
        for command in ("run", "verify", "compare"):
            out[f"cli.self_s.{command}"] = median_of_instances(spans.per_root(f"cli.{command}"))
        search = self.samples.raw_per_instance("search_solve_s")
        plain = self.samples.raw_per_instance("plain_solve_s")
        ratios = [search[s] / plain[s] for s in search]
        out["driver.search_over_plain"] = (statistics.median(ratios), len(ratios))
        out["driver.search_win_frac"] = (sum(r < 1.0 for r in ratios) / len(ratios), len(ratios))
        out["trace.overhead_frac"] = median_of_instances(self.overhead)
        return out


class SpanTable:
    """Durations, self times and top-level roots of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = cols["name"]
        self.instance = cols["instance"]
        self.dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        n = len(self.dur)
        self.top_level = ~has_parent
        self.self_time = self.dur - np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=n)
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        self.root = root

    def _mask(self, name: str) -> np.ndarray:
        return self.name == self._ids.get(name, -1)

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def per_root(self, root_name: str, name: str | None = None) -> dict[int, list[float]]:
        """Per instance, one entry per top-level span `root_name`: the summed
        duration of its descendants called `name`, or its own self time.

        Only top-level spans count: the library solves are top-level
        `driver.run` spans, the CLI's own calls to it are nested in `cli.*`.
        """
        roots = np.flatnonzero(self._mask(root_name) & self.top_level)
        if name is None:
            totals = self.self_time[roots]
        else:
            sel = self._mask(name)
            totals = np.bincount(self.root[sel], weights=self.dur[sel], minlength=len(self.dur))[roots]
        out: dict[int, list[float]] = {}
        for seed, total in zip(self.instance[roots].tolist(), totals.tolist()):
            out.setdefault(seed, []).append(total)
        return out


def environment(blas_env: tuple[str, ...]) -> dict:
    """What a comparison between two commits must hold fixed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in blas_env},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cpu_caches(),
    }


def _blas_threads():
    """The thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches
