#!/usr/bin/env python3
"""descentls benchmark: time to d_tol, set-up time and the CLI round trip.

Run from the repository root:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the spans to perfbench/_out/<workload>.spans.npz).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json; perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# One BLAS thread: the plain single-threaded baseline.  Timings at 1024x2048
# differ about twofold between 1 and 2 threads, so both sides of a
# comparison must use the same setting, and this 2-core box has no core to
# spare for a second thread without contention.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put this checkout's descentls first on the path.

    Must run before numpy is imported.
    """
    if not (SRC / "descentls" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'descentls'}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw instances from the held-out pool, for re-checking a claim")
    args = parser.parse_args(argv)
    try:
        prepare()
        import measure
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        refs = json.loads((HERE / "references.json").read_text())
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    pool = "held-out" if args.held_out else "default"
    seeds = workload.instance_seeds(args.seed, held_out=args.held_out)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        measure.warm_up(Path(work))
        bench = measure.Bench(workload, seeds, refs[workload.name][pool], Path(work), bool(args.trace))
        passes = bench.measure(args.seconds)
    values = bench.per_layer() if args.trace else bench.end_to_end()
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(m['name'] for m in wanted)}",
              file=sys.stderr)
        return 1
    if args.trace:
        bench.tracer.save(OUT / f"{workload.name}.spans.npz", t0)

    tally = bench.tally
    env = measure.environment(BLAS_ENV)
    print(f"# workload {workload.name} ({workload.rows}x{workload.cols}, "
          f"A {workload.rows * workload.cols * 8 / 2**20:g} MiB, sparsity {workload.sparsity}), "
          f"seed {args.seed}, {pool} pool, trace {args.trace}, {passes} passes in {args.seconds:g} s")
    print(f"# instance seeds {seeds}, CLI on the first {workload.n_cli}")
    print(f"# environment {json.dumps(env)}")
    probe_s = statistics.median(bench.probe.times)
    print(f"# speed probe: median {probe_s * 1e3:.3f} ms over {len(bench.probe.times)} probes, reference "
          f"{workload.probe_reference_s * 1e3:.3f} ms; timings are seconds at the reference speed")
    for m in wanted:
        value, n = values[m["name"]]
        print(f"{m['name']:<40} {value:>14.6g} {m['unit']:<10} (n={n})")
    for message in tally.messages:
        print(f"# FAIL {message}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail = {"workload": workload.name, "seed": args.seed, "pool": pool, "trace": args.trace,
              "seconds": args.seconds, "passes": passes, "instance_seeds": seeds,
              "environment": env, "samples": {k: v[1] for k, v in values.items()},
              "speed_probe_s": {"reference": workload.probe_reference_s, "median": probe_s},
              "unscaled_s": {k: measure.median_of_instances(v)[0] for k, v in bench.samples.raw.items()},
              "failures": tally.messages, "result": result}
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
