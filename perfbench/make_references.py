#!/usr/bin/env python3
"""Write references.json: each pool instance's final objectives at this commit.

    python3 perfbench/make_references.py

The benchmark fails an operation whose final objective exceeds its
reference by more than measure.REF_RTOL.  Rerun this only to re-anchor the
references on purpose, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import HERE, prepare


def main() -> int:
    prepare()
    import measure
    from descentls.instances import InstanceSpec, generate_instance
    from workloads import NOISE, WORKLOADS

    refs = {}
    for w in WORKLOADS.values():
        refs[w.name] = {}
        for pool, held_out in (("default", False), ("held-out", True)):
            entries = {}
            for seed in w.pool_seeds(held_out):
                a, b, _ = generate_instance(InstanceSpec(w.rows, w.cols, w.sparsity, NOISE, seed))
                step = measure.setup(measure.Instance(seed, a, b, 0.0, {}))
                traces = [measure.solve(variant, step) for variant in measure.VARIANTS]
                for t in traces:
                    if t.stop_reason is not measure.StopReason.D_TOL:
                        print(f"{w.name} {seed}: stopped by {t.stop_reason.value}", file=sys.stderr)
                entries[str(seed)] = [t.final_phi for t in traces]
            refs[w.name][pool] = entries
            print(f"{w.name} {pool}: {len(entries)} instances", file=sys.stderr)
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
