"""Workload definitions, solver settings and the choice of instances per seed.

Every instance is `descentls.instances.generate_instance` of an
`InstanceSpec(rows, cols, sparsity, NOISE, instance_seed)`.  Each workload
draws its instance seeds from a fixed pool, so that references.json can
hold this program's final objectives for every instance a run can meet.
The default pool is used for every run; the held-out pool (`--held-out`)
is kept for re-checking a claim on instances no change was tuned on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Solver settings: the CLI defaults.
LAM = 0.01
H_FACTOR = 1.01
ALPHA = 0.1
ETA = 0.5
CAP = 20
MAX_ITERS = 10_000
D_TOL = 1e-10
NOISE = 0.01

HELD_OUT_BASE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    sparsity: int
    pool: int      # instance seeds 0..pool-1 (held out: HELD_OUT_BASE + 0..pool-1)
    n_lib: int     # instances per run solved through the library
    n_cli: int     # of those, how many also go through gen -> run -> verify -> compare
    probe_iters: int            # steps of the speed probe (measure.SpeedProbe), about 2 ms
    probe_reference_s: float    # its time on the reference machine, quiet
    why: str

    def pool_seeds(self, held_out: bool) -> list[int]:
        base = HELD_OUT_BASE if held_out else 0
        return [base + i for i in range(self.pool)]

    def instance_seeds(self, seed: int, held_out: bool = False) -> list[int]:
        """The run's instances, in the order a pass visits them."""
        return random.Random(seed).sample(self.pool_seeds(held_out), self.n_lib)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "small_batch", 32, 64, 4, pool=512, n_lib=64, n_cli=32,
            probe_iters=250, probe_reference_s=0.0016,
            why="many 32x64 instances: per-call Python overhead dominates, set-up is negligible",
        ),
        Workload(
            # The pool is the run: set-up time varies tenfold between
            # 1024x2048 instances (0.5 s to 4.8 s of power sweeps), so a
            # seed-chosen subset of a few would make every set-up-bound
            # metric unsteady.  The seed only orders the instances.
            "large_sparse", 1024, 2048, 8, pool=4, n_lib=4, n_cli=4,
            probe_iters=2, probe_reference_s=0.0027,
            why="1024x2048 (16 MiB, beyond L2): matvecs and the ||A||^2 set-up dominate, searches almost never fail",
        ),
        Workload(
            "cli_roundtrip", 256, 512, 32, pool=64, n_lib=24, n_cli=8,
            probe_iters=40, probe_reference_s=0.0020,
            why="256x512 through CSV gen, run, verify and compare: I/O, diagnostics and failed searches",
        ),
    ]
}
