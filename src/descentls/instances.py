"""Seeded random instance generation for sparse-recovery experiments.

All randomness flows through a single documented construction so that
instances are reproducible bit-for-bit from the seed alone: a PCG64
uniform stream, Box-Muller for normal deviates (no ziggurat), and a
partial Fisher-Yates shuffle for index selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import aligned_empty


class SeededStream:
    """Deterministic random stream: PCG64 uniforms + explicit Box-Muller."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, n: int) -> np.ndarray:
        return self._rng.random(n)

    def normal(self, n: int) -> np.ndarray:
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform(m)  # (0, 1]: keeps the log finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:n]

    def indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n) via partial Fisher-Yates."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        pool = np.arange(n)
        u = self.uniform(k)
        for i in range(k):
            j = i + int(u[i] * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        return np.sort(pool[:k])

    def signs(self, n: int) -> np.ndarray:
        return np.where(self.uniform(n) < 0.5, -1.0, 1.0)


@dataclass(frozen=True)
class InstanceSpec:
    rows: int
    cols: int
    sparsity: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be at least 1")
        if not 0 <= self.sparsity <= self.cols:
            raise ValueError("sparsity must lie in [0, cols]")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be nonnegative and finite")


def generate_instance(spec: InstanceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (A, b, x_star) deterministically from the spec's seed.

    A has i.i.d. standard normal entries scaled by 1/sqrt(rows); x_star
    has `sparsity` entries equal to +-1 at seeded-uniform positions;
    b = A x_star + noise_sigma * standard normal noise.  A starts on a
    64-byte boundary (`linalg.aligned_empty`).
    """
    stream = SeededStream(spec.seed)
    z = stream.normal(spec.rows * spec.cols).reshape(spec.rows, spec.cols)
    a = np.divide(z, np.sqrt(spec.rows), out=aligned_empty(z.shape))
    x_star = np.zeros(spec.cols)
    pos = stream.indices(spec.cols, spec.sparsity)
    x_star[pos] = stream.signs(spec.sparsity)
    b = a @ x_star
    if spec.noise_sigma > 0:
        b = b + spec.noise_sigma * stream.normal(spec.rows)
    return a, b, x_star
