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

from .linalg import aligned_empty, require_integer


class SeededStream:
    """Deterministic random stream: PCG64 uniforms + explicit Box-Muller."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, n: int) -> np.ndarray:
        return self._rng.random(n)

    def normal(self, n: int) -> np.ndarray:
        """Return n standard normal deviates on a 64-byte boundary (`aligned_empty`).

        Box-Muller on m = ceil(n/2) pairs: u1 is drawn first, then u2, and
        r = sqrt(-2 log(1 - u1)), theta = 2 pi u2.  The deviates are
        r cos(theta) for the m pairs followed by r sin(theta), cut to n.
        They are built in one 2m-long buffer: u1 is drawn into its second
        half and becomes r there, u2 becomes theta in a half-size buffer,
        and cos(theta) r and sin(theta) r are written over the two halves.
        So the peak is 1.5 times the result's bytes.
        """
        m = (n + 1) // 2
        z = aligned_empty((2 * m,))
        head, r = z[:m], z[m:]
        self._rng.random(out=r)
        np.subtract(1.0, r, out=r)  # (0, 1]: keeps the log finite
        np.log(r, out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        theta = self.uniform(m)
        np.multiply(theta, 2.0 * np.pi, out=theta)
        np.cos(theta, out=head)
        head *= r
        np.sin(theta, out=theta)
        r *= theta
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
        for name in ("rows", "cols", "sparsity", "seed"):
            require_integer(name, getattr(self, name))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be at least 1")
        if not 0 <= self.sparsity <= self.cols:
            raise ValueError("sparsity must lie in [0, cols]")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def generate_instance(spec: InstanceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (A, b, x_star) deterministically from the spec's seed.

    A has i.i.d. standard normal entries scaled by 1/sqrt(rows); x_star
    has `sparsity` entries equal to +-1 at seeded-uniform positions;
    b = A x_star + noise_sigma * standard normal noise.  A is the buffer
    `SeededStream.normal` returns, scaled in place, so it starts on a
    64-byte boundary (`linalg.aligned_empty`) and generation peaks at A
    plus one half-size buffer.
    """
    stream = SeededStream(spec.seed)
    a = stream.normal(spec.rows * spec.cols).reshape(spec.rows, spec.cols)
    np.divide(a, np.sqrt(spec.rows), out=a)
    x_star = np.zeros(spec.cols)
    pos = stream.indices(spec.cols, spec.sparsity)
    x_star[pos] = stream.signs(spec.sparsity)
    b = a @ x_star
    if spec.noise_sigma > 0:
        b = b + spec.noise_sigma * stream.normal(spec.rows)
    return a, b, x_star
