"""The base iteration map x -> y: one forward-backward (proximal-gradient) step.

A step with parameter h decreases the objective by at least nu(h) * ||y - x||^2,
where the objective supplies nu(h), the only constant that differs between a
smooth and an l0 objective; h is admissible exactly when nu(h) > 0.  The
diagnostics derive the residual constant beta = h + L and the search
constants from the step and test them against the recorded trace rather
than trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objective

# Default h / L: a 1% margin over h = L, where the l0 nu(h) turns positive.
DEFAULT_H_FACTOR = 1.01


@dataclass(frozen=True)
class ProxGradientStep:
    """Forward-backward splitting: y = prox[x - (1/h) grad f(x)].

    The objective supplies grad and prox.  On a `SmoothQuadratic` the prox
    is the identity, which makes this gradient descent with step 1/h; on
    `L0LeastSquares` it is hard thresholding at the objective's
    `threshold(h)`, which makes this iterative hard thresholding (IHT).  An
    h is admissible exactly when the objective's decrease constant nu(h) is
    positive; `default` takes h = h_factor * L under that same rule.
    """

    prob: Objective
    h: float

    def __post_init__(self):
        if not math.isfinite(self.h):
            raise ValueError(f"h = {self.h} must be finite")
        nu = self.prob.nu(self.h)
        if not nu > 0:
            raise ValueError(f"h = {self.h} gives nu(h) = {nu} <= 0 at the Lipschitz constant {self.prob.lipschitz}")

    @classmethod
    def default(cls, prob: Objective, h_factor: float = DEFAULT_H_FACTOR) -> "ProxGradientStep":
        return cls(prob=prob, h=h_factor * prob.lipschitz)

    def apply_grad(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The step from x given g = grad f(x); no product with A."""
        return self.prob.prox(x - g / self.h, self.h)


# Iterative hard thresholding is this step on an `L0LeastSquares` objective.
IHTStep = ProxGradientStep
